"""Divisors of coordinate functions on a parametrized curve in the torus,
the constant-monomial (standing hypothesis) check, and enumeration of the
finite set of primitive characters whose restriction to the curve is a
power map up to a Moebius change of coordinate.

The rational places of a coordinate are the rational roots of its
numerator and denominator, lifted p-adically from roots modulo a small
prime (exactcore.rational_roots); only a place of degree >= 2 is found by
factoring, and so by sympy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from .errors import (
    AssumptionViolation,
    DomainError,
    ImproperParametrization,
    InvariantViolation,
)
from . import parser
from .exactcore import Poly, RatFunc, factor_poly, nth_power_in_Q, rational_roots, render
from .intlattice import IntMatrix, content, hnf, kernel_basis, rank

Character = Tuple[int, ...]


@dataclass(frozen=True, order=False)
class Place:
    """A place of the projective line over Q: a monic irreducible
    polynomial, or the point at infinity (poly is None)."""

    poly: Optional[Poly]

    INFINITY: ClassVar["Place"] = None  # set right after the class body

    @classmethod
    def finite(cls, p: Poly) -> "Place":
        if not p.is_monic() or p.is_constant():
            raise DomainError("finite places carry monic nonconstant polynomials")
        return cls(p)

    @property
    def is_infinity(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def rational_root(self) -> Fraction:
        """The root of a degree-1 finite place."""
        if self.poly is None or self.poly.degree != 1:
            raise DomainError("not a finite degree-1 place")
        return -self.poly.coeffs[0]

    def sort_key(self):
        if self.poly is None:
            return (1, 0, ())
        return (0, self.poly.degree, tuple(reversed(self.poly.coeffs)))

    def __str__(self):
        return "inf" if self.poly is None else str(self.poly)

    def __repr__(self):
        return f"Place({self})"


Place.INFINITY = Place(None)


def divisor_of(f: RatFunc) -> Dict[Place, int]:
    """The divisor of a nonzero rational function on the projective line:
    its places, each with its nonzero multiplicity.

    The degree-1 places of the numerator and denominator are their rational
    roots, found by exactcore.rational_roots without factoring (its prime
    search stops at parser.MAX_ROOT_PRIMES with DomainError). Only a
    cofactor of degree >= 2 left after them, which has no rational root,
    is factored by factor_poly, and so by sympy."""
    if f.is_zero():
        raise DomainError("the zero function has no divisor")
    support: Dict[Place, int] = {}
    for poly, sign in ((f.num, 1), (f.den, -1)):  # f is reduced: no place is in both
        if poly.is_constant():
            continue
        roots, rest = rational_roots(poly, parser.MAX_ROOT_PRIMES)
        for r, mult in roots:
            support[Place.finite(Poly([-r, 1]))] = sign * mult
        if len(rest) > 2:
            for q, mult in factor_poly(Poly(rest))[1]:
                support[Place.finite(q)] = sign * mult
    inf_mult = f.den.degree - f.num.degree
    if inf_mult:
        support[Place.INFINITY] = inf_mult
    return support


@dataclass(frozen=True)
class CurveData:
    """A curve in the n-torus given by nonzero coordinate functions of t,
    with the cached matrix of coordinate divisors (rows = places)."""

    coords: Tuple[RatFunc, ...]
    place_index: Tuple[Place, ...]
    divisor_matrix: IntMatrix

    @classmethod
    def build(cls, coords: Sequence[RatFunc]) -> "CurveData":
        coords = tuple(coords)
        if len(coords) < 2:
            raise DomainError("a curve needs at least two coordinates")
        if any(f.is_zero() for f in coords):
            raise DomainError("coordinate functions must be nonzero")
        divisors = [divisor_of(f) for f in coords]
        places = sorted(set().union(*divisors), key=Place.sort_key)
        if places:
            matrix = IntMatrix([[d.get(p, 0) for d in divisors] for p in places])
        else:
            # every coordinate is constant; keep a zero row so the kernel
            # (and with it the hypothesis check) still sees all n columns
            matrix = IntMatrix([[0] * len(coords)])
        return cls(coords, tuple(places), matrix)

    @property
    def n(self) -> int:
        return len(self.coords)

    @cached_property
    def degree(self) -> int:
        """The map degree onto the image; 1 iff the parametrization is proper."""
        return map_degree(self)

    @cached_property
    def violation(self) -> Optional[Character]:
        """A constant-monomial witness, or None under the standing hypothesis."""
        return check_assumption(self)

    @cached_property
    def forms(self) -> Tuple[Tuple[int, ...], ...]:
        """Each place's integer binary form F_P, constant term first: L_P
        times a finite place's monic polynomial, L_P the lcm of its
        denominators, so F_P(p, q) = L_P * q**deg(P) * P(p/q) is primitive
        with leading coefficient L_P; F(p, q) = q at infinity."""
        forms = []
        for place in self.place_index:
            coeffs = (Fraction(1), Fraction(0)) if place.is_infinity else place.poly.coeffs
            lcm = math.lcm(*(c.denominator for c in coeffs))
            forms.append(tuple(c.numerator * (lcm // c.denominator) for c in coeffs))
        return tuple(forms)

    @cached_property
    def consts(self) -> Tuple[Fraction, ...]:
        """The c_i = lc(num_i)/lc(den_i) * prod_P L_P**(-D[P, i]), L_P the
        leading coefficient of a finite F_P and 1 at infinity, so that exactly
        x_i(p/q) = c_i * prod_P F_P(p, q)**D[P, i] over every row of the
        divisor matrix D, the infinity row included."""
        scales = [1 if place.is_infinity else f[-1] for place, f in zip(self.place_index, self.forms)]
        consts = []
        for i, f in enumerate(self.coords):
            c = f.num.leading / f.den.leading
            for lcm, row in zip(scales, self.divisor_matrix.entries):
                c /= Fraction(lcm) ** row[i]
            consts.append(c)
        return tuple(consts)

    @cached_property
    def characters(self) -> Tuple["NormalizedCharacter", ...]:
        """The character set, phi_enumerate's, enumerated once per curve."""
        return tuple(phi_enumerate(self))

    def require_proper(self) -> "CurveData":
        """This curve, if proper and under the standing hypothesis; otherwise
        ImproperParametrization, which takes precedence, or AssumptionViolation."""
        if self.degree != 1:
            raise ImproperParametrization(self.degree)
        if self.violation is not None:
            raise AssumptionViolation(self.violation)
        return self


@dataclass(frozen=True)
class NormalizedCharacter:
    """A primitive character whose restriction to the curve is c * s**m in
    the coordinate s = mu(t) sending the zero P to 0 and the pole Q to
    infinity."""

    a: Character
    P: Place
    Q: Place
    m: int
    c: Fraction
    realizable_cyclotomic: bool

    def to_dict(self) -> Dict:
        return {
            "a": list(self.a),
            "P": render(self.P),
            "Q": render(self.Q),
            "m": self.m,
            "c": render(self.c),
            "realizable_cyclotomic": self.realizable_cyclotomic,
        }


def map_degree(curve: CurveData) -> int:
    """Degree of t -> (f_1(t), ..., f_n(t)) onto its image.

    It divides deg f_i = max(deg num_i, deg den_i) of every nonconstant
    coordinate (f_i is a function of a generator of Q(f_1, ..., f_n), by
    Lüroth), so it is 1 when those degrees have gcd 1. Otherwise it is
    the t-degree of the gcd of the cross-numerators
    num_i(t)*den_i(s) - num_i(s)*den_i(t), each built as a dict of Fraction
    coefficients and taken with one sympy.Poly gcd over QQ. The
    parametrization is proper (birational onto the curve) iff this degree
    is 1.
    """
    moving = [f for f in curve.coords if not f.is_constant()]
    if not moving:
        raise DomainError("all coordinates are constant")
    if math.gcd(*(max(f.num.degree, f.den.degree) for f in moving)) == 1:
        return 1
    import sympy  # loaded on the first gcd

    t, s = sympy.symbols("t s")
    g = None
    for f in moving:
        cross: Dict[Tuple[int, int], Fraction] = {}
        for i, a in enumerate(f.num.coeffs):
            for j, b in enumerate(f.den.coeffs):
                # num_i*den_j moves to t^i s^j and, negated, to t^j s^i
                cross[i, j] = cross.get((i, j), 0) + a * b
                cross[j, i] = cross.get((j, i), 0) - a * b
        p = sympy.Poly.from_dict({k: c for k, c in cross.items() if c}, t, s, domain="QQ")
        g = p if g is None else g.gcd(p)
    return g.degree(t)


def check_assumption(curve: CurveData) -> Optional[Character]:
    """None if the divisor matrix has rank n (Bareiss): no nontrivial monomial
    is constant; otherwise a primitive witness vector from its kernel."""
    if rank(curve.divisor_matrix.entries) == curve.n:
        return None
    kernel = kernel_basis(curve.divisor_matrix)
    # a sign-normalized row of a unimodular transform: content 1
    v = kernel.vectors[0]
    if content(v) != 1:
        raise InvariantViolation("saturated kernel produced an imprimitive vector")
    return v


def cyclotomic_realizable(c: Fraction, m: int) -> bool:
    """Whether the scaling constant c can be absorbed over the cyclotomic
    closure of Q: true iff m divides 2*v_p(c) for every prime p, i.e. c**2
    is an m-th power in Q."""
    if c == 0:
        raise DomainError("scaling constant must be nonzero")
    if m < 1:
        raise DomainError("exponent must be a positive integer")
    return nth_power_in_Q(c * c, m) is not None


def two_point_divisor(curve: CurveData, a: Sequence[int]) -> Tuple[Place, Place, int]:
    """(P, Q, m) for a character whose divisor on the curve is m(P) - m(Q)
    with P, Q rational, read as D*a over the places of the divisor matrix D
    as in phi_enumerate; DomainError for any other character."""
    if len(a) != curve.n:
        raise DomainError(f"got {curve.n} functions but {len(a)} exponents")
    image = curve.divisor_matrix.mul_vec(a)
    items = [(p, m) for p, m in zip(curve.place_index, image) if m]
    if len(items) != 2 or any(p.degree != 1 for p, _ in items):
        raise DomainError(
            "character divisor must be supported on two degree-1 places"
        )
    (p1, m1), (p2, m2) = items
    if m1 + m2 != 0:
        raise InvariantViolation("two-point divisor with non-opposite multiplicities")
    return (p1, p2, m1) if m1 > 0 else (p2, p1, m2)


def normalize_character(curve: CurveData, a: Sequence[int]) -> NormalizedCharacter:
    """Normalize a character whose divisor on the curve is m(P) - m(Q) with
    P, Q rational: record (P, Q, m, c) with the restriction equal to
    c * s**m after the Moebius substitution sending P to 0 and Q to inf.

    P, Q and m come from two_point_divisor. The restriction is then
    c*(t-p)**m, c/(t-q)**m or c*((t-p)/(t-q))**m, so c is its
    leading-coefficient ratio prod(lc(num_i)**a_i), denominators being monic."""
    a = tuple(int(x) for x in a)
    P, Q, m = two_point_divisor(curve, a)
    c = Fraction(1)
    for f, e in zip(curve.coords, a):
        c *= f.num.leading ** e
    return NormalizedCharacter(
        a=a, P=P, Q=Q, m=m, c=c, realizable_cyclotomic=cyclotomic_realizable(c, m)
    )


def phi_enumerate(curve: CurveData) -> List[NormalizedCharacter]:
    """All primitive characters whose divisor on the curve is m(P) - m(Q)
    for two rational places P and Q, normalized and sorted.

    One row-style HNF H = U·D of the divisor matrix answers every pair of
    places (Cohen, GTM 138, section 2.4). D has rank n under the standing
    hypothesis, so the top n rows H_top of H are upper triangular, and the
    rows Y of U opposite H's zero rows span {y : y·D = 0}. A degree-0
    divisor on degree-1 places P and Q is a multiple of e_P - e_Q, and is
    some D·a over Q iff Y·e_P = Y·e_Q. So each pair of degree-1 places with
    equal columns of Y carries one +- pair, the primitive integer multiple
    of H_top^-1·U_top·(e_P - e_Q), by back-substitution, and each is checked
    exactly: D·a = m(e_P - e_Q) with m != 0, or InvariantViolation. Raises
    what CurveData.require_proper raises.
    """
    curve.require_proper()
    n, D = curve.n, curve.divisor_matrix
    h, u = hnf(D)
    top, kernel = h.entries[:n], u.entries[n:]
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for k, place in enumerate(curve.place_index):
        if place.degree == 1:
            groups.setdefault(tuple(y[k] for y in kernel), []).append(k)
    det = math.prod(top[i][i] for i in range(n))
    G: List[List[int]] = [[]] * n  # det * H_top^-1·U_top: integral, so each // is exact
    for i in reversed(range(n)):
        G[i] = [(det * x - sum(top[i][j] * G[j][k] for j in range(i + 1, n))) // top[i][i]
                for k, x in enumerate(u.entries[i])]
    found = []
    for group in groups.values():
        for i, P in enumerate(group):
            for Q in group[i + 1:]:
                a = [g[P] - g[Q] for g in G]
                g = content(a) or 1
                a = tuple(x // g for x in a)
                image = D.mul_vec(a)
                m = image[P]
                if not m or image != tuple(m * ((k == P) - (k == Q)) for k in range(D.rows)):
                    raise InvariantViolation(f"character {list(a)} is not supported on two places")
                found += [a, tuple(-x for x in a)]
    return [normalize_character(curve, a) for a in sorted(found)]
