"""Exhaustive oracles the tests compare the library against: phi_oracle
factors every small monomial product on the curve instead of working from
the divisor matrix, dependence_oracle multiplies out every small exponent
vector instead of factoring the coordinates, scan_oracle evaluates
every coordinate and builds the relation lattice at every parameter instead
of testing rank from the place forms, private_survivors_oracle strips each
place value of the primes of all the others at every parameter instead of
first certifying the degree-1 places from their resultants, relation_oracle
factors every coordinate with sympy.factorint instead of testing rank over
a coprime base first, map_degree_oracle takes the properness gcd through sympy
expressions (expand, subs, sympy.gcd) instead of one sympy.Poly gcd of
coefficient dicts, and character_oracle normalizes a character from the
factored restricted character (divisor_of) and reads c off its
composition with a Moebius map instead of taking P, Q and m from the
divisor matrix and c from leading coefficients. compose substitutes one
rational function into another in sympy.Poly alone, so no oracle composes
with the library's own arithmetic. power_fiber_oracle factors the numerator
of phi**N - 1 instead of mapping cyclotomic factors of the normal form back
through the Moebius change, map_back_oracle maps a factor back
through the Moebius change with Poly.shift over Fractions instead of on
integer coefficient lists, cyclotomic_poly_oracle divides t**n - 1 by
every Phi_d instead of building Phi_n from its radical, and
decompose_oracle solves each coordinate's exponent row with
express_in_basis (its own HNF and transform) over the sympy-factored prime
matrix instead of back-substituting against decompose's HNF.

The exact checks the tests apply to library output live here too:
express_in_basis solves for lattice coordinates, monomial_product and
character_restrict multiply out a character on a curve, expand_factors
multiplies a factorization back out and reconstruct rebuilds a point from
its decomposition."""
import functools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import sympy

from torusdep.curvegeom import (
    Character,
    CurveData,
    NormalizedCharacter,
    Place,
    check_assumption,
    cyclotomic_realizable,
    divisor_of,
    phi_enumerate,
)
from torusdep.errors import DomainError, InvariantViolation, PreconditionError
from torusdep.exactcore import Poly, RatFunc, factor_poly
from torusdep.explorer import AnalysisConfig, ScanRecord
from torusdep.intlattice import (
    IntMatrix,
    LatticeBasis,
    content,
    hnf,
    kernel_basis,
    primitive_witness,
    rank,
)
from torusdep.multdep import (
    Decomposition,
    FactoredRational,
    PointQ,
    Vector,
    _check_point,
    point_height,
    relation_lattice,
    root_of_unity_order,
)


def express_in_basis(v: Sequence[int], B: LatticeBasis) -> Optional[Vector]:
    """Integer coordinates x with sum(x[j] * B.vectors[j]) == v, or None,
    by back-substitution against the HNF of the basis and its transform."""
    v = tuple(int(x) for x in v)
    if len(v) != B.ambient:
        raise DomainError("vector length differs from ambient dimension")
    if B.is_zero():
        return () if all(x == 0 for x in v) else None
    h, u = hnf(IntMatrix(B.vectors))
    residual = list(v)
    y = []
    for row in h.entries:
        col = next(j for j, x in enumerate(row) if x)  # basis rows are independent
        q, rem = divmod(residual[col], row[col])
        if rem:
            return None
        y.append(q)
        residual = [a - q * b for a, b in zip(residual, row)]
    if any(residual):
        return None
    # x = y U maps HNF coordinates back to the original basis.
    return tuple(sum(yi * ui[j] for yi, ui in zip(y, u.entries)) for j in range(u.cols))


def monomial_product(fs: Sequence[RatFunc], a: Sequence[int]) -> RatFunc:
    """The fully reduced product prod(fs[i] ** a[i])."""
    if len(fs) != len(a):
        raise DomainError(f"got {len(fs)} functions but {len(a)} exponents")
    num = Poly([1])
    den = Poly([1])
    for f, e in zip(fs, a):
        if f.is_zero():
            raise DomainError("monomial product of the zero function")
        if e >= 0:
            num = num * f.num ** e
            den = den * f.den ** e
        else:
            num = num * f.den ** (-e)
            den = den * f.num ** (-e)
    return RatFunc(num, den)


def character_restrict(curve: CurveData, a: Sequence[int]) -> RatFunc:
    """The restriction of the character x -> x**a to the curve."""
    return monomial_product(curve.coords, tuple(a))


def expand_factors(unit: Fraction, factors) -> Poly:
    """Inverse of factor_poly: unit * prod(factor**mult)."""
    out = Poly([unit])
    for f, mult in factors:
        out = out * f ** mult
    return out


def reconstruct(d: Decomposition) -> PointQ:
    """The point sign_i * prod(generators ** exponent row i) a
    decomposition describes."""
    out = []
    for i, s in enumerate(d.signs):
        v = Fraction(s)
        row = d.exponents.row(i) if d.rank else ()
        for g, e in zip(d.generators, row):
            v *= g ** e
        out.append(v)
    return tuple(out)


def phi_oracle(curve: CurveData, B: int) -> List[Character]:
    """Exhaustive oracle: all primitive exponent vectors with sup-norm at
    most B whose restricted character has a two-point rational divisor.

    Factors the actual monomial product, independently of the divisor
    matrix route used by phi_enumerate. Test use only.
    """
    if check_assumption(curve) is not None:
        raise PreconditionError("curve violates the standing hypothesis")
    if B < 1:
        raise DomainError("oracle bound must be positive")
    out: List[Character] = []
    for a in _box_vectors(curve.n, B):
        # div(x**-a) = -div(x**a): visit one of each +- pair, keep both
        if next(x for x in a if x) < 0 or content(a) != 1:
            continue
        items = divisor_of(character_restrict(curve, a)).items()
        if len(items) == 2 and all(p.degree == 1 for p, _ in items):
            out.extend((a, tuple(-x for x in a)))
    return sorted(out)


def _box_vectors(n: int, B: int):
    def rec(prefix):
        if len(prefix) == n:
            if any(prefix):
                yield tuple(prefix)
            return
        for v in range(-B, B + 1):
            yield from rec(prefix + [v])

    yield from rec([])


def dependence_oracle(P: Sequence[Fraction], B: int) -> List[Vector]:
    """Exhaustive scan for relations with sup-norm at most B. Test use only."""
    pt = _check_point(P)
    if B < 1:
        raise DomainError("oracle bound must be positive")
    hits: List[Vector] = []
    n = len(pt)

    def rec(prefix: List[int]):
        if len(prefix) == n:
            if any(prefix):
                v = Fraction(1)
                for x, e in zip(pt, prefix):
                    v *= x ** e
                if v == 1:
                    hits.append(tuple(prefix))
            return
        for e in range(-B, B + 1):
            rec(prefix + [e])

    rec([])
    return sorted(hits)


def _scan_parameters(H: int):
    for q in range(1, H + 1):
        for p in range(-H, H + 1):
            if Fraction(p, q).denominator == q:  # gcd(p, q) == 1 representative
                yield Fraction(p, q)


def scan_oracle(
    curve: CurveData,
    config: AnalysisConfig,
    characters: Optional[Sequence[NormalizedCharacter]] = None,
) -> List[ScanRecord]:
    """The height scan done the direct way: evaluate every coordinate at
    every parameter with Fractions and build its relation lattice. Test use
    only."""
    curve.require_proper()
    if characters is None:
        characters = phi_enumerate(curve)
    # Prefer the positively oriented member of each +- pair when classifying.
    ordered = sorted(
        characters,
        key=lambda ch: (next((x for x in ch.a if x), 0) < 0, ch.a),
    )
    records = []
    for t0 in _scan_parameters(config.scan_height_bound):
        point = []
        for f in curve.coords:
            if f.den(t0) == 0:
                point = None
                break
            v = f(t0)
            if v == 0:
                point = None
                break
            point.append(v)
        if point is None:
            continue
        point = tuple(point)
        lattice = relation_lattice(point)
        if lattice.is_zero():
            continue
        witness = primitive_witness(lattice)
        relation = witness if witness is not None else lattice.vectors[0]
        fiber_char = None
        for ch in ordered:
            value = Fraction(1)
            for x, e in zip(point, ch.a):
                value *= x ** e
            if root_of_unity_order(value) is not None:
                fiber_char = ch.a
                break
        records.append(
            ScanRecord(
                parameter=t0,
                point=point,
                dependent=True,
                primitive=witness is not None,
                relation=relation,
                height=point_height(point),
                fiber_character=fiber_char,
            )
        )
    records.sort(key=lambda r: (r.height, r.parameter))
    return records


def private_survivors_oracle(
    curve: CurveData, forms: Sequence[Tuple[int, ...]], consts: Sequence[Fraction], H: int
) -> Iterator[Tuple[int, int, List[int], int]]:
    """The coprime (p, q) with max(|p|, q) <= H and no finite F_P(p, q) = 0
    that the private-part filter keeps, each with its values
    v_P = |F_P(p, q)| (forms and consts from _place_forms) and its mask,
    bit k set iff the k-th place has r_P > 1.

    The private part r_P is v_P stripped, by repeated gcd, of every prime
    it shares with C * prod_{Q != P} v_Q, C = prod_i |num c_i| * den c_i.
    A prime l dividing r_P divides no c_i and no other value, so
    v_l(x_i) = D[P, i] * v_l(v_P): the prime-exponent matrix of the x_i
    holds a nonzero multiple of the row D[P, .]. The point is therefore
    independent, and the parameter dropped, when the rows of D of the
    places with r_P > 1 have rank n; that rank is kept per set of places.
    """
    rows = curve.divisor_matrix.entries
    C = math.prod(abs(c.numerator) * c.denominator for c in consts)
    full_rank: Dict[int, bool] = {}
    for q in range(1, H + 1):
        # coefficients from the top, the k-th times q**k: Horner in p alone
        scaled = [[a * q ** k for k, a in enumerate(reversed(f))] for f in forms]
        for p in range(-H, H + 1):
            if math.gcd(p, q) != 1:
                continue
            values = []
            for b in scaled:
                acc = 0
                for a in b:
                    acc = acc * p + a
                values.append(abs(acc))
            if 0 in values:  # only a finite place can vanish: F at infinity is q >= 1
                continue
            total = C * math.prod(values)
            mask = 0
            for k, v in enumerate(values):
                g = math.gcd(v, total // v)
                while g > 1:
                    v //= g
                    g = math.gcd(v, g)
                if v > 1:
                    mask |= 1 << k
            if mask not in full_rank:
                full_rank[mask] = rank([r for k, r in enumerate(rows) if mask >> k & 1]) == curve.n
            if not full_rank[mask]:
                yield p, q, values, mask


@functools.lru_cache(maxsize=None)
def _sympy_factor_rational(x: Fraction) -> FactoredRational:
    if x == 0:
        raise DomainError("cannot factor zero")
    sign = -1 if x < 0 else 1
    exps: Dict[int, int] = {}
    for p, e in sympy.factorint(abs(x.numerator)).items():
        exps[int(p)] = exps.get(int(p), 0) + int(e)
    for p, e in sympy.factorint(x.denominator).items():
        exps[int(p)] = exps.get(int(p), 0) - int(e)
    return FactoredRational(sign, tuple(sorted((p, e) for p, e in exps.items() if e)))


def relation_oracle(P: Sequence[Fraction]) -> LatticeBasis:
    """The relation lattice the prime route alone gives: factor every
    coordinate with sympy.factorint and take the kernel of the
    prime-exponent matrix, with the sign parity cut. Test use only."""
    pt = _check_point(P)
    n = len(pt)
    facs = [_sympy_factor_rational(x) for x in pt]
    primes = sorted({p for f in facs for p, _ in f.exponents})
    exps = [dict(f.exponents) for f in facs]
    if primes:
        rows = [[exps[i].get(p, 0) for i in range(n)] for p in primes]
        kernel = kernel_basis(IntMatrix(rows))
    else:
        kernel = kernel_basis(IntMatrix([[0] * n]))
    sign_bits = [0 if f.sign > 0 else 1 for f in facs]

    def parity(v: Vector) -> int:
        return sum(x * s for x, s in zip(v, sign_bits)) % 2

    vecs = list(kernel.vectors)
    odd = [i for i, v in enumerate(vecs) if parity(v) == 1]
    if odd:
        pivot = odd[0]
        for i in odd[1:]:
            vecs[i] = tuple(x - y for x, y in zip(vecs[i], vecs[pivot]))
        vecs[pivot] = tuple(2 * x for x in vecs[pivot])
    return LatticeBasis(n, tuple(vecs))


def decompose_oracle(P: Sequence[Fraction]) -> Decomposition:
    """The torsion/free decomposition the general route gives: factor every
    coordinate with sympy.factorint, take the HNF of the prime-exponent
    matrix, whose nonzero rows are the generators, and express each
    coordinate's row in that basis with express_in_basis. Test use only."""
    pt = _check_point(P)
    facs = [_sympy_factor_rational(x) for x in pt]
    signs = tuple(f.sign for f in facs)
    primes = sorted({p for f in facs for p, _ in f.exponents})
    if not primes:
        return Decomposition(signs, (), IntMatrix([[] for _ in pt]))
    exps = [dict(f.exponents) for f in facs]
    A = [[e.get(p, 0) for p in primes] for e in exps]
    h, _ = hnf(IntMatrix(A))
    basis = LatticeBasis(len(primes), tuple(row for row in h.entries if any(row)))
    generators = []
    for row in basis.vectors:
        g = Fraction(1)
        for p, e in zip(primes, row):
            g *= Fraction(p) ** e
        generators.append(g)
    exp_rows = []
    for row in A:
        coords = express_in_basis(row, basis)
        assert coords is not None
        exp_rows.append(coords)
    return Decomposition(signs, tuple(generators), IntMatrix(exp_rows))


def map_degree_oracle(curve: CurveData) -> int:
    """The map degree the expression route gives: build every
    cross-numerator as a sympy expression (subs, expand) and take their
    gcd with sympy.gcd. Test use only."""
    t, s = sympy.symbols("t s")
    polys = []
    for f in curve.coords:
        if f.is_constant():
            continue
        num_t = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.num.coeffs)], t
        ).as_expr()
        den_t = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.den.coeffs)], t
        ).as_expr()
        num_s = num_t.subs(t, s)
        den_s = den_t.subs(t, s)
        polys.append(sympy.expand(num_t * den_s - num_s * den_t))
    if not polys:
        raise DomainError("all coordinates are constant")
    g = polys[0]
    for p in polys[1:]:
        g = sympy.gcd(g, p)
    return sympy.Poly(g, t).degree()


def _to_sympy_poly(p: Poly, t):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], t, domain="QQ")


def compose(f: RatFunc, g: RatFunc) -> RatFunc:
    """f(g(t)), substituted and cancelled in sympy.Poly alone: with g = A/B,
    a polynomial p of degree k becomes sum p_i*A**i*B**(k-i) over B**k, and
    Poly.cancel reduces the quotient. Test use only."""
    t = sympy.Symbol("t")
    A, B = (_to_sympy_poly(p, t) for p in (g.num, g.den))

    def at_g(p: Poly):
        terms = (c * A ** i * B ** (p.degree - i) for i, c in enumerate(p.coeffs))
        return sum(terms, sympy.Poly(0, t, domain="QQ"))

    num, den = at_g(f.num), at_g(f.den)
    if f.den.degree >= f.num.degree:
        num *= B ** (f.den.degree - f.num.degree)
    else:
        den *= B ** (f.num.degree - f.den.degree)
    num, den = num.cancel(den, include=True)

    def from_sympy(p) -> Poly:
        return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))

    return RatFunc(from_sympy(num), from_sympy(den))


def _mobius_from_zero_inf(P: Place, Q: Place) -> RatFunc:
    """The inverse of the Moebius map sending P to 0 and Q to infinity."""
    T = RatFunc(Poly.variable())
    if Q.is_infinity:
        return T + P.rational_root()
    if P.is_infinity:
        return Q.rational_root() + 1 / T
    p, q = P.rational_root(), Q.rational_root()
    return (p - q * T) / (1 - T)


def character_oracle(curve: CurveData, a: Sequence[int]) -> NormalizedCharacter:
    """normalize_character with the divisor taken by factoring the
    restricted character itself (divisor_of) rather than as D*a, and with
    c read off the restricted character composed with the Moebius map
    sending P to 0 and Q to infinity, which must be the monomial c*s**m.
    Test use only."""
    a = tuple(int(x) for x in a)
    phi = character_restrict(curve, a)
    items = sorted(divisor_of(phi).items(), key=lambda pm: pm[0].sort_key())
    if len(items) != 2 or any(p.degree != 1 for p, _ in items):
        raise DomainError(
            "character divisor must be supported on two degree-1 places"
        )
    (p1, m1), (p2, m2) = items
    if m1 + m2 != 0:
        raise InvariantViolation("two-point divisor with non-opposite multiplicities")
    P, Q, m = (p1, p2, m1) if m1 > 0 else (p2, p1, m2)
    composed = compose(phi, _mobius_from_zero_inf(P, Q))
    if composed.den != Poly([1]):
        raise InvariantViolation("normalized character is not polynomial")
    coeffs = composed.num.coeffs
    if composed.num.degree != m or any(c != 0 for c in coeffs[:-1]):
        raise InvariantViolation("normalized character is not a monomial")
    c = coeffs[-1]
    return NormalizedCharacter(
        a=a, P=P, Q=Q, m=m, c=c, realizable_cyclotomic=cyclotomic_realizable(c, m)
    )


def power_fiber_oracle(curve: CurveData, a: Sequence[int], N: int) -> List[Poly]:
    """Factor the numerator of phi**N - 1 directly and keep the factors
    whose roots leave every coordinate finite and nonzero."""
    g = character_restrict(curve, a) ** N - RatFunc(Poly([1]))
    return [
        q
        for q, _mult in factor_poly(g.num)[1]
        if not any(q.divides(f.num) or q.divides(f.den) for f in curve.coords)
    ]


def map_back_oracle(h: Poly, ch: NormalizedCharacter) -> Poly:
    """L_Q**k * h(L_P/L_Q) for h of degree k (L_X = t - x, L_inf = 1), in
    Fractions: with w = t - q, L_P/L_Q is 1 + delta/w (delta = q - p) or
    1/w (P = inf), so the image is sum g_j delta**j w**(k - j), g = h(1 + s)
    or h, in t - q. Test use only."""
    if ch.Q.is_infinity:
        return h.shift(-ch.P.rational_root())
    q = ch.Q.rational_root()
    g, delta = (h, 1) if ch.P.is_infinity else (h.shift(1), q - ch.P.rational_root())
    return Poly(reversed([x * delta ** j for j, x in enumerate(g.coeffs)])).shift(-q)


def cyclotomic_poly_oracle(n: int) -> Poly:
    """The n-th cyclotomic polynomial, by exact division of t^n - 1."""
    if n < 1:
        raise DomainError("cyclotomic index must be positive")
    return Poly(_cyclotomic_coeffs(n))


@functools.lru_cache(maxsize=None)
def _cyclotomic_coeffs(n: int) -> tuple:
    """Integer coefficients of t^n - 1 divided by Phi_d for each proper
    divisor d of n, in turn; each Phi_d is monic, so every quotient
    coefficient is an integer, and each remainder must be zero."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _cyclotomic_coeffs(d)
            dq = len(den) - 1
            quot = [0] * (len(num) - dq)
            for i in range(len(num) - 1, dq - 1, -1):
                c = quot[i - dq] = num[i]
                for j in range(dq):
                    num[i - dq + j] -= c * den[j]
            assert not any(num[:dq]), (n, d)
            num = quot
    return tuple(num)
