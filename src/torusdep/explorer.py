"""Analysis pipeline: torsion-fiber enumeration, bounded-height scans for
multiplicatively dependent parameter values, and machine-readable reports.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .curvegeom import (
    Character,
    CurveData,
    NormalizedCharacter,
    Place,
    normalize_character,
    phi_enumerate,
    two_point_divisor,
)
from .errors import DomainError, InvariantViolation
from .exactcore import Poly, cyclotomic_poly, factor_key, factor_poly, int_shift, nth_power_in_Q, render
from .intlattice import IntMatrix, kernel_basis, primitive_witness, rank
from .multdep import (
    independent_over_coprime_base,
    point_height,
    relation_lattice,
    root_of_unity_order,
)
from .parser import parse_coordinates

# Budget on fiber degree: m*N in torsion_fiber, m*sum(phi(d), d <= N) in analyze.
MAX_FIBER_DEGREE = 4096
# Budget on the degree m*phi(d) of Phi_d(c * s**m) when c is not +-b**m and
# factor_poly must factor it.
MAX_FALLBACK_DEGREE = 64
# Budget on the scan height H: the scan visits about 2*H**2 parameters.
# Whole analyze calls on t*(t+1); (t-2)/(t+3); t-5 took 1.3 s at H = 400
# and 3.0 s at H = 1000 on a shared 2-vCPU VM (medians of 5 fresh processes).
MAX_SCAN_HEIGHT = 1000


@dataclass(frozen=True)
class AnalysisConfig:
    torsion_order_bound: int = 12
    scan_height_bound: int = 50

    def __post_init__(self):
        if min(self.torsion_order_bound, self.scan_height_bound) < 1:
            raise DomainError("all bounds must be at least 1")
        if self.scan_height_bound > MAX_SCAN_HEIGHT:
            raise DomainError(f"scan height {self.scan_height_bound} exceeds {MAX_SCAN_HEIGHT}")


@dataclass(frozen=True)
class ScanRecord:
    parameter: Fraction
    point: Tuple[Fraction, ...]
    dependent: bool
    primitive: bool
    relation: Optional[Tuple[int, ...]]
    height: float
    fiber_character: Optional[Character]  # None means EXCEPTIONAL

    @property
    def classification(self) -> str:
        if self.fiber_character is None:
            return "EXCEPTIONAL"
        return "FIBER(" + ",".join(str(x) for x in self.fiber_character) + ")"


def parse_curve(text: str) -> CurveData:
    """Parse a semicolon-separated coordinate list into curve data."""
    return CurveData.build(parse_coordinates(text))


def _cyclotomic_factors(curve: CurveData, ch: NormalizedCharacter, d: int) -> List[Poly]:
    """Minimal polynomials of the t where the character ch is a primitive
    d-th root of unity and every coordinate is finite and nonzero.

    In its normal form c * s**m, s = L_P/L_Q, take the irreducible factors
    h of Phi_d(c * s**m): for c = eps * b**m (b = u/v > 0, eps = +-1) the
    Phi_e(b*s) over the e | m*d2 with e/gcd(e, m) = d2, the order of
    eps * zeta_d, each as the integer coefficients of v**k * Phi_e(b*s);
    otherwise the factor_poly factors with their denominators cleared, or
    DomainError when the degree m*phi(d) exceeds MAX_FALLBACK_DEGREE. Each
    h goes through _map_back once. A constant image is the root t = inf
    and is dropped; the others are kept iff not a place of the curve.
    """
    m, c = ch.m, ch.c
    b = nth_power_in_Q(abs(c), m)
    if b is None:
        cs = cyclotomic_poly(d).coeffs
        degree = m * (len(cs) - 1)
        if degree > MAX_FALLBACK_DEGREE:
            raise DomainError(f"a fiber to factor of degree {degree} exceeds {MAX_FALLBACK_DEGREE}")
        sparse = [Fraction(0)] * (degree + 1)
        sparse[::m] = [x * c ** k for k, x in enumerate(cs)]
        hs = []
        for h, _mult in factor_poly(Poly(sparse))[1]:
            D = math.lcm(*(x.denominator for x in h.coeffs))
            hs.append([x.numerator * (D // x.denominator) for x in h.coeffs])
    else:
        d2 = d if c > 0 or d % 4 == 0 else d // 2 if d % 2 == 0 else 2 * d
        u, v = b.as_integer_ratio()
        hs = []
        for e in range(1, m * d2 + 1):
            if m * d2 % e == 0 and e // math.gcd(e, m) == d2:
                phi = cyclotomic_poly(e).coeffs
                k = len(phi) - 1
                hs.append([x.numerator * u ** j * v ** (k - j) for j, x in enumerate(phi)])
    places = set(curve.place_index)
    images = [_map_back(h, ch) for h in hs]
    return [q for q in images if q.degree > 0 and Place.finite(q) not in places]


def _map_back(h: List[int], ch: NormalizedCharacter) -> Poly:
    """The monic L_Q**k * h(L_P/L_Q), for h of degree k given by its
    integer coefficients (L_X = t - x, L_inf = 1). With w = t - q, L_P/L_Q
    is 1 + delta/w (delta = q - p) or 1/w (P = inf), so the image is
    sum g_j delta**j w**(k - j), g = h(1 + s) or h, in t - q. Every step
    stays in integers, up to a nonzero constant factor (int_shift's
    denominator power, delta's denominator**k) that the final division by
    the leading coefficient removes."""
    if ch.Q.is_infinity:
        image = int_shift(h, -ch.P.rational_root())
    else:
        q = ch.Q.rational_root()
        if ch.P.is_infinity:
            g, (dn, dd) = h, (1, 1)
        else:
            g, (dn, dd) = int_shift(h, 1), (q - ch.P.rational_root()).as_integer_ratio()
        k = len(g) - 1
        w = [x * dn ** j * dd ** (k - j) for j, x in enumerate(g)][::-1]
        while not w[-1]:  # a zero g_0 lowers the degree: that root of h is t = inf
            w.pop()
        image = int_shift(w, -q)
    return Poly([Fraction(x, image[-1]) for x in image])


def _order_fiber(by_divisor: Dict[int, List[Poly]], N: int) -> Tuple[Poly, ...]:
    """The order-N fiber from the factors of every d | N. Roots of unity of
    different orders give disjoint root sets, so nothing repeats."""
    found = [q for d, qs in by_divisor.items() if N % d == 0 for q in qs]
    return tuple(sorted(found, key=factor_key))


def _require_fiber_budget(m: int, orders: int) -> None:
    if m * orders > MAX_FIBER_DEGREE:
        raise DomainError(f"torsion fibers of total degree {m * orders} exceed {MAX_FIBER_DEGREE}")


def _totient_sum(N: int) -> int:
    """sum(phi(d) for d <= N), by a sieve."""
    phi = list(range(N + 1))
    for p in range(2, N + 1):
        if phi[p] == p:
            for k in range(p, N + 1, p):
                phi[k] -= phi[k] // p
    return sum(phi[1:])


def torsion_fiber(curve: CurveData, a: Sequence[int], N: int) -> Tuple[Poly, ...]:
    """Fiber of the restricted character over roots of unity of order
    dividing N, as the minimal polynomials of its points in the curve
    parameter.

    The restriction is c * s**m in s = L_P/L_Q, and the fiber is the union
    over d | N of the _cyclotomic_factors of d, of total degree at most
    m*N; each factor is built in integers and mapped back once, and those
    of different d have disjoint roots and are merged in factor_poly order
    (analyze orders each +-a pair's fibers once and shares the tuples
    between a and -a). Raises what CurveData.require_proper raises, and
    DomainError when m*N exceeds MAX_FIBER_DEGREE, checked before c is
    built, or a polynomial to factor exceeds MAX_FALLBACK_DEGREE.
    """
    curve.require_proper()
    if N < 1:
        raise DomainError("torsion order must be positive")
    _require_fiber_budget(two_point_divisor(curve, a)[2], N)  # validates the character
    norm = normalize_character(curve, a)
    by_divisor = {d: _cyclotomic_factors(curve, norm, d) for d in range(1, N + 1) if N % d == 0}
    return _order_fiber(by_divisor, N)


def _place_forms(curve: CurveData) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Fraction, ...]]:
    """Integer binary forms of the places and the coordinate constants.

    For a finite place P with L_P the lcm of its coefficients' denominators,
    F_P(p, q) = L_P * q**deg(P) * P(p/q); at infinity F(p, q) = q. Each form
    is returned as its integer coefficients, constant term first (infinity
    is the constant 1 homogenized to degree 1). With
    c_i = lc(num_i)/lc(den_i) * prod_P L_P**(-D[P, i]), exactly
    x_i(p/q) = c_i * prod_P F_P(p, q)**D[P, i] over every row of the divisor
    matrix D, the infinity row included.
    """
    forms = []
    scales = []
    for place in curve.place_index:
        coeffs = (Fraction(1), Fraction(0)) if place.is_infinity else place.poly.coeffs
        lcm = math.lcm(*(c.denominator for c in coeffs))
        forms.append(tuple(int(c * lcm) for c in coeffs))
        scales.append(lcm)
    consts = []
    for i, f in enumerate(curve.coords):
        c = f.num.leading / f.den.leading
        for lcm, row in zip(scales, curve.divisor_matrix.entries):
            c /= Fraction(lcm) ** row[i]
        consts.append(c)
    return tuple(forms), tuple(consts)


def _private_survivors(
    curve: CurveData, forms: Sequence[Tuple[int, ...]], consts: Sequence[Fraction], H: int
) -> Iterator[Tuple[int, int, List[int], int]]:
    """The coprime (p, q) with max(|p|, q) <= H and no finite F_P(p, q) = 0
    that the private-part filter keeps, each with its values
    v_P = |F_P(p, q)| (forms and consts from _place_forms) and its mask,
    bit k set iff the k-th place has r_P > 1.

    The private part r_P of v_P is v_P without the primes of
    C * prod_{Q != P} v_Q, C = prod_i |num c_i| * den c_i. A prime l of r_P
    gives v_l(x_i) = D[P, i] * v_l(v_P), so the point is independent, and
    the parameter dropped, when the rows of D of the places with r_P > 1
    have rank n (kept per set of places). One rule per place. Degree 1,
    F_P = w*p - u*q primitive, first: a prime l of v_P puts (p : q) at
    (u : w) mod l, so r_P > 1 iff a prime of v_P is outside
    R_P = C * prod_{Q != P} |F_Q(u, w)|, and a parameter is dropped at its
    first set of rank n. At infinity v_P = q, so its bit is decided once
    per row and starts the mask. Degree 2 or more (never 0 at a coprime
    (p, q)): v_P stripped by repeated gcd.
    """
    rows = curve.divisor_matrix.entries
    C = math.prod(abs(c.numerator) * c.denominator for c in consts)

    @functools.cache
    def full_rank(mask: int) -> bool:
        sub = [r for k, r in enumerate(rows) if mask >> k & 1]
        return len(sub) >= curve.n and rank(sub) == curve.n
    linear, infinity = [], []  # (bit, form, R_P) per finite degree-1 place, and at infinity
    for k, (place, f) in enumerate(zip(curve.place_index, forms)):
        if len(f) == 2:  # every other F_Q at its root (-f[0] : f[1])
            at_root = [sum(a * (-f[0]) ** j * f[1] ** (len(g) - 1 - j) for j, a in enumerate(g))
                       for g in forms if g != f]
            (infinity if place.is_infinity else linear).append((1 << k, f, C * abs(math.prod(at_root))))
    higher = [k for k, f in enumerate(forms) if len(f) > 2]
    for q in range(1, H + 1):
        # one row of D has rank 1 < n: the bit at infinity drops no row
        start = sum(bit for bit, _f, R in infinity if pow(R, q.bit_length(), q))
        # coefficients from the top, the k-th times q**k: Horner in p alone
        scaled = [[a * q ** k for k, a in enumerate(reversed(f))] for f in forms]
        for p in range(-H, H + 1):
            if math.gcd(p, q) != 1:
                continue
            mask = start
            for bit, (a0, a1), R in linear:
                v = abs(a1 * p + a0 * q)
                if not v:
                    break
                if pow(R, v.bit_length(), v):  # iff a prime of v does not divide R
                    mask |= bit
                    if full_rank(mask):
                        break
            else:
                values = []
                for b in scaled:
                    acc = 0
                    for a in b:
                        acc = acc * p + a
                    values.append(abs(acc))
                total = C * math.prod(values)
                for k in higher:
                    v = values[k]
                    g = math.gcd(v, total // v)
                    while g > 1:
                        v //= g
                        g = math.gcd(v, g)
                    if v > 1:
                        mask |= 1 << k
                if not full_rank(mask):
                    yield p, q, values, mask


def _sub_torus(
    rows: Sequence[Sequence[int]], consts: Sequence[Fraction], mask: int
) -> List[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]:
    """One monomial |y| = |x|**k per vector k of a basis of K, the kernel of
    the rows of D of the places in mask (all of Z^n when mask is 0): its
    (integer, exponent) pairs from the |c_i|, and its (place, exponent)
    pairs, the exponent at P being D[P] . k. Zero exponents are left out,
    and so is every place of mask."""
    sub = [r for k, r in enumerate(rows) if mask >> k & 1] or [[0] * len(consts)]
    monomials = []
    for vec in kernel_basis(IntMatrix(sub)).vectors:
        const = [(v, s * e) for c, e in zip(consts, vec) if e
                 for v, s in ((abs(c.numerator), 1), (c.denominator, -1))]
        places = [(k, sum(a * e for a, e in zip(row, vec))) for k, row in enumerate(rows)]
        monomials.append((const, [(k, m) for k, m in places if m]))
    return monomials


def scan_dependent(
    curve: CurveData,
    config: AnalysisConfig,
    characters: Optional[Sequence[NormalizedCharacter]] = None,
) -> List[ScanRecord]:
    """Scan rational parameters t0 = p/q with max(|p|, q) <= H for dependent
    points, classifying each as a torsion-fiber point of an enumerated
    character or as exceptional. Deterministic: sorted by (height,
    parameter). Raises what CurveData.require_proper raises.

    Each parameter is tested from the divisor matrix D, never by evaluating
    the coordinates and never by factoring:
    x_i(p/q) = c_i * prod_P F_P(p, q)**D[P, i] with the integer place forms
    F_P of _place_forms. A parameter is skipped iff some finite F_P(p, q) is
    0, which is exactly when some coordinate has a pole or a zero there:
    coordinates are reduced and place_index is the union of their supports.
    _private_survivors drops the parameters whose private place values
    prove independence, each place decided by one rule: a resultant
    certificate at degree 1, a gcd strip at degree 2 or more. For the rest,
    the point is dependent iff the |x_i| are (a relation among them doubles
    to one among the x_i). Such a relation a has D[P] . a = 0 at every
    private place P, so it lies in the kernel of those rows, and the point
    is dependent iff the _sub_torus monomials of that kernel's basis are,
    which multdep.independent_over_coprime_base decides from the c_i and
    the other values by gcds alone. Only dependent parameters are evaluated
    and passed to relation_lattice; a zero lattice there means the two
    routes disagree and raises InvariantViolation.
    """
    curve.require_proper()
    if characters is None:
        characters = phi_enumerate(curve)
    # Prefer the positively oriented member of each +- pair when classifying.
    ordered = sorted(
        characters,
        key=lambda ch: (next((x for x in ch.a if x), 0) < 0, ch.a),
    )
    forms, consts = _place_forms(curve)
    rows = curve.divisor_matrix.entries
    monomials = functools.cache(functools.partial(_sub_torus, rows, consts))
    records = []
    for p, q, values, mask in _private_survivors(curve, forms, consts, config.scan_height_bound):
        products = [const + [(values[k], m) for k, m in places] for const, places in monomials(mask)]
        if independent_over_coprime_base(products):
            continue
        t0 = Fraction(p, q)
        point = tuple(f(t0) for f in curve.coords)
        lattice = relation_lattice(point)
        if lattice.is_zero():
            raise InvariantViolation(f"rank test and relation lattice disagree at t = {t0}")
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


def fiber_to_dict(char: Sequence[int], order: int, factors: Sequence[Poly]) -> Dict:
    return {"char": list(char), "N": order, "factors": [render(q) for q in factors]}


def assumption_to_dict(violation: Optional[Character]) -> Dict:
    return {"ok": violation is None, "violation": list(violation) if violation else None}


@dataclass(frozen=True)
class Report:
    curve_text: Tuple[str, ...]
    map_degree: int
    phi: Tuple[NormalizedCharacter, ...]
    fibers: Tuple[Tuple[Character, int, Tuple[Poly, ...]], ...]
    scan: Tuple[ScanRecord, ...]

    def to_dict(self) -> Dict:
        return {
            "curve": list(self.curve_text),
            "map_degree": self.map_degree,
            # constant: analyze raises before reporting on a curve that
            # fails either check
            "assumption": assumption_to_dict(None),
            "phi": [ch.to_dict() for ch in self.phi],
            "fibers": [fiber_to_dict(*fiber) for fiber in self.fibers],
            "scan": [
                {
                    "t": render(r.parameter),
                    "point": [render(x) for x in r.point],
                    "dependent": r.dependent,
                    "primitive": r.primitive,
                    "relation": list(r.relation) if r.relation is not None else None,
                    "height": r.height,
                    "class": r.classification,
                }
                for r in self.scan
            ],
            "summary": {
                "max_dependent_height": max((r.height for r in self.scan), default=0.0),
                "exceptional_count": sum(1 for r in self.scan if r.fiber_character is None),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        d = self.to_dict()
        lines = [f"curve: {'; '.join(d['curve'])}", f"map degree: {d['map_degree']}"]
        lines.append(f"assumption ok: {d['assumption']['ok']}")
        lines.append(f"characters ({len(d['phi'])}):")
        for ch in d["phi"]:
            lines.append(
                f"  a={ch['a']} P={ch['P']} Q={ch['Q']} m={ch['m']} c={ch['c']}"
                f" realizable={ch['realizable_cyclotomic']}"
            )
        lines.append(f"fibers ({len(d['fibers'])}):")
        for fiber in d["fibers"]:
            body = ", ".join(fiber["factors"]) or "(empty)"
            lines.append(f"  char={fiber['char']} N={fiber['N']}: {body}")
        lines.append(f"dependent records ({len(d['scan'])}):")
        for r in d["scan"]:
            lines.append(
                f"  t={r['t']} point={r['point']} primitive={r['primitive']}"
                f" relation={r['relation']} height={r['height']:.6f} class={r['class']}"
            )
        lines.append(f"max dependent height: {d['summary']['max_dependent_height']}")
        lines.append(f"exceptional count: {d['summary']['exceptional_count']}")
        return "\n".join(lines) + "\n"


def analyze(curve_text: str, config: AnalysisConfig = AnalysisConfig()) -> Report:
    """Full pipeline: parse, properness and hypothesis checks, character
    enumeration, torsion fibers for every character and order up to the
    bound, and the bounded-height dependence scan."""
    curve = parse_curve(curve_text).require_proper()
    phi = tuple(phi_enumerate(curve))
    # One list of ordered fibers per +-a pair: a and -a have the same fibers,
    # and the entries of both share its tuples (and so their renderings).
    bound = config.torsion_order_bound
    m = max((ch.m for ch in phi), default=0)
    if m:
        _require_fiber_budget(m, bound)  # sum(phi(d)) >= bound: keeps the sieve small
        _require_fiber_budget(m, _totient_sum(bound))
    ordered: Dict[Character, List[Tuple[Poly, ...]]] = {}
    fibers = []
    for ch in phi:
        key = max(ch.a, tuple(-x for x in ch.a))
        if key not in ordered:
            by_divisor = {d: _cyclotomic_factors(curve, ch, d) for d in range(1, bound + 1)}
            ordered[key] = [_order_fiber(by_divisor, order) for order in range(1, bound + 1)]
        fibers.extend((ch.a, order, fiber) for order, fiber in enumerate(ordered[key], 1))
    scan = tuple(scan_dependent(curve, config, phi))
    return Report(
        curve_text=tuple(render(f) for f in curve.coords),
        map_degree=curve.degree,
        phi=phi,
        fibers=tuple(fibers),
        scan=scan,
    )
