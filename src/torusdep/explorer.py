"""Analysis pipeline: torsion-fiber enumeration, bounded-height scans for
multiplicatively dependent parameter values, and machine-readable reports.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .curvegeom import (
    Character,
    CurveData,
    NormalizedCharacter,
    normalize_character,
    two_point_divisor,
)
from .errors import DomainError, InvariantViolation
from .exactcore import Poly, cyclotomic_poly, factor_poly, int_shift, nth_power_in_Q, render, render_json
from .intlattice import IntMatrix, kernel_basis, primitive_witness
from .multdep import _primes_below, independent_over_coprime_base, point_height, relation_lattice
from .parser import parse_coordinates

# Budget on fiber degree: m*N in torsion_fiber, m*sum(phi(d), d <= N) in
# analyze. The slowest admitted case found, fiber --curve "(2*t+3)^256; 5*t"
# --char 1,-256 --order 16 (m*N = 4096, 7.3 MB of output), took 2.8-3.1 s
# as a whole call (fresh processes on a shared 2-vCPU VM).
MAX_FIBER_DEGREE = 4096
# Budget on the degree m*phi(d) of Phi_d(c * s**m) when c is not +-b**m and
# factor_poly must factor it. Its time follows the polynomial's structure,
# not its degree: the slowest admitted case found, fiber --curve
# "6*(t-1)^14; t" --char 1,0 --order 10, factors Phi_10(6*s**14) of degree
# 56 and took 1.9 s as a whole call (as above), while Phi_4((3/2)*s**42),
# of degree 84, took 58 s to factor.
MAX_FALLBACK_DEGREE = 64
# Budget on the scan height H: the scan sweeps about 2*H**2 parameters.
# The slowest whole analyze call measured at H = 1000 took 2.0 s, on
# (t-1000000)/(t-999999); t-999998, whose places are too high for sieve
# tables, so every parameter tests them by pow; t*(t+1); (t-2)/(t+3); t-5
# took 1.0 s, most of it start-up (medians of 5 fresh processes on a
# shared 2-vCPU VM). Those tests grow as H**2 (13 s at H = 3000), so
# 10**4 is not admitted.
MAX_SCAN_HEIGHT = 1000
# Budget on the bits of one degree-1 place's sieve table, 2*V + 1. The
# largest admitted, 4194001 bits for t - 2096 at H = 1000, took 0.11-0.15 s
# to build. A whole analyze --curve "(t-2096)/(t+1); t" --scan-height 1000
# took 0.56 s, and one on "(t-2096)*(t+2096)*(2*t-2095)*(2*t+2095)/
# ((3*t-2093)*(3*t+2093)); t", which builds three such tables, 0.85 s
# (medians of 5 fresh processes, as above).
MAX_SIEVE_TABLE_BITS = 1 << 22


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


def _cyclotomic_factors(
    curve: CurveData, ch: NormalizedCharacter, ds: Sequence[int]
) -> List[Tuple[int, Poly]]:
    """(d, q) for each d in ds and each minimal polynomial q of the t where
    the character ch is a primitive d-th root of unity and every coordinate
    is finite and nonzero, in factor_key order of q (distinct: the q of
    different d have disjoint roots). The order-N fiber is the q with d | N.

    In its normal form c * s**m, s = L_P/L_Q, take the irreducible factors
    h of Phi_d(c * s**m): for c = eps * b**m (b = u/v > 0, eps = +-1) the
    Phi_e(b*s) over the e | m*d2 with e/gcd(e, m) = d2, the order of
    eps * zeta_d, each as the integer coefficients of v**k * Phi_e(b*s);
    otherwise the factor_poly factors with their denominators cleared, or
    DomainError when the degree m*phi(d) exceeds MAX_FALLBACK_DEGREE. Each
    h goes through _map_back once, to a primitive integer image. An image
    of degree 0 is the root t = inf and is dropped, and so is one equal to
    the form of a place of the curve (curve.forms, the form of _map_back
    at a finite place). The rest are put in order as integers
    (_sort_images), and only then is each made one monic Poly.
    """
    m, c = ch.m, ch.c
    b = nth_power_in_Q(abs(c), m)
    places = set(curve.forms)
    tagged = []
    for d in ds:
        hs = []
        if b is None:
            cs = cyclotomic_poly(d).coeffs
            degree = m * (len(cs) - 1)
            if degree > MAX_FALLBACK_DEGREE:
                raise DomainError(f"a fiber to factor of degree {degree} exceeds {MAX_FALLBACK_DEGREE}")
            sparse = [Fraction(0)] * (degree + 1)
            sparse[::m] = [x * c ** k for k, x in enumerate(cs)]
            for h, _mult in factor_poly(Poly(sparse))[1]:
                D = math.lcm(*(x.denominator for x in h.coeffs))
                hs.append([x.numerator * (D // x.denominator) for x in h.coeffs])
        else:
            d2 = d if c > 0 or d % 4 == 0 else d // 2 if d % 2 == 0 else 2 * d
            u, v = b.as_integer_ratio()
            for e in range(1, m * d2 + 1):
                if m * d2 % e == 0 and e // math.gcd(e, m) == d2:
                    phi = cyclotomic_poly(e).coeffs
                    k = len(phi) - 1
                    hs.append([x.numerator * u ** j * v ** (k - j) for j, x in enumerate(phi)])
        images = (_map_back(h, ch) for h in hs)
        tagged += [(d, image) for image in images if len(image) > 1 and image not in places]
    _sort_images(tagged)
    return [(d, Poly([Fraction(x, image[-1]) for x in image])) for d, image in tagged]


def _sort_images(tagged: List[Tuple[int, Tuple[int, ...]]]) -> None:
    """Sort (d, image) pairs in place into the factor_key order of the
    monic image / image[-1], each image primitive with a positive leading
    coefficient: by degree, then by the coefficients from the top, each
    times lcm(leading coefficients) // image[-1]. That common positive
    scale keeps the order of the monic coefficients, in integers."""
    L = math.lcm(*(image[-1] for _d, image in tagged))

    def key(item):
        image = item[1]
        scale = L // image[-1]
        return len(image), [x * scale for x in reversed(image)]

    tagged.sort(key=key)


def _map_back(h: List[int], ch: NormalizedCharacter) -> Tuple[int, ...]:
    """L_Q**k * h(L_P/L_Q), for h of degree k given by its integer
    coefficients (L_X = t - x, L_inf = 1), as its primitive integer
    coefficients with a positive leading one, constant term first. With
    w = t - q, L_P/L_Q is 1 + delta/w (delta = q - p) or 1/w (P = inf), so
    the image is sum g_j delta**j w**(k - j), g = h(1 + s) or h, in t - q.
    Every step stays in integers, up to a nonzero constant factor
    (int_shift's denominator power, delta's denominator**k) that the final
    division by the signed content removes."""
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
    content = math.gcd(*image)
    if image[-1] < 0:
        content = -content
    # from a list: tuple() of a generator grows the tuple by resizing, which
    # read about 0.5 MB more peak RSS over 100 analyze passes
    return tuple([x // content for x in image])


def _rational_fiber_points(ch: NormalizedCharacter) -> List[Fraction]:
    """The finite rational t where the character ch is +-1, the only roots
    of unity in Q, places of the curve included: on its normal form
    c * s**m, s = L_P/L_Q, the s0 = +-1/b for |c| = b**m, none when |c| is
    not an m-th power, each mapped back by the inverse of the Mobius map s
    (s0 = 1 is t = inf when both places are finite)."""
    b = nth_power_in_Q(abs(ch.c), ch.m)
    if b is None:
        return []
    points = []
    for s0 in (1 / b, -1 / b):
        if ch.Q.is_infinity:
            points.append(ch.P.rational_root() + s0)
        elif ch.P.is_infinity:
            points.append(ch.Q.rational_root() + 1 / s0)
        elif s0 != 1:
            points.append((ch.P.rational_root() - s0 * ch.Q.rational_root()) / (1 - s0))
    return points


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

    The restriction is c * s**m in s = L_P/L_Q, and the fiber is the
    _cyclotomic_factors of the divisors d of N, of total degree at most
    m*N, in factor_poly order; each factor is built, mapped back, filtered
    and put in order in integers, and made a Poly once kept. analyze assembles every order of a +-a pair from one such
    sorted list, over d <= its bound, and shares the tuples between a and
    -a. Raises what CurveData.require_proper raises, and DomainError when
    m*N exceeds MAX_FIBER_DEGREE, checked before c is built, or a
    polynomial to factor exceeds MAX_FALLBACK_DEGREE.
    """
    curve.require_proper()
    if N < 1:
        raise DomainError("torsion order must be positive")
    _require_fiber_budget(two_point_divisor(curve, a)[2], N)  # validates the character
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    tagged = _cyclotomic_factors(curve, normalize_character(curve, a), divisors)
    return tuple(q for _d, q in tagged)


def _private_survivors(
    curve: CurveData, H: int
) -> Iterator[Tuple[int, int, List[int], Tuple[Tuple[int, ...], ...]]]:
    """The coprime (p, q) with max(|p|, q) <= H and no finite F_P(p, q) = 0
    that the private-part filter keeps, each with its values
    v_P = |F_P(p, q)| (F_P and c_i from curve.forms and curve.consts, built
    once per curve) and its flat: the canonical basis (_reduced_rows) of
    the span of the rows of D of the places with r_P > 1, () when there are
    none.

    The private part r_P of v_P is v_P without the primes of
    C * prod_{Q != P} v_Q, C = prod_i |num c_i| * den c_i. A prime l of r_P
    gives v_l(x_i) = D[P, i] * v_l(v_P), so the point is independent, and
    the parameter dropped, when the rows of D of the places with r_P > 1
    have rank n. One rule per place. Degree 1, F_P = w*p - u*q primitive,
    first: a prime l of v_P puts (p : q) at (u : w) mod l, so r_P > 1 iff
    a prime of v_P is outside R_P = C * prod_{Q != P} |F_Q(u, w)|. At
    infinity v_P = q, so its bit is decided once per row and starts the
    flat. Degree 2 or more (never 0 at a coprime (p, q)): v_P stripped by
    repeated gcd, last, for the survivors of the degree-1 places.

    The degree-1 places are sieved a row q at a time. The row is a bitset
    of its 2H + 1 parameters p (bit p + H), cleared at the p that share a
    prime with q and at the one zero of each finite F_P at a coprime
    (p, q), and split by rank state: the flat spanned by the private
    places met so far, numbered by its canonical basis. The finite places
    go in place order, each giving the row one bitset of its r_P > 1. A
    place P = (u : w) takes it from a _sieve_table of its bit at every
    z = w*p - u*q in [-V, V], V = (|u| + w) * H, one int per residue of
    z mod w, so one shift and one mask; the table is built once the rows
    left would repay it at this row's live count. Until then, and for
    good when the table would pass MAX_SIEVE_TABLE_BITS, each live
    parameter takes its bit from one pow. P moves the live bits of a
    state to the flat it spans with P, a flat of rank n is dropped, and
    the row ends once nothing in it is live. Survivors come out in
    (q, p) order.
    """
    rows, forms = curve.divisor_matrix.entries, curve.forms
    C = math.prod(abs(c.numerator) * c.denominator for c in curve.consts)
    linear, infinity = [], []  # (k, a0, a1, R_P) per finite degree-1 place, and at infinity
    for k, (place, f) in enumerate(zip(curve.place_index, forms)):
        if len(f) == 2:  # every other F_Q at its root (-f[0] : f[1])
            R = C * math.prod(abs(_form_at(g, -f[0], f[1])) for g in forms if g is not f)
            (infinity if place.is_infinity else linear).append((k, *f, R))
    higher = [k for k, f in enumerate(forms) if len(f) > 2]
    # flats by number, and the flat of a flat and a place (None at rank n)
    flats: Dict[Tuple[Tuple[int, ...], ...], int] = {(): 0}
    bases: List[Tuple[Tuple[int, ...], ...]] = [()]

    @functools.cache
    def span(key: int, k: int) -> Optional[int]:
        basis = _reduced_rows(bases[key] + (rows[k],))
        if len(basis) == len(bases[key]):
            return key
        if len(basis) == curve.n:
            return None
        if basis not in flats:
            flats[basis] = len(bases)
            bases.append(basis)
        return flats[basis]

    width = 2 * H + 1
    full = (1 << width) - 1
    zeros: Dict[int, int] = {}
    for _k, a0, a1, _R in linear:
        if a1 <= H and abs(a0) <= H:
            zeros[a1] = zeros.get(a1, 0) | 1 << (H - a0)
    tables: Dict[int, Optional[List[int]]] = {}
    for q in range(1, H + 1):
        # one row of D has rank 1 < n: the bit at infinity drops no row
        state = 0
        for k, _a0, _a1, R in infinity:
            if pow(R, q.bit_length(), q):
                state = span(0, k)
        B = full & ~zeros.get(q, 0)
        for l in _prime_factors(q):  # clear p = 0 mod l, at bits H mod l + l*j
            B &= ~((1 << l * (width // l + 1)) // ((1 << l) - 1) << H % l)
        states = {state: B}
        live = B.bit_count()
        for k, a0, a1, R in linear:
            # built once the rows left would repay it at this row's live
            # count: a table entry costs about an eighth of a pow
            if k not in tables and 8 * live * (H + 1 - q) > (abs(a0) + a1) * H:
                tables[k] = _sieve_table(a0, a1, R, H)
            table = tables.get(k)
            if table is not None:
                i = a0 * q - a1 * H + (abs(a0) + a1) * H  # z + V at p = -H
                bits = table[i % a1] >> i // a1 & full
            else:
                bits = 0
                for i in _bit_positions(sum(states.values())):  # the states' bits are disjoint
                    v = abs(a1 * (i - H) + a0 * q)
                    if pow(R, v.bit_length(), v):  # iff a prime of v does not divide R
                        bits |= 1 << i
            moved: Dict[int, int] = {}
            for state, B in states.items():
                private = B & bits
                to = span(state, k) if private else state
                if to != state:
                    B ^= private
                    if to is not None:
                        moved[to] = moved.get(to, 0) | private
                if B:
                    moved[state] = moved.get(state, 0) | B
            states = moved
            live = sum(B.bit_count() for B in states.values())
            if not live:
                break
        kept = []
        for state, B in states.items():
            for i in _bit_positions(B):
                p = i - H
                values = [abs(_form_at(f, p, q)) for f in forms]
                total = C * math.prod(values)
                key = state
                for k in higher:
                    v = values[k]
                    g = math.gcd(v, total // v)
                    while g > 1:
                        v //= g
                        g = math.gcd(v, g)
                    if v > 1:
                        key = span(key, k)
                        if key is None:
                            break
                else:
                    kept.append((p, q, values, bases[key]))
        kept.sort()  # the states split the row: back to p order
        yield from kept


def _form_at(f: Sequence[int], p: int, q: int) -> int:
    """The binary form f, integer coefficients constant term first, at
    (p, q): sum f[j] * p**j * q**(deg - j), by one homogeneous Horner pass."""
    acc, qk = 0, 1
    for a in reversed(f):
        acc, qk = acc * p + a * qk, qk * q
    return acc


def _reduced_rows(vectors: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """The nonzero rows of the reduced row echelon form over Q of integer
    vectors, each scaled to integers of gcd 1 with a positive pivot: a
    canonical basis of their span."""
    m = [list(v) for v in vectors]
    r = 0
    for c in range(len(m[0])):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        v = m[r]
        for i, w in enumerate(m):
            if i != r and w[c]:
                m[i] = [v[c] * x - w[c] * y for x, y in zip(w, v)]
        r += 1
    return tuple(tuple(x // math.gcd(*v) * (1 if next(y for y in v if y) > 0 else -1) for x in v) for v in m[:r])


def _sieve_table(a0: int, a1: int, R: int, H: int) -> Optional[List[int]]:
    """The certificate bits of the place a1*p + a0*q = z at every z in
    [-V, V], V = (|a0| + a1) * H: set iff |z| has a prime outside R, that
    is, iff it is a multiple of a prime up to V that does not divide R
    (never at 0). One int per residue c of z + V mod a1, whose bit j is
    that of z + V = c + a1*j; None when the 2V + 1 bits would pass
    MAX_SIEVE_TABLE_BITS."""
    V = (abs(a0) + a1) * H
    if 2 * V + 1 > MAX_SIEVE_TABLE_BITS:
        return None
    half = bytearray(b"0") * (V + 1)
    for l in _primes_below(V + 1):
        if R % l:
            half[l::l] = b"1" * (V // l)
    line = (half[:0:-1] + half).decode()  # z = -V .. V
    return [int(line[c::a1][::-1], 2) for c in range(a1)]


def _prime_factors(q: int) -> List[int]:
    """The primes of q, by trial division."""
    primes, l = [], 2
    while l * l <= q:
        if q % l == 0:
            primes.append(l)
            while q % l == 0:
                q //= l
        l += 1
    return primes + [q] if q > 1 else primes


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_positions(B: int) -> List[int]:
    """The indices of the set bits of B >= 0, in increasing order."""
    bits = bin(B)[:1:-1].encode().translate(_BIT_BYTES)  # bit i at byte i, 0 or 1
    return list(itertools.compress(range(len(bits)), bits))


def _sub_torus(
    rows: Sequence[Sequence[int]], consts: Sequence[Fraction], flat: Sequence[Sequence[int]]
) -> List[Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]]:
    """One monomial |y| = |x|**k per vector k of a basis of K, the kernel of
    the basis flat of a span of rows of D (all of Z^n when flat is ()): its
    (integer, exponent) pairs from the |c_i|, and its (place, exponent)
    pairs, the exponent at P being D[P] . k. Zero exponents are left out,
    and so is every place whose row lies in the flat."""
    monomials = []
    for vec in kernel_basis(IntMatrix(flat or [[0] * len(consts)])).vectors:
        const = [(v, s * e) for c, e in zip(consts, vec) if e
                 for v, s in ((abs(c.numerator), 1), (c.denominator, -1))]
        places = [(k, sum(a * e for a, e in zip(row, vec))) for k, row in enumerate(rows)]
        monomials.append((const, [(k, m) for k, m in places if m]))
    return monomials


def scan_dependent(curve: CurveData, config: AnalysisConfig) -> List[ScanRecord]:
    """Scan rational parameters t0 = p/q with max(|p|, q) <= H for dependent
    points, classifying each as a torsion-fiber point of an enumerated
    character or as exceptional. Deterministic: sorted by (height,
    parameter). Raises what CurveData.require_proper raises.

    Each parameter is tested from the divisor matrix D, never by evaluating
    the coordinates and never by factoring:
    x_i(p/q) = c_i * prod_P F_P(p, q)**D[P, i] with the integer place forms
    F_P and the constants c_i of curve.forms and curve.consts, built once
    per curve. A parameter is skipped iff some finite F_P(p, q) is 0, which
    is exactly when some coordinate has a pole or a zero there:
    coordinates are reduced and place_index is the union of their supports.
    _private_survivors drops the parameters whose private place values
    prove independence, each place decided by one rule: a resultant
    certificate at degree 1, a gcd strip at degree 2 or more. For the rest,
    the point is dependent iff the |x_i| are (a relation among them doubles
    to one among the x_i). Such a relation a has D[P] . a = 0 at every
    private place P, so it lies in the kernel of the survivor's flat, the
    span of those rows, and the point is dependent iff the _sub_torus
    monomials of any basis of that kernel are, which
    multdep.independent_over_coprime_base decides from the c_i and the
    values of the places outside the flat, one monomial by residues first
    and the rest by gcds alone. Only dependent parameters are evaluated
    and passed to relation_lattice; a zero lattice there means the two
    routes disagree and raises InvariantViolation.

    A record is FIBER(a) for the first character of curve.characters,
    positive orientation first, whose _rational_fiber_points hold t0. Those
    points are dependent (2a is a relation), so one off the places with
    max(|p|, q) <= H that no record holds raises InvariantViolation.
    """
    curve.require_proper()
    fiber_of: Dict[Fraction, Character] = {}
    # the positively oriented member of each +- pair first
    for ch in sorted(curve.characters, key=lambda ch: (next((x for x in ch.a if x), 0) < 0, ch.a)):
        for t0 in _rational_fiber_points(ch):
            fiber_of.setdefault(t0, ch.a)
    H = config.scan_height_bound
    rows = curve.divisor_matrix.entries
    monomials = functools.cache(functools.partial(_sub_torus, rows, curve.consts))
    records = []
    for p, q, values, flat in _private_survivors(curve, H):
        products = [const + [(values[k], m) for k, m in places] for const, places in monomials(flat)]
        if independent_over_coprime_base(products):
            continue
        t0 = Fraction(p, q)
        point = tuple(f(t0) for f in curve.coords)
        lattice = relation_lattice(point)
        if lattice.is_zero():
            raise InvariantViolation(f"rank test and relation lattice disagree at t = {t0}")
        witness = primitive_witness(lattice)
        relation = witness if witness is not None else lattice.vectors[0]
        records.append(
            ScanRecord(
                parameter=t0,
                point=point,
                dependent=True,
                primitive=witness is not None,
                relation=relation,
                height=point_height(point),
                fiber_character=fiber_of.get(t0),
            )
        )
    found = {r.parameter for r in records}
    for t0 in fiber_of:
        p, q = t0.numerator, t0.denominator
        if max(abs(p), q) <= H and t0 not in found and all(_form_at(f, p, q) for f in curve.forms):
            raise InvariantViolation(f"fiber point t = {t0} missed by the scan")
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
        return render_json(self.to_dict())

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
    phi = curve.characters
    # One list of fibers per +-a pair, cut from one sorted list of d-tagged
    # factors; a and -a share its tuples (and so their renderings).
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
            tagged = _cyclotomic_factors(curve, ch, range(1, bound + 1))
            ordered[key] = [tuple(q for d, q in tagged if N % d == 0) for N in range(1, bound + 1)]
        fibers.extend((ch.a, order, fiber) for order, fiber in enumerate(ordered[key], 1))
    scan = tuple(scan_dependent(curve, config))
    return Report(
        curve_text=tuple(render(f) for f in curve.coords),
        map_degree=curve.degree,
        phi=phi,
        fibers=tuple(fibers),
        scan=scan,
    )
