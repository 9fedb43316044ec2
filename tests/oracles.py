"""Exhaustive oracles the tests compare the library against: phi_oracle
multiplies out every small monomial product on the curve and tests it for
a two-point rational divisor without factoring instead of working from
the divisor matrix, dependence_oracle multiplies out every small exponent
vector instead of factoring the coordinates, scan_oracle evaluates
every coordinate and builds the relation lattice at every parameter instead
of testing rank from the place forms, and classifies each record by
multiplying out every character at the point and testing the product with
root_of_unity_order instead of looking it up among the characters'
closed-form fiber points, private_survivors_oracle strips each
place value of the primes of all the others at every parameter instead of
first certifying the degree-1 places from their resultants, relation_oracle
factors every coordinate with sympy.factorint instead of testing rank over
a coprime base first, map_degree_oracle takes the properness gcd through sympy
expressions (expand, subs, sympy.gcd) instead of one sympy.Poly gcd of
coefficient dicts, and character_oracle normalizes a character from the
factored restricted character (divisor_of) and reads c off its
composition with a Moebius map instead of taking P, Q and m from the
divisor matrix and c from leading coefficients, and phi_pairs_oracle
finds the character set with one kernel per pair of degree-1 places
instead of one Hermite normal form of the divisor matrix. compose
substitutes one rational function into another in sympy.Poly alone, so no
oracle composes with the library's own arithmetic. power_fiber_oracle
factors the numerator of phi**N - 1 instead of mapping cyclotomic factors
of the normal form back through the Moebius change, and
cyclotomic_fibers_oracle gives the same fibers at every order up to a bound from the factored numerators of the
Phi_d(phi), each factored once, order_fibers_oracle assembles each order's
fiber from separate per-divisor factor lists, each d's built and filtered
against Place objects on its own, and sorts every order afresh instead of
sorting a +-a pair's d-tagged factors once, map_back_oracle maps a factor back
through the Moebius change by its own Horner composition over Fractions
instead of int_shift on integer coefficient lists, cyclotomic_poly_oracle divides t**n - 1 by
every Phi_d instead of building Phi_n from its radical, poly_str_oracle
renders a polynomial by comparing Fractions instead of reading each
coefficient's numerator and denominator, and
decompose_oracle solves each coordinate's exponent row with
express_in_basis (its own HNF and transform) over the sympy-factored prime
matrix instead of back-substituting against decompose's HNF, and
coprime_base_oracle refines factors by restarting its scan of the base
after every gcd split instead of sweeping each value over the whole base
once.

The exact checks the tests apply to library output live here too:
express_in_basis solves for lattice coordinates, monomial_product and
character_restrict multiply out a character on a curve, expand_factors
multiplies a factorization back out and reconstruct rebuilds a point from
its decomposition."""
import functools
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import sympy

from torusdep.curvegeom import (
    Character,
    CurveData,
    NormalizedCharacter,
    Place,
    check_assumption,
    cyclotomic_realizable,
    divisor_of,
    normalize_character,
    phi_enumerate,
)
from torusdep.errors import DomainError, InvariantViolation, PreconditionError
from torusdep.exactcore import Poly, RatFunc, cyclotomic_poly, factor_key, factor_poly, nth_power_in_Q
from torusdep.explorer import MAX_FALLBACK_DEGREE, AnalysisConfig, ScanRecord, _map_back
from torusdep.intlattice import (
    IntMatrix,
    LatticeBasis,
    _sign_normalized,
    content,
    hnf,
    kernel_basis,
    min_content,
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
)


def coprime_base_oracle(values: Iterable[int]) -> List[int]:
    """Pairwise coprime integers > 1, increasing, such that every positive
    value is a product of them: a pair a, b with g = gcd(a, b) > 1 becomes
    g, a/g, b/g, leaving out 1s, and the scan starts over."""
    todo = [v for v in values if v > 1]
    base: List[int] = []
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[i]
                todo += [v for v in (g, a // g, b // g) if v > 1]
                break
        else:
            base.append(a)
    return sorted(base)


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

    Multiplies out the actual monomial product over ZZ in sympy.Poly (the
    coordinates' constants dropped, which leaves the divisor alone), reduces
    it once, and decides the two places with two_point_divisor_oracle,
    independently of the divisor matrix route used by phi_enumerate. Test
    use only.
    """
    if check_assumption(curve) is not None:
        raise PreconditionError("curve violates the standing hypothesis")
    if B < 1:
        raise DomainError("oracle bound must be positive")
    t = sympy.Symbol("t")
    sides = [
        [_to_sympy_poly(p, t).clear_denoms(convert=True)[1] for p in (f.num, f.den)]
        for f in curve.coords
    ]
    out: List[Character] = []
    for a in _box_vectors(curve.n, B):
        # div(x**-a) = -div(x**a): visit one of each +- pair, keep both
        if next(x for x in a if x) < 0 or content(a) != 1:
            continue
        num = den = sympy.Poly(1, t, domain="ZZ")
        for (fn, fd), e in zip(sides, a):
            if e < 0:
                fn, fd, e = fd, fn, -e
            num, den = num * fn ** e, den * fd ** e
        num, den = num.cancel(den, include=True)
        if two_point_divisor_oracle([int(c) for c in num.all_coeffs()], [int(c) for c in den.all_coeffs()]):
            out.extend((a, tuple(-x for x in a)))
    return sorted(out)


def phi_pairs_oracle(curve: CurveData) -> List[NormalizedCharacter]:
    """phi_enumerate by one kernel per pair of degree-1 places: the kernel
    of the divisor matrix with the two rows deleted has rank at most 1
    under the standing hypothesis, and a rank-1 kernel yields one +- pair,
    whose divisor D·a is supported on exactly the two places: it has
    degree 0 and, by the hypothesis, is not zero."""
    curve.require_proper()
    places = curve.place_index
    rational = [i for i, p in enumerate(places) if p.degree == 1]
    found: Dict[Character, None] = {}
    for ii in range(len(rational)):
        for jj in range(ii + 1, len(rational)):
            keep = [r for r in range(len(places)) if r != rational[ii] and r != rational[jj]]
            if not keep:
                raise InvariantViolation("divisor matrix with two places contradicts the hypothesis")
            kernel = kernel_basis(IntMatrix([curve.divisor_matrix.row(r) for r in keep]))
            if kernel.rank == 0:
                continue
            if kernel.rank >= 2:
                raise InvariantViolation("place pair admits a rank-2 character space")
            a = kernel.vectors[0]
            if content(a) != 1:
                raise InvariantViolation("saturated kernel produced an imprimitive vector")
            found.setdefault(a, None)
            found.setdefault(tuple(-x for x in a), None)
    return [normalize_character(curve, a) for a in sorted(found)]


def _pure_power(cs: Sequence) -> bool:
    """Whether cs (coefficients, highest first, degree m >= 1) is
    lc*(t - r)**m, with r read off the second-highest coefficient."""
    m = len(cs) - 1
    r = Fraction(-cs[1], m * cs[0])
    return all(c == cs[0] * math.comb(m, k) * (-r) ** k for k, c in enumerate(cs))


def two_point_divisor_oracle(num: Sequence, den: Sequence) -> bool:
    """Whether num/den (coprime, coefficients highest first) has a divisor
    on exactly two places, both rational: c*(t - p)**m/(t - q)**m, or one
    side constant and the other c*(t - p)**m, infinity being the second
    place. Decided without factoring. Test use only."""
    dn, dd = len(num) - 1, len(den) - 1
    if dn and dd:
        return dn == dd and _pure_power(num) and _pure_power(den)
    return dn + dd > 0 and _pure_power(num if dn else den)


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


def root_of_unity_order(x: Fraction) -> Optional[int]:
    """Order of x as a root of unity in Q: 1 for 1, 2 for -1, else None."""
    if x == 1:
        return 1
    if x == -1:
        return 2
    return None


def _scan_parameters(H: int):
    for q in range(1, H + 1):
        for p in range(-H, H + 1):
            if Fraction(p, q).denominator == q:  # gcd(p, q) == 1 representative
                yield Fraction(p, q)


def scan_oracle(curve: CurveData, config: AnalysisConfig) -> List[ScanRecord]:
    """The height scan done the direct way: evaluate every coordinate at
    every parameter with Fractions and build its relation lattice. Test use
    only."""
    curve.require_proper()
    # Prefer the positively oriented member of each +- pair when classifying.
    ordered = sorted(
        phi_enumerate(curve),
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


def private_survivors_oracle(curve: CurveData, H: int) -> Iterator[Tuple[int, int, List[int], int]]:
    """The coprime (p, q) with max(|p|, q) <= H and no finite F_P(p, q) = 0
    that the private-part filter keeps, each with its values
    v_P = |F_P(p, q)| (curve.forms and curve.consts) and its mask,
    bit k set iff the k-th place has r_P > 1.

    The private part r_P is v_P stripped, by repeated gcd, of every prime
    it shares with C * prod_{Q != P} v_Q, C = prod_i |num c_i| * den c_i.
    A prime l dividing r_P divides no c_i and no other value, so
    v_l(x_i) = D[P, i] * v_l(v_P): the prime-exponent matrix of the x_i
    holds a nonzero multiple of the row D[P, .]. The point is therefore
    independent, and the parameter dropped, when the rows of D of the
    places with r_P > 1 have rank n; that rank is kept per set of places.
    """
    rows, forms = curve.divisor_matrix.entries, curve.forms
    C = math.prod(abs(c.numerator) * c.denominator for c in curve.consts)
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


def _smith_first_witness(B: LatticeBasis) -> Vector:
    """A lattice vector of content equal to min_content(B).

    Runs the first pivot stage of Smith reduction, tracking the inverse of
    the column transform; the witness is d1 times the first row of T^{-1}.
    """
    w = [list(v) for v in B.vectors]
    n = B.ambient
    tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows = len(w)

    def col_add(dst: int, src: int, k: int):
        # column op: col dst += k * col src; inverse acts on rows of tinv.
        for r in range(rows):
            w[r][dst] += k * w[r][src]
        tinv[src] = [a - k * b for a, b in zip(tinv[src], tinv[dst])]

    def col_swap(i: int, j: int):
        for r in range(rows):
            w[r][i], w[r][j] = w[r][j], w[r][i]
        tinv[i], tinv[j] = tinv[j], tinv[i]

    def col_negate(j: int):
        for r in range(rows):
            w[r][j] = -w[r][j]
        tinv[j] = [-a for a in tinv[j]]

    while True:
        # Move a minimal nonzero entry to (0, 0).
        best = None
        for i in range(rows):
            for j in range(n):
                if w[i][j] != 0 and (best is None or abs(w[i][j]) < abs(w[best[0]][best[1]])):
                    best = (i, j)
        assert best is not None
        bi, bj = best
        if bi != 0:
            w[0], w[bi] = w[bi], w[0]
        if bj != 0:
            col_swap(0, bj)
        if w[0][0] < 0:
            col_negate(0)
        p = w[0][0]
        dirty = False
        for j in range(1, n):
            q = w[0][j] // p
            if q:
                col_add(j, 0, -q)
            if w[0][j] != 0:
                dirty = True
        for i in range(1, rows):
            q = w[i][0] // p
            if q:
                w[i] = [a - q * b for a, b in zip(w[i], w[0])]
            if w[i][0] != 0:
                dirty = True
        if dirty:
            continue
        # Pivot must divide every remaining entry for d1 = gcd of all.
        offender = None
        for i in range(1, rows):
            for j in range(1, n):
                if w[i][j] % p != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender is None:
            break
        col_add(0, offender[1], 1)
    d1 = w[0][0]
    return tuple(d1 * x for x in tinv[0])


def primitive_witness_oracle(B: LatticeBasis) -> Optional[Vector]:
    """A content-1 lattice vector, if min_content(B) == 1; else None: d1
    times the first row of the inverse column transform of the first Smith
    stage, instead of the basis rows that stage reduces. Test use only."""
    if min_content(B) != 1:
        return None
    v = _smith_first_witness(B)
    assert content(v) == 1
    return _sign_normalized(v)


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


def cyclotomic_fibers_oracle(curve: CurveData, a: Sequence[int], top: int) -> List[List[Poly]]:
    """power_fiber_oracle at every order 1 to top, factoring once per d:
    phi**N - 1 = prod_{d | N} Phi_d(phi), and for phi = A/B in lowest
    terms and Phi_d = sum_j c_j t**j (sympy.cyclotomic_poly) the numerator
    of Phi_d(phi) is sum_j c_j A**j B**(k - j), coprime to B. Their product
    over d | N is A**N - B**N, the numerator of phi**N - 1, so the order-N
    fiber is the factors of the d | N that pass the same coordinate
    filter, sorted by factor_key."""
    phi = character_restrict(curve, a)
    t = sympy.Symbol("t")
    by_divisor = []
    for d in range(1, top + 1):
        cs = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(d, t), t).all_coeffs())]
        k = len(cs) - 1
        num = sum((c * phi.num ** j * phi.den ** (k - j) for j, c in enumerate(cs) if c), Poly())
        by_divisor.append(
            [q for q, _mult in factor_poly(num)[1]
             if not any(q.divides(f.num) or q.divides(f.den) for f in curve.coords)]
        )
    return [
        sorted((q for d, qs in enumerate(by_divisor, 1) if N % d == 0 for q in qs), key=factor_key)
        for N in range(1, top + 1)
    ]


def _divisor_factors(curve: CurveData, ch: NormalizedCharacter, d: int) -> List[Poly]:
    """The monic images under _map_back of the irreducible factors of
    Phi_d(c * s**m), c * s**m the normal form of ch, that are neither the
    root t = inf (a constant image) nor a place of the curve: for
    c = eps * b**m the Phi_e(b*s) over the e | m*d2 with e/gcd(e, m) = d2,
    the order of eps * zeta_d, else factor_poly's factors (DomainError past
    MAX_FALLBACK_DEGREE)."""
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
    images = [Poly(_map_back(h, ch)).monic() for h in hs]
    return [q for q in images if q.degree > 0 and Place.finite(q) not in places]


def order_fibers_oracle(curve: CurveData, a: Sequence[int], bound: int) -> List[Tuple[Poly, ...]]:
    """The fibers of the character a at the orders 1 to bound, each the
    factors of every d | N from _divisor_factors, sorted by factor_key on
    its own."""
    ch = next(ch for ch in phi_enumerate(curve) if ch.a == tuple(a))
    by_divisor = {d: _divisor_factors(curve, ch, d) for d in range(1, bound + 1)}
    return [
        tuple(sorted((q for d, qs in by_divisor.items() if N % d == 0 for q in qs), key=factor_key))
        for N in range(1, bound + 1)
    ]


def _shifted(p: Poly, a: Fraction) -> Poly:
    """p(t + a) = sum c_j (t + a)**j, by Horner's rule in Poly arithmetic."""
    out = Poly()
    for c in reversed(p.coeffs):
        out = out * Poly([a, 1]) + c
    return out


def map_back_oracle(h: Poly, ch: NormalizedCharacter) -> Poly:
    """L_Q**k * h(L_P/L_Q) for h of degree k (L_X = t - x, L_inf = 1), in
    Fractions: with w = t - q, L_P/L_Q is 1 + delta/w (delta = q - p) or
    1/w (P = inf), so the image is sum g_j delta**j w**(k - j), g = h(1 + s)
    or h, in t - q. Test use only."""
    if ch.Q.is_infinity:
        return _shifted(h, -ch.P.rational_root())
    q = ch.Q.rational_root()
    g, delta = (h, 1) if ch.P.is_infinity else (_shifted(h, Fraction(1)), q - ch.P.rational_root())
    return _shifted(Poly(reversed([x * delta ** j for j, x in enumerate(g.coeffs)])), -q)


def poly_str_oracle(p: Poly) -> str:
    """Poly's rendering, from the top coefficient down, by Fraction
    comparisons, abs and str of each coefficient instead of reading its
    numerator and denominator."""
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            body = tpow if mag == 1 else f"{mag}*{tpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) or "0"


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
