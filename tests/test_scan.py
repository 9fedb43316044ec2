"""The height scan tests dependence from integer place forms, without
factoring: a private-part filter, then a rank over a coprime base. It
builds relation lattices only for dependent parameters; scan_oracle builds
one at every parameter. The two must give identical records. The filter
decides each degree-1 place by its resultant certificate, a row at a time,
from a table or by one pow per live parameter, and each place of degree 2
or more by a gcd strip; private_survivors_oracle strips every place at
every parameter, and the two must yield identical (p, q, values) streams,
each survivor's flat spanning the rows of the oracle's private places, on
curves with many places and past the table budget too. A survivor is then
tested on the kernel of its flat, which must give the verdict of the n
coordinates. Records are classified from each character's closed-form
rational fiber points, which must be the rational roots of its order-2
torsion fiber, and a closed-form point off the places that the sweep
misses raises InvariantViolation."""
import json
import math
import random
from fractions import Fraction as F

import pytest

from oracles import private_survivors_oracle, root_of_unity_order, scan_oracle
from test_fibers import BRANCH_CURVES
from torusdep import explorer
from torusdep.cli import main
from torusdep.curvegeom import CurveData, phi_enumerate
from torusdep.errors import InvariantViolation
from torusdep.exactcore import Poly, RatFunc
from torusdep.explorer import (
    AnalysisConfig,
    _private_survivors,
    _rational_fiber_points,
    _sub_torus,
    parse_curve,
    scan_dependent,
    torsion_fiber,
)
from torusdep.intlattice import LatticeBasis, rank
from torusdep.multdep import independent_over_coprime_base, relation_lattice

BENCH_CURVES = ["(t-1)^2; t", "(t-1)^3; t", "2*t/(t+1); t^(-2)", "t*(t+1); (t-2)/(t+3); t-5"]
NO_INFINITY = "(t+1)/(t-1); (2*t+3)/(t-5)"
QUADRATIC_PLACE = "t^2*(t+1)/(t-3); (3*t^2+1)/(t+5)^2; 7*t"
# degree-1 places t and t + 1 only, whose rows have rank 1 < n = 2: no
# parameter is dropped by certificates alone
LOW_LINEAR_RANK = "(t^2+t+1)/(t^2-2); 3*t/(t+1)"
# (curve, H, a place it has): places t - 6, t, t + 6 whose values share
# primes (pairwise resultants 6, 6 and 12); a place of degree 3; place
# values of about 100 bits, past the integer factoring budget
MORE_CURVES = [
    ("t*(t+6); 3*(t-6)/t", 30, "t + 6"),
    ("(t^3+2)/(t+1); t-1", 30, "t^3 + 2"),
    ("t^25+7; t", 20, "t^25 + 7"),
]


def _same_scan(curve, H):
    config = AnalysisConfig(scan_height_bound=H)
    records = scan_dependent(curve, config)
    assert records == scan_oracle(curve, config)
    return records


@pytest.mark.parametrize("text", BENCH_CURVES)
def test_bench_curves_match_oracle(text):
    assert _same_scan(parse_curve(text), 50)


def test_curve_without_place_at_infinity():
    curve = parse_curve(NO_INFINITY)
    assert all(not p.is_infinity for p in curve.place_index)
    _same_scan(curve, 30)


def test_quadratic_place_and_nonunit_constants():
    curve = parse_curve(QUADRATIC_PLACE)
    assert any(p.degree == 2 for p in curve.place_index)
    assert any(abs(c) != 1 for c in curve.consts)
    assert _same_scan(curve, 30)


@pytest.mark.parametrize("text, H, place", MORE_CURVES)
def test_more_curves_match_oracle(text, H, place):
    curve = parse_curve(text)
    assert curve.degree == 1 and curve.violation is None
    assert place in {str(p) for p in curve.place_index}
    assert _same_scan(curve, H)


def test_large_place_values_need_no_factoring(capsys):
    args = ["analyze", "--curve", "t^25+7; t", "--torsion-order", "1", "--scan-height", "20"]
    assert main(args) == 0
    scan = json.loads(capsys.readouterr().out)["scan"]
    assert [r["t"] for r in scan] == ["-1", "1"]


def _swept(curve, H):
    """Every coprime (p, q) with max(|p|, q) <= H, and the point there (None
    where a coordinate has a zero or a pole)."""
    for q in range(1, H + 1):
        for p in range(-H, H + 1):
            if math.gcd(p, q) == 1:
                try:
                    point = tuple(f(F(p, q)) for f in curve.coords)
                except ZeroDivisionError:
                    point = None
                if point is not None and 0 in point:
                    point = None
                yield p, q, point


def _survivors(curve, H):
    return [(p, q) for p, q, _values, _flat in _private_survivors(curve, H)]


@pytest.mark.parametrize("text", BENCH_CURVES + [NO_INFINITY, QUADRATIC_PLACE])
def test_private_filter_rejects_only_independent_points(text):
    curve = parse_curve(text)
    H = 20
    kept = set(_survivors(curve, H))
    rejected = 0
    for p, q, point in _swept(curve, H):
        if point is None:
            assert (p, q) not in kept
        elif (p, q) not in kept:
            assert relation_lattice(point).is_zero(), (p, q)
            rejected += 1
    assert rejected > len(kept)


def test_private_filter_keeps_few_parameters():
    H = 50
    swept = kept = 0
    for text in BENCH_CURVES:
        curve = parse_curve(text)
        swept += sum(1 for _ in _swept(curve, H))
        kept += len(_survivors(curve, H))
    assert swept == 4 * 3095
    assert kept <= 0.05 * swept


def _random_proper_curves(count, seed):
    rng = random.Random(seed)

    def rand_poly():
        while True:
            p = Poly([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])
            if not p.is_zero():
                return p

    curves = []
    while len(curves) < count:
        coords = [RatFunc(rand_poly(), rand_poly()) for _ in range(rng.choice([2, 3]))]
        if any(f.is_zero() for f in coords):
            continue
        curve = CurveData.build(coords)
        if curve.violation is None and curve.degree == 1:
            curves.append((curve, rng.randint(6, 12)))
    return curves


def test_random_curves_match_oracle():
    dependent = 0
    for curve, H in _random_proper_curves(40, seed=4242):
        dependent += len(_same_scan(curve, H))
    assert dependent > 0


@pytest.mark.parametrize("text", BENCH_CURVES + [NO_INFINITY, QUADRATIC_PLACE])
def test_place_form_identity(text):
    curve = parse_curve(text)
    forms, consts = curve.forms, curve.consts
    assert all(math.gcd(*f) == 1 for f in forms)
    rows = curve.divisor_matrix.entries
    for p in range(-7, 8):
        for q in range(1, 6):
            values = [sum(a * p ** k * q ** (len(f) - 1 - k) for k, a in enumerate(f)) for f in forms]
            if 0 in values:
                continue
            for i, (f, c) in enumerate(zip(curve.coords, consts)):
                x = c
                for v, row in zip(values, rows):
                    x *= F(v) ** row[i]
                assert x == f(F(p, q))


def test_relation_lattice_only_for_dependent_parameters(monkeypatch):
    calls = []

    def counting(point):
        calls.append(point)
        return relation_lattice(point)

    monkeypatch.setattr(explorer, "relation_lattice", counting)
    records = scan_dependent(parse_curve("t*(t+1); (t-2)/(t+3); t-5"), AnalysisConfig(scan_height_bound=50))
    assert records
    assert len(calls) == len(records)
    assert sorted(calls) == sorted(r.point for r in records)


def test_disagreement_raises(monkeypatch):
    monkeypatch.setattr(explorer, "relation_lattice", lambda point: LatticeBasis(len(point), ()))
    with pytest.raises(InvariantViolation):
        scan_dependent(parse_curve("(t-1)^2; t"), AnalysisConfig(scan_height_bound=5))


def test_root_of_unity_order():
    assert root_of_unity_order(F(1)) == 1
    assert root_of_unity_order(F(-1)) == 2
    assert root_of_unity_order(F(2)) is None


def test_rational_fiber_points_are_the_rational_order_2_fiber():
    """Off the places, each character's closed-form points are the roots of
    the degree-1 factors of its order-2 torsion fiber, on every scan curve
    and every power_fiber_oracle branch curve."""
    more = (t for t, _H, _p in MORE_CURVES)
    branches = (t for t, _N in BRANCH_CURVES)
    seen = set()
    for text in (*BENCH_CURVES, NO_INFINITY, QUADRATIC_PLACE, LOW_LINEAR_RANK, *more, *branches):
        curve = parse_curve(text)
        places = {p.rational_root() for p in curve.place_index if p.degree == 1 and not p.is_infinity}
        for ch in phi_enumerate(curve):
            points = _rational_fiber_points(ch)
            assert len(set(points)) == len(points), (text, ch.a)
            fiber = {-q.coeffs[0] for q in torsion_fiber(curve, ch.a, 2) if q.degree == 1}
            assert set(points) - places == fiber, (text, ch.a)
            kind = "Q = inf" if ch.Q.is_infinity else "P = inf" if ch.P.is_infinity else "finite"
            seen |= {(kind, len(points)), ("at a place", bool(places & set(points)))}
    assert seen >= {(k, n) for k in ("Q = inf", "P = inf", "finite") for n in (0, 2)} | {("finite", 1)}
    assert ("at a place", True) in seen


def test_a_missed_fiber_point_raises(monkeypatch, capsys):
    real = explorer._private_survivors

    def dropping(*args):
        return (survivor for survivor in real(*args) if survivor[:2] != (2, 1))

    curve, config = parse_curve("(t-1)^2; t"), AnalysisConfig(scan_height_bound=10)
    assert F(2) in {r.parameter for r in scan_dependent(curve, config)}
    monkeypatch.setattr(explorer, "_private_survivors", dropping)
    with pytest.raises(InvariantViolation, match="fiber point t = 2 missed by the scan"):
        scan_dependent(curve, config)
    assert main(["analyze", "--curve", "(t-1)^2; t", "--torsion-order", "1", "--scan-height", "10"]) == 5
    assert capsys.readouterr().err == "internal invariant violation: fiber point t = 2 missed by the scan\n"


def _same_stream(curve, H):
    """Assert that the filter keeps the oracle's (p, q, values), each with
    the flat of the oracle's private places: a basis of the span of their
    rows of D."""
    rows = curve.divisor_matrix.entries
    stream = list(_private_survivors(curve, H))
    oracle = list(private_survivors_oracle(curve, H))
    assert [s[:3] for s in stream] == [o[:3] for o in oracle]
    for (p, q, _values, flat), (*_, mask) in zip(stream, oracle):
        private = [row for k, row in enumerate(rows) if mask >> k & 1]
        assert len(flat) == rank(private) == rank(list(flat) + private), (p, q)
    return stream


@pytest.mark.parametrize(
    "text, H",
    [(text, 50) for text in BENCH_CURVES]
    + [(NO_INFINITY, 30), (QUADRATIC_PLACE, 30), (LOW_LINEAR_RANK, 50)]
    + [(text, H) for text, H, _place in MORE_CURVES],
)
def test_filter_stream_matches_oracle(text, H):
    curve = parse_curve(text)
    if text == LOW_LINEAR_RANK:
        linear = [row for place, row in zip(curve.place_index, curve.divisor_matrix.entries) if place.degree == 1]
        assert linear and rank(linear) < curve.n
    _same_stream(curve, H)


def test_filter_stream_matches_oracle_on_random_curves():
    for curve, H in _random_proper_curves(40, seed=4242):
        _same_stream(curve, H)


def _shared_prime_curves(count, seed):
    """Proper curves built from rational linear factors b*t - a, with a a
    signed product of 2, 3, 5 and 7, so that the roots' differences share
    those primes: each coordinate but the last multiplies 3 to 6 factors,
    and the last is a quotient of two."""
    rng = random.Random(seed)
    tops = [s * m for m in (0, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 42, 70) for s in (1, -1)]

    def factor():
        return f"({rng.choice((1, 1, 2, 3))}*t{-rng.choice(tops):+d})"

    curves = []
    while len(curves) < count:
        coords = [
            "*".join(f"{factor()}^{rng.choice((-2, -1, 1, 2))}" for _ in range(rng.randint(3, 6)))
            for _ in range(rng.choice((1, 2)))
        ]
        try:
            curve = parse_curve("; ".join(coords + [f"{factor()}/{factor()}"]))
        except ValueError:  # a zero or constant coordinate
            continue
        if curve.violation is None and curve.degree == 1:
            curves.append((curve, rng.randint(15, 25)))
    return curves


def test_filter_stream_matches_oracle_where_resultants_share_small_primes():
    """Every place is of degree 1, where a certificate is exact (see
    test_certificate_is_sound_and_exact), so the certificates alone decide
    every parameter: many survive here."""
    swept = kept = 0
    for curve, H in _shared_prime_curves(40, seed=16):
        assert all(place.degree == 1 for place in curve.place_index)
        swept += sum(1 for _p, _q, point in _swept(curve, H) if point is not None)
        kept += len(_same_stream(curve, H))
    assert kept > 0.05 * swept


def _many_place_curves(count, seed, lines=False):
    """Proper curves of three coordinates with 20 to 80 degree-1 places
    t - a/b, |a| <= 30 and b <= 3, each in one or two coordinates with
    exponent -2, -1, 1 or 2; built from Poly products, so only the divisors
    factor. The gcd of the coordinates' degrees is 1. With lines, two more
    coordinates t - a and t - b, for a != b drawn from the same roots, give
    each curve at least the characters of the pairs among a, b and inf."""
    rng = random.Random(seed)
    roots = [F(a, b) for b in (1, 2, 3) for a in range(-30, 31) if math.gcd(a, b) == 1]
    curves = []
    while len(curves) < count:
        parts = [[Poly([F(1)]), Poly([F(1)])] for _ in range(3)]
        for root in rng.sample(roots, rng.randint(20, 80)):
            for i in rng.sample(range(3), rng.choice((1, 1, 2))):
                e = rng.choice((-2, -1, 1, 2))
                parts[i][e < 0] *= Poly([-root, F(1)]) ** abs(e)
        degrees = [max(num.degree, den.degree) for num, den in parts]
        if 0 in degrees or math.gcd(*degrees) != 1:
            continue
        if lines:
            parts += [(Poly([-root, F(1)]), Poly([F(1)])) for root in rng.sample(roots, 2)]
        curve = CurveData.build([RatFunc(num, den) for num, den in parts])
        if curve.violation is None:
            curves.append(curve)
    return curves


def _counting_tables(monkeypatch):
    """Record each _sieve_table the filter builds: (a0, a1, built)."""
    built = []
    original = explorer._sieve_table

    def counted(a0, a1, R, H):
        table = original(a0, a1, R, H)
        built.append((a0, a1, table is not None))
        return table

    monkeypatch.setattr(explorer, "_sieve_table", counted)
    return built


def test_filter_stream_matches_oracle_on_many_place_curves(monkeypatch):
    """Rows are sieved from the tables of many places; a place whose table
    would not repay takes pow bits instead: t - 1000, the first place of
    its curve, is inside the table budget at H = 12, but its table never
    repays, so every live parameter tests it by pow."""
    built = _counting_tables(monkeypatch)
    for curve, H in zip(_many_place_curves(4, seed=21), (8, 10, 12, 14)):
        assert 20 <= len(curve.place_index) <= 81 and curve.n == 3
        del built[:]
        _same_stream(curve, H)
        assert built and all(ok for _a0, _a1, ok in built)
    assert explorer._sieve_table(-1000, 1, 1, 12) is not None
    moduli = []
    monkeypatch.setattr(explorer, "pow", lambda R, e, v: moduli.append(v) or pow(R, e, v), raising=False)
    del built[:]
    assert _same_stream(parse_curve("(t-1000)*(t+1); t/(t-2)"), 12)
    assert built and all(a0 != -1000 for a0, _a1, _ok in built)
    assert any(v >= 1000 - 12 for v in moduli)  # v = |p - 1000*q| at t - 1000 only


def test_filter_stream_matches_oracle_past_the_table_budget(monkeypatch):
    """A place whose table would pass MAX_SIEVE_TABLE_BITS takes its bits
    from per-parameter tests: the root near 10**40 has no table, and with
    the budget at 201 bits only the places of |u| + w <= 2 have one at
    H = 50."""
    N = 10 ** 40 + 1
    assert explorer._sieve_table(-N, 3, 1, 12) is None
    built = _counting_tables(monkeypatch)
    assert _same_stream(parse_curve(f"3*t-{N}; t*(t+1)/(t-2)"), 12)
    assert built and all(a0 != -N for a0, _a1, _ok in built)
    monkeypatch.setattr(explorer, "MAX_SIEVE_TABLE_BITS", 201)
    del built[:]
    assert _same_stream(parse_curve(BENCH_CURVES[3]), 50)
    assert {(abs(a0) + a1, ok) for a0, a1, ok in built} == {(1, True), (2, True), (3, False), (4, False), (6, False)}


def _verdicts(curve, H):
    """For every survivor, assert that the sub-torus verdict, on the
    monomials over the kernel of its flat, equals the verdict on the n
    products |x_i|; return each survivor's (flat is (), kernel rank,
    dependent)."""
    rows, consts = curve.divisor_matrix.entries, curve.consts
    constants = [[(abs(c.numerator), 1), (c.denominator, -1)] for c in consts]
    supports = [[(k, row[i]) for k, row in enumerate(rows) if row[i]] for i in range(curve.n)]
    seen = []
    for p, q, values, flat in _private_survivors(curve, H):
        whole = [const + [(values[k], m) for k, m in support] for const, support in zip(constants, supports)]
        monomials = _sub_torus(rows, consts, flat)
        assert all(rank(flat + (rows[k],)) > len(flat) for _const, places in monomials for k, _m in places)
        sub = [const + [(values[k], m) for k, m in places] for const, places in monomials]
        independent = independent_over_coprime_base(whole)
        assert independent_over_coprime_base(sub) == independent, (p, q)
        seen.append((flat == (), len(monomials), not independent))
    return seen


def test_sub_torus_verdict_matches_whole_point():
    curves = _random_proper_curves(40, seed=4242) + _shared_prime_curves(40, seed=16)
    curves += [(parse_curve(QUADRATIC_PLACE), 30), (parse_curve(NO_INFINITY), 30)]
    curves += [(parse_curve(text), H) for text, H, _place in MORE_CURVES]
    seen = [kind for curve, H in curves for kind in _verdicts(curve, H)]
    assert any(no_flat for no_flat, _s, _dep in seen)
    assert any(s >= 2 for _zero, s, _dep in seen)
    assert any(dep for *_kind, dep in seen) and not all(dep for *_kind, dep in seen)


def _strip(v, R):
    """v without the primes of R, by repeated gcd."""
    g = math.gcd(v, R)
    while g > 1:
        v //= g
        g = math.gcd(v, g)
    return v


def _at(form, p, q):
    """The binary form (constant term first) at (p, q)."""
    return sum(a * p ** j * q ** (len(form) - 1 - j) for j, a in enumerate(form))


def test_certificate_is_sound_and_exact():
    """For a primitive linear F_P with root (u : w), a form F_Q with
    F_Q(u, w) != 0 and coprime (p, q) where neither vanishes: every prime
    shared by F_P(p, q) and F_Q(p, q) divides F_Q(u, w) (sound), and every
    prime shared by F_P(p, q) and F_Q(u, w) divides F_Q(p, q) (exact)."""
    rng = random.Random(1616)
    fixed = [(1, 0), (3, 2), (-3, 2), (0, 1)]  # infinity (F = q), 2t + 3, 2t - 3, t
    checked = 0
    for trial in range(40):
        if trial < len(fixed):
            P = fixed[trial]
        else:
            a0, a1 = rng.randint(-30, 30), rng.randint(1, 12)
            if math.gcd(a0, a1) != 1:
                continue
            P = (a0, a1)
        R = 0
        while not R:
            Q = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
            R = abs(_at(Q, -P[0], P[1]))
        for q in range(1, 61):
            for p in range(-60, 61):
                vP, vQ = _at(P, p, q), _at(Q, p, q)
                if math.gcd(p, q) != 1 or vP == 0 or vQ == 0:
                    continue
                assert _strip(math.gcd(vP, vQ), R) == 1, (P, Q, p, q)
                assert _strip(math.gcd(vP, R), vQ) == 1, (P, Q, p, q)
                checked += 1
    assert checked > 100_000
