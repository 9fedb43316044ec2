"""Per-curve geometry comes from the divisor matrix and one polynomial gcd:
map_degree against the sympy expression route (map_degree_oracle), with
the bivariate gcd taken only when the coordinates' degrees share a factor,
normalize_character (P, Q and m from D*a, c from leading coefficients)
against the factored and composed restricted character (character_oracle),
divisor_of (rational roots by p-adic lifting, factor_poly only on a
cofactor of degree >= 2) against factoring numerator and denominator
(divisor_oracle), and divisor_of called only while building a curve."""
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
import sympy

from oracles import character_oracle, compose, divisor_oracle, map_degree_oracle
from test_acceptance import _random_proper_curves as criterion_4_curves
from test_golden_outputs import GOLDEN, SCAN_200
from test_scan import MORE_CURVES
from torusdep import curvegeom, exactcore
from torusdep.cli import main
from torusdep.curvegeom import CurveData, divisor_of, map_degree, normalize_character, phi_enumerate
from torusdep.errors import DomainError
from torusdep.exactcore import Poly, RatFunc
from torusdep.explorer import AnalysisConfig, analyze, parse_curve, torsion_fiber

BENCH_CURVES = ["(t-1)^2; t", "(t-1)^3; t", "2*t/(t+1); t^(-2)", "t*(t+1); (t-2)/(t+3); t-5"]
EXAMPLE_CURVES = BENCH_CURVES + [
    "(t+1)/(t-1); (2*t+3)/(t-5)",
    "t^2*(t+1)/(t-3); (3*t^2+1)/(t+5)^2; 7*t",
    "t; t^2",
    "t^2; t^3",
    "t^2; t^4",
    "t^2; t^4+1",
    "t; 2*t",
    "2; t",
    "2*t^3; t-1",
    "2*t; t+1",
    "t; t+1; (t-1)^2",
    "(t^2+1)/t; t^2",
    "(t^2+1)/t; (t^4+1)/t^2",
]

NON_MONIC_CURVES = [  # leading coefficients other than 1, of either sign
    "3*(t-1)^2/(2*t+1); 5*t",
    "3*(t-1)^2/(2*t+1); -5*t",
    "-2*t^3; (t-1)/3",
    "(2*t+3)/(5*t-1); -7*t",
    "(t+1)^12/(t+2)^12; t",
]

T = RatFunc(Poly.variable())
INNER = [  # (inner map g, map degree of a proper curve composed with g)
    (T ** 2, 2),
    ((T ** 2 + 1) / T, 2),
    ((2 * T + 1) / (T - 3), 1),
]


@pytest.mark.parametrize("text", EXAMPLE_CURVES)
def test_map_degree_matches_expression_route(text):
    curve = parse_curve(text)
    assert map_degree(curve) == map_degree_oracle(curve)


def _seeded_proper_curves(count, seed):
    rng = random.Random(seed)

    def rand_poly():
        while True:
            p = Poly([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))])
            if not p.is_zero():
                return p

    curves = []
    while len(curves) < count:
        coords = [RatFunc(rand_poly(), rand_poly()) for _ in range(rng.choice([2, 3]))]
        if any(f.is_zero() or f.is_constant() for f in coords):
            continue
        curve = CurveData.build(coords)
        if map_degree_oracle(curve) == 1:
            curves.append(coords)
    return curves


def test_map_degree_on_composed_curves():
    degrees = []
    for coords in _seeded_proper_curves(12, seed=606):
        for g, expected in INNER:
            curve = CurveData.build([compose(f, g) for f in coords])
            got = map_degree(curve)
            assert got == map_degree_oracle(curve) == expected
            degrees.append(got)
    assert degrees.count(2) == 24


def _degree_and_route(monkeypatch, curve):
    """map_degree(curve), and whether it took the bivariate gcd (the only
    branch that calls sympy.symbols)."""
    calls = []
    original = sympy.symbols
    monkeypatch.setattr(sympy, "symbols", lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    try:
        return map_degree(curve), bool(calls)
    finally:
        monkeypatch.setattr(sympy, "symbols", original)


def _degree_gcd(curve):
    return math.gcd(*(max(f.num.degree, f.den.degree) for f in curve.coords if not f.is_constant()))


def test_degree_shortcut_matches_expression_route_on_every_tier_1_curve(monkeypatch):
    """A proper curve whose coordinate degrees have gcd 1 needs no gcd:
    the map degree divides each of them. Every other curve still takes it."""
    texts = EXAMPLE_CURVES + NON_MONIC_CURVES + [text for text, _H, _place in MORE_CURVES]
    texts += [curve for curve, _char, _digests in GOLDEN] + [curve for curve, _digest in SCAN_200]
    curves = [parse_curve(text) for text in texts] + criterion_4_curves(50, seed=20260823)
    curves += [CurveData.build(coords) for coords in _seeded_proper_curves(12, seed=606)]
    routes = []
    for curve in curves:
        degree, gcd_route = _degree_and_route(monkeypatch, curve)
        assert degree == map_degree_oracle(curve)
        assert gcd_route == (_degree_gcd(curve) > 1)
        routes.append(gcd_route)
    assert 0 < sum(routes) < len(routes)
    for text in BENCH_CURVES:
        assert _degree_and_route(monkeypatch, parse_curve(text)) == (1, False)


MOBIUS = [(2 * T + 1) / (T - 3), (T + 5) / (2 - 3 * T)]


def test_improper_compositions_take_the_gcd(monkeypatch):
    """f(g(mu(t))) with g = t^2 or (t^2 + 1)/t and mu a Moebius map has
    map degree 2 and every coordinate degree even."""
    degrees = []
    for coords in _seeded_proper_curves(4, seed=607):
        for g, mu in itertools.product((T ** 2, (T ** 2 + 1) / T), MOBIUS):
            curve = CurveData.build([compose(compose(f, g), mu) for f in coords])
            degree, gcd_route = _degree_and_route(monkeypatch, curve)
            assert gcd_route and _degree_gcd(curve) % 2 == 0
            assert degree == map_degree_oracle(curve) == 2
            degrees.append(degree)
    assert len(degrees) == 16


def test_all_constant_coordinates_raise():
    curve = CurveData.build([RatFunc(Poly([F(2)])), RatFunc(Poly([F(-3, 5)]))])
    with pytest.raises(DomainError, match="all coordinates are constant"):
        map_degree(curve)


def test_map_degree_builds_no_sympy_expression(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expression route used")

    for name in ("expand", "gcd"):
        monkeypatch.setattr(sympy, name, refuse)
    monkeypatch.setattr(sympy.Basic, "subs", refuse)
    assert map_degree(parse_curve("t^2; t^4+1")) == 2
    assert map_degree(parse_curve("t*(t+1); (t-2)/(t+3); t-5")) == 1


def test_map_degree_on_a_dense_quotient_is_fast():
    curve = parse_curve("(t+1)^80/(t+2)^80; t")
    start = time.perf_counter()
    assert map_degree(curve) == 1
    assert time.perf_counter() - start < 5


def _characters_match(curve):
    chars = phi_enumerate(curve)
    for ch in chars:
        assert normalize_character(curve, ch.a) == ch == character_oracle(curve, ch.a)
    return len(chars)


@pytest.mark.parametrize("text", BENCH_CURVES)
def test_characters_match_factored_route_on_bench_curves(text):
    assert _characters_match(parse_curve(text)) > 0


def test_characters_match_factored_route_on_criterion_4_curves():
    assert sum(_characters_match(curve) for curve in criterion_4_curves(50, seed=20260823)) > 0


@pytest.mark.parametrize("text", NON_MONIC_CURVES)
def test_characters_match_factored_route_on_non_monic_curves(text):
    assert _characters_match(parse_curve(text)) > 0


def test_c_is_the_leading_coefficient_ratio_in_each_place_case():
    chars = {ch.a: ch for ch in phi_enumerate(parse_curve("-2*t^3; (t-1)/3"))}
    assert (str(chars[1, 0].P), str(chars[1, 0].Q), chars[1, 0].c) == ("t", "inf", -2)
    assert (str(chars[0, -1].P), str(chars[0, -1].Q), chars[0, -1].c) == ("inf", "t - 1", 3)
    assert (str(chars[1, -3].P), str(chars[1, -3].Q), chars[1, -3].c) == ("t", "t - 1", -54)
    cases = {
        (ch.P.is_infinity, ch.Q.is_infinity)
        for text in NON_MONIC_CURVES
        for ch in phi_enumerate(parse_curve(text))
    }
    assert cases == {(False, True), (True, False), (False, False)}


@pytest.mark.parametrize("text, m", [("(t+1)^250; t", 250), ("(t+1)^200/(t+2)^200; t", 200)])
def test_phi_enumerate_on_a_dense_curve_is_fast(text, m):
    start = time.perf_counter()
    chars = phi_enumerate(parse_curve(text))  # parse and properness included
    assert time.perf_counter() - start < 10
    assert {ch.m for ch in chars} == {1, m}
    assert all(ch.c == 1 for ch in chars)


def test_wrong_length_message_is_unchanged(capsys):
    curve = parse_curve("(t-1)^3; t")
    for a, message in (((1, 0, 0), "got 2 functions but 3 exponents"), ((1,), "got 2 functions but 1 exponents")):
        with pytest.raises(DomainError) as exc:
            normalize_character(curve, a)
        assert str(exc.value) == message
        char = ",".join(map(str, a))
        assert main(["fiber", "--curve", "(t-1)^3; t", "--char", char, "--order", "2"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _outcome(normalize, curve, a):
    try:
        return normalize(curve, a)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("text", BENCH_CURVES)
def test_both_routes_agree_on_every_small_vector(text):
    """Imprimitive multiples of characters normalize too; everything else
    is refused with the same DomainError by both routes."""
    curve = parse_curve(text)
    refused = 0
    for a in itertools.product(range(-2, 3), repeat=curve.n):
        if any(a):
            got = _outcome(normalize_character, curve, a)
            assert got == _outcome(character_oracle, curve, a)
            refused += isinstance(got, str)
    assert refused > 0


def test_divisor_of_runs_only_while_building_the_curve(monkeypatch):
    calls = []
    original = curvegeom.divisor_of

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(curvegeom, "divisor_of", counted)
    text = "t*(t+1); (t-2)/(t+3); t-5"
    analyze(text, AnalysisConfig(torsion_order_bound=6, scan_height_bound=10))
    assert len(calls) == 3  # one per coordinate, in CurveData.build
    curve = parse_curve(text)
    del calls[:]
    chars = phi_enumerate(curve)
    torsion_fiber(curve, chars[0].a, 6)
    assert calls == []


IRREDUCIBLE = [  # no rational root: the cofactor path
    Poly([1, 0, 1]),
    Poly([-2, 0, 1]),
    Poly([5, 3, 2]),
    Poly([-2, 0, 0, 1]),
    Poly([-1, -3, 0, 1]),
    Poly([2, 14, 0, 7]),  # Eisenstein at 2
]


def _linear(rng, digits):
    """b*t - a for a nonzero a and a positive b of up to digits digits each."""
    return Poly([rng.choice([-1, 1]) * rng.randint(1, 10 ** digits), rng.randint(1, 10 ** digits)])


def _typed_product(rng, factors, digits, top):
    """A constant times up to `factors` powers (exponent up to top) of
    linear factors, t and irreducible quadratics and cubics."""
    p = Poly([F(rng.choice([-7, -2, 1, 3, 30030]), rng.choice([1, 2, 15015]))])
    for _ in range(rng.randint(0, factors)):
        kind = rng.random()
        q = T.num if kind < 0.15 else rng.choice(IRREDUCIBLE) if kind < 0.35 else _linear(rng, digits)
        p = p * q ** rng.randint(1, top)
    return p


def _divisor_cases():
    rng = random.Random(2810)
    cases = [RatFunc(_typed_product(rng, 4, 2, 4), _typed_product(rng, 3, 2, 3)) for _ in range(150)]
    cases += [RatFunc(_typed_product(rng, 3, 30, 3), _typed_product(rng, 2, 30, 2)) for _ in range(20)]
    t = T.num
    cases += [
        RatFunc((t - 3) ** 200 * (t + 1)),
        RatFunc((t + 1) ** 128, (t + 2) ** 128),
        RatFunc(Poly([-5, 2]) ** 150 * t ** 5 * IRREDUCIBLE[3] ** 2, Poly([7, 3]) ** 40),
        RatFunc(Poly([10 ** 4299 + 7]) * (t - 3) * t, (t - 3) ** 200 * (t + 1)),
        # leading coefficients 30030 = 2*3*...*13 and 15015, repeated roots
        RatFunc(Poly([-1, 30030]) ** 3 * (t + 1) ** 2, Poly([7, 15015]) ** 2 * IRREDUCIBLE[1]),
        RatFunc(Poly([-11, 15015]) ** 4 * Poly([13, 30030]) * IRREDUCIBLE[4] ** 2),
        RatFunc(_linear(rng, 30) ** 17 * _linear(rng, 30) ** 3 * IRREDUCIBLE[2], _linear(rng, 30) ** 9),
    ]
    return cases


def test_divisor_of_matches_factoring_oracle():
    """The same places, multiplicities and order as factoring numerator and
    denominator, on seeded typed products: multiplicities up to 200, roots
    at 0 and with 30-digit numerators and denominators, a 4300-digit
    constant, leading coefficients whose small primes the prime search must
    skip, and irreducible quadratics and cubics beside linear factors."""
    degrees, mults = set(), set()
    for f in _divisor_cases():
        got, want = divisor_of(f), divisor_oracle(f)
        assert list(got.items()) == list(want.items()), f
        finite = [(place, m) for place, m in got.items() if not place.is_infinity]
        degrees |= {place.degree for place, _m in finite}
        mults |= {abs(m) for _place, m in finite}
    assert degrees == {1, 2, 3} and max(mults) == 200
CHECK_OK = '{\n  "map_degree": 1,\n  "assumption": {\n    "ok": true,\n    "violation": null\n  }\n}\n'


def test_factor_poly_runs_only_on_a_cofactor_of_degree_2_or_more(monkeypatch, capsys):
    calls = []
    original = exactcore.factor_poly
    for module in (exactcore, curvegeom):
        monkeypatch.setattr(module, "factor_poly", lambda p: calls.append(str(p)) or original(p))
    for text in BENCH_CURVES:
        parse_curve(text)
    assert calls == []
    for text, cofactor in (("t^2+1; t", "t^2 + 1"), ("(t^2-2)*(t-1); t", "t^2 - 2")):
        assert main(["check", "--curve", text]) == 0
        assert capsys.readouterr().out == CHECK_OK
        assert calls == [cofactor]
        del calls[:]


def test_divisor_of_many_typed_linear_factors():
    """Products of up to 60 distinct typed linear factors, whose roots
    collide mod every small prime, beside an irreducible quadratic: the
    divisor is known from the factors as typed."""
    rng = random.Random(2811)
    for count in (12, 30, 60):
        roots = {}
        while len(roots) < count:
            roots[F(rng.randint(-99, 99), rng.randint(1, 99))] = rng.randint(1, 3)
        num = IRREDUCIBLE[2]
        for r, mult in roots.items():
            num = num * Poly([-r.numerator, r.denominator]) ** mult
        want = {curvegeom.Place.finite(Poly([-r, 1])): mult for r, mult in roots.items()}
        want[curvegeom.Place.finite(IRREDUCIBLE[2].monic())] = 1
        want[curvegeom.Place.INFINITY] = -num.degree
        assert divisor_of(RatFunc(num)) == want


def test_squarefree_part_falls_back_to_poly_gcd(monkeypatch):
    """With no evaluation point for the heuristic gcd, poly_gcd's Euclid
    gives the same squarefree parts."""
    cases = _divisor_cases()
    cases = cases[:40] + cases[-7:]
    want = [divisor_of(f) for f in cases]
    monkeypatch.setattr(exactcore, "_HEURISTIC_POINTS", 0)
    assert [divisor_of(f) for f in cases] == want
