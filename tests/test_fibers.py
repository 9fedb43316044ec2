"""Torsion fibers against cyclotomic_fibers_oracle, which factors the
numerator of each Phi_d(phi) once, and at the low orders against
power_fiber_oracle, which factors the numerator of phi**N - 1 directly:
on the curves of the analyze benchmark, and on
curves that reach every branch of the normal-form route. analyze's fiber
table against order_fibers_oracle, which assembles and sorts every order
on its own, and against torsion_fiber. The integer map-back against
map_back_oracle, which maps a factor back in Fractions."""
import contextlib
import hashlib
import math
import random
import time
from fractions import Fraction as F

import pytest
from oracles import (
    character_restrict,
    cyclotomic_fibers_oracle,
    map_back_oracle,
    order_fibers_oracle,
    power_fiber_oracle,
)

from torusdep import explorer
from torusdep.curvegeom import NormalizedCharacter, Place, phi_enumerate
from torusdep.errors import DomainError, PreconditionError
from torusdep.exactcore import Poly, cyclotomic_poly, factor_key, factor_poly, nth_power_in_Q
from torusdep.explorer import AnalysisConfig, analyze, parse_curve, torsion_fiber

CURVES = (
    "(t-1)^2; t",
    "(t-1)^3; t",
    "2*t/(t+1); t^(-2)",
    "t*(t+1); (t-2)/(t+3); t-5",
)
ORDERS = range(1, 13)
# power_fiber_oracle factors phi**N - 1 itself up to this order on each
# curve, a check of the identity cyclotomic_fibers_oracle rests on
DIRECT_TOP = 6

# (curve, highest order N). Between them the characters have c = b**m with
# b != 1, c = -b**m with m even and with m odd, c not +-b**m (the factor_poly
# fallback, with Q = inf and with both places finite), P = inf, Q = inf and
# both finite, where s - 1 maps to the root t = inf and is dropped at d = 1.
BRANCH_CURVES = (
    ("(2*t+3)^2; 5*t", 24),
    ("-(t-1)^2/4; t+5", 24),
    ("-(t-1)^3; t", 24),
    ("2*(t-1)^2; t", 24),
    ("3*t^2/(t-1)^2; t+1", 24),
    ("7*t/(t-1); t+1", 24),
    ("(t+1)^2/(t+2)^2; t", 24),
    # the direct oracle factors a numerator of degree 12*N: 25 s at N = 18
    ("(t+1)^12/(t+2)^12; t", 6),
)


@pytest.fixture(scope="module", params=CURVES)
def fibers(request):
    """(curve text, {(a, N): minimal polynomials}) for every enumerated
    character and every order."""
    curve = parse_curve(request.param)
    table = {}
    for ch in phi_enumerate(curve):
        for N in ORDERS:
            table[ch.a, N] = list(torsion_fiber(curve, ch.a, N))
    return request.param, table


def test_fibers_match_power_oracle(fibers):
    text, table = fibers
    curve = parse_curve(text)
    for a in {a for a, _N in table}:
        expected = cyclotomic_fibers_oracle(curve, a, max(ORDERS))
        for N in ORDERS:
            assert table[a, N] == expected[N - 1], (a, N)
            if N <= DIRECT_TOP:
                assert power_fiber_oracle(curve, a, N) == expected[N - 1], (a, N)


def test_opposite_characters_share_fibers(fibers):
    _, table = fibers
    for (a, N), polys in table.items():
        assert table[tuple(-x for x in a), N] == polys


def test_analyze_fibers_equal_torsion_fiber(fibers):
    text, table = fibers
    report = analyze(text, AnalysisConfig(torsion_order_bound=max(ORDERS), scan_height_bound=1))
    assert {(a, N): list(polys) for a, N, polys in report.fibers} == table
    assert [(a, N) for a, N, _ in report.fibers] == [
        (ch.a, N) for ch in report.phi for N in ORDERS
    ]


@pytest.mark.parametrize("text, top", BRANCH_CURVES)
def test_every_branch_matches_power_oracle(text, top):
    """a and -a share one oracle call: 1/phi gives -(A**N - B**N)."""
    curve = parse_curve(text)
    for ch in phi_enumerate(curve):
        if ch.a < tuple(-x for x in ch.a):
            continue
        fibers = cyclotomic_fibers_oracle(curve, ch.a, top)
        for N, expected in enumerate(fibers, 1):
            if N <= DIRECT_TOP:
                assert power_fiber_oracle(curve, ch.a, N) == expected, N
            for a in (ch.a, tuple(-x for x in ch.a)):
                got = list(torsion_fiber(curve, a, N))
                assert got == expected, (a, N)


def _fiber_factor_calls(monkeypatch, text):
    curve = parse_curve(text)  # built first: divisor_of factors the coordinates
    calls = []
    real = explorer.factor_poly

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(explorer, "factor_poly", counting)
    for ch in phi_enumerate(curve):
        torsion_fiber(curve, ch.a, max(ORDERS))
    return len(calls)


@pytest.mark.parametrize("text", CURVES)
def test_benchmark_fibers_factor_nothing(monkeypatch, text):
    assert _fiber_factor_calls(monkeypatch, text) == 0


def test_fallback_factors(monkeypatch):
    assert _fiber_factor_calls(monkeypatch, "2*(t-1)^2; t") > 0


def test_dense_fiber_is_fast():
    start = time.perf_counter()
    fiber = torsion_fiber(parse_curve("(t+1)^120; t"), (1, -120), 2)
    assert time.perf_counter() - start < 3
    # 240 roots but t = inf, where s = (t+1)/t is 1
    assert sum(q.degree for q in fiber) == 239
    text = "\n".join(str(q) for q in fiber)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "1d6970e00b58bf3b"


def _random_places(rng):
    """P != Q, each at infinity or a finite rational root of denominator
    at most 7, wrapped in a NormalizedCharacter (map-back reads P and Q)."""
    def place():
        if rng.random() < 0.25:
            return Place.INFINITY
        return Place.finite(Poly([-F(rng.randint(-12, 12), rng.randint(1, 7)), 1]))

    P, Q = place(), place()
    while Q == P:
        Q = place()
    return NormalizedCharacter(a=(1, -1), P=P, Q=Q, m=1, c=F(1), realizable_cyclotomic=False)


def _monic(image):
    """The monic Poly of a _map_back image, which must be primitive with a
    positive leading coefficient."""
    assert image[-1] > 0 and math.gcd(*image) == 1, image
    return Poly(image).monic()


def test_map_back_matches_oracle_on_cyclotomic_factors():
    """h = v**k * Phi_e(b*s), b = u/v, against the oracle on Phi_e(b*s)."""
    rng = random.Random(15)
    for _ in range(300):
        ch = _random_places(rng)
        e = rng.randint(1, 40)
        b = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
        u, v = b.as_integer_ratio()
        phi = cyclotomic_poly(e).coeffs
        k = len(phi) - 1
        h = [x.numerator * u ** j * v ** (k - j) for j, x in enumerate(phi)]
        expected = map_back_oracle(Poly([x * b ** j for j, x in enumerate(phi)]), ch).monic()
        assert _monic(explorer._map_back(h, ch)) == expected, (e, b, ch.P, ch.Q)


def test_map_back_matches_oracle_on_rational_factors():
    """factor_poly's monic rational factors, denominators cleared and then
    scaled by a random nonzero integer, which the monic image ignores."""
    rng = random.Random(16)
    checked = 0
    while checked < 200:
        ch = _random_places(rng)
        p = Poly([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(2, 7))])
        if p.degree < 1:
            continue
        for h, _mult in factor_poly(p)[1]:
            D = math.lcm(*(x.denominator for x in h.coeffs))
            scale = rng.choice([-1, 1]) * rng.randint(1, 5)
            ints = [x.numerator * (D // x.denominator) * scale for x in h.coeffs]
            assert _monic(explorer._map_back(ints, ch)) == map_back_oracle(h, ch).monic(), (h, ch.P, ch.Q)
            checked += 1


def test_sort_images_matches_factor_key():
    """Seeded lists of distinct primitive images whose leading coefficients
    differ, in _sort_images' integer order and in factor_key's order of
    their monic polynomials."""
    rng = random.Random(25)
    for _ in range(200):
        images = set()
        for _ in range(rng.randint(1, 12)):
            image = [rng.randint(-20, 20) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 12)]
            images.add(tuple(x // math.gcd(*image) for x in image))
        tagged = [(rng.randint(1, 12), image) for image in images]
        expected = sorted(tagged, key=lambda dh: factor_key(Poly(dh[1]).monic()))
        explorer._sort_images(tagged)
        assert tagged == expected


def test_analyze_reuses_one_fiber_per_pair_and_order():
    report = analyze("(t-1)^3; t", AnalysisConfig(torsion_order_bound=12, scan_height_bound=1))
    fibers = {(a, N): polys for a, N, polys in report.fibers}
    for a, N, polys in report.fibers:
        assert fibers[tuple(-x for x in a), N] is polys


def _fibers_by_char(report):
    """{a: [fiber of order 1, 2, ...]} from an analyze report."""
    table = {}
    for a, _N, polys in report.fibers:
        table.setdefault(a, []).append(polys)
    return table


@pytest.mark.parametrize("text, top", [(text, 24) for text in CURVES] + list(BRANCH_CURVES))
def test_analyze_fibers_match_order_fibers_oracle(text, top):
    """Each order's fiber, in order, and torsion_fiber at every N <= top."""
    curve = parse_curve(text)
    table = _fibers_by_char(analyze(text, AnalysisConfig(torsion_order_bound=top, scan_height_bound=1)))
    assert set(table) == {ch.a for ch in phi_enumerate(curve)}
    for a, fibers in table.items():
        assert fibers == order_fibers_oracle(curve, a, top), a
        for N, fiber in enumerate(fibers, 1):
            assert torsion_fiber(curve, a, N) == fiber, (a, N)


def _seeded_curves(count, seed):
    """Proper curves of two coordinates, each a constant times one or two
    powers of t - r, r in [-3, 3], that have a character."""
    rng = random.Random(seed)

    def coord():
        exponents = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 2))]
        factors = (f"(t{-rng.randint(-3, 3):+d})^{e}" for e in exponents)
        return "*".join((rng.choice(("1", "-1", "2", "-2", "3", "-4", "1/4", "-9/4", "-8")), *factors))

    curves = []
    while len(curves) < count:
        text = f"{coord()}; {coord()}"
        try:
            curve = parse_curve(text).require_proper()
        except PreconditionError:
            continue
        if phi_enumerate(curve):
            curves.append((text, curve))
    return curves


def _branches(curve, ch):
    """The routes ch's fibers take: the factor_poly fallback, c < 0 (whose
    d odd, d even and 4 | d differ at every bound from 4), and a factor
    equal to a degree-1 place, where the restricted character is +-1."""
    kinds = {"fallback"} if nth_power_in_Q(abs(ch.c), ch.m) is None else set()
    if ch.c < 0:
        kinds.add("negative c")
    restricted = character_restrict(curve, ch.a)
    for place in curve.place_index:
        if place.degree == 1 and not place.is_infinity:
            with contextlib.suppress(ZeroDivisionError):
                if abs(restricted(place.rational_root())) == 1:
                    kinds.add("place")
    return kinds


def _outcome(compute):
    try:
        return compute()
    except DomainError as err:
        return str(err)


def test_seeded_fibers_match_order_fibers_oracle():
    """The same fibers, or the same fallback budget error, on seeded curves
    that reach every route; torsion_fiber agrees at every order."""
    top = 12
    seen = set()
    for text, curve in _seeded_curves(30, seed=23):
        chars = phi_enumerate(curve)
        config = AnalysisConfig(torsion_order_bound=top, scan_height_bound=1)
        expected = _outcome(lambda: {ch.a: order_fibers_oracle(curve, ch.a, top) for ch in chars})
        assert _outcome(lambda: _fibers_by_char(analyze(text, config))) == expected, text
        if isinstance(expected, str):
            continue
        for ch in chars:
            seen |= _branches(curve, ch)
            for N, fiber in enumerate(expected[ch.a], 1):
                assert torsion_fiber(curve, ch.a, N) == fiber, (text, ch.a, N)
    assert seen == {"fallback", "negative c", "place"}
