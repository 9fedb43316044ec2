"""Torsion fibers against power_fiber_oracle, which factors the numerator
of phi**N - 1 directly: on the curves of the analyze benchmark, and on
curves that reach every branch of the normal-form route."""
import hashlib
import time

import pytest
from oracles import power_fiber_oracle

from torusdep import explorer
from torusdep.curvegeom import phi_enumerate
from torusdep.explorer import AnalysisConfig, analyze, parse_curve, torsion_fiber

CURVES = (
    "(t-1)^2; t",
    "(t-1)^3; t",
    "2*t/(t+1); t^(-2)",
    "t*(t+1); (t-2)/(t+3); t-5",
)
ORDERS = range(1, 13)

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
    # the oracle factors a numerator of degree 12*N: 25 s at N = 18
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
    for (a, N), polys in table.items():
        assert polys == power_fiber_oracle(curve, a, N), (a, N)


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
        for N in range(1, top + 1):
            expected = power_fiber_oracle(curve, ch.a, N)
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
