"""Torsion fibers against a direct oracle that factors the numerator of
phi**N - 1, on the curves of the analyze benchmark."""
import pytest

from torusdep.curvegeom import character_restrict, phi_enumerate
from torusdep.exactcore import Poly, RatFunc, factor_poly
from torusdep.explorer import AnalysisConfig, analyze, parse_curve, torsion_fiber

CURVES = (
    "(t-1)^2; t",
    "(t-1)^3; t",
    "2*t/(t+1); t^(-2)",
    "t*(t+1); (t-2)/(t+3); t-5",
)
ORDERS = range(1, 13)


def power_fiber_oracle(curve, a, N):
    """Factor the numerator of phi**N - 1 directly and keep the factors
    whose roots leave every coordinate finite and nonzero."""
    g = character_restrict(curve, a) ** N - RatFunc(Poly([1]))
    return [
        q
        for q, _mult in factor_poly(g.num)[1]
        if not any(q.divides(f.num) or q.divides(f.den) for f in curve.coords)
    ]


@pytest.fixture(scope="module", params=CURVES)
def fibers(request):
    """(curve text, {(a, N): minimal polynomials}) for every enumerated
    character and every order."""
    curve = parse_curve(request.param)
    table = {}
    for ch in phi_enumerate(curve):
        for N in ORDERS:
            points = torsion_fiber(curve, ch.a, N)
            assert all(fp.character == ch.a and fp.order == N for fp in points)
            table[ch.a, N] = [fp.minimal_polynomial for fp in points]
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
