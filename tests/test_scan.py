"""The height scan tests dependence by rank from integer place forms and
builds relation lattices only for dependent parameters; scan_oracle builds
one at every parameter. The two must give identical records."""
import random
from fractions import Fraction as F

import pytest

from oracles import scan_oracle
from torusdep import explorer
from torusdep.curvegeom import CurveData
from torusdep.errors import InvariantViolation
from torusdep.exactcore import Poly, RatFunc
from torusdep.explorer import AnalysisConfig, _place_forms, parse_curve, scan_dependent
from torusdep.intlattice import LatticeBasis
from torusdep.multdep import relation_lattice

BENCH_CURVES = ["(t-1)^2; t", "(t-1)^3; t", "2*t/(t+1); t^(-2)", "t*(t+1); (t-2)/(t+3); t-5"]
NO_INFINITY = "(t+1)/(t-1); (2*t+3)/(t-5)"
QUADRATIC_PLACE = "t^2*(t+1)/(t-3); (3*t^2+1)/(t+5)^2; 7*t"


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
    _forms, consts = _place_forms(curve)
    assert any(abs(c) != 1 for c in consts)
    assert _same_scan(curve, 30)


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
    forms, consts = _place_forms(curve)
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
