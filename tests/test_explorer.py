import json
from fractions import Fraction as F

import pytest

from oracles import character_restrict
from torusdep.errors import (
    AssumptionViolation,
    DomainError,
    ImproperParametrization,
    ParseError,
)
from torusdep.exactcore import Poly, RatFunc
from torusdep.explorer import (
    AnalysisConfig,
    analyze,
    parse_curve,
    scan_dependent,
    torsion_fiber,
)
from torusdep.parser import parse_expression

T = Poly.variable()


class TestParser:
    def test_example_curves(self):
        c = parse_curve("(t-1)^3; t")
        assert c.coords == (RatFunc((T - 1) ** 3), RatFunc(T))
        c = parse_curve("2*t^3; t-1")
        assert c.coords == (RatFunc(2 * T ** 3), RatFunc(T - 1))

    def test_degenerate_curve_parses(self):
        from torusdep.curvegeom import check_assumption

        c = parse_curve("t; t")
        assert check_assumption(c) == (1, -1)

    def test_negative_exponents_and_fractions(self):
        f = parse_expression("t^(-2)")
        assert f == RatFunc(Poly([1]), T ** 2)
        f = parse_expression("(t+1)/(t-1)")
        assert f == RatFunc(T + 1, T - 1)
        f = parse_expression("2*t/(3*t+1) - 1")
        assert f == RatFunc(-(T + 1), 3 * T + 1)
        assert parse_expression("-t^2") == RatFunc(-(T ** 2))

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("t + * 2")
        assert exc.value.position == 4

    def test_zero_coordinate_rejected(self):
        with pytest.raises(DomainError):
            parse_curve("t - t; t")

    def test_single_coordinate_rejected(self):
        with pytest.raises(ParseError):
            parse_curve("t")


class TestTorsionFiber:
    def test_example1_order1(self):
        c = parse_curve("(t-1)^3; t")
        fibers = torsion_fiber(c, (1, 0), 1)
        polys = set(fibers)
        assert polys == {T - 2, T ** 2 - T + 1}
        # t = 2 is the point (1, 2): x1 is a root of unity there.
        assert RatFunc((T - 1) ** 3)(F(2)) == 1

    def test_example1_x2_order2(self):
        c = parse_curve("(t-1)^3; t")
        fibers = torsion_fiber(c, (0, 1), 2)
        assert fibers == (T + 1,)

    def test_example1_x2_order1_empty(self):
        c = parse_curve("(t-1)^3; t")
        assert torsion_fiber(c, (0, 1), 1) == ()

    def test_fiber_polynomials_divide_power_identity(self):
        from torusdep.exactcore import factor_poly

        c = parse_curve("(t-1)^3; t")
        for N in range(1, 7):
            phi = character_restrict(c, (1, 0))
            g = phi ** N - RatFunc(Poly([1]))
            total = sum(q.degree * m for q, m in factor_poly(g.num)[1])
            assert total == g.num.degree == 3 * N
            for q in torsion_fiber(c, (1, 0), N):
                assert q.divides(g.num)

    def test_invalid_character_rejected(self):
        c = parse_curve("(t-1)^3; t")
        with pytest.raises(DomainError):
            torsion_fiber(c, (1, -1), 2)


class TestScan:
    def test_example1_d2_fiber_classification(self):
        c = parse_curve("(t-1)^2; t")
        recs = scan_dependent(c, AnalysisConfig(scan_height_bound=10))
        by_t = {r.parameter: r for r in recs}
        assert F(2) in by_t
        rec = by_t[F(2)]
        assert rec.dependent and rec.fiber_character == (1, 0)
        assert rec.point == (F(1), F(2))

    def test_line_pair_half_point(self):
        c = parse_curve("t; t+1")
        recs = scan_dependent(c, AnalysisConfig(scan_height_bound=10))
        by_t = {r.parameter: r for r in recs}
        rec = by_t[F(-1, 2)]
        assert rec.point == (F(-1, 2), F(1, 2))
        assert rec.dependent and not rec.primitive
        assert rec.relation in ((2, -2), (-2, 2), (1, 1)) or rec.relation is not None

    def test_independent_parameter_absent(self):
        c = parse_curve("t; t+1")
        recs = scan_dependent(c, AnalysisConfig(scan_height_bound=10))
        assert F(2) not in {r.parameter for r in recs}

    def test_fiber_records_evaluate_to_sign(self):
        c = parse_curve("(t-1)^2; t")
        for rec in scan_dependent(c, AnalysisConfig(scan_height_bound=15)):
            if rec.fiber_character is not None:
                value = F(1)
                for x, e in zip(rec.point, rec.fiber_character):
                    value *= x ** e
                assert value in (F(1), F(-1))


class TestAnalyze:
    def test_example1_d2_report(self):
        report = analyze("(t-1)^2; t", AnalysisConfig(torsion_order_bound=3, scan_height_bound=10))
        assert report.map_degree == 1
        assert len(report.phi) == 6
        payload = report.to_dict()
        assert set(payload) == {
            "curve", "map_degree", "assumption", "phi", "fibers", "scan", "summary",
        }
        assert payload["assumption"] == {"ok": True, "violation": None}
        for entry in payload["phi"]:
            assert set(entry) == {"a", "P", "Q", "m", "c", "realizable_cyclotomic"}
        for entry in payload["fibers"]:
            assert set(entry) == {"char", "N", "factors"}
        for entry in payload["scan"]:
            assert set(entry) == {
                "t", "point", "dependent", "primitive", "relation", "height", "class",
            }
        assert set(payload["summary"]) == {"max_dependent_height", "exceptional_count"}
        json.loads(report.to_json())  # valid JSON

    def test_constant_coordinate_rejected(self):
        with pytest.raises(AssumptionViolation) as exc:
            analyze("2; t")
        assert exc.value.witness == (1, 0)

    def test_improper_parametrization_rejected(self):
        with pytest.raises(ImproperParametrization) as exc:
            analyze("t^2; t^4")
        assert exc.value.degree == 2

    def test_determinism(self):
        cfg = AnalysisConfig(torsion_order_bound=4, scan_height_bound=12)
        a = analyze("(t-1)^2; t", cfg).to_json()
        b = analyze("(t-1)^2; t", cfg).to_json()
        assert a == b


class TestCli:
    def run(self, *argv, capsys=None):
        from torusdep.cli import main

        return main(list(argv))

    def test_analyze_ok(self, capsys):
        code = self.run("analyze", "--curve", "(t-1)^2; t", "--torsion-order", "2",
                        "--scan-height", "5")
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["map_degree"] == 1

    def test_analyze_text_agrees_with_json(self, capsys):
        argv = ("analyze", "--curve", "t*(t+1); (t-2)/(t+3); t-5")
        assert self.run(*argv, "--format", "text") == 0
        lines = capsys.readouterr().out.splitlines()
        assert self.run(*argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert f"dependent records ({len(payload['scan'])}):" in lines
        assert f"exceptional count: {payload['summary']['exceptional_count']}" in lines
        assert payload["summary"]["exceptional_count"] > 0

    def test_parse_error_exit_code(self, capsys):
        assert self.run("analyze", "--curve", "t + ; t") == 2

    def test_assumption_exit_code(self, capsys):
        assert self.run("analyze", "--curve", "2; t") == 3

    def test_improper_exit_code(self, capsys):
        assert self.run("analyze", "--curve", "t^2; t^4") == 4

    def test_phi_subcommand(self, capsys):
        assert self.run("phi", "--curve", "(t-1)^3; t") == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"a": [1, 0], "P": "t - 1", "Q": "inf", "m": 3, "c": "1",
                "realizable_cyclotomic": True} in payload

    def test_depends_subcommand(self, capsys):
        assert self.run("depends", "--point", "2,8") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dependent"] is True
        assert payload["relations"] == [[3, -1]]

    def test_primitive_subcommand(self, capsys):
        assert self.run("primitive", "--point=-1,2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["primitively_dependent"] is False

    def test_decompose_subcommand(self, capsys):
        assert self.run("decompose", "--point", "4,8") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 1 and payload["generators"] == ["2"]

    def test_fiber_subcommand(self, capsys):
        assert self.run("fiber", "--curve", "(t-1)^3; t", "--char", "0,1",
                        "--order", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["factors"] == ["t + 1"]

    def test_check_subcommand(self, capsys):
        assert self.run("check", "--curve", "t; 2*t") == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["assumption"]["violation"] == [1, -1]

    def test_fiber_improper_exit_code(self, capsys):
        assert self.run("fiber", "--curve", "t^2; t^4+1", "--char", "1,0",
                        "--order", "2") == 4

    def test_fiber_assumption_exit_code(self, capsys):
        assert self.run("fiber", "--curve", "t; 2*t", "--char", "1,0",
                        "--order", "2") == 3
