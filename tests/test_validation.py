"""Curve validation (properness and the standing hypothesis), checked once
per curve and reported by exception type; CLI exit codes; parser budgets."""
import json
import sys

import pytest

import torusdep.curvegeom as curvegeom
from torusdep.cli import main
from torusdep.curvegeom import phi_enumerate
from torusdep.errors import (
    AssumptionViolation,
    ImproperParametrization,
    ParseError,
    PreconditionError,
)
from torusdep.explorer import AnalysisConfig, analyze, parse_curve, scan_dependent, torsion_fiber
from torusdep.parser import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_LITERAL_DIGITS,
    parse_coordinates,
    parse_expression,
)

SMALL = AnalysisConfig(torsion_order_bound=2, scan_height_bound=5)


def test_curve_errors_are_precondition_errors():
    assert issubclass(AssumptionViolation, PreconditionError)
    assert issubclass(ImproperParametrization, PreconditionError)


def test_phi_enumerate_raises_typed_errors():
    with pytest.raises(AssumptionViolation) as exc:
        phi_enumerate(parse_curve("2; t"))
    assert exc.value.witness == (1, 0)
    with pytest.raises(ImproperParametrization) as exc:
        phi_enumerate(parse_curve("t^2; t^4"))
    assert exc.value.degree == 2


def test_improper_wins_over_the_hypothesis():
    # t^2; t^4 has map degree 2 and the constant monomial x^2 / y
    curve = parse_curve("t^2; t^4")
    assert curve.degree == 2 and curve.violation == (2, -1)
    for call in (
        lambda: curve.require_proper(),
        lambda: phi_enumerate(curve),
        lambda: torsion_fiber(curve, (1, 0), 2),
        lambda: scan_dependent(curve, SMALL),
        lambda: analyze("t^2; t^4", SMALL),
    ):
        with pytest.raises(ImproperParametrization):
            call()


def test_consumers_reject_a_constant_monomial():
    curve = parse_curve("t; 2*t")
    for call in (
        lambda: torsion_fiber(curve, (1, 0), 2),
        lambda: scan_dependent(curve, SMALL),
    ):
        with pytest.raises(AssumptionViolation):
            call()


def test_require_proper_returns_the_curve():
    curve = parse_curve("(t-1)^2; t")
    assert curve.require_proper() is curve
    assert curve.degree == 1 and curve.violation is None


def test_analyze_validates_the_curve_once(monkeypatch):
    calls = {"map_degree": 0, "check_assumption": 0}
    for name in calls:
        original = getattr(curvegeom, name)

        def counted(curve, _original=original, _name=name):
            calls[_name] += 1
            return _original(curve)

        # patch every module that imported the function by name, too
        for module in list(sys.modules.values()):
            if module.__name__.startswith("torusdep") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    analyze("(t-1)^2; t", SMALL)
    assert calls == {"map_degree": 1, "check_assumption": 1}


def test_report_and_phi_command_share_the_character_dict(capsys):
    report = analyze("(t-1)^3; t", SMALL).to_dict()
    assert main(["phi", "--curve", "(t-1)^3; t"]) == 0
    assert json.loads(capsys.readouterr().out) == report["phi"]
    assert report["phi"] == [ch.to_dict() for ch in phi_enumerate(parse_curve("(t-1)^3; t"))]


class TestExitCodes:
    def test_check_improper_and_violating_exits_4(self, capsys):
        assert main(["check", "--curve", "t^2; t^4"]) == 4
        assert main(["phi", "--curve", "t^2; t^4"]) == 4
        assert main(["analyze", "--curve", "t^2; t^4"]) == 4

    def test_character_outside_the_set_exits_2(self, capsys):
        assert main(["fiber", "--curve", "(t-1)^3; t", "--char", "1,-1", "--order", "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_order_zero_exits_2(self, capsys):
        assert main(["fiber", "--curve", "(t-1)^3; t", "--char", "1,0", "--order", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_long_literal_exits_2(self, capsys):
        assert main(["check", "--curve", "9" * 5000 + "*t; t"]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    def test_huge_power_exits_2(self, capsys):
        assert main(["check", "--curve", "t^99999999; t"]) == 2
        assert capsys.readouterr().err.startswith("parse error:")


class TestParserBudgets:
    def test_literal_digit_budget(self):
        assert parse_expression("9" * MAX_LITERAL_DIGITS).constant_value() == 10 ** MAX_LITERAL_DIGITS - 1
        with pytest.raises(ParseError) as exc:
            parse_expression("t + " + "9" * (MAX_LITERAL_DIGITS + 1))
        assert exc.value.position == 4

    def test_degree_budget(self):
        assert parse_expression(f"t^{MAX_DEGREE}").num.degree == MAX_DEGREE
        assert parse_expression(f"t^(-{MAX_DEGREE})").den.degree == MAX_DEGREE
        for text in (f"t^{MAX_DEGREE + 1}", f"t^(-{MAX_DEGREE + 1})", "(t^2+1)^129", "t^99999999"):
            with pytest.raises(ParseError) as exc:
                parse_expression(text)
            assert exc.value.position == text.rindex("^") + 1

    def test_coefficient_bit_budget(self):
        half = MAX_COEFF_BITS // 2  # 2 needs two bits
        assert parse_expression(f"2^{half}").constant_value() == 2 ** half
        for text in (f"2^{half + 1}", f"(1/2)^{half + 1}", "(65536*t+1)^200"):
            with pytest.raises(ParseError):
                parse_expression(text)

    def test_nested_powers_fail_before_computing(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("((2^9999)^9999)^9999")
        assert exc.value.position == 4
        with pytest.raises(ParseError) as exc:
            parse_expression(f"((2^{MAX_COEFF_BITS // 2})^9999)^9999")
        assert exc.value.position == len(f"((2^{MAX_COEFF_BITS // 2})^")
        with pytest.raises(ParseError):
            parse_expression("((t^16)^16)^16")


def test_expression_degree_budget():
    assert parse_expression(f"t^{MAX_DEGREE // 2}*t^{MAX_DEGREE // 2}").num.degree == MAX_DEGREE
    assert parse_expression("(t+1)^200/(t+2)^200").den.degree == 200  # degree 200 as a function
    for left, right in (  # refused just after the operator, once the right operand is read
        ("(t+1)^256*", "(t+2)^256"),
        ("(t+1)^200/", "(1/(t+2)^200)"),
        ("(t+1)^200 +", " 1/(t+2)^200"),
        ("t^200 -", " 1/t^100"),
        ("1/(t+1)^200 +", " 1/(t+2)^100"),  # only the common denominator is too large
    ):
        with pytest.raises(ParseError) as exc:
            parse_expression(left + right)
        assert exc.value.position == len(left)
    with pytest.raises(ParseError) as exc:
        parse_coordinates("t; (t+1)^256*(t+2)^256*(t+3)^256")
    assert exc.value.position == len("t; (t+1)^256*")
