"""Curve validation (properness and the standing hypothesis), checked once
per curve and reported by exception type; CLI exit codes; parser and
point-literal budgets; no assert statement in the package, since python -O
strips them."""
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import torusdep.curvegeom as curvegeom
import torusdep.explorer as explorer
from torusdep.cli import build_parser, main
from torusdep.curvegeom import phi_enumerate
from torusdep.errors import (
    AssumptionViolation,
    DomainError,
    ImproperParametrization,
    InvariantViolation,
    ParseError,
    PreconditionError,
)
from torusdep.explorer import AnalysisConfig, analyze, parse_curve, scan_dependent, torsion_fiber
from torusdep.intlattice import IntMatrix, hnf
from torusdep.parser import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    parse_coordinates,
    parse_expression,
)

SMALL = AnalysisConfig(torsion_order_bound=2, scan_height_bound=5)


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


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
    calls = {"map_degree": 0, "check_assumption": 0, "phi_enumerate": 0}
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
    assert calls == {"map_degree": 1, "check_assumption": 1, "phi_enumerate": 1}


def test_a_wrong_character_raises(monkeypatch, capsys):
    """Each character phi_enumerate finds is checked exactly against D: an
    HNF with a wrong entry above the diagonal gives a wrong character."""

    def wrong(M):
        h, u = hnf(M)
        rows = [list(row) for row in h.entries]
        rows[0][1] += 1
        return IntMatrix(rows), u

    monkeypatch.setattr(curvegeom, "hnf", wrong)
    with pytest.raises(InvariantViolation, match="is not supported on two places"):
        phi_enumerate(parse_curve("(t-1)^2; t"))
    assert main(["phi", "--curve", "(t-1)^2; t"]) == 5
    assert capsys.readouterr().err.startswith("internal invariant violation: character")


def test_no_assert_in_the_package():
    package = Path(curvegeom.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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

    def test_multiple_of_a_character_exits_0(self, capsys):
        """A --char need not be primitive: 2*(0, 1) has divisor 2(0) - 2(inf)
        on two rational places, and its fiber is that of t**2."""
        assert main(["fiber", "--curve", "(t-1)^3; t", "--char", "0,2", "--order", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["factors"] == ["t + 1", "t^2 + 1"]

    def test_order_zero_exits_2(self, capsys):
        assert main(["fiber", "--curve", "(t-1)^3; t", "--char", "1,0", "--order", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unbudgeted_torsion_orders_exit_2_at_once(self, capsys):
        start = time.perf_counter()
        for argv in (
            ["analyze", "--curve", "(t-1)^2; t", "--torsion-order", "100000", "--scan-height", "1"],
            ["fiber", "--curve", "(t-1)^2; t", "--char", "0,1", "--order", "1000000000000"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")
        assert time.perf_counter() - start < 2

    def test_large_character_multiple_exits_2_at_once(self):
        """m = 10**8 is refused from D*a, before c = 2**m is built or its
        m-th root sought; in a subprocess, so a regression times out."""
        argv = ["fiber", "--curve", "2*(t-1); t", "--char", "100000000,0", "--order", "1"]
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "torusdep.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=30
        )
        assert time.perf_counter() - start < 5
        assert done.returncode == 2
        assert done.stderr.startswith("error:")

    def test_scan_height_over_budget_exits_2_at_once(self):
        """H = 10**6 is refused by AnalysisConfig before the curve is parsed;
        in a subprocess, so a regression times out."""
        argv = ["analyze", "--curve", "t*(t+1); (t-2)/(t+3); t-5", "--scan-height", "1000000"]
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "torusdep.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=30
        )
        assert time.perf_counter() - start < 5
        assert done.returncode == 2
        assert done.stderr.startswith("error:")

    def test_scan_height_budget(self, capsys):
        top = explorer.MAX_SCAN_HEIGHT
        assert AnalysisConfig(scan_height_bound=top).scan_height_bound == top
        with pytest.raises(DomainError):
            AnalysisConfig(scan_height_bound=top + 1)
        # checked before parsing: the budget error, not the parse error
        assert main(["analyze", "--curve", "t^; t", "--scan-height", str(top + 1)]) == 2
        assert capsys.readouterr().err == f"error: scan height {top + 1} exceeds {top}\n"
        assert main(["analyze", "--curve", "(t-1)^2; t", "--scan-height", "400", "--torsion-order", "1"]) == 0

    def test_long_literal_exits_2(self, capsys):
        assert main(["check", "--curve", "9" * 5000 + "*t; t"]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    def test_huge_power_exits_2(self, capsys):
        assert main(["check", "--curve", "t^99999999; t"]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    def test_non_ascii_digits_exit_2(self, capsys):
        """str.isdigit holds for superscripts and other scripts' digits;
        only 0-9 are digits here."""
        for curve in ("t^\u00b2; t", "\u00b2; t", "t+1; \u00b3t", "t+\u0663; t"):
            assert main(["check", "--curve", curve]) == 2
            assert capsys.readouterr().err.startswith("parse error:")

    def test_deep_nesting_exits_2(self, capsys):
        for curve in ("(" * 400 + "t" + ")" * 400 + "; t+1", "-" * 2000 + "t; t+1"):
            assert main(["check", "--curve", curve]) == 2
            err = capsys.readouterr().err
            assert err == f"parse error: nesting deeper than {MAX_NESTING} levels (at position {MAX_NESTING})\n"

    def test_primitive_on_1000_coordinates(self, capsys):
        """Kernel and relation bases are independent by construction and
        skip LatticeBasis's cubic rank check."""
        start = time.perf_counter()
        assert main(["primitive", "--point", ",".join(["2"] * 1000)]) == 0
        assert time.perf_counter() - start < 20
        assert json.loads(capsys.readouterr().out)["primitively_dependent"] is True


    def test_point_in_exponent_notation_exits_2(self, capsys):
        start = time.perf_counter()
        for point in ("1e20000,3", "1e10000000,3", "2,3E2", "1.5e-3,2"):
            assert main(["depends", "--point", point]) == 2
            assert capsys.readouterr().err.startswith("parse error:")
        assert time.perf_counter() - start < 5

    def test_point_literal_digit_budget(self, capsys):
        most = "1" + "0" * (MAX_LITERAL_DIGITS - 1)
        for point in (f"{most},3", f"3,-2/{most}", f"{most[:-1]}.5,3"):
            assert main(["depends", "--point", point]) == 0
            assert json.loads(capsys.readouterr().out)["dependent"] is False
        for point in (f"{most}0,3", f"2/{most}0,3", f"{most}.5,3", "0." + "3" * MAX_LITERAL_DIGITS + ",2"):
            assert main(["depends", "--point", point]) == 2
            assert capsys.readouterr().err.startswith("parse error:")

    def test_point_integers_fractions_and_decimals(self, capsys):
        assert main(["depends", "--point", "1/2, 0.25,-3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["point"] == ["1/2", "1/4", "-3"] and out["relations"] == [[2, -1, 0]]

    def test_option_values_may_start_with_a_minus_sign(self, capsys):
        for command, flag, value in (
            (["check"], "--curve", "-t;t+1"),
            (["fiber", "--curve", "(t-1)^3; t", "--order", "2"], "--char", "-1,0"),
            (["check"], "--c", "-t;t+1"),
            (["fiber", "--curve", "(t-1)^3; t", "--order", "2"], "--ch", "-1,0"),
            (["depends"], "--poi", "-2,-8"),
            (["depends"], "--point", "-2,-8"),
        ):
            assert main([*command, flag, value]) == 0
            spaced = capsys.readouterr().out
            assert main([*command, f"{flag}={value}"]) == 0
            assert capsys.readouterr().out == spaced
        assert json.loads(spaced)["relations"] == [[3, -1]]
        with pytest.raises(SystemExit) as exc:  # --curve or --char
            main(["fiber", "--curve", "(t-1)^3; t", "--order", "2", "--c", "-1,0"])
        assert exc.value.code == 2
        assert "ambiguous option: --c could match --curve, --char" in capsys.readouterr().err

    def test_missing_option_value_is_argparse_error(self, capsys):
        for argv in (["check", "--curve", "--format", "json"], ["depends", "--point", "--form"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "expected one argument" in capsys.readouterr().err

    def test_one_parser_answers_calls_in_sequence(self):
        """main builds its parser once per process: calls in sequence, an
        argparse error among them, answer as each does on a fresh parser."""
        runs = (
            ["analyze", "--curve", "(t-1)^2; t", "--torsion-order", "2", "--scan-height", "5"],
            ["analyze", "--curve", "(t-1)^2; t", "--scan-height", "five"],
            ["fiber", "--curve", "(t-1)^3; t", "--char", "-1,0", "--order", "2", "--format", "text"],
            ["depends", "--point", "-2,-8"],
        )

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        in_sequence = [call(argv) for argv in runs]
        assert build_parser() is build_parser()
        fresh = []
        for argv in runs:
            build_parser.cache_clear()
            fresh.append(call(argv))
        assert in_sequence == fresh
        assert [code for code, _out, _err in fresh] == [0, 2, 0, 0]
        assert "invalid int value: 'five'" in fresh[1][2]


def test_point_subcommands_do_not_import_sympy():
    """sympy is imported where it is called: the point subcommands on small
    points never load it, and analyze then loads it on demand."""
    script = """
import contextlib, io, sys
import torusdep, torusdep.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["depends", "--point", "2,8"], ["primitive", "--point=-1,2"], ["decompose", "--point", "4,8"]):
        assert cli.main(argv) == 0, argv
    assert "sympy" not in sys.modules
    assert cli.main(["analyze", "--curve", "(t-1)^2; t"]) == 0
assert "sympy" in sys.modules
"""
    done = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


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


def test_fiber_degree_budget_bounds(monkeypatch):
    curve = parse_curve("(t-1)^2; t")  # characters of m = 1 and 2
    monkeypatch.setattr(explorer, "MAX_FIBER_DEGREE", 12)
    assert torsion_fiber(curve, (1, 0), 6)  # m*N = 12
    with pytest.raises(DomainError):
        torsion_fiber(curve, (1, 0), 7)
    assert analyze("(t-1)^2; t", AnalysisConfig(4, 1)).fibers  # 2*(1+1+2+2) = 12
    with pytest.raises(DomainError):  # 2*5 is in, 2*(1+1+2+2+4) is not
        analyze("(t-1)^2; t", AnalysisConfig(5, 1))


def test_fallback_degree_budget_bounds(monkeypatch):
    fallback = parse_curve("2*(t-1)^2; t")  # (1, 0) has m = 2 and c = 2
    monkeypatch.setattr(explorer, "MAX_FALLBACK_DEGREE", 2)
    assert torsion_fiber(fallback, (1, 0), 2)  # 2*phi(1) = 2*phi(2) = 2
    with pytest.raises(DomainError):
        torsion_fiber(fallback, (1, 0), 3)  # 2*phi(3) = 4
    assert torsion_fiber(fallback, (0, 1), 12)  # c = 1 never factors
    assert torsion_fiber(parse_curve("(t-1)^2; t"), (1, 0), 12)
    assert analyze("2*(t-1)^2; t", AnalysisConfig(2, 1)).fibers
    with pytest.raises(DomainError):
        analyze("2*(t-1)^2; t", AnalysisConfig(3, 1))


def test_large_fallback_is_refused_before_factoring(capsys):
    start = time.perf_counter()
    assert main(["fiber", "--curve", "2*(t+1)^60; t", "--char", "1,0", "--order", "11"]) == 2
    assert time.perf_counter() - start < 5  # 60*phi(11) = 600: factoring it takes 20 s or more
    assert capsys.readouterr().err.startswith("error:")


def test_dense_curves_fit_the_fiber_budget(capsys):
    start = time.perf_counter()
    assert main(["analyze", "--curve", "(t+1)^60; t", "--scan-height", "5"]) == 0  # 60*46
    assert time.perf_counter() - start < 10
    assert main(["fiber", "--curve", "(t+1)^120; t", "--char", "1,-120", "--order", "12"]) == 0


def test_nesting_budget():
    """Parentheses and unary signs count alike, up to MAX_NESTING levels;
    one more is refused at the character that opens it."""
    t = parse_expression("t")
    top = MAX_NESTING
    assert parse_expression("(" * top + "t" + ")" * top) == t
    assert parse_expression("(" * (top - 1) + "-t" + ")" * (top - 1)) == -t
    assert parse_expression("- " * top + "3") == parse_expression("3" if top % 2 == 0 else "-3")
    for text, position in (
        ("(" * top + "-t" + ")" * top, top),
        ("(" * (top + 1) + "t" + ")" * (top + 1), top),
        ("- " * (top + 1) + "t", 2 * top),
        (("-(" * top)[: top + 1] + "t", top),
    ):
        with pytest.raises(ParseError, match=f"nesting deeper than {top} levels") as exc:
            parse_expression(text)
        assert exc.value.position == position


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
