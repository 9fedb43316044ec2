"""Command-line front end.

Exit codes: 0 success, 2 parse error or an argument outside an operation's
domain, 3 assumption violation, 4 improper parametrization (also when the
curve is against the hypothesis too), 5 internal invariant violation.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .curvegeom import phi_enumerate
from .errors import (
    AssumptionViolation,
    DomainError,
    ImproperParametrization,
    InvariantViolation,
    ParseError,
    PreconditionError,
)
from .exactcore import render
from .explorer import (
    AnalysisConfig,
    analyze,
    assumption_to_dict,
    fiber_to_dict,
    parse_curve,
    torsion_fiber,
)
from .multdep import (
    decompose,
    is_primitively_dependent,
    point_height,
    relation_lattice,
)
from .parser import MAX_LITERAL_DIGITS

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ASSUMPTION = 3
EXIT_IMPROPER = 4
EXIT_INVARIANT = 5


def _parse_point(text: str):
    """Coordinates written as integers, p/q or decimals. Exponent notation,
    and a numerator or denominator of more than MAX_LITERAL_DIGITS digits as
    written (ab over 10^len(b) for a decimal a.b), are refused before any
    Fraction is built."""
    pieces = [piece.strip() for piece in text.split(",")]
    for piece in pieces:
        if re.search(r"[eE][+-]?\d", piece):
            raise ParseError("bad point: exponent notation is not accepted", 0)
        num, _, den = piece.partition("/")
        whole, _, frac = (sum(map(str.isdigit, s)) for s in num.partition("."))
        if max(whole + frac, frac + 1, sum(map(str.isdigit, den))) > MAX_LITERAL_DIGITS:
            raise ParseError(f"bad point: literal longer than {MAX_LITERAL_DIGITS} digits", 0)
    try:
        coords = tuple(Fraction(piece) for piece in pieces)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad point: {exc}", 0) from None
    if len(coords) < 2:
        raise ParseError("a point needs at least two coordinates", 0)
    return coords


def _parse_char(text: str):
    try:
        return tuple(int(piece.strip()) for piece in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad exponent vector: {exc}", 0) from None


def _emit(payload, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(payload)


def _cmd_analyze(args) -> int:
    config = AnalysisConfig(
        torsion_order_bound=args.torsion_order,
        scan_height_bound=args.scan_height,
    )
    report = analyze(args.curve, config)
    sys.stdout.write(report.to_json() + "\n" if args.format == "json" else report.to_text())
    return EXIT_OK


def _cmd_phi(args) -> int:
    chars = phi_enumerate(parse_curve(args.curve))
    _emit([ch.to_dict() for ch in chars], args.format)
    return EXIT_OK


def _cmd_check(args) -> int:
    curve = parse_curve(args.curve)
    violation = curve.violation
    _emit({"map_degree": curve.degree, "assumption": assumption_to_dict(violation)}, args.format)
    if curve.degree != 1:
        return EXIT_IMPROPER
    if violation is not None:
        return EXIT_ASSUMPTION
    return EXIT_OK


def _cmd_depends(args) -> int:
    point = _parse_point(args.point)
    lattice = relation_lattice(point)
    payload = {
        "point": [str(x) for x in point],
        "dependent": not lattice.is_zero(),
        "relations": [list(v) for v in lattice.vectors],
        "height": point_height(point),
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_primitive(args) -> int:
    point = _parse_point(args.point)
    witness = is_primitively_dependent(point)
    payload = {
        "point": [str(x) for x in point],
        "primitively_dependent": witness is not None,
        "relation": list(witness) if witness is not None else None,
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    point = _parse_point(args.point)
    dec = decompose(point)
    payload = {
        "point": [str(x) for x in point],
        "rank": dec.rank,
        "signs": list(dec.signs),
        "generators": [render(g) for g in dec.generators],
        "exponents": [list(row) for row in dec.exponents.entries],
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_fiber(args) -> int:
    curve = parse_curve(args.curve)
    char = _parse_char(args.char)
    _emit(fiber_to_dict(char, args.order, torsion_fiber(curve, char, args.order)), args.format)
    return EXIT_OK


@functools.cache  # one parser per process: main reuses it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusdep",
        description="Multiplicative dependence explorer for rational curves in a torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze", help="full analysis pipeline")
    p.add_argument("--curve", required=True, help='coordinates, e.g. "(t-1)^3; t"')
    p.add_argument("--torsion-order", type=int, default=12, dest="torsion_order")
    p.add_argument("--scan-height", type=int, default=50, dest="scan_height")
    add_format(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("phi", help="enumerate the finite character set")
    p.add_argument("--curve", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("check", help="properness and constant-monomial checks")
    p.add_argument("--curve", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("depends", help="multiplicative dependence of a rational point")
    p.add_argument("--point", required=True, help='coordinates, e.g. "2,8"')
    add_format(p)
    p.set_defaults(func=_cmd_depends)

    p = sub.add_parser("primitive", help="primitive dependence of a rational point")
    p.add_argument("--point", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("decompose", help="torsion/free decomposition of a point")
    p.add_argument("--point", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("fiber", help="torsion fiber of a character")
    p.add_argument("--curve", required=True)
    p.add_argument("--char", required=True, help='exponent vector, e.g. "1,0"')
    p.add_argument("--order", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_fiber)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse would read a value such as -1,0 or -t;t+1 as an option: join
    # it to its option, unless it names or abbreviates an option of the parser
    commands = next(action.choices for action in parser._actions if action.choices)
    options = [o for p in commands.values() for o in p._option_string_actions]
    for i in range(len(argv) - 1, 0, -1):
        head = argv[i].partition("=")[0]
        if argv[i - 1] in ("--curve", "--char", "--point") and head.startswith("-"):
            if not any(o.startswith(head) for o in options):
                argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ImproperParametrization as exc:
        print(f"improper parametrization: {exc}", file=sys.stderr)
        return EXIT_IMPROPER
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
