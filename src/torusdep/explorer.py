"""Analysis pipeline: torsion-fiber enumeration, bounded-height scans for
multiplicatively dependent parameter values, and machine-readable reports.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import sympy

from .curvegeom import (
    Character,
    CurveData,
    NormalizedCharacter,
    character_restrict,
    normalize_character,
    phi_enumerate,
)
from .errors import DomainError, InvariantViolation
from .exactcore import Poly, RatFunc, cyclotomic_poly, factor_key, factor_poly
from .intlattice import primitive_witness, rank
from .multdep import point_height, relation_lattice, root_of_unity_order
from .parser import parse_coordinates


@dataclass(frozen=True)
class AnalysisConfig:
    torsion_order_bound: int = 12
    scan_height_bound: int = 50

    def __post_init__(self):
        if min(self.torsion_order_bound, self.scan_height_bound) < 1:
            raise DomainError("all bounds must be at least 1")


@dataclass(frozen=True)
class FiberPoint:
    """A Galois orbit of curve points where the character value is a root
    of unity of order dividing the given order."""

    minimal_polynomial: Poly
    character: Character
    order: int


@dataclass(frozen=True)
class ScanRecord:
    parameter: Fraction
    point: Tuple[Fraction, ...]
    dependent: bool
    primitive: bool
    relation: Optional[Tuple[int, ...]]
    height: float
    fiber_character: Optional[Character]  # None means EXCEPTIONAL

    @property
    def classification(self) -> str:
        if self.fiber_character is None:
            return "EXCEPTIONAL"
        return "FIBER(" + ",".join(str(x) for x in self.fiber_character) + ")"


def parse_curve(text: str) -> CurveData:
    """Parse a semicolon-separated coordinate list into curve data."""
    return CurveData.build(parse_coordinates(text))


def _cyclotomic_factors(curve: CurveData, phi: RatFunc, d: int) -> List[Poly]:
    """Factors of the numerator of Phi_d(phi), in factor_poly order, whose
    roots leave every coordinate finite and nonzero. For phi = A/B in lowest
    terms that numerator is sum_k c_k * A**k * B**(e - k), where
    Phi_d = sum_k c_k * t**k has degree e."""
    cs = cyclotomic_poly(d).coeffs
    e = len(cs) - 1
    g = sum((c * phi.num ** k * phi.den ** (e - k) for k, c in enumerate(cs) if c), Poly())
    return [
        q
        for q, _mult in factor_poly(g)[1]
        if not any(q.divides(f.num) or q.divides(f.den) for f in curve.coords)
    ]


def _order_fiber(by_divisor: Dict[int, List[Poly]], N: int) -> Tuple[Poly, ...]:
    """The order-N fiber from the factors of every d | N. Roots of unity of
    different orders give disjoint root sets, so nothing repeats."""
    found = [q for d, qs in by_divisor.items() if N % d == 0 for q in qs]
    return tuple(sorted(found, key=factor_key))


def torsion_fiber(curve: CurveData, a: Sequence[int], N: int) -> List[FiberPoint]:
    """Fiber of the restricted character over roots of unity of order
    dividing N, as irreducible polynomials in the curve parameter.

    With phi = A/B the restricted character, the numerator of phi**N - 1 is
    A**N - B**N, the product over d | N of the homogenized Phi_d(A, B). The
    kept factors of each d are merged in factor_poly order; a and -a share
    them, as 1/phi gives -(A**N - B**N). Raises what
    CurveData.require_proper raises.
    """
    curve.require_proper()
    if N < 1:
        raise DomainError("torsion order must be positive")
    norm = normalize_character(curve, a)  # validates the character
    phi = character_restrict(curve, norm.a)
    by_divisor = {d: _cyclotomic_factors(curve, phi, d) for d in range(1, N + 1) if N % d == 0}
    return [
        FiberPoint(minimal_polynomial=q, character=norm.a, order=N)
        for q in _order_fiber(by_divisor, N)
    ]


def _place_forms(curve: CurveData) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Fraction, ...]]:
    """Integer binary forms of the places and the coordinate constants.

    For a finite place P with L_P the lcm of its coefficients' denominators,
    F_P(p, q) = L_P * q**deg(P) * P(p/q); at infinity F(p, q) = q. Each form
    is returned as its integer coefficients, constant term first (infinity
    is the constant 1 homogenized to degree 1). With
    c_i = lc(num_i)/lc(den_i) * prod_P L_P**(-D[P, i]), exactly
    x_i(p/q) = c_i * prod_P F_P(p, q)**D[P, i] over every row of the divisor
    matrix D, the infinity row included.
    """
    forms = []
    scales = []
    for place in curve.place_index:
        coeffs = (Fraction(1), Fraction(0)) if place.is_infinity else place.poly.coeffs
        lcm = math.lcm(*(c.denominator for c in coeffs))
        forms.append(tuple(int(c * lcm) for c in coeffs))
        scales.append(lcm)
    consts = []
    for i, f in enumerate(curve.coords):
        c = f.num.leading / f.den.leading
        for lcm, row in zip(scales, curve.divisor_matrix.entries):
            c /= Fraction(lcm) ** row[i]
        consts.append(c)
    return tuple(forms), tuple(consts)


def scan_dependent(
    curve: CurveData,
    config: AnalysisConfig,
    characters: Optional[Sequence[NormalizedCharacter]] = None,
) -> List[ScanRecord]:
    """Scan rational parameters t0 = p/q with max(|p|, q) <= H for dependent
    points, classifying each as a torsion-fiber point of an enumerated
    character or as exceptional. Deterministic: sorted by (height,
    parameter). Raises what CurveData.require_proper raises.

    Each parameter is tested from the divisor matrix D, never by evaluating
    the coordinates: x_i(p/q) = c_i * prod_P F_P(p, q)**D[P, i] with the
    integer place forms F_P of _place_forms. A parameter is skipped iff some
    finite F_P(p, q) is 0, which is exactly when some coordinate has a pole
    or a zero there: coordinates are reduced and place_index is the union of
    their supports. Otherwise the prime-exponent vector of |x_i| is
    e(c_i) + sum_P D[P, i] * e(F_P(p, q)), factoring each value once per
    scan, and the point is dependent iff these n vectors have rank < n (a
    relation among the |x_i| doubles to one among the x_i). Only dependent
    parameters are evaluated and passed to relation_lattice; a zero lattice
    there means the two routes disagree and raises InvariantViolation.
    """
    curve.require_proper()
    if characters is None:
        characters = phi_enumerate(curve)
    # Prefer the positively oriented member of each +- pair when classifying.
    ordered = sorted(
        characters,
        key=lambda ch: (next((x for x in ch.a if x), 0) < 0, ch.a),
    )
    n = curve.n
    forms, consts = _place_forms(curve)
    # per place (row of D): the coordinates with a nonzero multiplicity there
    columns = [[(i, m) for i, m in enumerate(row) if m] for row in curve.divisor_matrix.entries]
    factors: Dict[int, Dict[int, int]] = {}

    def factored(v: int) -> Dict[int, int]:
        f = factors.get(v)
        if f is None:
            f = factors[v] = {int(p): int(e) for p, e in sympy.factorint(v).items()}
        return f

    base = []
    for c in consts:
        e = dict(factored(abs(c.numerator)))
        for p, k in factored(c.denominator).items():
            e[p] = e.get(p, 0) - k
        base.append(e)
    H = config.scan_height_bound
    records = []
    for q in range(1, H + 1):
        # coefficients from the top, the k-th times q**k: Horner in p alone
        scaled = [[a * q ** k for k, a in enumerate(reversed(f))] for f in forms]
        for p in range(-H, H + 1):
            if math.gcd(p, q) != 1:
                continue
            values = []
            for b in scaled:
                acc = 0
                for a in b:
                    acc = acc * p + a
                values.append(acc)
            if 0 in values:  # only a finite place can vanish: F at infinity is q >= 1
                continue
            exps = [dict(e) for e in base]
            for v, cols in zip(values, columns):
                fv = factored(abs(v))
                for i, m in cols:
                    ei = exps[i]
                    for prime, k in fv.items():
                        ei[prime] = ei.get(prime, 0) + m * k
            primes = {prime for e in exps for prime, k in e.items() if k}
            if rank([[e.get(prime, 0) for prime in primes] for e in exps]) == n:
                continue
            t0 = Fraction(p, q)
            point = tuple(f(t0) for f in curve.coords)
            lattice = relation_lattice(point)
            if lattice.is_zero():
                raise InvariantViolation(f"rank test and relation lattice disagree at t = {t0}")
            witness = primitive_witness(lattice)
            relation = witness if witness is not None else lattice.vectors[0]
            fiber_char = None
            for ch in ordered:
                value = Fraction(1)
                for x, e in zip(point, ch.a):
                    value *= x ** e
                if root_of_unity_order(value) is not None:
                    fiber_char = ch.a
                    break
            records.append(
                ScanRecord(
                    parameter=t0,
                    point=point,
                    dependent=True,
                    primitive=witness is not None,
                    relation=relation,
                    height=point_height(point),
                    fiber_character=fiber_char,
                )
            )
    records.sort(key=lambda r: (r.height, r.parameter))
    return records


@dataclass(frozen=True)
class Report:
    curve_text: Tuple[str, ...]
    map_degree: int
    assumption_ok: bool
    violation: Optional[Tuple[int, ...]]
    phi: Tuple[NormalizedCharacter, ...]
    fibers: Tuple[Tuple[Character, int, Tuple[Poly, ...]], ...]
    scan: Tuple[ScanRecord, ...]

    @property
    def max_dependent_height(self) -> float:
        return max((r.height for r in self.scan), default=0.0)

    @property
    def exceptional_count(self) -> int:
        return sum(1 for r in self.scan if r.fiber_character is None)

    def to_dict(self) -> Dict:
        return {
            "curve": list(self.curve_text),
            "map_degree": self.map_degree,
            "assumption": {
                "ok": self.assumption_ok,
                "violation": list(self.violation) if self.violation else None,
            },
            "phi": [ch.to_dict() for ch in self.phi],
            "fibers": [
                {
                    "char": list(char),
                    "N": order,
                    "factors": [str(q) for q in factors],
                }
                for char, order, factors in self.fibers
            ],
            "scan": [
                {
                    "t": str(r.parameter),
                    "point": [str(x) for x in r.point],
                    "dependent": r.dependent,
                    "primitive": r.primitive,
                    "relation": list(r.relation) if r.relation is not None else None,
                    "height": r.height,
                    "class": r.classification,
                }
                for r in self.scan
            ],
            "summary": {
                "max_dependent_height": self.max_dependent_height,
                "exceptional_count": self.exceptional_count,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"curve: {'; '.join(self.curve_text)}"]
        lines.append(f"map degree: {self.map_degree}")
        lines.append(f"assumption ok: {self.assumption_ok}")
        lines.append(f"characters ({len(self.phi)}):")
        for ch in self.phi:
            lines.append(
                f"  a={list(ch.a)} P={ch.P} Q={ch.Q} m={ch.m} c={ch.c}"
                f" realizable={ch.realizable_cyclotomic}"
            )
        lines.append(f"fibers ({len(self.fibers)}):")
        for char, order, factors in self.fibers:
            body = ", ".join(str(q) for q in factors) or "(empty)"
            lines.append(f"  char={list(char)} N={order}: {body}")
        lines.append(f"dependent records ({len(self.scan)}):")
        for r in self.scan:
            lines.append(
                f"  t={r.parameter} point={[str(x) for x in r.point]}"
                f" primitive={r.primitive} relation={list(r.relation)}"
                f" height={r.height:.6f} class={r.classification}"
            )
        lines.append(f"max dependent height: {self.max_dependent_height}")
        lines.append(f"exceptional count: {self.exceptional_count}")
        return "\n".join(lines) + "\n"


def analyze(curve_text: str, config: AnalysisConfig = AnalysisConfig()) -> Report:
    """Full pipeline: parse, properness and hypothesis checks, character
    enumeration, torsion fibers for every character and order up to the
    bound, and the bounded-height dependence scan."""
    curve = parse_curve(curve_text).require_proper()
    phi = tuple(phi_enumerate(curve))
    # One table per +-a pair: a and -a have the same fibers.
    bound = config.torsion_order_bound
    tables: Dict[Character, Dict[int, List[Poly]]] = {}
    fibers = []
    for ch in phi:
        key = max(ch.a, tuple(-x for x in ch.a))
        if key not in tables:
            restricted = character_restrict(curve, ch.a)
            tables[key] = {d: _cyclotomic_factors(curve, restricted, d) for d in range(1, bound + 1)}
        for order in range(1, bound + 1):
            fibers.append((ch.a, order, _order_fiber(tables[key], order)))
    scan = tuple(scan_dependent(curve, config, phi))
    return Report(
        curve_text=tuple(str(f) for f in curve.coords),
        map_degree=curve.degree,
        assumption_ok=True,
        violation=None,
        phi=phi,
        fibers=tuple(fibers),
        scan=scan,
    )
