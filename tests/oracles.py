"""Exhaustive oracles the tests compare the library against: phi_oracle
factors every small monomial product on the curve instead of working from
the divisor matrix, dependence_oracle multiplies out every small exponent
vector instead of factoring the coordinates, and scan_oracle evaluates
every coordinate and builds the relation lattice at every parameter instead
of testing rank from the place forms."""
from fractions import Fraction
from typing import List, Optional, Sequence

from torusdep.curvegeom import (
    Character,
    CurveData,
    NormalizedCharacter,
    character_restrict,
    check_assumption,
    divisor_of,
    phi_enumerate,
)
from torusdep.errors import DomainError, PreconditionError
from torusdep.explorer import AnalysisConfig, ScanRecord
from torusdep.intlattice import content, primitive_witness
from torusdep.multdep import (
    Vector,
    _check_point,
    point_height,
    relation_lattice,
    root_of_unity_order,
)


def phi_oracle(curve: CurveData, B: int) -> List[Character]:
    """Exhaustive oracle: all primitive exponent vectors with sup-norm at
    most B whose restricted character has a two-point rational divisor.

    Factors the actual monomial product, independently of the divisor
    matrix route used by phi_enumerate. Test use only.
    """
    if check_assumption(curve) is not None:
        raise PreconditionError("curve violates the standing hypothesis")
    if B < 1:
        raise DomainError("oracle bound must be positive")
    out: List[Character] = []
    for a in _box_vectors(curve.n, B):
        # div(x**-a) = -div(x**a): visit one of each +- pair, keep both
        if next(x for x in a if x) < 0 or content(a) != 1:
            continue
        div = divisor_of(character_restrict(curve, a))
        items = div.items()
        if len(items) == 2 and all(p.degree == 1 for p, _ in items):
            out.extend((a, tuple(-x for x in a)))
    return sorted(out)


def _box_vectors(n: int, B: int):
    def rec(prefix):
        if len(prefix) == n:
            if any(prefix):
                yield tuple(prefix)
            return
        for v in range(-B, B + 1):
            yield from rec(prefix + [v])

    yield from rec([])


def dependence_oracle(P: Sequence[Fraction], B: int) -> List[Vector]:
    """Exhaustive scan for relations with sup-norm at most B. Test use only."""
    pt = _check_point(P)
    if B < 1:
        raise DomainError("oracle bound must be positive")
    hits: List[Vector] = []
    n = len(pt)

    def rec(prefix: List[int]):
        if len(prefix) == n:
            if any(prefix):
                v = Fraction(1)
                for x, e in zip(pt, prefix):
                    v *= x ** e
                if v == 1:
                    hits.append(tuple(prefix))
            return
        for e in range(-B, B + 1):
            rec(prefix + [e])

    rec([])
    return sorted(hits)


def _scan_parameters(H: int):
    for q in range(1, H + 1):
        for p in range(-H, H + 1):
            if Fraction(p, q).denominator == q:  # gcd(p, q) == 1 representative
                yield Fraction(p, q)


def scan_oracle(
    curve: CurveData,
    config: AnalysisConfig,
    characters: Optional[Sequence[NormalizedCharacter]] = None,
) -> List[ScanRecord]:
    """The height scan done the direct way: evaluate every coordinate at
    every parameter with Fractions and build its relation lattice. Test use
    only."""
    curve.require_proper()
    if characters is None:
        characters = phi_enumerate(curve)
    # Prefer the positively oriented member of each +- pair when classifying.
    ordered = sorted(
        characters,
        key=lambda ch: (next((x for x in ch.a if x), 0) < 0, ch.a),
    )
    records = []
    for t0 in _scan_parameters(config.scan_height_bound):
        point = []
        for f in curve.coords:
            if f.den(t0) == 0:
                point = None
                break
            v = f(t0)
            if v == 0:
                point = None
                break
            point.append(v)
        if point is None:
            continue
        point = tuple(point)
        lattice = relation_lattice(point)
        if lattice.is_zero():
            continue
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
