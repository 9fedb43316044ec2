"""Exhaustive oracles the tests compare the library against: phi_oracle
factors every small monomial product on the curve instead of working from
the divisor matrix, and dependence_oracle multiplies out every small
exponent vector instead of factoring the coordinates."""
from fractions import Fraction
from typing import List, Sequence

from torusdep.curvegeom import (
    Character,
    CurveData,
    character_restrict,
    check_assumption,
    divisor_of,
)
from torusdep.errors import DomainError, PreconditionError
from torusdep.intlattice import content
from torusdep.multdep import Vector, _check_point


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
        if content(a) != 1:
            continue
        div = divisor_of(character_restrict(curve, a))
        items = div.items()
        if len(items) == 2 and all(p.degree == 1 for p, _ in items):
            out.append(a)
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
