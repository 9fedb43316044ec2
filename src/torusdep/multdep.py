"""Multiplicative relation lattices, dependence predicates, the
torsion/free decomposition of the group generated by a rational point's
coordinates, and Weil heights.

Points have nonzero rational coordinates; the only torsion in Q* is the
sign, which is handled as a parity functional on the relation kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import sympy

from .errors import DomainError
from .intlattice import (
    IntMatrix,
    LatticeBasis,
    express_in_basis,
    hnf,
    kernel_basis,
    primitive_witness,
)

PointQ = Tuple[Fraction, ...]
Vector = Tuple[int, ...]


@dataclass(frozen=True)
class FactoredRational:
    """Exact factorization of a nonzero rational: sign and prime exponents
    (primes in increasing order)."""

    sign: int
    exponents: Tuple[Tuple[int, int], ...]

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.exponents:
            v *= Fraction(p) ** e
        return v


def factor_rational(x: Fraction) -> FactoredRational:
    if x == 0:
        raise DomainError("cannot factor zero")
    sign = -1 if x < 0 else 1
    exps: Dict[int, int] = {}
    for p, e in sympy.factorint(abs(x.numerator)).items():
        exps[int(p)] = exps.get(int(p), 0) + int(e)
    for p, e in sympy.factorint(x.denominator).items():
        exps[int(p)] = exps.get(int(p), 0) - int(e)
    return FactoredRational(sign, tuple(sorted((p, e) for p, e in exps.items() if e)))


def _check_point(P: Sequence[Fraction]) -> PointQ:
    pt = tuple(Fraction(x) for x in P)
    if len(pt) < 2:
        raise DomainError("points live in an ambient torus of dimension >= 2")
    if any(x == 0 for x in pt):
        raise DomainError("point coordinates must be nonzero")
    return pt


def _prime_exponent_matrix(pt: PointQ) -> Tuple[List[int], List[FactoredRational]]:
    facs = [factor_rational(x) for x in pt]
    primes = sorted({p for f in facs for p, _ in f.exponents})
    return primes, facs


def relation_lattice(P: Sequence[Fraction]) -> LatticeBasis:
    """Basis of {a in Z^n : prod(P[i] ** a[i]) == 1}.

    The kernel of the prime-exponent matrix handles absolute values; the
    sign condition is a parity functional on that kernel, cutting out a
    sublattice of index at most 2.
    """
    pt = _check_point(P)
    n = len(pt)
    primes, facs = _prime_exponent_matrix(pt)
    exps = [dict(f.exponents) for f in facs]
    if primes:
        rows = [[exps[i].get(p, 0) for i in range(n)] for p in primes]
        kernel = kernel_basis(IntMatrix(rows))
    else:
        kernel = kernel_basis(IntMatrix([[0] * n]))
    sign_bits = [0 if f.sign > 0 else 1 for f in facs]

    def parity(v: Vector) -> int:
        return sum(x * s for x, s in zip(v, sign_bits)) % 2

    vecs = list(kernel.vectors)
    odd = [i for i, v in enumerate(vecs) if parity(v) == 1]
    if odd:
        pivot = odd[0]
        for i in odd[1:]:
            vecs[i] = tuple(x - y for x, y in zip(vecs[i], vecs[pivot]))
        vecs[pivot] = tuple(2 * x for x in vecs[pivot])
    return LatticeBasis(n, tuple(vecs))


def is_dependent(P: Sequence[Fraction]) -> bool:
    return not relation_lattice(P).is_zero()


def is_primitively_dependent(P: Sequence[Fraction]) -> Optional[Vector]:
    """A relation vector with coprime entries, if the point admits one."""
    return primitive_witness(relation_lattice(P))


@dataclass(frozen=True)
class Decomposition:
    """Coordinates written as sign * prod(generators ** exponent_row),
    with positive multiplicatively independent generators."""

    signs: Tuple[int, ...]
    generators: Tuple[Fraction, ...]
    exponents: IntMatrix  # n rows, rank columns

    @property
    def rank(self) -> int:
        return len(self.generators)

    def reconstruct(self) -> PointQ:
        out = []
        for i, s in enumerate(self.signs):
            v = Fraction(s)
            row = self.exponents.row(i) if self.rank else ()
            for g, e in zip(self.generators, row):
                v *= g ** e
            out.append(v)
        return tuple(out)


def decompose(P: Sequence[Fraction]) -> Decomposition:
    """Torsion/free decomposition of the group generated by the coordinates."""
    pt = _check_point(P)
    n = len(pt)
    primes, facs = _prime_exponent_matrix(pt)
    exps = [dict(f.exponents) for f in facs]
    if not primes:
        return Decomposition(
            signs=tuple(f.sign for f in facs),
            generators=(),
            exponents=IntMatrix([[] for _ in range(n)]),
        )
    A = [[exps[i].get(p, 0) for p in primes] for i in range(n)]
    h, _ = hnf(IntMatrix(A))
    gen_rows = [row for row in h.entries if any(row)]
    basis = LatticeBasis(len(primes), tuple(gen_rows))
    generators = []
    for row in gen_rows:
        g = Fraction(1)
        for p, e in zip(primes, row):
            g *= Fraction(p) ** e
        generators.append(g)
    exp_rows = []
    for i in range(n):
        coords = express_in_basis(A[i], basis)
        assert coords is not None  # rows lie in their own HNF row space
        exp_rows.append(list(coords))
    return Decomposition(
        signs=tuple(f.sign for f in facs),
        generators=tuple(generators),
        exponents=IntMatrix(exp_rows),
    )


def weil_height(x: Fraction) -> float:
    """log max(|numerator|, denominator) of the reduced fraction."""
    if x == 0:
        raise DomainError("height of zero is undefined here")
    return math.log(max(abs(x.numerator), x.denominator))


def point_height(P: Sequence[Fraction]) -> float:
    pt = _check_point(P)
    return sum(weil_height(x) for x in pt)


def root_of_unity_order(x: Fraction) -> Optional[int]:
    """Order of x as a root of unity in Q: 1 for 1, 2 for -1, else None."""
    if x == 1:
        return 1
    if x == -1:
        return 2
    return None

