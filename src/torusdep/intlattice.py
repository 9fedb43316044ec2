"""Exact integer linear algebra: Hermite normal form with transform,
integer kernels, and content/primitivity queries on lattices.

Conventions: row-style HNF, positive pivots, entries above a pivot reduced
into [0, pivot). Everything is arbitrary-precision Python integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError

Vector = Tuple[int, ...]


class IntMatrix:
    """An immutable integer matrix (row-major)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DomainError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.entries))) if self.entries else IntMatrix([])

    def mul_vec(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise DomainError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DomainError("dimension mismatch in matrix product")
        ot = other.transpose()
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot.entries] for row in self.entries]
        )

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def determinant(self) -> int:
        if self.rows != self.cols:
            raise DomainError("determinant of a non-square matrix")
        n = self.rows
        m = [[Fraction(x) for x in row] for row in self.entries]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                f = m[r][col] * inv
                if f:
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        assert det.denominator == 1
        return det.numerator


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a list of integer vectors, by fraction-free (Bareiss)
    elimination: every division is exact, so all entries stay integers."""
    m = [[int(x) for x in row] for row in vectors]
    r = 0
    prev = 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][col]
        for i in range(r + 1, len(m)):
            a = m[i][col]
            m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], m[r])]
        prev = p
        r += 1
        if r == len(m):
            break
    return r


@dataclass(frozen=True)
class LatticeBasis:
    """A basis (possibly empty) of a sublattice of Z^ambient."""

    ambient: int
    vectors: Tuple[Vector, ...]

    def __post_init__(self):
        vecs = tuple(tuple(int(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if any(len(v) != self.ambient for v in vecs):
            raise DomainError("basis vector length differs from ambient dimension")
        if vecs and rank(vecs) != len(vecs):
            raise DomainError("basis vectors are linearly dependent")

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def is_zero(self) -> bool:
        return not self.vectors

    def matrix(self) -> IntMatrix:
        return IntMatrix(self.vectors)


def hnf(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and H = U @ M; pivots positive,
    entries above each pivot reduced into [0, pivot).
    """
    h = [list(row) for row in M.entries]
    u = [[1 if i == j else 0 for j in range(M.rows)] for i in range(M.rows)]
    nrows = M.rows
    ncols = M.cols
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        # Reduce the column below pivot_row to a single nonzero entry.
        while True:
            nz = [r for r in range(pivot_row, nrows) if h[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(h[r][col]))
            if r0 != pivot_row:
                h[pivot_row], h[r0] = h[r0], h[pivot_row]
                u[pivot_row], u[r0] = u[r0], u[pivot_row]
            if len(nz) == 1:
                break
            p = h[pivot_row][col]
            for r in range(pivot_row + 1, nrows):
                if h[r][col] != 0:
                    q = h[r][col] // p
                    if q:
                        h[r] = [a - q * b for a, b in zip(h[r], h[pivot_row])]
                        u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
        if h[pivot_row][col] == 0:
            continue
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-a for a in h[pivot_row]]
            u[pivot_row] = [-a for a in u[pivot_row]]
        p = h[pivot_row][col]
        for r in range(pivot_row):
            q = h[r][col] // p
            if q:
                h[r] = [a - q * b for a, b in zip(h[r], h[pivot_row])]
                u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
        pivot_row += 1
    return IntMatrix(h), IntMatrix(u)


def kernel_basis(M: IntMatrix) -> LatticeBasis:
    """A basis of the saturated lattice {a in Z^cols : M @ a = 0}."""
    n = M.cols
    if M.rows == 0 or n == 0:
        return LatticeBasis(n, tuple(tuple(row) for row in IntMatrix.identity(n).entries))
    ht, ut = hnf(M.transpose())
    vecs = []
    for i in range(ht.rows):
        if all(x == 0 for x in ht.row(i)):
            vecs.append(_sign_normalized(ut.row(i)))
    return LatticeBasis(n, tuple(vecs))


def _sign_normalized(v: Sequence[int]) -> Vector:
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-y for y in v)
    return tuple(v)


def content(v: Sequence[int]) -> int:
    """gcd of the entries (0 for the zero vector)."""
    return math.gcd(*[abs(int(x)) for x in v]) if v else 0


def min_content(B: LatticeBasis) -> int:
    """Minimum content over nonzero lattice vectors; 0 for the zero lattice.

    Equals the first Smith elementary divisor of the basis matrix, which is
    the gcd of all basis entries.
    """
    if B.is_zero():
        return 0
    return math.gcd(*[abs(x) for v in B.vectors for x in v])


def _smith_first_witness(B: LatticeBasis) -> Vector:
    """A lattice vector of content equal to min_content(B).

    Runs the first pivot stage of Smith reduction, tracking the inverse of
    the column transform; the witness is d1 times the first row of T^{-1}.
    """
    w = [list(v) for v in B.vectors]
    n = B.ambient
    tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rows = len(w)

    def col_add(dst: int, src: int, k: int):
        # column op: col dst += k * col src; inverse acts on rows of tinv.
        for r in range(rows):
            w[r][dst] += k * w[r][src]
        tinv[src] = [a - k * b for a, b in zip(tinv[src], tinv[dst])]

    def col_swap(i: int, j: int):
        for r in range(rows):
            w[r][i], w[r][j] = w[r][j], w[r][i]
        tinv[i], tinv[j] = tinv[j], tinv[i]

    def col_negate(j: int):
        for r in range(rows):
            w[r][j] = -w[r][j]
        tinv[j] = [-a for a in tinv[j]]

    while True:
        # Move a minimal nonzero entry to (0, 0).
        best = None
        for i in range(rows):
            for j in range(n):
                if w[i][j] != 0 and (best is None or abs(w[i][j]) < abs(w[best[0]][best[1]])):
                    best = (i, j)
        assert best is not None
        bi, bj = best
        if bi != 0:
            w[0], w[bi] = w[bi], w[0]
        if bj != 0:
            col_swap(0, bj)
        if w[0][0] < 0:
            col_negate(0)
        p = w[0][0]
        dirty = False
        for j in range(1, n):
            q = w[0][j] // p
            if q:
                col_add(j, 0, -q)
            if w[0][j] != 0:
                dirty = True
        for i in range(1, rows):
            q = w[i][0] // p
            if q:
                w[i] = [a - q * b for a, b in zip(w[i], w[0])]
            if w[i][0] != 0:
                dirty = True
        if dirty:
            continue
        # Pivot must divide every remaining entry for d1 = gcd of all.
        offender = None
        for i in range(1, rows):
            for j in range(1, n):
                if w[i][j] % p != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender is None:
            break
        col_add(0, offender[1], 1)
    d1 = w[0][0]
    return tuple(d1 * x for x in tinv[0])


def primitive_witness(B: LatticeBasis) -> Optional[Vector]:
    """A content-1 lattice vector, if min_content(B) == 1; else None."""
    if min_content(B) != 1:
        return None
    v = _smith_first_witness(B)
    assert content(v) == 1
    return _sign_normalized(v)


def express_in_basis(v: Sequence[int], B: LatticeBasis) -> Optional[Vector]:
    """Integer coordinates x with sum(x[j] * B.vectors[j]) == v, or None."""
    v = tuple(int(x) for x in v)
    if len(v) != B.ambient:
        raise DomainError("vector length differs from ambient dimension")
    if B.is_zero():
        return () if all(x == 0 for x in v) else None
    h, u = hnf(B.matrix())
    pivots: List[Tuple[int, int]] = []  # (row, col)
    for i in range(h.rows):
        col = next((j for j in range(h.cols) if h.entries[i][j] != 0), None)
        assert col is not None  # basis rows are independent
        pivots.append((i, col))
    residual = list(v)
    y = [0] * h.rows
    for i, col in pivots:
        p = h.entries[i][col]
        if residual[col] % p != 0:
            return None
        q = residual[col] // p
        y[i] = q
        if q:
            residual = [a - q * b for a, b in zip(residual, h.entries[i])]
    if any(x != 0 for x in residual):
        return None
    # x = y @ U maps HNF coordinates back to the original basis.
    x = tuple(sum(y[i] * u.entries[i][j] for i in range(len(y))) for j in range(u.cols))
    return x
