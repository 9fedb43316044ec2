"""Exact integer linear algebra: one Hermite elimination for the normal
form with or without its transform and for integer kernels; content and
primitivity queries on lattices, a content-1 vector read off the basis
rows by the first Smith pivot stage, with no inverse column transform.

Conventions: row-style HNF, positive pivots, entries above a pivot reduced
into [0, pivot). Everything is arbitrary-precision Python integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, InvariantViolation

Vector = Tuple[int, ...]


class IntMatrix:
    """An immutable integer matrix (row-major)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        try:  # operator.index: a non-integer entry is refused, never truncated
            rows = tuple(tuple(map(index, row)) for row in entries)
        except TypeError as exc:
            raise DomainError(f"integer entries expected: {exc}") from None
        if len({len(r) for r in rows}) > 1:
            raise DomainError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _trusted(cls, entries: Sequence[Sequence[int]]) -> "IntMatrix":
        """Rows of ints of one width, taken without conversion or checks."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", tuple(map(tuple, entries)))
        return matrix

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix._trusted(zip(*self.entries))

    def mul_vec(self, v: Sequence[int]) -> Vector:
        if len(v) != self.cols:
            raise DomainError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a list of integer vectors, by fraction-free (Bareiss)
    elimination: every division is exact, so all entries stay integers."""
    m = [list(map(index, row)) for row in vectors]
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
        vecs = tuple(self.vectors)
        if any(len(v) != self.ambient for v in vecs):
            raise DomainError("basis vector length differs from ambient dimension")
        object.__setattr__(self, "vectors", IntMatrix(vecs).entries)
        if vecs and rank(self.vectors) != len(vecs):
            raise DomainError("basis vectors are linearly dependent")

    @classmethod
    def _independent(cls, ambient: int, vectors: Tuple[Vector, ...]) -> "LatticeBasis":
        """A basis of integer vectors of length ambient that are independent
        by construction, without the rank check: Bareiss is cubic in n."""
        basis = object.__new__(cls)
        object.__setattr__(basis, "ambient", ambient)
        object.__setattr__(basis, "vectors", vectors)
        return basis

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def is_zero(self) -> bool:
        return not self.vectors


def eliminate(h: List[List[int]], transform: bool = False,
              reduce_above: bool = True) -> Tuple[int, Optional[List[List[int]]]]:
    """Row-style Hermite elimination of the rows h in place: the number of
    pivots (zero rows follow pivot rows) and, with transform, the unimodular
    U with h = U @ h_given, else None. reduce_above=False skips the
    reductions above each pivot; they touch only rows above it, never zero
    and never read below it, so U's rows opposite h's zero rows stay."""
    nrows = len(h)
    u = [[int(i == j) for j in range(nrows)] if transform else [] for i in range(nrows)]
    pivot_row = 0
    for col in range(len(h[0]) if h else 0):
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
        for r in range(pivot_row) if reduce_above else ():
            q = h[r][col] // p
            if q:
                h[r] = [a - q * b for a, b in zip(h[r], h[pivot_row])]
                u[r] = [a - q * b for a, b in zip(u[r], u[pivot_row])]
        pivot_row += 1
    return pivot_row, u if transform else None


def hnf(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form (H, U), U unimodular and H = U @ M."""
    h = [list(row) for row in M.entries]
    _, u = eliminate(h, transform=True)
    return IntMatrix._trusted(h), IntMatrix._trusted(u)


def left_kernel(M: IntMatrix) -> Tuple[Vector, ...]:
    """A basis of the saturated lattice {a in Z^rows : a @ M = 0}: the rows
    of U opposite H = U @ M's zero rows, sign-normalized; H left unreduced."""
    k, u = eliminate([list(row) for row in M.entries], transform=True, reduce_above=False)
    return tuple(_sign_normalized(row) for row in u[k:])


def kernel_basis(M: IntMatrix) -> LatticeBasis:
    """A basis of the saturated lattice {a in Z^cols : M @ a = 0}: rows of
    a unimodular transform, so independent."""
    return LatticeBasis._independent(M.cols, left_kernel(M.transpose()))


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
    return math.gcd(*[abs(x) for v in B.vectors for x in v])


def primitive_witness(B: LatticeBasis) -> Optional[Vector]:
    """A content-1 lattice vector, if min_content(B) == 1; else None.

    Runs the first pivot stage of Smith reduction on W, a copy of the basis
    rows, and applies each row operation to a second copy V as well; column
    operations touch W alone, so W = V·T with T unimodular throughout. The
    gcd of W's entries stays 1, so a pivot of 1 comes up, and then
    content(V[0]) = content(W[0]) = 1: V[0] is the witness (Cohen, GTM 138,
    section 2.4).
    """
    if min_content(B) != 1:
        return None
    w = [list(v) for v in B.vectors]
    basis = [list(v) for v in B.vectors]
    n = B.ambient
    while True:
        # Move the first minimal nonzero entry (row-major) to (0, 0).
        bi, bj = min(
            ((i, j) for i, row in enumerate(w) for j, x in enumerate(row) if x),
            key=lambda ij: abs(w[ij[0]][ij[1]]),
        )
        w[0], w[bi] = w[bi], w[0]
        basis[0], basis[bi] = basis[bi], basis[0]
        p = abs(w[0][bj])
        if p == 1:
            if content(basis[0]) != 1:
                raise InvariantViolation("Smith pivot 1 on a basis row of content above 1")
            return _sign_normalized(basis[0])
        for row in w:
            row[0], row[bj] = row[bj], row[0]
        if w[0][0] < 0:
            for row in w:
                row[0] = -row[0]
        dirty = False
        for j in range(1, n):
            q = w[0][j] // p
            if q:
                for row in w:
                    row[j] -= q * row[0]
            dirty = dirty or w[0][j] != 0
        for i in range(1, len(w)):
            q = w[i][0] // p
            if q:
                w[i] = [a - q * b for a, b in zip(w[i], w[0])]
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[0])]
            dirty = dirty or w[i][0] != 0
        if not dirty:
            # p > 1 divides row 0 and column 0, so some other entry is not a
            # multiple of p: add the first such entry's column to column 0.
            j = next(j for row in w[1:] for j in range(1, n) if row[j] % p)
            for row in w:
                row[0] += row[j]
