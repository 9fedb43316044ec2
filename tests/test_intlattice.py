import itertools
import math
import random

import pytest

from torusdep import intlattice
from torusdep.errors import DomainError
from torusdep.intlattice import (
    IntMatrix,
    LatticeBasis,
    content,
    express_in_basis,
    hnf,
    kernel_basis,
    min_content,
    primitive_witness,
)


def _is_hnf(h):
    pivot_col = -1
    for i in range(h.rows):
        row = h.row(i)
        cols = [j for j, x in enumerate(row) if x != 0]
        if not cols:
            # zero rows only at the bottom
            assert all(not any(h.row(k)) for k in range(i, h.rows))
            break
        j = cols[0]
        assert j > pivot_col
        pivot_col = j
        assert row[j] > 0
        for k in range(i):
            assert 0 <= h.row(k)[j] < row[j]


def test_hnf_example():
    M = IntMatrix([[2, 1], [1, 2]])
    H, U = hnf(M)
    assert H == IntMatrix([[1, 2], [0, 3]])
    assert abs(U.determinant()) == 1
    assert U @ M == H


def test_hnf_identity_and_zero():
    I3 = IntMatrix.identity(3)
    H, U = hnf(I3)
    assert H == I3 and U == I3
    H, _ = hnf(IntMatrix([[0, 0]]))
    assert H == IntMatrix([[0, 0]])


def test_hnf_random_properties():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        H, U = hnf(M)
        assert abs(U.determinant()) == 1
        assert U @ M == H
        _is_hnf(H)


def test_kernel_examples():
    assert kernel_basis(IntMatrix([[3, 0], [0, 1], [-3, -1]])).is_zero()
    k = kernel_basis(IntMatrix([[1, -1]]))
    assert k.vectors == ((1, 1),)
    k = kernel_basis(IntMatrix([[0, 0]]))
    assert k.rank == 2


def test_kernel_random_properties():
    rng = random.Random(12)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        k = kernel_basis(M)
        for v in k.vectors:
            assert all(x == 0 for x in M.mul_vec(v))
        rank_m = len([r for r in hnf(M)[0].entries if any(r)])
        assert k.rank + rank_m == cols
        # Saturation: scaled vectors still reduce into the lattice.
        for v in k.vectors:
            assert express_in_basis(tuple(3 * x for x in v), k) is not None


def test_min_content_examples():
    assert min_content(LatticeBasis(2, ((2, 0), (0, 3)))) == 1
    assert min_content(LatticeBasis(2, ((2, 4),))) == 2
    assert min_content(LatticeBasis(2, ())) == 0


def _brute_min_content(B, coeff_bound=10):
    best = 0
    ranges = [range(-coeff_bound, coeff_bound + 1)] * B.rank
    for coeffs in itertools.product(*ranges):
        if not any(coeffs):
            continue
        v = [0] * B.ambient
        for c, vec in zip(coeffs, B.vectors):
            for i, x in enumerate(vec):
                v[i] += c * x
        g = math.gcd(*[abs(x) for x in v])
        if g and (best == 0 or g < best):
            best = g
    return best


def test_min_content_against_brute_force():
    rng = random.Random(13)
    tried = 0
    while tried < 40:
        ambient = rng.randint(2, 4)
        rank = rng.randint(1, 3)
        vecs = tuple(
            tuple(rng.randint(-5, 5) for _ in range(ambient)) for _ in range(rank)
        )
        try:
            B = LatticeBasis(ambient, vecs)
        except DomainError:
            continue
        tried += 1
        bound = 10 if rank < 3 else 6  # keep the exhaustive scan tractable
        assert min_content(B) == _brute_min_content(B, bound)


def test_primitive_witness_examples():
    B = LatticeBasis(2, ((2, 0), (0, 3)))
    w = primitive_witness(B)
    assert w is not None and content(w) == 1
    assert express_in_basis(w, B) is not None
    assert primitive_witness(LatticeBasis(2, ((2, 0),))) is None
    assert primitive_witness(LatticeBasis(2, ((3, -1),))) in ((3, -1), (-3, 1))


def test_primitive_witness_random():
    rng = random.Random(14)
    found = 0
    for _ in range(60):
        ambient = rng.randint(2, 4)
        rank = rng.randint(1, ambient)
        vecs = tuple(
            tuple(rng.randint(-5, 5) for _ in range(ambient)) for _ in range(rank)
        )
        try:
            B = LatticeBasis(ambient, vecs)
        except DomainError:
            continue
        w = primitive_witness(B)
        if min_content(B) == 1:
            assert w is not None and content(w) == 1
            assert express_in_basis(w, B) is not None
            found += 1
        else:
            assert w is None
    assert found > 20


def test_express_in_basis_examples():
    B = LatticeBasis(2, ((1, 2), (0, 3)))
    assert express_in_basis((2, 1), B) == (2, -1)
    assert express_in_basis((0, 0), B) == (0, 0)
    assert express_in_basis((1, 0), LatticeBasis(2, ((2, 0),))) is None
    with pytest.raises(DomainError):
        express_in_basis((1, 0, 0), B)


def test_express_in_basis_roundtrip_random():
    rng = random.Random(15)
    for _ in range(80):
        ambient = rng.randint(2, 4)
        rank = rng.randint(1, ambient)
        vecs = tuple(
            tuple(rng.randint(-4, 4) for _ in range(ambient)) for _ in range(rank)
        )
        try:
            B = LatticeBasis(ambient, vecs)
        except DomainError:
            continue
        coeffs = [rng.randint(-5, 5) for _ in range(rank)]
        v = tuple(
            sum(c * vec[i] for c, vec in zip(coeffs, B.vectors))
            for i in range(ambient)
        )
        x = express_in_basis(v, B)
        assert x is not None
        recon = tuple(
            sum(c * vec[i] for c, vec in zip(x, B.vectors)) for i in range(ambient)
        )
        assert recon == v


def _fraction_rank(vectors):
    """Reference rank: Gauss-Jordan elimination over Fractions."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in vectors]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_examples():
    assert intlattice.rank([]) == 0
    assert intlattice.rank([[], []]) == 0
    assert intlattice.rank([[0, 0], [0, 0]]) == 0
    assert intlattice.rank([[1, 2], [2, 4]]) == 1
    assert intlattice.rank([[0, 3], [0, 0], [5, 0]]) == 2
    assert intlattice.rank([[2, 1], [1, 2]]) == 2


def test_rank_against_fraction_elimination():
    rng = random.Random(2024)
    for _ in range(3000):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        m = [[rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**6, 10**6))) for _ in range(cols)]
             for _ in range(rows)]
        if rows and cols and rng.random() < 0.3:
            m[rng.randrange(rows)] = [0] * cols
        if cols and rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        if rows >= 3 and rng.random() < 0.4:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[rng.randrange(rows)] = [a * x + b * y for x, y in zip(m[0], m[1])]
        assert intlattice.rank(m) == _fraction_rank(m), m
