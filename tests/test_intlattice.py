import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy

from oracles import express_in_basis, primitive_witness_oracle
from test_factoring import _make_points
from torusdep import intlattice
from torusdep.errors import DomainError
from torusdep.intlattice import (
    IntMatrix,
    LatticeBasis,
    _sign_normalized,
    content,
    eliminate,
    hnf,
    kernel_basis,
    left_kernel,
    min_content,
    primitive_witness,
    rank,
)
from torusdep.multdep import relation_lattice


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


def _assert_transform(M, H, U):
    """U is unimodular and H = U M, checked in sympy."""
    u = sympy.Matrix(U.entries)
    assert abs(u.det()) == 1
    assert u * sympy.Matrix(M.entries) == sympy.Matrix(H.entries)


def test_hnf_example():
    M = IntMatrix([[2, 1], [1, 2]])
    H, U = hnf(M)
    assert H == IntMatrix([[1, 2], [0, 3]])
    _assert_transform(M, H, U)


def test_hnf_identity_and_zero():
    I3 = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
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
        _assert_transform(M, H, U)
        _is_hnf(H)


def test_hnf_choices_ignore_positive_column_scales_and_repeats():
    """hnf picks rows by least |entry| (the first on ties), divides with //
    and flips signs, and no positive column scale changes these choices; a
    positive multiple of an earlier column is already cleared below the
    pivot, so hnf skips it. Scaling columns and inserting such multiples
    therefore keeps U, and H's columns follow M's. The dependence engine's
    matrix over a coprime base gives the prime matrix's bytes by this."""
    rng = random.Random(18)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        # (column of M, positive factor) for each column of the new matrix
        spec = [(j, rng.randint(1, 6)) for j in range(cols)]
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(1, len(spec))
            spec.insert(at, (rng.choice(spec[:at])[0], rng.randint(1, 6)))
        H, U = hnf(IntMatrix(M))
        H2, U2 = hnf(IntMatrix([[row[j] * k for j, k in spec] for row in M]))
        assert U2 == U
        assert H2 == IntMatrix([[row[j] * k for j, k in spec] for row in H.entries])


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


def _seeded_matrices(seed, count):
    """Seeded integer matrices of 1-6 rows and 1-5 columns, entries in
    [-9, 9]; every third has its last row a combination of its first two
    (rank-deficient) and every fourth a zero row. Then three edge cases:
    no columns, one zero row, and a row that is zero after one reduction."""
    rng = random.Random(seed)
    for k in range(count):
        rows, cols = rng.randint(1, 6), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 1 and rows >= 3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
        if k % 4 == 2:
            m[rng.randrange(rows)] = [0] * cols
        yield IntMatrix(m)
    yield from (IntMatrix([[], []]), IntMatrix([[0, 0]]), IntMatrix([[2, 4], [3, 6], [1, 2]]))


def test_left_kernel_equals_hnf_transform_rows_opposite_zero_rows():
    """left_kernel's elimination skips the reductions above the pivots;
    the rows of U opposite H's zero rows come out as the full hnf's."""
    deficient = zero_rows = 0
    for M in _seeded_matrices(27, 400):
        H, U = hnf(M)
        expected = tuple(_sign_normalized(u) for h, u in zip(H.entries, U.entries) if not any(h))
        assert left_kernel(M) == expected, M
        deficient += M.rows > 1 and rank(M.entries) < min(M.rows, M.cols)
        zero_rows += any(not any(row) for row in M.entries)
    assert deficient >= 40 and zero_rows >= 100


def test_eliminate_without_transform_gives_hnf():
    """The elimination decompose runs, with no U, gives hnf's H and counts
    its nonzero rows."""
    for M in _seeded_matrices(28, 400):
        h = [list(row) for row in M.entries]
        k, u = eliminate(h)
        H = hnf(M)[0]
        assert IntMatrix(h) == H and u is None, M
        assert k == sum(1 for row in H.entries if any(row))


def test_public_constructors_reject_non_integer_entries():
    """Entries go through operator.index: nothing is truncated."""
    for entries in ([[2.5, 1], [1, 3]], [[1, 2], [1, "3"]], [[F(1, 2), 1]], [[1.0, 2]], [[None]]):
        with pytest.raises(DomainError, match="integer entries"):
            IntMatrix(entries)
    for vectors in ([(1.9, 0)], [(1, F(4, 2))], [(1, "0")]):
        with pytest.raises(DomainError, match="integer entries"):
            LatticeBasis(2, vectors)
    M = IntMatrix([[True, sympy.Integer(2)], [sympy.Integer(-3), 4]])
    assert M.entries == ((1, 2), (-3, 4)) and all(type(x) is int for row in M.entries for x in row)
    assert LatticeBasis(2, [(sympy.Integer(3), False)]).vectors == ((3, 0),)


def test_lattice_basis_rejects_dependent_vectors():
    with pytest.raises(DomainError, match="linearly dependent"):
        LatticeBasis(2, ((1, 2), (-2, -4)))


def test_internal_bases_skip_the_rank_check(monkeypatch):
    """kernel_basis and relation_lattice build bases independent by
    construction without the cubic rank check; LatticeBasis called from
    outside still runs it."""

    def refuse(vectors):
        raise AssertionError("rank check on a basis independent by construction")

    monkeypatch.setattr(intlattice, "rank", refuse)
    assert kernel_basis(IntMatrix([[1, 2, 3]])).vectors == ((2, -1, 0), (3, 0, -1))
    assert relation_lattice((F(2), F(4), F(-8))).rank == 2
    with pytest.raises(AssertionError, match="rank check"):
        LatticeBasis(2, ((1, 0),))


def test_lattice_basis_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(DomainError, match="ambient dimension"):
        LatticeBasis(3, ((1, 2, 3), (1, 2)))


def test_ragged_matrix_rejected():
    with pytest.raises(DomainError, match="ragged"):
        IntMatrix([[1, 2], [3]])


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


def _witness_lattices(rng, count):
    """Seeded bases of ambient dimension n <= 7 and rank 1..n: entries in
    [-9, 9], some scaled by up to 10**6, some bases scaled by a common
    factor (content > 1); about one in five a block basis
    ((p, 0...), (0, M...)) whose first pivot p > 1 is minimal and divides
    its row and column but not all of M, so the stage must add an
    offending column."""
    made = 0
    while made < count:
        n = rng.randint(1, 7)
        r = rng.randint(1, n)
        if made % 5 == 0 and n >= 2 and r >= 2:
            p = rng.choice([2, 3, 5, 7])
            rest = [[rng.choice([0, 1]) * rng.randint(p, 4 * p) for _ in range(n - 1)] for _ in range(r - 1)]
            rest[-1][-1] = p * rng.randint(1, 3) + rng.randint(1, p - 1)
            vecs = [[p] + [0] * (n - 1)] + [[0] + row for row in rest]
        else:
            vecs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
            if rng.random() < 0.3:
                for row in vecs:
                    row[rng.randrange(n)] *= rng.randint(1, 10**6)
            if rng.random() < 0.1:
                k = rng.randint(2, 12)
                vecs = [[k * x for x in row] for row in vecs]
        try:
            B = LatticeBasis(n, vecs)
        except DomainError:
            continue
        made += 1
        yield B


def test_primitive_witness_matches_inverse_transform_oracle():
    """The witness read off the reduced basis rows equals the parent route's
    d1 * T^{-1}[0] on seeded lattices, None included, and on every relation
    lattice of the points benchmark at seeds 1-3."""
    examples = [LatticeBasis(2, ((2, 0), (0, 3))), LatticeBasis(3, ((4, 6, 10),))]
    lattices = examples + list(_witness_lattices(random.Random(20), 20000))
    lattices += [relation_lattice(point) for seed in (1, 2, 3) for point, _ in _make_points(seed)]
    found = none = 0
    for B in lattices:
        w = primitive_witness(B)
        assert w == primitive_witness_oracle(B), B
        found += w is not None
        none += w is None
    assert found > 10000 and none > 1000


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
