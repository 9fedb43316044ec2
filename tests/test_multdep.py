import math
import random
from fractions import Fraction as F

import pytest

from oracles import dependence_oracle, express_in_basis, reconstruct
from torusdep.errors import DomainError
from torusdep.multdep import (
    decompose,
    factor_rational,
    is_dependent,
    is_primitively_dependent,
    point_height,
    relation_lattice,
    root_of_unity_order,
    weil_height,
)


def test_factor_rational_examples():
    f = factor_rational(F(12))
    assert f.sign == 1 and f.exponents == ((2, 2), (3, 1))
    f = factor_rational(F(-3, 4))
    assert f.sign == -1 and f.exponents == ((2, -2), (3, 1))
    f = factor_rational(F(1))
    assert f.sign == 1 and f.exponents == ()
    assert factor_rational(F(-40, 9)).value() == F(-40, 9)
    with pytest.raises(DomainError):
        factor_rational(F(0))


def test_relation_lattice_examples():
    assert relation_lattice((F(2), F(8))).vectors == ((3, -1),)
    assert relation_lattice((F(2), F(3))).is_zero()
    assert relation_lattice((F(-1), F(2))).vectors == ((2, 0),)


def test_dependent_relation_lattice_runs_one_hnf_and_builds_one_basis(monkeypatch):
    from torusdep import intlattice, multdep

    calls = {"hnf": 0, "basis": 0}
    hnf, post_init = intlattice.hnf, intlattice.LatticeBasis.__post_init__

    def counted_hnf(M):
        calls["hnf"] += 1
        return hnf(M)

    def counted_post_init(self):
        calls["basis"] += 1
        post_init(self)

    monkeypatch.setattr(intlattice, "hnf", counted_hnf)
    monkeypatch.setattr(multdep, "hnf", counted_hnf)
    monkeypatch.setattr(intlattice.LatticeBasis, "__post_init__", counted_post_init)
    assert relation_lattice((F(-2), F(8), F(3, 4))).vectors == ((6, -2, 0),)
    assert calls == {"hnf": 1, "basis": 1}


def test_is_dependent_examples():
    assert is_dependent((F(2), F(8)))
    assert not is_dependent((F(2), F(3)))
    assert is_dependent((F(1), F(5)))  # coordinate equal to 1


def test_is_primitively_dependent_examples():
    assert is_primitively_dependent((F(2), F(8))) in ((3, -1), (-3, 1))
    assert is_primitively_dependent((F(-1), F(2))) is None
    w = is_primitively_dependent((F(4), F(8)))
    assert w in ((3, -2), (-3, 2))


def test_decompose_examples():
    d = decompose((F(4), F(8)))
    assert d.rank == 1 and d.generators == (F(2),)
    assert [list(r) for r in d.exponents.entries] == [[2], [3]]
    assert d.signs == (1, 1)
    assert reconstruct(d) == (F(4), F(8))

    d = decompose((F(-1), F(1)))
    assert d.rank == 0 and d.signs == (-1, 1)
    assert reconstruct(d) == (F(-1), F(1))

    d = decompose((F(12), F(18)))
    assert d.rank == 2
    assert reconstruct(d) == (F(12), F(18))


def _random_point(rng, n):
    primes = [2, 3, 5, 7, 11, 13]
    coords = []
    for _ in range(n):
        x = F(rng.choice([-1, 1]))
        for p in primes:
            x *= F(p) ** rng.randint(-3, 3)
        coords.append(x)
    return tuple(coords)


def test_relations_satisfied_exactly():
    rng = random.Random(31)
    for _ in range(60):
        pt = _random_point(rng, rng.randint(2, 4))
        lattice = relation_lattice(pt)
        for v in lattice.vectors:
            prod = F(1)
            for x, e in zip(pt, v):
                prod *= x ** e
            assert prod == 1


def test_oracle_hits_lie_in_lattice():
    rng = random.Random(32)
    for _ in range(25):
        pt = _random_point(rng, 2)
        lattice = relation_lattice(pt)
        for v in dependence_oracle(pt, 4):
            assert express_in_basis(v, lattice) is not None


def test_dependence_oracle_examples():
    hits = dependence_oracle((F(2), F(8)), 4)
    assert set(hits) == {(3, -1), (-3, 1)}  # multiples leave the box
    assert dependence_oracle((F(2), F(3)), 6) == []
    assert dependence_oracle((F(-1), F(2)), 3) == [(-2, 0), (2, 0)]


def test_decompose_reconstruction_random():
    rng = random.Random(33)
    for _ in range(60):
        pt = _random_point(rng, rng.randint(2, 4))
        d = decompose(pt)
        assert reconstruct(d) == pt
        assert all(g > 0 for g in d.generators)
        # generators multiplicatively independent <=> exponent vectors of
        # their prime factorizations independent; the HNF rows are.
        if d.rank:
            facs = [dict(factor_rational(g).exponents) for g in d.generators]
            primes = sorted({p for f in facs for p in f})
            rows = [[f.get(p, 0) for p in primes] for f in facs]
            from torusdep.intlattice import IntMatrix, hnf

            h, _ = hnf(IntMatrix(rows))
            assert all(any(r) for r in h.entries)
        assert is_dependent(pt) == (not relation_lattice(pt).is_zero())
        if is_dependent(pt):
            assert d.rank <= len(pt) - 1


def test_primitive_implies_dependent():
    rng = random.Random(34)
    for _ in range(40):
        pt = _random_point(rng, 2)
        if is_primitively_dependent(pt) is not None:
            assert is_dependent(pt)
    # converse fails:
    assert is_dependent((F(-1), F(2)))
    assert is_primitively_dependent((F(-1), F(2))) is None


def test_weil_height():
    assert weil_height(F(1)) == 0.0
    assert weil_height(F(2)) == pytest.approx(math.log(2))
    assert weil_height(F(3, 4)) == pytest.approx(math.log(4))
    assert weil_height(F(-1)) == 0.0
    with pytest.raises(DomainError):
        weil_height(F(0))


def test_point_height():
    assert point_height((F(1), F(1))) == 0.0
    assert point_height((F(2), F(8))) == pytest.approx(4 * math.log(2))
    assert point_height((F(3, 4), F(5))) == pytest.approx(math.log(4) + math.log(5))


def test_root_of_unity_order():
    assert root_of_unity_order(F(1)) == 1
    assert root_of_unity_order(F(-1)) == 2
    assert root_of_unity_order(F(2)) is None


def test_height_combination_is_finite_and_reproducible():
    # For dependent points, sum_j |m_ij| * h(g_j) is finite and stable.
    rng = random.Random(35)
    values = []
    for _ in range(20):
        pt = _random_point(rng, 2)
        if not is_dependent(pt):
            continue
        d = decompose(pt)
        total = sum(
            abs(e) * weil_height(g)
            for row in d.exponents.entries
            for e, g in zip(row, d.generators)
        )
        assert math.isfinite(total)
        values.append(total)
    rng2 = random.Random(35)
    values2 = []
    for _ in range(20):
        pt = _random_point(rng2, 2)
        if not is_dependent(pt):
            continue
        d = decompose(pt)
        values2.append(
            sum(
                abs(e) * weil_height(g)
                for row in d.exponents.entries
                for e, g in zip(row, d.generators)
            )
        )
    assert values == values2
