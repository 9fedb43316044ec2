import math
import random
from fractions import Fraction as F

import pytest
import sympy

from oracles import dependence_oracle, express_in_basis, reconstruct
from torusdep import multdep
from torusdep.errors import DomainError
from torusdep.intlattice import IntMatrix, hnf, rank
from torusdep.multdep import (
    _RESIDUE_MODULUS as M,
    _coprime_rows,
    decompose,
    factor_rational,
    independent_over_coprime_base,
    is_dependent,
    is_primitively_dependent,
    point_height,
    relation_lattice,
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


def test_dependent_relation_lattice_runs_one_elimination_and_builds_one_basis(monkeypatch):
    from torusdep import intlattice, multdep

    calls = {"eliminate": [], "basis": 0, "checked": 0}
    eliminate, post_init = intlattice.eliminate, intlattice.LatticeBasis.__post_init__
    independent = intlattice.LatticeBasis._independent

    def counted_eliminate(h, transform=False, reduce_above=True):
        calls["eliminate"].append((transform, reduce_above))
        return eliminate(h, transform, reduce_above)

    def counted_post_init(self):
        calls["basis"] += 1
        calls["checked"] += 1
        post_init(self)

    def counted_independent(ambient, vectors):
        calls["basis"] += 1
        return independent(ambient, vectors)

    monkeypatch.setattr(intlattice, "eliminate", counted_eliminate)
    monkeypatch.setattr(multdep, "eliminate", counted_eliminate)
    monkeypatch.setattr(intlattice.LatticeBasis, "__post_init__", counted_post_init)
    monkeypatch.setattr(intlattice.LatticeBasis, "_independent", counted_independent)
    assert relation_lattice((F(-2), F(8), F(3, 4))).vectors == ((6, -2, 0),)
    # one elimination with a transform and no reductions above the pivots,
    # and one basis, built without the rank check: independent by construction
    assert calls == {"eliminate": [(True, False)], "basis": 1, "checked": 0}


def test_decompose_eliminates_to_the_hnf_without_a_transform(monkeypatch):
    """decompose's one elimination runs without U and leaves hnf's H, on
    the decompose test points and the seed-1 benchmark points."""
    from test_factoring import DECOMPOSE_POINTS, _make_points

    seen = []
    eliminate = multdep.eliminate

    def checked(h, transform=False, reduce_above=True):
        A = IntMatrix(h)
        k, u = eliminate(h, transform, reduce_above)
        seen.append((transform, reduce_above, u))
        assert IntMatrix(h) == hnf(A)[0]
        assert k == sum(1 for row in h if any(row))
        return k, u

    monkeypatch.setattr(multdep, "eliminate", checked)
    points = DECOMPOSE_POINTS + [point for point, _ in _make_points(1)]
    for point in points:
        decompose(point)
    assert seen == [(False, True, None)] * len(points)


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


def _factorint_verdict(product):
    """Independence of one product from its exponent vector over the primes,
    by sympy.factorint: independent iff some exponent is nonzero."""
    exps = {}
    for v, k in product:
        for p, e in sympy.factorint(v).items():
            exps[p] = exps.get(p, 0) + k * e
    return any(exps.values())


def _rank_verdict(product):
    return rank(_coprime_rows([product])[1]) == 1


def _seeded_products(rng, count):
    """Products of 1 to 6 (v, k) pairs over small smooth v, about half of
    them planted to equal 1 by appending the inverse of a prefix."""
    out = []
    for _ in range(count):
        pairs = [(math.prod(rng.choice((1, 2, 3, 5, 6, 7, 10, 12, 49)) for _ in range(3)), rng.randint(-4, 4))
                 for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            pairs += [(v, -k) for v, k in rng.sample(pairs, len(pairs))]
        out.append(pairs)
    return out


def _counted_coprime_base(monkeypatch):
    calls = []
    real = multdep.coprime_base

    def counting(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(multdep, "coprime_base", counting)
    return calls


def test_one_product_verdict_matches_factorint_and_rank():
    rng = random.Random(2323)
    independent = 0
    for product in _seeded_products(rng, 400):
        verdict = independent_over_coprime_base([product])
        assert verdict == _factorint_verdict(product) == _rank_verdict(product), product
        independent += verdict
    assert 100 < independent < 300


@pytest.mark.parametrize(
    "product, independent",
    [
        ([(6, 2), (4, -1), (9, -1)], False),  # exactly 1
        ([(1, 5)], False),  # a value equal to 1
        ([(1, 3), (1, -2)], False),
        ([(7, 0)], False),
        ([], False),
        ([(M + 1, 1), (1, -1)], True),  # residues collide, the value is M + 1
        ([(M, 1), (2 * M, -1)], True),  # residues collide, the value is 1/2
        ([(M, 3), (M ** 3, -1)], False),
        ([(2, 61), (M + 1, -1)], False),
    ],
)
def test_one_product_planted_verdicts(product, independent):
    assert independent_over_coprime_base([product]) == independent
    assert _rank_verdict(product) == independent
    if all(v < 1 << 64 for v, _k in product):
        assert _factorint_verdict(product) == independent


def test_residue_collision_takes_the_exact_route(monkeypatch):
    """Equal residues build the coprime base; different ones never do."""
    calls = _counted_coprime_base(monkeypatch)
    assert independent_over_coprime_base([[(M + 1, 1), (1, -1)]])
    assert independent_over_coprime_base([[(M, 1), (2 * M, -1)]])
    assert not independent_over_coprime_base([[(6, 2), (4, -1), (9, -1)]])
    assert len(calls) == 3
    assert independent_over_coprime_base([[(6, 2), (4, -1), (9, -2)]])
    assert independent_over_coprime_base([[(M - 1, 1)]])
    assert len(calls) == 3
    # two products or more always take the rank
    assert not independent_over_coprime_base([[(2, 1)], [(4, 1)]])
    assert len(calls) == 4


def test_one_product_with_a_4300_digit_base():
    N = 10 ** 4299 + 7
    assert independent_over_coprime_base([[(N, 256)]])
    assert independent_over_coprime_base([[(N, 256), (N ** 2, -127)]])
    assert not independent_over_coprime_base([[(N, 256), (N ** 2, -128)]])
    assert not independent_over_coprime_base([[(N, 256), (3, 5), (N ** 4, -64), (243, -1)]])
    assert _rank_verdict([(N, 256), (N ** 2, -127)])
    assert not _rank_verdict([(N, 256), (N ** 2, -128)])
