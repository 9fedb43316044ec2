import random
from fractions import Fraction as F

import pytest

from oracles import (
    character_restrict,
    compose,
    monomial_product,
    phi_oracle,
    phi_pairs_oracle,
    two_point_divisor_oracle,
)
from test_fibers import BRANCH_CURVES
from test_fibers import CURVES as FIBER_CURVES
from test_golden_outputs import GOLDEN, SCAN_200
from test_scan import (
    BENCH_CURVES,
    LOW_LINEAR_RANK,
    MORE_CURVES,
    NO_INFINITY,
    QUADRATIC_PLACE,
    _many_place_curves,
    _random_proper_curves,
    _shared_prime_curves,
)
from torusdep import curvegeom
from torusdep.curvegeom import (
    CurveData,
    Place,
    check_assumption,
    cyclotomic_realizable,
    divisor_of,
    map_degree,
    normalize_character,
    phi_enumerate,
)
from torusdep.errors import DomainError, PreconditionError
from torusdep.exactcore import Poly, RatFunc, nth_power_in_Q
from torusdep.explorer import parse_curve
from torusdep.intlattice import hnf, kernel_basis

T = Poly.variable()
INF = Place.INFINITY


def curve(*fs):
    return CurveData.build([f if isinstance(f, RatFunc) else RatFunc(f) for f in fs])


def example1(d):
    return curve((T - 1) ** d, T)


def test_divisor_examples():
    d = divisor_of(RatFunc(T))
    assert d == {Place.finite(T): 1, INF: -1}
    d = divisor_of(RatFunc((T - 1) ** 3, T))
    assert d == {Place.finite(T - 1): 3, Place.finite(T): -1, INF: -2}
    d = divisor_of(RatFunc(T ** 2 + 1))
    assert d == {Place.finite(T ** 2 + 1): 1, INF: -2}
    with pytest.raises(DomainError):
        divisor_of(RatFunc(Poly()))


def _rand_ratfunc(rng, max_deg=4, bound=3):
    def rand_poly():
        while True:
            p = Poly([rng.randint(-bound, bound) for _ in range(rng.randint(1, max_deg + 1))])
            if not p.is_zero():
                return p

    return RatFunc(rand_poly(), rand_poly())


def test_divisor_degree_zero_property():
    rng = random.Random(21)
    for _ in range(50):
        f = _rand_ratfunc(rng)
        if f.is_zero():
            continue
        d = divisor_of(f)
        assert sum(m * p.degree for p, m in d.items()) == 0
        assert 0 not in d.values()


def test_divisor_linearity():
    rng = random.Random(22)
    for _ in range(25):
        fs = [_rand_ratfunc(rng, 3, 2) for _ in range(2)]
        if any(f.is_zero() or f.is_constant() for f in fs):
            continue
        a = [rng.randint(-3, 3) for _ in range(2)]
        if not any(a):
            continue
        prod = monomial_product(fs, a)
        if prod.is_constant():
            continue
        combined = {}
        for f, e in zip(fs, a):
            for p, m in divisor_of(f).items():
                combined[p] = combined.get(p, 0) + e * m
        combined = {p: m for p, m in combined.items() if m}
        assert divisor_of(prod) == combined


def test_map_degree_examples():
    assert map_degree(curve(T, T ** 2)) == 1
    assert map_degree(curve(T ** 2, T ** 3)) == 1
    assert map_degree(curve(T ** 2, T ** 4)) == 2
    with pytest.raises(DomainError):
        map_degree(curve(Poly([2]), Poly([3])))


def test_check_assumption_examples():
    assert check_assumption(example1(3)) is None
    assert check_assumption(curve(Poly([2]), T)) == (1, 0)
    assert check_assumption(curve(T, 2 * T)) == (1, -1)


def test_check_assumption_matches_the_kernel_route(monkeypatch):
    """Bareiss rank n decides the hypothesis; only a failing curve runs
    kernel_basis, and its witness is the kernel's first row, as when every
    curve ran it. Seeded curves of 2 to 4 coordinates, each a constant
    times powers of t - a, |a| <= 4: about half of them fail."""
    calls = []
    monkeypatch.setattr(curvegeom, "kernel_basis", lambda M: calls.append(M) or kernel_basis(M))
    rng = random.Random(27)
    linear = [T - a for a in range(-4, 5)]
    failing = 0
    for _ in range(200):
        coords = []
        for _ in range(rng.randint(2, 4)):
            f = RatFunc(Poly([rng.choice((1, -1, 2, 3))]))
            for factor in rng.sample(linear, rng.randint(0, 3)):
                f = f * RatFunc(factor) ** rng.choice((-2, -1, 1, 2))
            coords.append(f)
        c = CurveData.build(coords)
        kernel = kernel_basis(c.divisor_matrix)
        expected = None if kernel.is_zero() else kernel.vectors[0]
        before = len(calls)
        assert check_assumption(c) == expected, [f"{f}" for f in coords]
        assert len(calls) - before == (expected is not None)
        failing += expected is not None
    assert 80 <= failing <= 140


def test_character_restrict_examples():
    c = example1(3)
    assert character_restrict(c, (1, 0)) == RatFunc((T - 1) ** 3)
    assert character_restrict(c, (0, 1)) == RatFunc(T)
    assert character_restrict(c, (1, -3)) == RatFunc((T - 1) ** 3, T ** 3)


def test_cyclotomic_realizable():
    assert cyclotomic_realizable(F(2), 2) is True
    assert cyclotomic_realizable(F(2), 3) is False
    for c in (F(7), F(-3, 5), F(1)):
        assert cyclotomic_realizable(c, 1) is True
    with pytest.raises(DomainError):
        cyclotomic_realizable(F(0), 2)


def test_cyclotomic_realizable_matches_square_power_check():
    rng = random.Random(23)
    for _ in range(100):
        c = F(rng.randint(-30, 30) or 1, rng.randint(1, 30))
        m = rng.randint(1, 6)
        assert cyclotomic_realizable(c, m) == (nth_power_in_Q(c * c, m) is not None)


def test_normalize_character_example1():
    c = example1(3)
    norm = normalize_character(c, (1, 0))
    assert norm.P == Place.finite(T - 1) and norm.Q == INF
    assert norm.m == 3 and norm.c == 1 and norm.realizable_cyclotomic


def test_normalize_character_scaling():
    c = curve(2 * T, T + 1)
    norm = normalize_character(c, (1, -1))
    assert norm.P == Place.finite(T) and norm.Q == Place.finite(T + 1)
    assert norm.m == 1 and norm.c == 2 and norm.realizable_cyclotomic


def test_normalize_character_nonrealizable():
    c = curve(2 * T ** 3, T - 1)
    norm = normalize_character(c, (1, 0))
    assert norm.m == 3 and norm.c == 2 and not norm.realizable_cyclotomic


def test_normalize_character_bad_support():
    c = example1(3)
    with pytest.raises(DomainError):
        normalize_character(c, (1, -1))  # divisor has three-place support


def _mobius_for(norm):
    """The Moebius map mu sending P to 0 and Q to infinity."""
    s = RatFunc(T)
    if norm.Q.is_infinity:
        return s - norm.P.rational_root()
    if norm.P.is_infinity:
        return 1 / (s - norm.Q.rational_root())
    return (s - norm.P.rational_root()) / (s - norm.Q.rational_root())


def _norm_roundtrip(curve_data, norm):
    """The restricted character is c * mu**m, built directly and as the
    monomial c * s**m composed with mu."""
    mu = _mobius_for(norm)
    monomial = RatFunc(Poly([0] * norm.m + [norm.c]))
    assert compose(monomial, mu) == norm.c * mu ** norm.m == character_restrict(curve_data, norm.a)


def test_phi_enumerate_example1():
    for d in (2, 3):
        c = example1(d)
        chars = phi_enumerate(c)
        by_a = {ch.a: ch for ch in chars}
        assert set(by_a) == {
            (1, 0), (-1, 0), (0, 1), (0, -1), (1, -d), (-1, d),
        }
        assert by_a[(1, 0)].m == d and by_a[(1, 0)].c == 1
        assert by_a[(0, 1)].m == 1 and by_a[(0, 1)].c == 1
        assert by_a[(1, -d)].m == d and by_a[(1, -d)].c == 1
        for ch in chars:
            assert ch.realizable_cyclotomic
            _norm_roundtrip(c, ch)


def test_phi_enumerate_scaled_curve():
    c = curve(2 * T ** 3, T - 1)
    chars = {ch.a: ch for ch in phi_enumerate(c)}
    assert set(chars) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -3), (-1, 3)}
    assert chars[(1, 0)].m == 3 and chars[(1, 0)].c == 2
    assert not chars[(1, 0)].realizable_cyclotomic
    assert chars[(0, 1)].m == 1 and chars[(0, 1)].c == 1
    assert chars[(0, 1)].realizable_cyclotomic
    assert chars[(1, -3)].m == 3 and chars[(1, -3)].c == 2
    assert not chars[(1, -3)].realizable_cyclotomic


def test_phi_enumerate_line_pair():
    c = curve(T, T + 1)
    chars = phi_enumerate(c)
    assert sorted(ch.a for ch in chars) == sorted(
        [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    )
    for ch in chars:
        assert ch.m == 1 and ch.c == 1 and ch.realizable_cyclotomic


def test_phi_enumerate_preconditions():
    with pytest.raises(PreconditionError):
        phi_enumerate(curve(Poly([2]), T))
    with pytest.raises(PreconditionError):
        phi_enumerate(curve(T ** 2, T ** 4))


def test_phi_oracle_examples():
    assert set(phi_oracle(example1(2), 3)) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, -2), (-1, 2),
    }
    assert set(phi_oracle(curve(T, T + 1), 2)) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1),
    }


def test_two_point_predicate_matches_factored_divisor():
    """phi_oracle's test without factoring agrees with divisor_of on
    seeded quotients of powers of linear, quadratic and reducible factors."""
    rng = random.Random(44)
    pool = [T - 1, T + 2, 3 * T - 1, 2 * T + 5, T, T ** 2 + 1, T ** 2 - 2, (T - 1) * (T - 3)]
    seen = set()
    for _ in range(400):
        shared = rng.randint(1, 4) if rng.random() < 0.5 else None  # makes m = m' common
        sides = [Poly([rng.choice([-3, -1, 1, 2])]), Poly([1])]
        for i in (0, 1):
            for _ in range(rng.choice([0, 1, 1, 2])):
                sides[i] = sides[i] * rng.choice(pool) ** (shared or rng.randint(1, 4))
        f = RatFunc(*sides)
        items = divisor_of(f).items()
        expected = len(items) == 2 and all(place.degree == 1 for place, _ in items)
        got = two_point_divisor_oracle(f.num.coeffs[::-1], f.den.coeffs[::-1])
        assert got == expected, f
        seen.add(expected)
    assert seen == {True, False}


def test_phi_enumerate_agrees_with_oracle():
    for c in (example1(2), example1(4), curve(2 * T ** 3, T - 1), curve(T, T + 1)):
        chars = phi_enumerate(c)
        bound = 1 + max(abs(x) for ch in chars for x in ch.a)
        assert sorted(ch.a for ch in chars) == phi_oracle(c, bound)


def test_at_most_one_pair_per_place_pair():
    for c in (example1(3), curve(2 * T ** 3, T - 1), curve(T, T + 1)):
        chars = phi_enumerate(c)
        pairs = {}
        for ch in chars:
            key = frozenset({ch.P, ch.Q})
            pairs.setdefault(key, set()).add(ch.a)
        for vecs in pairs.values():
            assert len(vecs) == 2  # exactly one +- pair
            a, b = sorted(vecs)
            assert tuple(-x for x in a) == b


def test_realizable_characters_have_witness_or_certificate():
    from torusdep.multdep import factor_rational

    for c in (example1(3), curve(2 * T ** 3, T - 1), curve(2 * T, T + 1)):
        for ch in phi_enumerate(c):
            if ch.realizable_cyclotomic:
                b = nth_power_in_Q(ch.c, ch.m)
                if b is None:
                    b = nth_power_in_Q(-ch.c, ch.m)
                if b is not None:
                    assert b ** ch.m in (ch.c, -ch.c)
                else:
                    # Exact valuation certificate: m | 2*v_p(c) for all p.
                    for _p, e in factor_rational(ch.c).exponents:
                        assert (2 * e) % ch.m == 0
            else:
                assert nth_power_in_Q(ch.c * ch.c, ch.m) is None


def test_ambient_dimension_three():
    c = curve(T, T + 1, (T - 1) ** 2)
    chars = phi_enumerate(c)
    bound = 1 + max(abs(x) for ch in chars for x in ch.a)
    assert sorted(ch.a for ch in chars) == phi_oracle(c, bound)
    assert (0, 0, 1) in {ch.a for ch in chars}


def _seeded_curves(count, seed):
    """Proper curves under the hypothesis of 2 to 4 coordinates, each a
    constant times 0 to 3 powers (exponents -2 to 3) of factors drawn from
    places t - a/b, b <= 4, and from places of degree 2 and 3."""
    rng = random.Random(seed)
    linear = [T - F(a, b) for a in range(-6, 7) for b in (1, 2, 3, 4)]
    higher = [T ** 2 + 1, T ** 2 - 2, 2 * T ** 2 + T + 1, T ** 3 - 2, T ** 3 + T + 1]
    curves = []
    while len(curves) < count:
        coords = []
        for _ in range(rng.randint(2, 4)):
            sides = [Poly([F(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 2)))]), Poly([1])]
            for _ in range(rng.randint(0, 3)):
                factor = rng.choice(higher) if rng.random() < 0.25 else rng.choice(linear)
                e = rng.choice((-2, -1, 1, 1, 2, 3))
                sides[e < 0] = sides[e < 0] * factor ** abs(e)
            coords.append(RatFunc(*sides))
        if all(f.is_constant() for f in coords):
            continue
        c = CurveData.build(coords)
        if c.violation is None and c.degree == 1:
            curves.append(c)
    return curves


def test_phi_enumerate_matches_pairs_oracle_on_seeded_curves():
    """One HNF of D gives the pair loop's characters, in its order, on
    curves with non-integer roots and places of degree 2 and 3."""
    seen = set()
    for c in _seeded_curves(300, seed=26):
        chars = phi_enumerate(c)
        assert chars == phi_pairs_oracle(c), [f"{f}" for f in c.coords]
        if chars:
            seen.add(("characters", c.n))
            seen.add(("higher place", any(p.degree > 1 for p in c.place_index)))
            roots = [p.rational_root() for ch in chars for p in (ch.P, ch.Q) if not p.is_infinity]
            seen.add(("non-integer root", any(r.denominator > 1 for r in roots)))
    assert seen >= {("characters", n) for n in (2, 3, 4)} | {("higher place", True), ("non-integer root", True)}


def test_phi_enumerate_matches_pairs_oracle_on_test_curves():
    """Every curve the other test modules name, and their seeded families."""
    texts = [*BENCH_CURVES, NO_INFINITY, QUADRATIC_PLACE, LOW_LINEAR_RANK, *FIBER_CURVES]
    texts += [t for t, _H, _p in MORE_CURVES] + [t for t, _N in BRANCH_CURVES]
    texts += [t for t, _ch, _d in GOLDEN] + [t for t, _d in SCAN_200]
    curves = [parse_curve(text) for text in texts]
    curves += [example1(2), example1(3), example1(4), curve(2 * T ** 3, T - 1), curve(T, T + 1)]
    curves += [c for c, _H in _random_proper_curves(40, seed=4242) + _shared_prime_curves(40, seed=16)]
    counted = 0
    for c in curves:
        chars = phi_enumerate(c)
        assert chars == phi_pairs_oracle(c), [f"{f}" for f in c.coords]
        counted += len(chars)
    assert counted > 100


def test_phi_enumerate_matches_pairs_oracle_on_many_place_curves():
    """36 to 80 places and 5 coordinates, with characters."""
    for c in _many_place_curves(3, seed=26, lines=True):
        assert len(c.place_index) >= 36
        chars = phi_enumerate(c)
        assert len(chars) >= 6 and chars == phi_pairs_oracle(c)


def test_phi_enumerate_runs_one_hnf_and_no_kernel_basis(monkeypatch):
    """One HNF of D answers all pairs of the curve's degree-1 places, and
    validating the curve on the way (the standing hypothesis by rank) adds
    no kernel_basis."""
    c = CurveData.build(_many_place_curves(1, seed=26, lines=True)[0].coords)
    calls = []
    monkeypatch.setattr(curvegeom, "hnf", lambda M: calls.append("hnf") or hnf(M))
    monkeypatch.setattr(curvegeom, "kernel_basis", lambda M: calls.append("kernel_basis") or kernel_basis(M))
    assert len(phi_enumerate(c)) == 6
    assert calls == ["hnf"]
