"""Integer factoring by factor_int and by the batch behind it (small-prime
gcd, Brent rho walked over several cofactors at once, a step budget)
against sympy.factorint, and the rho steps it charges; the coprime base; the rank-first relation lattice against relation_oracle, the prime
route alone; and decompose against decompose_oracle."""
import functools
import importlib.util
import json
import math
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coprime_base_oracle, decompose_oracle, relation_oracle
from torusdep import multdep
from torusdep.cli import main
from torusdep.errors import DomainError
from torusdep.multdep import (
    coprime_base,
    decompose,
    factor_int,
    factor_rational,
    is_primitively_dependent,
    relation_lattice,
)

HUGE = 10 ** 105 + 9  # sympy.factorint takes over a minute on it
# the oracle can factor these primes alone or as powers, never multiplied
BIG_P = sympy.nextprime(10 ** 60)
BIG_Q = sympy.nextprime(10 ** 45)


def _sympy(n):
    return {} if n == 1 else {int(p): int(e) for p, e in sympy.factorint(n).items()}


def _same_as_sympy(n):
    f = factor_int(n)
    assert f == _sympy(n)
    assert list(f) == sorted(f)


def _primes(rng, digits, count):
    return [sympy.nextprime(rng.randrange(10 ** (digits - 1), 10 ** digits)) for _ in range(count)]


def test_special_values():
    below, above = sympy.prevprime(1 << 12), sympy.nextprime(1 << 12)
    near_24 = [sympy.prevprime(1 << 24), sympy.nextprime(1 << 24)]
    values = [1, 2, below, above, below * above, above ** 2, above * sympy.nextprime(above)]
    values += near_24 + [(1 << 24) - 1, 1 << 24, (1 << 24) + 1, near_24[0] * near_24[1]]
    for p in (above, 65537, 1000003, 2 ** 31 - 1):
        values += [p ** 2, p ** 3, 2 * 3 * p ** 2]
    for n in values:
        _same_as_sympy(n)


def test_small_primes_are_sympys():
    assert multdep._SMALL_PRIMES == tuple(sympy.primerange(2, 4096))


def test_products_of_two_medium_primes():
    rng = random.Random(11)
    for a in range(5, 10):
        for b in range(5, 10):
            p, q = _primes(rng, a, 1)[0], _primes(rng, b, 1)[0]
            _same_as_sympy(p * q)
            _same_as_sympy(p * q * q)


def test_seeded_values_up_to_22_digits():
    rng = random.Random(2024)
    for _ in range(2000):
        _same_as_sympy(rng.randrange(1, 10 ** rng.randint(1, 22)))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 18))
def test_property_matches_sympy(n):
    _same_as_sympy(n)


def _spy_on_spend(monkeypatch):
    spent = []
    real = multdep._spend
    monkeypatch.setattr(multdep, "_spend", lambda steps, k, n: spent.append(k) or real(steps, k, n))
    return spent


def test_semiprimes_across_the_rho_bands(monkeypatch):
    spent = _spy_on_spend(monkeypatch)
    rng = random.Random(12)
    for b in range(12, 28):  # the smaller prime lies in [2^b, 2^(b+1))
        p = sympy.nextprime(rng.randrange(1 << b, 1 << (b + 1)))
        q = sympy.nextprime(rng.randrange(p, 1 << (b + 14)))
        _same_as_sympy(p * q)
    # _spend calls and steps charged, as the one-step-per-iteration loop
    # charged them
    assert (len(spent), sum(spent)) == (554, 108256)


def test_just_above_2_24_from_two_primes_just_above_2_12():
    # rho's first rounds take r = 1 and 2 steps, fewer than one four-step
    # iteration, so these splits lean on the remainder loop
    primes = [4099, 4111, 4127, 4129, 4133]
    for i, p in enumerate(primes):
        for q in primes[i:]:
            assert p * q > 1 << 24
            _same_as_sympy(p * q)


# (n, _spend calls, steps charged) for factor_int(n), as charged by the loop
# that takes one rho step per iteration
RHO_CHARGES = [
    (4099 * 4111, 12, 126),
    (1000003 * 1000000007, 26, 3198),
    (134217757 * 1099511627791, 211, 57086),
]


def test_rho_steps_charged_are_pinned(monkeypatch):
    spent = _spy_on_spend(monkeypatch)
    for n, calls, steps in RHO_CHARGES:
        spent.clear()
        assert len(factor_int(n)) == 2
        assert (len(spent), sum(spent)) == (calls, steps)


@pytest.mark.parametrize("n, calls, steps", RHO_CHARGES)
def test_budget_bites_at_the_pinned_step_count(monkeypatch, n, calls, steps):
    monkeypatch.setattr(multdep, "MAX_RHO_STEPS", steps)
    assert len(factor_int(n)) == 2
    monkeypatch.setattr(multdep, "MAX_RHO_STEPS", steps - 1)
    with pytest.raises(DomainError, match="integer factoring budget exceeded"):
        factor_int(n)


# semiprimes whose walk from c = 1 overshoots a gcd batch (g equals the
# member): the first is split by retracing the batch, the second only by
# the walk with c = 2
RETRACED = 4099 * 4129
RETRIED = 4099 * 4273


def test_batch_matches_sympy_in_input_order():
    rng = random.Random(14)
    big = [sympy.nextprime(rng.randrange(1 << 24, 1 << 40)) for _ in range(4)]
    powers = [sympy.nextprime(10 ** 20) ** 2, sympy.nextprime(10 ** 21) ** 3 * 12]
    special = [1, 1, RETRACED, RETRIED, 3 * RETRACED, *big, *powers, big[0] * big[1], RETRACED]
    for _ in range(40):
        values = [rng.randrange(1, 10 ** rng.randint(1, 22)) for _ in range(rng.randint(0, 8))]
        values += rng.sample(special, rng.randint(0, 4))
        values += rng.sample(values, min(len(values), 2))  # duplicates
        rng.shuffle(values)
        assert multdep._factor_batch(values) == [_sympy(v) for v in values]
    assert multdep._factor_batch([]) == []


def test_batch_charges_its_longest_walk(monkeypatch):
    spent = _spy_on_spend(monkeypatch)
    values = [n for n, _, _ in RHO_CHARGES]
    assert multdep._factor_batch(values) == [_sympy(n) for n in values]
    assert (len(spent), sum(spent)) == max((calls, steps) for _, calls, steps in RHO_CHARGES)


def test_batch_budget_bites_at_its_longest_walk(monkeypatch):
    values = [n for n, _, _ in RHO_CHARGES]
    longest = max(steps for _, _, steps in RHO_CHARGES)
    monkeypatch.setattr(multdep, "MAX_RHO_STEPS", longest)
    assert multdep._factor_batch(values) == [_sympy(n) for n in values]
    monkeypatch.setattr(multdep, "MAX_RHO_STEPS", longest - 1)
    with pytest.raises(DomainError, match="integer factoring budget exceeded"):
        multdep._factor_batch(values)


def test_overshot_members_split_as_alone(monkeypatch):
    spent = _spy_on_spend(monkeypatch)
    alone = []
    for n in (RETRACED, RETRIED):
        spent.clear()
        assert factor_int(n) == _sympy(n)
        alone.append(sum(spent))
    # both overshoot in the gcd batch after 126 steps; RETRIED walks again
    assert alone == [126, 126 + 126]
    spent.clear()
    values = [RETRACED, RETRIED, 1000003 * 1000000007]
    assert multdep._factor_batch(values) == [_sympy(n) for n in values]
    # the c = 1 walk charges its longest member, the c = 2 walk RETRIED's
    assert sum(spent) == 3198 + 126


def test_perfect_power_of_a_large_prime_needs_no_rho(monkeypatch):
    p = sympy.nextprime(10 ** 20)
    monkeypatch.setattr(multdep, "MAX_RHO_STEPS", 0)
    assert factor_int(p ** 2) == {p: 2}
    assert factor_int(8 * p ** 3) == {2: 3, p: 3}
    assert factor_int(p ** 35) == {p: 35}  # (p**7)**5, then p**7


def test_budget_raises_domain_error(monkeypatch):
    p, q = _primes(random.Random(3), 9, 2)
    monkeypatch.setattr(multdep, "MAX_RHO_STEPS", 100)
    with pytest.raises(DomainError, match="integer factoring budget exceeded"):
        factor_int(p * q)
    with pytest.raises(DomainError, match="integer factoring budget exceeded"):
        factor_rational(F(7, p * q))


def test_nonpositive_rejected():
    for n in (0, -12):
        with pytest.raises(DomainError):
            factor_int(n)


def test_factor_rational_from_factor_int():
    rng = random.Random(5)
    for _ in range(300):
        x = F(rng.choice((-1, 1)) * rng.randrange(1, 10 ** 12), rng.randrange(1, 10 ** 12))
        f = factor_rational(x)
        assert f.value() == x
        assert [p for p, _ in f.exponents] == sorted({*_sympy(abs(x.numerator)), *_sympy(x.denominator)})


# ---------------------------------------------------------------------------
# coprime base


def _check_base(values, base):
    assert all(b > 1 for b in base) and base == sorted(base)
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1 :])
    for v in values:
        rest = v
        for b in base:
            while rest % b == 0:
                rest //= b
        assert rest == 1


def test_coprime_base_examples():
    assert coprime_base([6, 10, 15]) == [2, 3, 5]
    assert coprime_base([4, 2]) == [2]
    assert coprime_base([12, 18, 1]) == [2, 3]
    assert coprime_base([1, 1]) == []
    assert coprime_base([30, 5]) == [5, 6]
    assert coprime_base([HUGE, 2]) == [2, HUGE]


def test_coprime_base_random():
    rng = random.Random(9)
    small = list(sympy.primerange(2, 60))
    for _ in range(500):
        values = [
            math.prod(rng.choice(small) ** rng.randint(0, 3) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        _check_base(values, coprime_base(values))


def test_coprime_base_matches_restarting_oracle():
    """The one-sweep refinement gives the restarting refinement's list on
    seeded sets of prime powers and their products, with repeated values,
    1s and 4300-digit values among them."""
    rng = random.Random(27)
    small = list(sympy.primerange(2, 60)) + [4099, 65537]
    huge = [10 ** 4299 + 7, (10 ** 1433 + 3) ** 3]
    for trial in range(600):
        values = [
            math.prod(rng.choice(small) ** rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(1, 7))
        ]
        values += [rng.choice(values) for _ in range(rng.randint(0, 3))] + [1] * rng.randint(0, 2)
        if trial % 10 == 0:
            big = rng.choice(huge)
            values += [big * rng.choice(values), big ** rng.randint(1, 2)]
        rng.shuffle(values)
        base = coprime_base(values)
        assert base == coprime_base_oracle(values), values
        _check_base(values, base)


# ---------------------------------------------------------------------------
# rank-first relation lattice against the prime route


@functools.lru_cache(maxsize=None)  # shared by the oracle and decompose tests
def _make_points(seed):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_points(seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_points_match_oracle(seed):
    for point, _ in _make_points(seed):
        assert relation_lattice(point) == relation_oracle(point)


SPECIAL_POINTS = [
    (F(1), F(2)),
    (F(-1), F(3)),
    (F(1), F(-1)),
    (F(-1), F(-1), F(5, 7)),
    (F(-2), F(2)),
    (F(2), F(-2), F(3)),
    (F(-4), F(2)),
    (F(-1, 3), F(3)),
    (F(30), F(5)),
    (F(6), F(10), F(15)),
    (F(6), F(10), F(-15), F(7)),
    (F(12), F(18)),
    (F(12, 35), F(-18, 49), F(5, 6)),
    (F(BIG_P), F(2)),
    (F(BIG_P ** 2, BIG_Q), F(-BIG_Q)),
    (F(BIG_P, BIG_Q), F(-BIG_P ** 3), F(BIG_Q ** 2)),
    (F(BIG_P ** 2), F(-BIG_P)),
    (F(2, BIG_P ** 3), F(-3)),
    # base elements whose order by value (63, 143, 250) is not their order
    # by least prime (250 = 2 * 5^3, 63 = 3^2 * 7, 143 = 11 * 13)
    (F(63), F(250 ** 2), F(-63), F(-250)),
    (F(250), F(63), F(250 * 63), F(63, 143), F(143, 250)),
    # a lone element with no prime below 2^12 sorts last unfactored: BIG_P
    # beside 6, and 4099, first by value, beside 2 * BIG_P
    (F(BIG_P), F(6), F(6 * BIG_P)),
    (F(4099), F(4099 ** 2), F(-4099), F(-2 * BIG_P)),
    # two such elements, whose order by value is not by least prime
    (F(4111), F(4111 ** 2), F(-4111), F(-4099 * BIG_P)),
]


@pytest.mark.parametrize("point", SPECIAL_POINTS, ids=str)
def test_special_points_match_oracle(point):
    assert relation_lattice(point) == relation_oracle(point)


def _spy_on_batches(monkeypatch):
    batches = []
    real = multdep._factor_batch
    monkeypatch.setattr(multdep, "_factor_batch", lambda values: batches.append(list(values)) or real(values))
    return batches


def test_independent_point_is_not_factored(monkeypatch):
    calls = _spy_on_batches(monkeypatch)
    assert relation_lattice((F(6), F(-35, 11), F(1000003))).is_zero()
    assert is_primitively_dependent((F(6), F(10))) is None
    # base {2, 3, 5}: every element has a prime below 2^12
    assert not relation_lattice((F(6), F(-36), F(10))).is_zero()
    assert calls == []


def test_dependent_point_factors_each_base_element_once(monkeypatch):
    calls = _spy_on_batches(monkeypatch)
    assert not relation_lattice((F(6), F(-36))).is_zero()
    # base {2 * BIG_P * BIG_Q, 3}: 2 orders the first, whose cofactor (a
    # semiprime beyond the rho budget) is never factored
    assert not relation_lattice((F(2 * BIG_P * BIG_Q), F(3), F(6 * BIG_P * BIG_Q))).is_zero()
    # x5 = x4^2 * x1, base {2, 3, 5, 7, BIG_P}: a lone large element sorts
    # last unfactored
    point = (F(12, 35), F(-18, 49), F(5, 6), F(7 * BIG_P, 2), F(21 * BIG_P ** 2, 5))
    assert not relation_lattice(point).is_zero()
    assert decompose(point).generators[-1] == BIG_P
    assert calls == []
    # base {2, 3, 5, 7, BIG_Q, BIG_P}: the batch holds exactly the elements
    # with no prime below 2^12
    point = (F(BIG_P), F(BIG_Q, 35), F(6 * BIG_P ** 2), F(2), F(3))
    assert not relation_lattice(point).is_zero()
    assert calls == [[BIG_Q, BIG_P]]
    calls.clear()
    decompose(point)
    assert calls == [[BIG_Q, BIG_P]]


def test_huge_independent_point_answers_fast():
    start = time.perf_counter()
    assert relation_lattice((F(HUGE), F(2))).is_zero()
    assert is_primitively_dependent((F(HUGE), F(2))) is None
    assert time.perf_counter() - start < 1.0


def _main_json(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_huge_point_commands_answer_fast(capsys):
    """HUGE = 47 * 317 * ..., so 47 orders it without factoring the rest."""
    start = time.perf_counter()
    out = _main_json(capsys, ["decompose", "--point", f"{HUGE},2"])
    assert time.perf_counter() - start < 1.0
    assert (out["generators"], out["exponents"]) == (["2", str(HUGE)], [[0, 1], [1, 0]])
    start = time.perf_counter()
    point = f"{HUGE},-{HUGE},2"
    assert _main_json(capsys, ["depends", "--point", point])["relations"] == [[2, -2, 0]]
    assert _main_json(capsys, ["primitive", "--point", point])["relation"] is None
    out = _main_json(capsys, ["decompose", "--point", point])
    assert time.perf_counter() - start < 1.0
    assert (out["generators"], out["exponents"]) == (["2", str(HUGE)], [[0, 1], [0, 1], [1, 0]])


def test_four_huge_composites_decompose_hits_the_budget(capsys):
    # each a product of two primes of 159-161 bits: too wide to share a walk
    composites = [sympy.nextprime(2 ** 157 * (3 + i)) * sympy.nextprime(2 ** 157 * (7 + i)) for i in range(4)]
    assert all(310 <= c.bit_length() <= 320 for c in composites)
    start = time.perf_counter()
    assert main(["decompose", "--point", ",".join(map(str, composites))]) == 2
    assert time.perf_counter() - start < 10.0
    assert capsys.readouterr().err.startswith("error: integer factoring budget exceeded")


# ---------------------------------------------------------------------------
# decompose against the general route


def _same_decomposition(point):
    d, o = decompose(point), decompose_oracle(point)
    assert d.signs == o.signs
    assert d.generators == o.generators
    assert d.exponents == o.exponents


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_points_decompose_like_oracle(seed):
    for point, _ in _make_points(seed):
        _same_decomposition(point)


DECOMPOSE_POINTS = SPECIAL_POINTS + [
    (F(1), F(1)),
    (F(-1), F(-1), F(1)),
    (F(1), F(6), F(-1)),
    (F(-1), F(12, 5), F(1), F(-5, 12)),
    (F(6), F(6), F(6)),
    (F(12), F(18), F(12)),
    (F(-5, 7), F(5, 7), F(5, 7)),
    (F(BIG_P, 3), F(-BIG_P, 3), F(2)),
    (F(250), F(63, 143), F(250 ** 2 * 143, 63)),
    (F(143), F(-63), F(250), F(143 * 63 * 250)),
    (F(6, BIG_P), F(-BIG_P), F(36)),
    (F(4099, 2 * BIG_P), F(-(2 * BIG_P) ** 2), F(4099 ** 3)),
    (F(4111), F(4099 * BIG_P), F(4127 * BIG_Q), F(4111 * 4127 * BIG_Q, 4099 * BIG_P)),
]


@pytest.mark.parametrize("point", DECOMPOSE_POINTS, ids=str)
def test_decompose_matches_oracle(point):
    _same_decomposition(point)


def test_one_element_base_answers_without_factoring(monkeypatch):
    """(N, -N) has base {N}, which proves the relation: sympy.factorint
    takes over a minute on N = HUGE and rho exceeds its budget."""
    calls = _spy_on_batches(monkeypatch)
    point = (F(HUGE), F(-HUGE))
    start = time.perf_counter()
    assert relation_lattice(point).vectors == ((2, -2),)
    assert is_primitively_dependent(point) is None
    d = decompose(point)
    assert time.perf_counter() - start < 1.0
    assert calls == []
    assert (d.signs, d.generators, d.exponents.entries) == ((1, -1), (HUGE,), ((1,), (1,)))


def _one_element_base_points(seed):
    """Seeded points whose coprime base is one composite b: signed powers
    of b, with b = 12, 36, 6, 10, 30, 72 or 2**3 * 7**2."""
    rng = random.Random(seed)
    points = [(F(36), F(6)), (F(6), F(36)), (F(12), F(-144)), (F(1, 12), F(12 ** 5))]
    for _ in range(60):
        b = rng.choice([12, 36, 6, 10, 30, 72, 2 ** 3 * 7 ** 2])
        n = rng.randint(2, 4)
        points.append(tuple(
            F(rng.choice([-1, 1])) * F(b) ** rng.choice([x for x in range(-6, 7) if x]) for _ in range(n)
        ))
    return points


@pytest.mark.parametrize("seed", [1, 2])
def test_one_element_base_points_match_oracles(monkeypatch, seed):
    calls = _spy_on_batches(monkeypatch)
    for point in _one_element_base_points(seed):
        assert len(coprime_base(v for x in point for v in (abs(x.numerator), x.denominator))) == 1
        assert relation_lattice(point) == relation_oracle(point)
        _same_decomposition(point)
    assert calls == []


def test_all_unit_point_has_rank_zero():
    d = decompose((F(-1), F(-1), F(1)))
    assert (d.rank, d.signs, d.exponents.entries) == (0, (-1, -1, 1), ((), (), ()))
