import json
import math
import random
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cyclotomic_poly_oracle, expand_factors, monomial_product, poly_str_oracle

from torusdep.errors import DomainError
from torusdep.exactcore import (
    Poly,
    RatFunc,
    cyclotomic_poly,
    factor_poly,
    int_nth_root,
    int_shift,
    nth_power_in_Q,
    poly_gcd,
    render_json,
)
from torusdep.parser import parse_expression

T = Poly.variable()


def test_poly_basics():
    p = Poly([1, 0, 1])
    assert p.degree == 2
    assert Poly().degree == -1
    assert Poly([0, 0]).is_zero()
    assert (p * p).coeffs == (1, 0, 2, 0, 1)
    q, r = divmod(Poly([0, 0, 0, 1]), Poly([1, 1]))
    assert q * Poly([1, 1]) + r == Poly([0, 0, 0, 1])
    assert str(Poly([F(1, 2), -1, 1])) == "t^2 - t + 1/2"


def test_poly_gcd():
    a = (T - 1) ** 2 * (T + 2)
    b = (T - 1) * (T + 3)
    assert poly_gcd(a, b) == T - 1
    assert poly_gcd(Poly(), Poly()).is_zero()


def test_factor_difference_of_squares():
    unit, factors = factor_poly(T ** 2 - 1)
    assert unit == 1
    assert factors == [(T - 1, 1), (T + 1, 1)]


def test_factor_pulls_out_unit():
    unit, factors = factor_poly(2 * T ** 2 + 2)
    assert unit == 2
    assert factors == [(T ** 2 + 1, 1)]


def test_factor_quintic_cyclotomic_is_irreducible():
    p = Poly([1, 1, 1, 1, 1])
    unit, factors = factor_poly(p)
    assert unit == 1 and factors == [(p, 1)]


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factor_poly(Poly())


def _rand_poly(rng, max_deg=8, bound=4):
    while True:
        p = Poly([F(rng.randint(-bound, bound)) for _ in range(rng.randint(1, max_deg + 1))])
        if not p.is_zero():
            return p


def test_factor_roundtrip_random():
    rng = random.Random(12345)
    for _ in range(120):
        p = _rand_poly(rng)
        unit, factors = factor_poly(p)
        assert expand_factors(unit, factors) == p
        for f, _mult in factors:
            assert f.is_monic() and f.degree >= 1


def _complex_roots(p):
    import numpy as np

    return np.roots([float(c) for c in reversed(p.coeffs)])


def _brute_force_reducible(p):
    """Independent irreducibility oracle for integer-content polynomials.

    Tries every subset of the complex roots as a candidate factor, rounds
    the resulting integer polynomial (coefficients bounded by a
    Mignotte-style bound), and verifies any hit by exact division.
    """
    import itertools

    import numpy as np

    d = p.degree
    if d <= 1:
        return False
    # Work with the primitive integer model of p.
    den = math.lcm(*[c.denominator for c in p.coeffs])
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    pz = Poly(ints)
    lc = abs(ints[-1])
    norm = math.sqrt(sum(c * c for c in ints))
    mignotte = 2 ** d * norm * lc
    roots = _complex_roots(pz)
    for k in range(1, d // 2 + 1):
        for subset in itertools.combinations(range(d), k):
            prod = np.poly([roots[i] for i in subset]) * lc
            coeffs = [round(float(np.real(c))) for c in prod]
            if any(abs(c) > mignotte for c in coeffs):
                continue
            cand = Poly(list(reversed(coeffs)))
            if cand.degree != k or cand.is_constant():
                continue
            cg = math.gcd(*[int(c) for c in cand.coeffs])
            if cg > 1:
                cand = Poly([int(c) // cg for c in cand.coeffs])
            if cand.monic().divides(pz):
                return True
    return False


def test_factor_irreducibility_against_brute_force():
    rng = random.Random(999)
    checked = 0
    for _ in range(40):
        p = _rand_poly(rng, max_deg=8, bound=3)
        if p.degree < 2:
            continue
        _unit, factors = factor_poly(p)
        for f, _mult in factors:
            assert not _brute_force_reducible(f), f
            checked += 1
    assert checked > 30


def test_cyclotomic_poly_divides_t_n_minus_1():
    for n in range(1, 40):
        p = cyclotomic_poly(n)
        tn = T ** n - 1
        assert p.divides(tn)
        for k in range(1, n):
            assert not p.divides(T ** k - 1)


def test_cyclotomic_poly_matches_division_oracle():
    for n in range(1, 401):
        assert cyclotomic_poly(n) == cyclotomic_poly_oracle(n), n


def test_cyclotomic_poly_from_the_radical_is_fast():
    cyclotomic_poly.cache_clear()
    start = time.perf_counter()
    p = cyclotomic_poly(2880)  # 2**6 * 3**2 * 5: Phi_30(t**96)
    assert time.perf_counter() - start < 0.1
    assert p.degree == 768 and p(F(1)) == 1


def test_shift_is_composition_with_t_plus_a():
    """int_shift(cs, u/v) is v**k * c(t + u/v) for c of degree k."""
    rng = random.Random(5)
    for _ in range(200):
        cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
        a = F(rng.randint(-7, 7), rng.randint(1, 4))
        composed = Poly()
        for c in reversed(cs):
            composed = composed * (T + a) + c
        expected = composed * a.denominator ** (len(cs) - 1)
        assert Poly(int_shift(cs, a)) == expected, (cs, a)


def test_str_is_made_once_and_reads_back():
    """The first str() is kept and returned again; both equal the rendering
    of a freshly built equal Poly, and parse back to the same polynomial."""
    rng = random.Random(7)
    for _ in range(200):
        cs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 7))]
        p = Poly(cs)
        first = str(p)
        assert str(p) is first
        assert first == str(Poly(cs))
        assert repr(p) == f"Poly('{first}')"
        assert parse_expression(first) == RatFunc(p), first
        assert p == Poly(cs) and hash(p) == hash(Poly(cs))
    assert str(Poly()) == "0" and str(Poly([0, F(-3, 2), 1])) == "t^2 - 3/2*t"


def test_poly_stays_immutable():
    p = Poly([1, 2])
    for rendered in (False, True):
        if rendered:
            str(p)
        for name in ("coeffs", "_str", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, "t")
        assert p.coeffs == (1, 2) and str(p) == "2*t + 1"


def test_monomial_product_examples():
    f1 = RatFunc((T - 1) ** 3)
    f2 = RatFunc(T)
    got = monomial_product([f1, f2], (1, -3))
    assert got == RatFunc((T - 1) ** 3, T ** 3)
    assert monomial_product([f2, f2], (1, -1)) == RatFunc(Poly([1]))
    assert monomial_product([RatFunc(2 * T ** 3), RatFunc(T - 1)], (1, -3)) == RatFunc(
        2 * T ** 3, (T - 1) ** 3
    )
    with pytest.raises(DomainError):
        monomial_product([f1], (1, 2))


def test_int_nth_root():
    assert int_nth_root(0, 5) == 0
    assert int_nth_root(64, 3) == 4
    assert int_nth_root(65, 3) is None
    assert int_nth_root(10 ** 60, 4) == 10 ** 15
    # past the float range, and m past the bits of a float's exponent
    b = 3 ** 500 + 2
    assert int_nth_root(b ** 7, 7) == b and int_nth_root(b ** 7 + 1, 7) is None
    assert int_nth_root(5 ** 1201, 1201) == 5 and int_nth_root(5 ** 1201 - 1, 1201) is None
    # seeded against sympy: 0, 1, powers b**m and their neighbours, random x
    rng = random.Random(12)
    for m in range(1, 71):
        top = int(sympy.integer_nthroot(10 ** 300, m)[0])
        xs = [0, 1, rng.randrange(10 ** 300)]
        for b in (2, rng.randint(2, min(top, 9)), rng.randint(2, top), rng.randint(2, top), top):
            xs += [b ** m - 1, b ** m, b ** m + 1]
        for x in xs:
            r, exact = sympy.integer_nthroot(x, m)
            assert int_nth_root(x, m) == (int(r) if exact else None), (x, m)


def test_nth_power_in_Q():
    assert nth_power_in_Q(F(8), 3) == 2
    assert nth_power_in_Q(F(4), 3) is None
    assert nth_power_in_Q(F(-8), 3) == -2
    assert nth_power_in_Q(F(-4), 2) is None
    assert nth_power_in_Q(F(9, 4), 2) == F(3, 2)
    with pytest.raises(DomainError):
        nth_power_in_Q(F(0), 2)


def test_nth_power_in_Q_random_roundtrip():
    rng = random.Random(6)
    for _ in range(200):
        b = F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        m = rng.randint(1, 5)
        c = b ** m
        got = nth_power_in_Q(c, m)
        assert got is not None and got ** m == c


POW_BASES = [Poly([F(1, 2), 1]), RatFunc(Poly([F(1, 2), 1]), Poly([-3, 0, 1]))]


@pytest.mark.parametrize("x", POW_BASES, ids=["Poly", "RatFunc"])
def test_pow_matches_repeated_products(x):
    power = Poly([1]) if isinstance(x, Poly) else RatFunc(Poly([1]))
    for e in range(41):
        assert x ** e == power
        power = power * x


def test_ratfunc_pow_matches_repeated_products_on_random_functions():
    """Seeded: x**e for e in [-9, 9] against e-fold products of x (or of
    its inverse), including the zero function at e >= 0."""
    rng = random.Random(1717)

    def rand_poly(zero_ok):
        while True:
            p = Poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])
            if zero_ok or not p.is_zero():
                return p

    checked = 0
    for trial in range(24):
        x = RatFunc(Poly()) if trial == 0 else RatFunc(rand_poly(True), rand_poly(False))
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x ** -1
        for sign in (1, -1) if not x.is_zero() else (1,):
            base = x if sign > 0 else x.inverse()
            power = RatFunc(Poly([1]))
            for e in range(10):
                got = x ** (sign * e)
                assert got == power and str(got) == str(power), (x, sign * e)
                power = power * base
                checked += 1
    assert checked > 300


@pytest.mark.parametrize("x", POW_BASES, ids=["Poly", "RatFunc"])
def test_pow_makes_no_unused_square(x, monkeypatch):
    cls = type(x)
    real = cls.__mul__
    products = []

    def counted(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    for e in (1, 2, 3, 7, 8, 31, 40):
        products.clear()
        x ** e
        # bit_length - 1 squares and at most bit_length products into the result
        assert len(products) <= 2 * e.bit_length() - 1


def test_str_matches_poly_str_oracle():
    """Seeded polynomials with gaps, +-1, fractional and negative
    coefficients, and the zero and constant polynomials."""
    rng = random.Random(25)
    polys = [Poly(), Poly([0]), Poly([1]), Poly([-1]), Poly([F(-3, 4)]), Poly([0, 1]), Poly([0, -1])]
    for _ in range(400):
        choices = (0, 0, 1, -1, F(1, 2), F(-7, 3), 5, -12, F(10 ** 30 + 1, 3))
        polys.append(Poly([rng.choice(choices) for _ in range(rng.randint(1, 8))]))
    for p in polys:
        assert str(p) == poly_str_oracle(p), p.coeffs


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, True, 10 ** 3999 + 7, -(10 ** 3999) - 3]),  # 4000 digits
    st.floats(),
    st.sampled_from([-0.0, 1e-300, math.nan, math.inf, -math.inf]),
    st.text(max_size=12),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "é€😀", "\ud800"]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), kids, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[], {}, [[]]]})
def test_render_json_matches_json_dumps(obj):
    assert render_json(obj) == json.dumps(obj, indent=2)
