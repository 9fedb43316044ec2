"""Exact arithmetic substrate: rationals, univariate polynomials over Q,
and reduced rational functions.

Rationals are plain :class:`fractions.Fraction` values (always reduced,
positive denominator). Polynomials are dense coefficient tuples starting
with the constant term; the zero polynomial has degree -1.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, List, Optional, Sequence

from .errors import DomainError


def render(x) -> str:
    """str(x), with DomainError for an integer past Python's int-to-str limit."""
    try:
        return str(x)
    except ValueError as exc:  # "Exceeds the limit (4300 digits) for integer string conversion; use ..."
        raise DomainError(f"output integer: {str(exc).partition(';')[0]}") from None


def render_json(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool, None and float: the standard library
    takes its pure-Python encoder whenever indent is set. The pieces go
    into one list, joined once."""
    pieces: List[str] = []
    _put_json(obj, "\n", pieces.append)
    return "".join(pieces)


def _put_json(obj, nl: str, put) -> None:
    """put the pieces of obj, written at the level whose line break and
    indent is nl; a scalar item is written with its separator."""
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar:
        return put(scalar(obj))
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return put("{}")
        sep = "{" + inner
        for k, v in obj.items():
            scalar = _JSON_SCALARS.get(type(v))
            if scalar:
                put(sep + _json_str(k) + ": " + scalar(v))
            else:
                put(sep + _json_str(k) + ": ")
                _put_json(v, inner, put)
            sep = "," + inner
        return put(nl + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return put("[]")
        sep = "[" + inner
        for v in obj:
            scalar = _JSON_SCALARS.get(type(v))
            if scalar:
                put(sep + scalar(v))
            else:
                put(sep)
                _put_json(v, inner, put)
            sep = "," + inner
        return put(nl + "]")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_float(x: float) -> str:
    """json's text of a float: NaN, Infinity and -Infinity, else repr."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class Poly:
    """A univariate polynomial over Q.

    >>> Poly([1, 0, 1])
    Poly('t^2 + 1')
    """

    # _str holds the rendering once str() has made it; it is set only
    # through object.__setattr__, and equality and hashing read coeffs alone
    __slots__ = ("coeffs", "_str")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def variable(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        lc = self.leading
        if lc == 1:
            return self
        return Poly([c / lc for c in self.coeffs])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative polynomial power")
        result = Poly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no square after the last bit: it would go unused
                base = base * base
        return result

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        lc = other.leading
        if len(rem) - 1 < dq:
            return Poly(), self
        quot = [Fraction(0)] * (len(rem) - dq)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lc
            quot[i - dq] = q
            for j, b in enumerate(other.coeffs):
                rem[i - dq + j] -= q * b
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        """The rendering, from the top coefficient down (t^2 - 3/2*t + 1);
        made on the first call, from each coefficient's numerator and
        denominator, and kept in the _str slot."""
        try:
            return self._str
        except AttributeError:
            pass
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            n, d = c.numerator, c.denominator
            if not n:
                continue
            mag = -n if n < 0 else n
            if not i:
                body = str(mag) if d == 1 else f"{mag}/{d}"
            else:
                tpow = "t" if i == 1 else f"t^{i}"
                body = f"{mag}/{d}*{tpow}" if d != 1 else tpow if mag == 1 else f"{mag}*{tpow}"
            if parts:
                parts.append((" - " if n < 0 else " + ") + body)
            else:
                parts.append("-" + body if n < 0 else body)
        text = "".join(parts) or "0"
        object.__setattr__(self, "_str", text)
        return text

    def __repr__(self):
        return f"Poly('{self}')"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly([_frac(x)])


def int_shift(cs: Sequence[int], a) -> List[int]:
    """The integer coefficients of v**k * c(t + a), for c of degree k with
    the integer coefficients cs (constant term first) and a = u/v in
    lowest terms, by the Horner-type integer Taylor shift (von zur Gathen
    and Gerhard, ISSAC 1997) in O(k**2) multiply-adds:
    R = sum c_j v**(k - j) y**j shifted by the integer u gives
    R(v*t) = v**k * c(t + a), whose j-th coefficient is R_j v**j."""
    u, v = _frac(a).as_integer_ratio()
    k = len(cs) - 1
    r = [c * v ** (k - j) for j, c in enumerate(cs)]
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            r[j] += u * r[j + 1]
    return [x * v ** j for j, x in enumerate(r)]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials (zero polynomial if both are zero)."""
    while not b.is_zero():
        a, b = b, a % b
        if not b.is_zero():
            b = b.monic()
    return a.monic() if not a.is_zero() else a


class RatFunc:
    """A reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly([1])):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly([1])
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lc = den.leading
            if lc != 1:
                num = num * Poly([1 / lc])
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise DomainError("not a constant function")
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __add__(self, other):
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other):
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_ratfunc(other) / self

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return RatFunc(self.den, self.num)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return RatFunc(self.num ** e, self.den ** e)  # already reduced: one final gcd

    def __call__(self, x: Fraction) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {x}")
        return self.num(x) / d

    def __str__(self):
        if self.den.coeffs == (1,):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc('{self}')"


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc(x)
    return RatFunc(Poly([_frac(x)]))


def factor_poly(p: Poly):
    """Factor p over Q into a unit and monic irreducible factors.

    Returns (unit, [(factor, multiplicity), ...]) with the factors monic,
    pairwise distinct and sorted by (degree, coefficients from the top).
    """
    if p.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    if p.is_constant():
        return p.coeffs[0], []
    import sympy  # loaded on the first call: nothing else in exactcore needs it

    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    unit, raw = sympy.Poly(coeffs, sympy.Symbol("t"), domain="QQ").factor_list()
    unit = Fraction(int(unit.p), int(unit.q))
    factors = []
    for f, mult in raw:
        q = Poly([Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])
        unit *= q.leading ** mult
        factors.append((q.monic(), int(mult)))
    factors.sort(key=lambda fm: factor_key(fm[0]))
    return unit, factors


def factor_key(p: Poly):
    """The order factor_poly lists factors in: degree, then coefficients
    from the top."""
    return (p.degree, tuple(reversed(p.coeffs)))


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial, in integers: Phi_n(t) = Phi_r(t**(n/r))
    for r the radical of n, and Phi_kp(t) = Phi_k(t**p)/Phi_k(t), an exact
    division by a monic divisor, for each prime p of n (p not dividing k)."""
    if n < 1:
        raise DomainError("cyclotomic index must be positive")
    cs, k, rest, p = [-1, 1], 1, n, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            dq = len(cs) - 1
            num = [0] * (dq * p + 1)
            num[::p] = cs
            quot = [0] * (len(num) - dq)
            for i in range(len(num) - 1, dq - 1, -1):
                c = quot[i - dq] = num[i]
                for j in range(dq):
                    num[i - dq + j] -= c * cs[j]
            cs, k = quot, k * p
        p += 1
    out = [0] * ((len(cs) - 1) * (n // k) + 1)
    out[:: n // k] = cs
    return Poly(out)


def int_nth_root(x: int, m: int) -> Optional[int]:
    """Exact m-th root of a nonnegative integer, or None: integer Newton
    steps r -> ((m-1)*r + x // r**(m-1)) // m. By AM-GM one step from any
    r > 0 lands at or above floor(x**(1/m)); the first is taken from a
    float estimate of the root read off the top 53 bits of x, and from
    there the steps fall strictly until they reach floor(x**(1/m))."""
    if x < 0 or m < 1:
        raise DomainError("int_nth_root expects x >= 0, m >= 1")
    if x < 2 or m == 1:
        return x
    lg = math.log2(x) / m
    e = max(int(lg) - 52, 0)
    r = (int(2.0 ** (lg - e)) + 1) << e
    r = ((m - 1) * r + x // r ** (m - 1)) // m
    while True:
        p = r ** (m - 1)
        s = ((m - 1) * r + x // p) // m
        if s >= r:
            return r if p * r == x else None
        r = s


def nth_power_in_Q(c: Fraction, m: int) -> Optional[Fraction]:
    """A rational b with b**m == c, if one exists."""
    c = _frac(c)
    if c == 0:
        raise DomainError("nth_power_in_Q expects a nonzero argument")
    if m < 1:
        raise DomainError("exponent must be a positive integer")
    if c < 0 and m % 2 == 0:
        return None
    rn = int_nth_root(abs(c.numerator), m)
    if rn is None:
        return None
    rd = int_nth_root(c.denominator, m)
    if rd is None:
        return None
    b = Fraction(rn, rd)
    if c < 0:
        b = -b
    return b
