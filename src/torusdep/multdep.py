"""Multiplicative relation lattices, dependence predicates, the
torsion/free decomposition of the group generated by a rational point's
coordinates, and Weil heights.

Points have nonzero rational coordinates; the only torsion in Q* is the
sign, which is handled as a parity functional on the relation kernel.
Integers are factored by factor_int. Its one use of sympy is isprime, to
certify a cofactor of 2^24 or more; sympy is imported there, on first use,
so points whose cofactors stay below 2^24 never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError
from .exactcore import int_nth_root
from .intlattice import (
    IntMatrix,
    LatticeBasis,
    hnf,
    left_kernel,
    primitive_witness,
    rank,
)

PointQ = Tuple[Fraction, ...]
Vector = Tuple[int, ...]


@dataclass(frozen=True)
class FactoredRational:
    """Exact factorization of a nonzero rational: sign and prime exponents
    (primes in increasing order)."""

    sign: int
    exponents: Tuple[Tuple[int, int], ...]

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.exponents:
            v *= Fraction(p) ** e
        return v


def _primes_below(n: int) -> Tuple[int, ...]:
    """The primes below n (n >= 2), by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p, flag in enumerate(sieve) if flag)


_SMALL_BOUND = 1 << 12
_SMALL_PRIMES = _primes_below(_SMALL_BOUND)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_RHO_BATCH = 128
# Pollard rho steps one factor_int call may take, like the parser's budgets:
# past it, factoring raises DomainError instead of running on.
MAX_RHO_STEPS = 1 << 21


def factor_int(n: int) -> Dict[int, int]:
    """Prime factorization {p: e} of a positive integer, primes increasing.

    One gcd with the product of the primes below 2^12 reveals the small
    prime factors, which are then divided out. A cofactor below 2^24 has no
    prime factor up to its square root, so it is prime; a larger one is
    certified by sympy.isprime, or else taken apart as a perfect power or
    split by Brent's Pollard rho. The rho steps of one call are capped at
    MAX_RHO_STEPS; past that DomainError is raised.
    """
    if n < 1:
        raise DomainError("only positive integers are factored")
    out: Dict[int, int] = {}
    g = math.gcd(n, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if p * p > g:
            break  # g is now 1 or a prime
        if g % p == 0:
            g //= p
            n, out[p] = _strip(n, p)
    if g > 1:
        n, out[g] = _strip(n, g)
    steps = 0
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m >= _SMALL_BOUND ** 2:
            from sympy import isprime  # sympy is loaded on the first such cofactor
        if m < _SMALL_BOUND ** 2 or isprime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root, k = _perfect_power(m)
        if k > 1:
            todo += [root] * k
            continue
        d, steps = _brent_rho(m, steps)
        todo += [d, m // d]
    return dict(sorted(out.items()))


def _strip(n: int, p: int) -> Tuple[int, int]:
    """n with every factor p divided out, and the number of them."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


def _perfect_power(m: int) -> Tuple[int, int]:
    """(r, k) with r ** k == m for the least prime k that has one, else
    (m, 1); m has no prime factor below 2^12, so k <= log(m) / log(2^12).
    _SMALL_PRIMES holds every such k for m below 2^49152; above that,
    rho's exact splits handle a power of a larger prime exponent."""
    limit = m.bit_length() // 12
    for k in _SMALL_PRIMES:
        if k > limit:
            break
        r = int_nth_root(m, k)
        if r is not None:
            return r, k
    return m, 1


def _brent_rho(n: int, steps: int) -> Tuple[int, int]:
    """A proper divisor of the odd composite n, and the rho step count so
    far (carried over the splits of one factor_int call): Brent's cycle
    search on y -> y^2 + c mod n with the gcds batched over _RHO_BATCH
    steps. Each loop iteration takes four steps and reduces their product
    of differences mod n once, so q mod n at every gcd is that of one step
    at a time. Retracing an overshot batch, at most _RHO_BATCH steps, is
    not counted."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            steps = _spend(steps, r, n)
            for _ in range(r >> 2):
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
            for _ in range(r & 3):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                steps = _spend(steps, batch, n)
                for _ in range(batch >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                for _ in range(batch & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: retrace it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, steps


def _spend(steps: int, k: int, n: int) -> int:
    steps += k
    if steps > MAX_RHO_STEPS:
        raise DomainError(
            f"integer factoring budget exceeded: {MAX_RHO_STEPS} Pollard rho "
            f"steps did not split a {n.bit_length()}-bit factor"
        )
    return steps


def factor_rational(x: Fraction) -> FactoredRational:
    if x == 0:
        raise DomainError("cannot factor zero")
    sign = -1 if x < 0 else 1
    exps = factor_int(abs(x.numerator))
    for p, e in factor_int(x.denominator).items():
        exps[p] = -e  # numerator and denominator are coprime
    return FactoredRational(sign, tuple(sorted(exps.items())))


def _check_point(P: Sequence[Fraction]) -> PointQ:
    pt = tuple(Fraction(x) for x in P)
    if len(pt) < 2:
        raise DomainError("points live in an ambient torus of dimension >= 2")
    if any(x == 0 for x in pt):
        raise DomainError("point coordinates must be nonzero")
    return pt


def _exponent_matrix(pt: PointQ) -> Tuple[Tuple[int, ...], List[int], IntMatrix]:
    """The coordinates' signs, the primes dividing them (increasing), and A:
    one row per coordinate, holding its exponent at each of those primes."""
    facs = [factor_rational(x) for x in pt]
    primes = sorted({p for f in facs for p, _ in f.exponents})
    exps = [dict(f.exponents) for f in facs]
    A = IntMatrix([[e.get(p, 0) for p in primes] for e in exps])
    return tuple(f.sign for f in facs), primes, A


def coprime_base(values: Iterable[int]) -> List[int]:
    """Pairwise coprime integers > 1, increasing, such that every positive
    value is a product of them (factor refinement by gcd splitting: a pair
    a, b with g = gcd(a, b) > 1 becomes g, a/g, b/g, leaving out 1s; the
    product of the pool falls at each split, so this ends). No factoring."""
    todo = [v for v in values if v > 1]
    base: List[int] = []
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[i]
                todo += [v for v in (g, a // g, b // g) if v > 1]
                break
        else:
            base.append(a)
    return sorted(base)


def independent_over_coprime_base(products: Sequence[Sequence[Tuple[int, int]]]) -> bool:
    """Whether the positive rationals prod(v ** k for v, k in product), one
    per product, are multiplicatively independent (every v a positive
    integer). Their exponent vectors over the coprime base of all the v
    have rank len(products) iff so: pairwise coprime integers > 1 are
    multiplicatively independent, so this rank is the rank over the
    primes. No factoring."""
    base = coprime_base(v for product in products for v, _ in product)
    rows = []
    for product in products:
        row = [0] * len(base)
        for v, k in product:
            for j, b in enumerate(base):
                if v == 1:
                    break
                if v % b == 0:
                    v, e = _strip(v, b)
                    row[j] += k * e
        rows.append(row)
    return rank(rows) == len(products)


def relation_lattice(P: Sequence[Fraction]) -> LatticeBasis:
    """Basis of {a in Z^n : prod(P[i] ** a[i]) == 1}.

    A point whose |x_i| independent_over_coprime_base finds independent
    gets the zero lattice without any prime factoring (a relation among
    the x_i would square to one among the |x_i|).
    Otherwise the left kernel of the prime-exponent matrix A handles
    absolute values; the sign condition is a parity functional on that
    kernel, cutting out a sublattice of index at most 2.
    """
    pt = _check_point(P)
    n = len(pt)
    if independent_over_coprime_base([((abs(x.numerator), 1), (x.denominator, -1)) for x in pt]):
        return LatticeBasis(n, ())
    signs, _, A = _exponent_matrix(pt)
    vecs = list(left_kernel(A))
    odd = [i for i, v in enumerate(vecs) if sum(x for x, s in zip(v, signs) if s < 0) % 2]
    if odd:
        pivot = odd[0]
        for i in odd[1:]:
            vecs[i] = tuple(x - y for x, y in zip(vecs[i], vecs[pivot]))
        vecs[pivot] = tuple(2 * x for x in vecs[pivot])
    return LatticeBasis(n, tuple(vecs))


def is_dependent(P: Sequence[Fraction]) -> bool:
    return not relation_lattice(P).is_zero()


def is_primitively_dependent(P: Sequence[Fraction]) -> Optional[Vector]:
    """A relation vector with coprime entries, if the point admits one."""
    return primitive_witness(relation_lattice(P))


@dataclass(frozen=True)
class Decomposition:
    """Coordinates written as sign * prod(generators ** exponent_row),
    with positive multiplicatively independent generators."""

    signs: Tuple[int, ...]
    generators: Tuple[Fraction, ...]
    exponents: IntMatrix  # n rows, rank columns

    @property
    def rank(self) -> int:
        return len(self.generators)


def decompose(P: Sequence[Fraction]) -> Decomposition:
    """Torsion/free decomposition of the group generated by the coordinates.

    The generators are the nonzero rows of the HNF of the prime-exponent
    matrix, and each coordinate's exponent row comes from back-substitution
    against those rows at their pivot columns.
    """
    signs, primes, A = _exponent_matrix(_check_point(P))
    h, _ = hnf(A)
    gen_rows = [row for row in h.entries if any(row)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in gen_rows]
    generators = []
    for row in gen_rows:
        num = math.prod(p ** e for p, e in zip(primes, row) if e > 0)
        den = math.prod(p ** -e for p, e in zip(primes, row) if e < 0)
        generators.append(Fraction(num, den))
    exp_rows = []
    for residual in A.entries:
        coords = []
        for row, col in zip(gen_rows, pivots):
            q, rem = divmod(residual[col], row[col])
            assert rem == 0  # rows lie in their own HNF row space
            coords.append(q)
            if q:
                residual = [a - q * b for a, b in zip(residual, row)]
        assert not any(residual)
        exp_rows.append(coords)
    return Decomposition(
        signs=signs,
        generators=tuple(generators),
        exponents=IntMatrix(exp_rows),
    )


def weil_height(x: Fraction) -> float:
    """log max(|numerator|, denominator) of the reduced fraction."""
    if x == 0:
        raise DomainError("height of zero is undefined here")
    return math.log(max(abs(x.numerator), x.denominator))


def point_height(P: Sequence[Fraction]) -> float:
    pt = _check_point(P)
    return sum(weil_height(x) for x in pt)


def root_of_unity_order(x: Fraction) -> Optional[int]:
    """Order of x as a root of unity in Q: 1 for 1, 2 for -1, else None."""
    if x == 1:
        return 1
    if x == -1:
        return 2
    return None

