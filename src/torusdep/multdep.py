"""Multiplicative relation lattices, dependence predicates, the
torsion/free decomposition of the group generated by a rational point's
coordinates, and Weil heights.

Points have nonzero rational coordinates; the only torsion in Q* is the
sign, a parity functional on the relation kernel. Every lattice comes from
one matrix, the coordinates' exponent rows over the coprime base of their
|numerators| and denominators (gcds alone), whose columns primes only
order (_by_least_prime), through one elimination (U's rows opposite H's
zero rows for relation_lattice, H alone for decompose). factor_int and
factor_rational factor in batches (_factor_batch), whose one use of
sympy, imported on first use, is isprime on a cofactor of 2^24 or more.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, InvariantViolation
from .exactcore import int_nth_root
from .intlattice import (
    IntMatrix,
    LatticeBasis,
    eliminate,
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
    return tuple(itertools.compress(range(n), sieve))


_SMALL_BOUND = 1 << 12
_SMALL_PRIMES = _primes_below(_SMALL_BOUND)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_RHO_BATCH = 128
# Composites are walked together while their bit lengths sum to at most
# this; a wider one is walked alone. A wide step costs more than a narrow
# one, so pairing pays only while one step mod the product costs less than
# a step on each member. Time of _brent_rho on 30 seeded pairs of b-bit
# members walked together, over the time walking them one at a time
# (smaller prime in [2^21, 2^22), CPython 3.11, 2-vCPU x86-64):
#   2b      128   192   224   256   288   320   384
#   ratio  0.64  0.87  0.99  0.93  1.02  0.99  1.04
_RHO_WIDTH = 256
# Pollard rho steps one factoring call may take, over all its walks, like
# the parser's budgets: past it, factoring raises DomainError instead of
# running on.
MAX_RHO_STEPS = 1 << 21
# The prime modulus of independent_over_coprime_base's one-product residues.
_RESIDUE_MODULUS = (1 << 61) - 1


def factor_int(n: int) -> Dict[int, int]:
    """Prime factorization {p: e} of a positive integer, primes increasing:
    _factor_batch of the one value."""
    return _factor_batch([n])[0]


def _factor_batch(values: Sequence[int]) -> List[Dict[int, int]]:
    """Prime factorizations {p: e}, primes increasing, of positive
    integers, one per value in order; each distinct value is factored once.

    One gcd with the product of the primes below 2^12 reveals a value's
    small prime factors, which are then divided out. A cofactor below 2^24
    has no prime factor up to its square root, so it is prime; a larger one
    is certified by sympy.isprime, or else taken apart as a perfect power.
    The composites left over are split in rounds, each round's together by
    _brent_rho, until only primes remain. The rho steps of one call are
    capped at MAX_RHO_STEPS; past that DomainError is raised.
    """
    if any(v < 1 for v in values):
        raise DomainError("only positive integers are factored")
    small = {v: _small_part(v) for v in set(values)}
    # each cofactor met so far: its parts with multiplicity, [] for a prime
    parts: Dict[int, List[Tuple[int, int]]] = {}
    todo = sorted({m for _, m in small.values() if m > 1})
    steps = 0
    while todo:
        composites = []
        for m in todo:
            if m >= _SMALL_BOUND ** 2:
                from sympy import isprime  # sympy is loaded on the first such cofactor
            if m < _SMALL_BOUND ** 2 or isprime(m):
                parts[m] = []
                continue
            root, k = _perfect_power(m)
            if k > 1:
                parts[m] = [(root, k)]
            else:
                composites.append(m)
        divisors, steps = _brent_rho(composites, steps)
        for m, d in divisors.items():
            parts[m] = [(d, 1), (m // d, 1)]
        todo = sorted({d for m in todo for d, _ in parts[m] if d not in parts})
    out = []
    for v in values:
        f, m = dict(small[v][0]), small[v][1]
        stack = [(m, 1)] if m > 1 else []
        while stack:
            m, e = stack.pop()
            if parts[m]:
                stack += [(d, e * k) for d, k in parts[m]]
            else:
                f[m] = f.get(m, 0) + e
        out.append(dict(sorted(f.items())))
    return out


def _small_part(n: int) -> Tuple[Dict[int, int], int]:
    """The prime factors of n below 2^12 with their exponents, and the
    cofactor n has left without them."""
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
    return out, n


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


def _brent_rho(ns: Sequence[int], steps: int) -> Tuple[Dict[int, int], int]:
    """A proper divisor of each odd composite in ns, and the rho step count
    so far (carried over the rounds of one _factor_batch call).

    Brent's cycle search on y -> y^2 + c, c = 1 first, walked for several
    members at once modulo their product N, in groups whose bit lengths sum
    to at most _RHO_WIDTH. By the CRT, y and q mod a member are those of
    the member's own walk, so each member splits at the gcd batch where it
    would alone, and a group's walk takes as many steps as its longest
    member; each step is charged once, whatever the group's size. A member
    whose batch overshot (gcd equal to the member) is retraced alone,
    without charge, and if that fails too it is walked again with c + 1.
    """
    found: Dict[int, int] = {}
    c = 1
    while ns:
        retry: List[int] = []
        group: List[int] = []
        width = 0
        for n in ns:
            if group and width + n.bit_length() > _RHO_WIDTH:
                steps = _rho_walk(group, c, steps, found, retry)
                group, width = [], 0
            group.append(n)
            width += n.bit_length()
        steps = _rho_walk(group, c, steps, found, retry)
        ns = retry
        c += 1
    return found, steps


def _rho_walk(members: List[int], c: int, steps: int, found: Dict[int, int], retry: List[int]) -> int:
    """One walk of _brent_rho over members with constant c: a split member
    goes into found, one whose retrace failed into retry, and the step
    count is returned. The gcds are batched over _RHO_BATCH steps, and each
    loop iteration takes four steps and reduces their product of
    differences mod n once, so q mod n at every gcd is that of one step at
    a time. A member leaves n once it is done."""
    active = list(members)
    n = math.prod(active)
    y, r, q = 2, 1, 1
    while active:
        x = y
        steps = _spend(steps, r, min(active))
        for _ in range(r >> 2):
            y = (y * y + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
        for _ in range(r & 3):
            y = (y * y + c) % n
        k = 0
        while k < r and active:
            ys = y
            batch = min(_RHO_BATCH, r - k)
            steps = _spend(steps, batch, min(active))
            for _ in range(batch >> 2):
                y1 = (y * y + c) % n
                y2 = (y1 * y1 + c) % n
                y3 = (y2 * y2 + c) % n
                y = (y3 * y3 + c) % n
                q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
            for _ in range(batch & 3):
                y = (y * y + c) % n
                q = q * (x - y) % n
            k += batch
            g = math.gcd(q, n)
            if g == 1:
                continue
            for m in list(active):
                d = math.gcd(g, m)
                if d == 1:
                    continue
                if d == m:  # the batch overshot: retrace it one gcd at a time
                    d, xm, ym = 1, x % m, ys % m
                    while d == 1:
                        ym = (ym * ym + c) % m
                        d = math.gcd(xm - ym, m)
                if d == m:
                    retry.append(m)
                else:
                    found[m] = d
                active.remove(m)
                n //= m
            x, y, q = x % n, y % n, q % n
        r *= 2
    return steps


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
    exps, den = _factor_batch([abs(x.numerator), x.denominator])
    for p, e in den.items():
        exps[p] = -e  # numerator and denominator are coprime
    return FactoredRational(sign, tuple(sorted(exps.items())))


def _check_point(P: Sequence[Fraction]) -> PointQ:
    pt = tuple(x if type(x) is Fraction else Fraction(x) for x in P)
    if len(pt) < 2:
        raise DomainError("points live in an ambient torus of dimension >= 2")
    if not all(pt):
        raise DomainError("point coordinates must be nonzero")
    return pt


def coprime_base(values: Iterable[int]) -> List[int]:
    """Pairwise coprime integers > 1, increasing, such that every positive
    value is a product of them, by gcd splitting alone. Each distinct value
    a sweeps the base once: b with g = gcd(a, b) > 1 gives way to g and b
    stripped of g (pooled unless coprime), and a, stripped of g, is pooled
    again. All stay products of the coarsest coprime base, the result."""
    todo = {v for v in values if v > 1}
    base: List[int] = []
    while todo:
        a = given = todo.pop()
        kept = []
        for b in base:
            g = math.gcd(a, b)
            if g == 1:
                kept.append(b)
                continue
            a, b = a // g, b // g
            while a % g == 0:
                a //= g
            while b % g == 0:
                b //= g
            if math.gcd(g, b) == 1:
                kept += [g, b] if b > 1 else [g]
            else:
                todo.update((g, b))
        if a == given:
            kept.append(a)
        elif a > 1:
            todo.add(a)
        base = kept
    return sorted(base)


def _coprime_rows(products: Sequence[Sequence[Tuple[int, int]]]) -> Tuple[List[int], List[List[int]]]:
    """The coprime base of all the positive integers v in the products, and
    one row per product: at each base element b, the sum of k * e over its
    (v, k) pairs, where b ** e exactly divides v. No factoring."""
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
    return base, rows


def _point_rows(pt: PointQ) -> Tuple[List[int], List[List[int]]]:
    """_coprime_rows of the |x_i|, each x_i as |numerator| / denominator."""
    return _coprime_rows([((abs(x.numerator), 1), (x.denominator, -1)) for x in pt])


def _by_least_prime(base: List[int], rows: List[List[int]]) -> Tuple[List[int], IntMatrix]:
    """The base sorted by least prime factor, and the IntMatrix of rows
    with its columns in that order: trial division of g = gcd(b,
    _SMALL_PRODUCT) up to sqrt(g) finds a least prime below 2^12; other b
    take the key 2^12 and are factored together only if two or more do.

    The bytes are those of a column per prime p | b_j: column j times
    v_p(b_j) > 0. hnf's choices (least |entry|, first on ties; //; sign
    flips) are blind to positive column scales, and it skips a second
    prime's column, already cleared below the pivot. So U is the same, the
    kernel too, prod(p ** h) = prod(b ** h), and each pivot falls on the
    element with the least least prime, so back-substitution is the same."""
    least = {}
    for b in base:  # g is squarefree: 1, a prime, or a multiple of some p <= sqrt(g)
        g = math.gcd(b, _SMALL_PRODUCT)
        p = next(p for p in _SMALL_PRIMES if p * p > g or g % p == 0)
        least[b] = p if g % p == 0 else g if g > 1 else _SMALL_BOUND
    large = [b for b in base if least[b] == _SMALL_BOUND]
    if len(large) > 1:
        least.update(zip(large, map(min, _factor_batch(large))))
    order = sorted(range(len(base)), key=lambda j: least[base[j]])
    return [base[j] for j in order], IntMatrix._trusted([row[j] for j in order] for row in rows)


def independent_over_coprime_base(products: Sequence[Sequence[Tuple[int, int]]]) -> bool:
    """Whether the positive rationals prod(v ** k for v, k in product), one
    per product, are multiplicatively independent (every v a positive
    integer). Their exponent vectors over the coprime base of all the v
    have rank len(products) iff so: pairwise coprime integers > 1 are
    multiplicatively independent, so this rank is the rank over the
    primes. No factoring.

    One product is independent iff it is not 1: its numerator prod(v ** k)
    over k > 0 and denominator prod(v ** -k) over k < 0 are first compared
    mod _RESIDUE_MODULUS, never multiplied out, and differ if those do."""
    if len(products) == 1:
        residues = [1, 1]  # numerator, denominator
        for v, k in products[0]:
            residues[k < 0] = residues[k < 0] * pow(v, abs(k), _RESIDUE_MODULUS) % _RESIDUE_MODULUS
        if residues[0] != residues[1]:
            return True
    return rank(_coprime_rows(products)[1]) == len(products)


def relation_lattice(P: Sequence[Fraction]) -> LatticeBasis:
    """Basis of {a in Z^n : prod(P[i] ** a[i]) == 1}.

    The |x_i| get exponent rows over the coprime base of their numerators
    and denominators. Rank n there means an independent point, which gets
    the zero lattice without ordering the base (a relation among the x_i
    would square to one among the |x_i|). Otherwise the left kernel of
    _by_least_prime's matrix handles absolute values; the sign condition,
    a parity functional on it, cuts out a sublattice of index at most 2.
    """
    pt = _check_point(P)
    n = len(pt)
    base, rows = _point_rows(pt)
    if rank(rows) == n:
        return LatticeBasis(n, ())
    _, A = _by_least_prime(base, rows)
    vecs = list(left_kernel(A))
    odd = [i for i, v in enumerate(vecs) if sum(a for a, x in zip(v, pt) if x < 0) % 2]
    if odd:
        pivot = odd[0]
        for i in odd[1:]:
            vecs[i] = tuple(x - y for x, y in zip(vecs[i], vecs[pivot]))
        vecs[pivot] = tuple(2 * x for x in vecs[pivot])
    # independent: unimodular rows, then a triangular map with nonzero diagonal
    return LatticeBasis._independent(n, tuple(vecs))


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

    The coordinates' exponent rows over their coprime base, its columns
    ordered by _by_least_prime, go through one elimination to their HNF,
    without a transform. Each nonzero row h of it gives a generator
    prod(b ** h) over the ordered base, and each coordinate's exponent row
    comes from back-substitution against those rows at their pivot columns.
    """
    pt = _check_point(P)
    base, A = _by_least_prime(*_point_rows(pt))
    h = [list(row) for row in A.entries]
    gen_rows = h[: eliminate(h)[0]]
    pivots = [next(j for j, x in enumerate(row) if x) for row in gen_rows]
    generators = []
    for row in gen_rows:
        num = math.prod(b ** e for b, e in zip(base, row) if e > 0)
        den = math.prod(b ** -e for b, e in zip(base, row) if e < 0)
        generators.append(Fraction(num, den))
    exp_rows = []
    for residual in A.entries:
        coords = []
        for row, col in zip(gen_rows, pivots):
            q = residual[col] // row[col]
            coords.append(q)
            if q:
                residual = [a - q * b for a, b in zip(residual, row)]
        if any(residual):  # a remainder at a pivot stays: the rows below are 0 there
            raise InvariantViolation("exponent row off its HNF's lattice")
        exp_rows.append(coords)
    return Decomposition(
        signs=tuple(-1 if x < 0 else 1 for x in pt),
        generators=tuple(generators),
        exponents=IntMatrix._trusted(exp_rows),
    )


def weil_height(x: Fraction) -> float:
    """log max(|numerator|, denominator) of the reduced fraction."""
    if x == 0:
        raise DomainError("height of zero is undefined here")
    return math.log(max(abs(x.numerator), x.denominator))


def point_height(P: Sequence[Fraction]) -> float:
    pt = _check_point(P)
    return sum(weil_height(x) for x in pt)
