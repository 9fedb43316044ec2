"""Workload inputs, the public calls each workload makes, and the checks
applied to every output.

A workload is a list of operations. Each operation makes exactly one call
into a public ``torusdep`` name (looked up on its module at call time, so
the tracer's patches are seen), and its result is encoded to canonical
bytes outside the timed region. Outputs are judged on those bytes: the
SHA-256 against a committed reference where one exists, and an exact
mathematical check where the workload has one.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import sympy
import torusdep.cli
import torusdep.multdep

WORKLOADS = ("analyze", "points")
DEFAULT_SEED = 1

ANALYZE_CURVES = (
    "(t-1)^2; t",
    "(t-1)^3; t",
    "2*t/(t+1); t^(-2)",
    "t*(t+1); (t-2)/(t+3); t-5",
)
POINTS_PER_PASS = 1000
POINT_DIGITS = (4, 8, 12, 18)
# An 18-digit value is a prime of 5, 6 or 7 digits (in turn) times a larger
# prime. Pollard rho then takes a number of steps set by the smaller prime,
# so every seed asks factorint for the same work; uniformly random 18-digit
# values made a pass's time vary by about 30 % from seed to seed.
HARD_DIGITS = 18
HARD_FACTOR_DIGITS = (5, 6, 7)


class OpFailed(Exception):
    """A public call returned normally but reported failure (nonzero exit)."""


@dataclass(frozen=True)
class Op:
    """One public call. ``call`` is timed; ``encode`` turns its result into
    the output bytes; ``check`` (when set) judges those bytes exactly."""

    label: str
    call: Callable[[], object]
    encode: Callable[[object], bytes]
    check: Optional[Callable[[bytes], bool]] = None


# ---------------------------------------------------------------------------
# shared helpers


def _cli(argv: Sequence[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = torusdep.cli.main(list(argv))
    if rc != 0:
        raise OpFailed(f"torusdep {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def _utf8(text: str) -> bytes:
    return text.encode()


def _dumps(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _monomial(point: Sequence[Fraction], v: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for x, e in zip(point, v):
        out *= x ** e
    return out


def _gcd_all(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


# ---------------------------------------------------------------------------
# analyze: the main CLI command on the fixed curves


def _analyze_ops(seed: int) -> List[Op]:
    return [
        Op(
            label=curve,
            call=lambda curve=curve: _cli(["analyze", "--curve", curve]),
            encode=_utf8,
        )
        for curve in ANALYZE_CURVES
    ]


# ---------------------------------------------------------------------------
# points: the dependence engine on a seeded stream of rational points


def _primes_below(n: int) -> List[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(n) if sieve[p]]


_PRIMES = _primes_below(2000)


def _random_base(rng: random.Random) -> Fraction:
    primes = rng.sample(_PRIMES, rng.randint(1, 4))
    split = rng.randint(1, len(primes))
    return Fraction(math.prod(primes[:split]), math.prod(primes[split:]))


def make_points(seed: int) -> List[Tuple[Tuple[Fraction, ...], bool]]:
    """(point, dependent_by_construction) pairs. Even entries are signed
    monomials in fewer bases than coordinates; odd ones are random
    rationals. Dimension and digit count cycle through every combination,
    so each seed has the same mix and only the values differ."""
    rng = random.Random(f"points:{seed}")
    hard = itertools.count()

    def value(digits: int) -> int:
        lo, hi = 10 ** (digits - 1), 10 ** digits
        if digits != HARD_DIGITS:
            return rng.randrange(lo, hi)
        h = HARD_FACTOR_DIGITS[next(hard) % len(HARD_FACTOR_DIGITS)]
        while True:
            a = sympy.nextprime(rng.randrange(10 ** (h - 1), 10 ** h))
            b = sympy.nextprime(rng.randrange(-(-lo // a), hi // a))
            if a * b < hi:
                return a * b

    out = []
    for i in range(POINTS_PER_PASS):
        k = i // 2
        n = 2 + k % 3
        if i % 2 == 0:
            bases = [_random_base(rng) for _ in range(rng.randint(1, n - 1))]
            point = tuple(
                rng.choice((-1, 1)) * _monomial(bases, [rng.randint(-6, 6) for _ in bases])
                for _ in range(n)
            )
            out.append((point, True))
        else:
            digits = POINT_DIGITS[(k // 3) % len(POINT_DIGITS)]
            point = tuple(
                Fraction(rng.choice((-1, 1)) * value(digits), value(digits)) for _ in range(n)
            )
            out.append((point, False))
    return out


def _encode_lattice(lattice) -> bytes:
    return _dumps({"relations": [list(v) for v in lattice.vectors]})


def _encode_witness(witness) -> bytes:
    return _dumps({"witness": list(witness) if witness is not None else None})


def _encode_decomposition(dec) -> bytes:
    return _dumps(
        {
            "signs": list(dec.signs),
            "generators": [str(g) for g in dec.generators],
            "exponents": [list(row) for row in dec.exponents.entries],
        }
    )


def _check_lattice(point, dependent: bool, out: bytes) -> bool:
    relations = json.loads(out)["relations"]
    if dependent and not relations:
        return False
    return all(
        len(v) == len(point) and any(v) and _monomial(point, v) == 1 for v in relations
    )


def _check_witness(point, out: bytes) -> bool:
    w = json.loads(out)["witness"]
    if w is None:
        return True
    return len(w) == len(point) and _gcd_all(w) == 1 and _monomial(point, w) == 1


def _check_decomposition(point, out: bytes) -> bool:
    dec = json.loads(out)
    gens = [Fraction(g) for g in dec["generators"]]
    if any(g <= 0 for g in gens) or len(dec["signs"]) != len(point):
        return False
    rebuilt = tuple(
        s * _monomial(gens, row) for s, row in zip(dec["signs"], dec["exponents"])
    )
    return rebuilt == tuple(point)


def _points_ops(seed: int) -> List[Op]:
    ops = []
    md = torusdep.multdep
    for k, (point, dependent) in enumerate(make_points(seed)):
        ops += [
            Op(
                label=f"{k}:relation_lattice",
                call=lambda p=point: md.relation_lattice(p),
                encode=_encode_lattice,
                check=lambda out, p=point, d=dependent: _check_lattice(p, d, out),
            ),
            Op(
                label=f"{k}:is_primitively_dependent",
                call=lambda p=point: md.is_primitively_dependent(p),
                encode=_encode_witness,
                check=lambda out, p=point: _check_witness(p, out),
            ),
            Op(
                label=f"{k}:decompose",
                call=lambda p=point: md.decompose(p),
                encode=_encode_decomposition,
                check=lambda out, p=point: _check_decomposition(p, out),
            ),
        ]
    return ops


_BUILDERS = {
    "analyze": _analyze_ops,
    "points": _points_ops,
}


def build(workload: str, seed: int) -> List[Op]:
    """The operations of one pass of the workload, made from the seed."""
    return _BUILDERS[workload](seed)


def uses_fixed_inputs(workload: str) -> bool:
    """Whether the workload's inputs ignore the seed (its reference
    digests then hold for every seed)."""
    return workload == "analyze"
