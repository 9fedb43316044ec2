"""The machine's current speed, measured with a fixed pure-Python kernel.

On a VM shared with other tenants the same work can take half as long
again for tens of seconds at a time, and wall times of whole runs then
differ by more than any useful regression bound. The runner therefore
times a fixed kernel next to the work it measures and scales each work
time by ``REFERENCE_S / kernel time``: the result is the time the work
would have taken at the speed where the kernel takes ``REFERENCE_S``
(a little slower than a quiet 2-vCPU VM of the kind the benchmark was
tuned on).

The kernel never touches torusdep, so a change to the package cannot
move it. It multiplies dense polynomials with Fraction coefficients, the
kind of work the package's exact core does: interpreter loops, dict
updates, big-integer products and gcds. A kernel of interpreter loops,
dict updates and gcds on fixed-size integers was tried first; it slowed
less than the workloads in a slowdown, so scaled times still rose with it.
"""
from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.010
KERNEL_ROUNDS = 16
DEGREE = 12


def kernel() -> int:
    """``KERNEL_ROUNDS`` products of two dense polynomials of degree
    ``DEGREE - 1``, each truncated to that degree; the coefficients grow
    from round to round."""
    p = {i: Fraction(i + 1, i + 2) for i in range(DEGREE)}
    q = {i: Fraction(2 * i - 3, i + 5) for i in range(DEGREE)}
    acc = 0
    for _ in range(KERNEL_ROUNDS):
        out: dict = {}
        for i, a in p.items():
            for j, b in q.items():
                out[i + j] = out.get(i + j, 0) + a * b
        p = {k: v for k, v in out.items() if k < DEGREE}
        acc += hash(p[DEGREE - 1])
    return acc


def sample() -> float:
    """Wall time of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """The factor that takes a time measured between two kernel samples
    to the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
