"""torusdep benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. The run is a closed loop in this single-threaded process: each
public call is issued after the previous one returns. It

1. builds the workload's inputs, makes one untimed warm-up pass, then
   runs timed passes until they have taken ``--seconds``; both of sympy's
   caches are cleared before every pass, so each pass starts as cold as a
   fresh CLI invocation;
2. judges every output of every pass (``Judge``), outside the timed calls;
3. times set-up ``SETUP_SAMPLES`` times, in fresh interpreters that import
   sympy and torusdep and build the inputs (``probe.py``), one before each
   of the first passes, so the samples see the machine at different
   moments of the run; the median is ``setup_s``.

Every time is scaled to a reference machine speed (``speed.py``): a fixed
kernel is timed before and after each block of about ``BLOCK_S`` seconds
of calls, and before and after each set-up probe, and the time in between
is multiplied by ``speed.REFERENCE_S`` over the mean of the two samples.
``pass_s`` is the median scaled time of a timed pass. ``call_ms.p50`` and
``p90`` are quantiles, over the operations of a pass, of each operation's
median scaled latency over the timed passes.

With ``--trace 1`` the timed passes alternate between untraced and traced
(``tracing.py``), and the per-layer metrics are reported instead of the
end-to-end ones. The second-to-last line of output is a JSON summary with
the seed and the output digest; the last line is the result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 7
BLOCK_S = 0.2  # seconds of calls between two speed samples
OP_DIGEST_CHARS = 16  # per-operation reference digests are SHA-256 prefixes
END_TO_END = ("setup_s", "pass_s", "call_ms.p50", "call_ms.p90", "peak_rss_mb")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combined_digest(op_digests: List[str]) -> str:
    return digest("\n".join(op_digests).encode())


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup(workload: str, seed: int) -> Dict[str, float]:
    """One set-up, timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(samples: List[Dict[str, float]], key: str) -> float:
    """Median of one set-up time over the probes, each scaled to the
    reference speed."""
    return statistics.median(s[key] * s["scale"] for s in samples)


@dataclass
class Pass:
    seconds: float  # sum of the scaled latencies
    latencies: List[float]  # each call's, scaled to the reference speed
    traced: bool
    digest: str = ""
    raw_seconds: float = 0.0  # sum of the calls' wall times, unscaled
    wall: float = 0.0  # the whole pass, speed samples included


def run_pass(ops, tracer=None) -> Tuple[Pass, list]:
    """One timed pass; returns it with each call's result, or the
    exception the call raised. The calls are timed in blocks of at least
    ``BLOCK_S`` seconds, with a speed sample before and after each block,
    and each call's latency is scaled by its block's samples."""
    from sympy.core.cache import clear_cache
    from sympy.ntheory.factor_ import factor_cache

    # both of sympy's caches: factorint keeps its own across calls
    clear_cache()
    factor_cache.cache_clear()
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter
    raw, latencies, results = [], [], []
    block_s = 0.0
    try:
        start = clock()
        before = speed.sample()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # judged as a failed operation
                result = exc
            raw.append(clock() - t0)
            results.append(result)
            block_s += raw[-1]
            if block_s >= BLOCK_S or i == len(ops) - 1:
                after = speed.sample()
                k = speed.scale(before, after)
                latencies += [x * k for x in raw[len(latencies) :]]
                before, block_s = after, 0.0
        wall = clock() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    p = Pass(sum(latencies), latencies, tracer is not None, raw_seconds=sum(raw), wall=wall)
    return p, results


@dataclass
class Judge:
    """Counts failed operations. An operation fails if its call raised,
    if its output differs from the reference digest (when the reference
    covers this seed), if its exact check rejects the output, or, without
    a reference, if its output differs from the first pass's."""

    ops: list
    reference: Optional[List[str]]  # per-operation digest prefixes
    attempted: int = 0
    failed: int = 0
    first: Optional[List[str]] = None
    _verdicts: Dict = field(default_factory=dict)
    _reported: bool = False

    def __call__(self, results: list) -> List[str]:
        """Judge one pass; returns the per-operation output digests."""
        digests = []
        for i, (op, result) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            ok, d = self._judge_one(i, op, result)
            digests.append(d)
            if not ok:
                self.failed += 1
        if self.first is None:
            self.first = digests
        return digests

    def _judge_one(self, i, op, result):
        if isinstance(result, Exception):
            self._report(op, result)
            return False, "error"
        try:
            out = op.encode(result)
        except Exception as exc:
            self._report(op, exc)
            return False, "error"
        d = digest(out)
        if self.reference is not None:
            if d[:OP_DIGEST_CHARS] != self.reference[i]:
                return False, d
        elif self.first is not None and d != self.first[i]:
            return False, d
        if op.check is not None:
            key = (i, d)
            if key not in self._verdicts:
                try:
                    self._verdicts[key] = bool(op.check(out))
                except Exception:  # unparseable output fails its check
                    self._verdicts[key] = False
            return self._verdicts[key], d
        return True, d

    def _report(self, op, exc):
        if not self._reported:
            self._reported = True
            print(f"operation {op.label!r} failed:", file=sys.stderr)
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


def load_reference(workload: str, seed: int, fixed_inputs: bool) -> Optional[List[str]]:
    entry = json.loads(REFERENCE.read_text())["workloads"].get(workload)
    if entry is None or not (fixed_inputs or seed == entry["seed"]):
        return None
    return entry["ops"]


def measure(ops, judge: Judge, seconds: float, tracer=None, before_pass=None) -> List[Pass]:
    """Passes until the timed passes have taken ``seconds`` of wall time,
    speed samples included. A first untraced pass warms state that
    outlives a pass (imports, lazily built tables) and is judged but not
    timed. With a tracer, traced and untraced passes then alternate, at
    least one of each, so the tracing overhead compares warm passes. ``before_pass`` runs before every pass,
    the warm-up included, outside the timed region."""
    if before_pass is not None:
        before_pass()
    judge(run_pass(ops)[1])
    passes: List[Pass] = []
    while True:
        if before_pass is not None:
            before_pass()
        traced = tracer is not None and len(passes) % 2 == 0
        # results are dropped once judged, so live objects do not pile up
        # from pass to pass
        p, results = run_pass(ops, tracer if traced else None)
        p.digest = combined_digest(judge(results))
        passes.append(p)
        enough = sum(q.wall for q in passes) >= seconds
        if enough and (tracer is None or len(passes) >= 2):
            return passes


def median_latencies(passes: List[Pass]) -> List[float]:
    """Each operation's median latency over the passes, in seconds."""
    return [statistics.median(column) for column in zip(*(p.latencies for p in passes))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torusdep" / "__init__.py").is_file():
        print(f"torusdep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    ops = workloads.build(args.workload, seed)
    reference = load_reference(args.workload, seed, workloads.uses_fixed_inputs(args.workload))
    judge = Judge(ops, reference)

    setup: List[Dict[str, float]] = []

    def probe():
        if len(setup) < SETUP_SAMPLES:
            before = speed.sample()
            sample = probe_setup(args.workload, seed)
            sample["scale"] = speed.scale(before, speed.sample())
            setup.append(sample)

    tracer = tracing.Tracer() if args.trace else None
    passes = measure(ops, judge, args.seconds, tracer, before_pass=probe)
    while len(setup) < SETUP_SAMPLES:
        probe()

    plain = [p for p in passes if not p.traced]
    pass_s = statistics.median(p.seconds for p in plain)
    call_ms = [x * 1e3 for x in median_latencies(plain)]
    summary = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "passes": len(plain),
        "pass_seconds": [p.seconds for p in plain],
        "pass_raw_seconds": [p.raw_seconds for p in plain],
        "call_samples": len(call_ms),
        "digest": plain[0].digest,
        "reference": "none for this seed" if reference is None else "checked",
        "failed_frac": judge.failed / judge.attempted,
        "setup_samples": setup,
    }
    if tracer is None:
        metrics = {
            "setup_s": (median_of(setup, "setup_s"), "s"),
            "pass_s": (pass_s, "s"),
            "call_ms.p50": (quantile(call_ms, 50), "ms"),
            "call_ms.p90": (quantile(call_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced = [p for p in passes if p.traced]
        summary["traced_digest"] = traced[0].digest
        summary["traced_pass_seconds"] = [p.seconds for p in traced]
        trace_pass_s = statistics.median(p.seconds for p in traced)
        values = tracer.per_layer()
        values["setup.import_sympy_s"] = median_of(setup, "import_sympy_s")
        values["setup.import_torusdep_s"] = median_of(setup, "import_torusdep_s")
        values["trace.pass_s"] = trace_pass_s
        values["trace.overhead_s"] = trace_pass_s - pass_s
        units = {d["name"]: d["unit"] for d in tracing.load_layers()["derived"]}
        metrics = {}
        for name in tracing.per_layer_names():
            unit = units.get(name) or ("count" if name.endswith(".calls") else "s")
            metrics[name] = (values[name], unit)
        stem = RUNS / f"trace-{args.workload}-seed{seed}"
        tracer.write(stem)
        summary["spans"] = str(stem.relative_to(ROOT)) + ".{json,bin}"

    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": judge.failed == 0,
                "attempted": judge.attempted,
                "failed": judge.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
