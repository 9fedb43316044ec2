"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _flip_first_digit(out: bytes) -> bytes:
    """The output with its first decimal digit replaced: a one-byte change."""
    for i, byte in enumerate(out):
        if 0x30 <= byte <= 0x39:
            return out[:i] + bytes([0x30 + (byte - 0x30 + 1) % 10]) + out[i + 1 :]
    raise AssertionError("output has no digit to change")


def _judged(ops, reference, tracer=None):
    judge = run.Judge(ops, reference)
    digests = judge(run.run_pass(ops, tracer)[1])
    return judge, digests


def _reference(workload, n_ops):
    return run.load_reference(workload, workloads.DEFAULT_SEED, True)[:n_ops]


def _corrupt(op):
    return replace(op, encode=lambda result, enc=op.encode: _flip_first_digit(enc(result)))


@pytest.mark.parametrize(
    "workload, n_ops",
    [("analyze", 1), ("points", 6)],
)
def test_one_byte_change_fails_against_reference(workload, n_ops):
    ops = workloads.build(workload, workloads.DEFAULT_SEED)[:n_ops]
    reference = _reference(workload, n_ops)
    judge, _ = _judged(ops, reference)
    assert (judge.attempted, judge.failed) == (n_ops, 0)

    ops[0] = _corrupt(ops[0])
    judge, digests = _judged(ops, reference)
    assert (judge.attempted, judge.failed) == (n_ops, 1)
    assert "error" not in digests


def test_one_byte_change_fails_exact_checks_on_any_seed():
    # seed 7 has no reference digests, so only the exact checks can notice
    seed = 7
    ops = workloads.build("points", seed)[:3]  # point 0 is dependent by construction
    judge, _ = _judged(ops, None)
    assert judge.failed == 0
    for k in range(3):
        corrupted = list(ops)
        corrupted[k] = _corrupt(ops[k])
        judge, _ = _judged(corrupted, None)
        assert judge.failed == 1, ops[k].label


def test_raising_call_is_a_failure():
    op = workloads.build("points", 3)[0]
    broken = replace(op, call=lambda: 1 // 0)
    judge, digests = _judged([broken, op], None)
    assert (judge.attempted, judge.failed) == (2, 1)
    assert digests[0] == "error"


def test_traced_and_untraced_runs_give_identical_digests():
    ops = workloads.build("analyze", 5)[:1] + workloads.build("points", 5)[:30]
    tracer = tracing.Tracer()
    _, plain = _judged(ops, None)
    _, traced = _judged(ops, None, tracer)
    assert plain == traced
    layers = tracer.per_layer()
    for name in ("cli.main", "explorer.torsion_fiber", "multdep.decompose", "sympy.factorint",
                 "exactcore.Poly.call", "curvegeom.CurveData.build", "intlattice.LatticeBasis"):
        assert layers[name + ".calls"] > 0, name
    # the analyze call's H=50 scan tests each parameter for dependence
    assert layers["explorer.scan.params"] >= layers["explorer.scan.dependent"]
    assert layers["explorer.scan.params"] > 1000
    # every wrapper is gone again
    import torusdep.explorer
    import torusdep.multdep

    assert torusdep.explorer.relation_lattice is torusdep.multdep.relation_lattice
    assert not hasattr(torusdep.multdep.relation_lattice, "__wrapped__")


def test_call_latency_is_each_operations_median_over_passes():
    passes = [run.Pass(0.9, lat, False) for lat in ([0.5, 0.4], [0.6, 0.2], [0.7, 0.3])]
    assert run.median_latencies(passes) == [0.6, 0.3]


def test_latencies_are_scaled_by_the_speed_samples_around_their_block(monkeypatch):
    # a machine at half the reference speed: every kernel sample takes twice as long
    monkeypatch.setattr(run.speed, "sample", lambda: 2 * run.speed.REFERENCE_S)
    ops = workloads.build("points", 2)[:30]
    p, _ = run.run_pass(ops)
    assert len(p.latencies) == len(ops)
    assert p.seconds == pytest.approx(p.raw_seconds / 2, rel=1e-9)
    assert p.wall >= p.raw_seconds


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import torusdep.multdep

        torusdep.multdep.relation_lattice((Fraction(12), Fraction(18)))
    finally:
        tracer.uninstall()
    layers = tracer.per_layer()
    total = sum(layers[n + ".self_s"] for n in tracer.layer_names)
    root = tracer.span_end[0] - tracer.span_start[0]
    assert tracer.span_parent[0] == -1
    assert total == pytest.approx(root, rel=1e-9)


def test_fixed_inputs_do_not_depend_on_seed():
    assert workloads.uses_fixed_inputs("analyze")
    labels = [[op.label for op in workloads.build("analyze", seed)] for seed in (1, 2, 99)]
    assert labels[0] == labels[1] == labels[2] == list(workloads.ANALYZE_CURVES)
    # so their reference digests hold for every seed
    assert run.load_reference("analyze", 99, True) == run.load_reference("analyze", 1, True)


def test_seeded_inputs_are_reproducible():
    first = workloads.make_points(4)
    assert first == workloads.make_points(4)
    assert first != workloads.make_points(5)


def test_benchmark_json_matches_the_run():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "points", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    summary, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert summary["seed"] == 3 and len(summary["digest"]) == 64
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "points",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
