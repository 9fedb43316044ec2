"""The output bytes of both benchmark workloads match the committed
benchmark references: the SHA-256 prefix of each `torusdep analyze`
output on the benchmark curves, and of each encoded result of the points
workload's dependence-engine calls, equals the digest of its operation in
bench/reference.json. The bench files are read, never written."""
import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from torusdep.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _analyze_curves():
    """ANALYZE_CURVES as written in bench/workloads.py, read without
    importing the benchmark."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ANALYZE_CURVES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py defines no ANALYZE_CURVES")


def test_analyze_bytes_match_benchmark_references():
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]["analyze"]["ops"]
    curves = _analyze_curves()
    assert len(curves) == len(reference)
    for curve, expected in zip(curves, reference):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", "--curve", curve]) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest[: len(expected)] == expected, curve


def test_points_bytes_match_benchmark_references():
    """Each relation_lattice, is_primitively_dependent and decompose result
    on the reference seed's points, encoded as the workload encodes it."""
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]["points"]
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.build("points", reference["seed"])
    assert len(ops) == len(reference["ops"]) == 3000
    for op, expected in zip(ops, reference["ops"]):
        digest = hashlib.sha256(op.encode(op.call())).hexdigest()
        assert digest[: len(expected)] == expected, op.label
