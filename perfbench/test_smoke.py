"""Smoke test of the benchmark at 64x64: each workload runs once untraced and
once traced.

    python3 -m pytest perfbench -q

It checks that every metric BENCHMARK.json names is emitted with its unit,
that no op failed, and that the self times of each span-traced op add up to
within 10% of that op's wall time. On the CLI workloads ``cli.main`` is the
root span, so the sum checks that no top-level call escaped the tracer;
the nesting check below it is what keeps the layer breakdown honest.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 424242


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "64"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= child.MIN_OPS + 1
    return lines[:-1], result["metrics"]


def assert_emitted(metrics, specs):
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    summary, metrics = bench(workload, 0)
    assert_emitted(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
    text = "\n".join(summary)
    assert "error_rate 0 " in text
    steps = (("analyze_s", "select_score_s") if workload == "analysis"
             else ("encrypt_s", "decrypt_s"))
    for name in steps:
        assert f"  {name} " in text


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_covers_each_op(workload):
    _, metrics = bench(workload, 1)
    assert_emitted(metrics, SPEC["per_layer"])
    record = json.loads(
        (run.OUT / "spans" / f"{workload}-{SEED}.json").read_text())
    spans = record["spans"]
    selfs = tracer.self_times(spans)
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    assert min(selfs) >= 0
    traced = [op for op in record["ops"] if op["mode"] == "spans"]
    assert traced
    for op in traced:
        covered = sum(t for s, t in zip(spans, selfs) if s["op"] == op["op"])
        assert abs(op["wall_s"] - covered) <= 0.1 * op["wall_s"], op


def test_missing_target_is_a_missing_metric():
    def derive(stream, blocks):
        return [0] * blocks

    package = types.SimpleNamespace(
        cipher=types.SimpleNamespace(derive_permutation_matrix=derive))
    t = tracer.Tracer()
    t.install(package)
    assert "cipher.pi_fraction_bytes" in t.missing
    assert t.installed == {"cipher.derive"}
    t.op, t.mode = 0, "spans"
    package.cipher.derive_permutation_matrix(None, 5)
    t.op = t.mode = None
    metrics = t.layer_metrics(0, "spans")
    assert metrics == {"cipher.derive.busy_s": metrics["cipher.derive.busy_s"],
                       "cipher.derive.blocks": 5}
    t.uninstall()
    assert package.cipher.derive_permutation_matrix is derive
