"""Tests of the benchmark itself, each workload at its tiny size.

    python3 -m pytest perfbench/tests -q
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    code, result, stdout = bench(workload, 0)
    assert code == 0, stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_and_unattributed_add_up_to_the_traced_wall(workload):
    code, result, stdout = bench(workload, 1)
    assert code == 0, stdout
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    self_s = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    unattributed = metrics["unattributed_s"]["value"]
    wall = metrics["trace.wall_s"]["value"]
    assert unattributed >= -1e-9, "spans counted an interval twice"
    assert self_s + unattributed == pytest.approx(wall, rel=1e-9, abs=1e-12)
    assert metrics["work.cases"]["value"] >= 1


def test_an_injected_wrong_answer_is_counted_and_fails_the_command():
    code, result, stdout = bench("s1-identities", 0, "--inject-failure")
    assert code != 0
    assert not result["correct"]
    # the first case fails once per timed pass, and nothing else fails
    assert 1 <= result["failed"] < result["attempted"]
    assert "injected wrong answer" in stdout


def test_tracer_restores_every_binding_it_replaced():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    import toeplitz_lab
    from toeplitz_lab import hardy_s1, kernel, verify

    before = (hardy_s1.analytic_index_s1, verify.analytic_index_s1,
              toeplitz_lab.analytic_index_s1, kernel.stabilized_kernel_dim)
    tracer = spans.Tracer()
    with tracer:
        assert verify.analytic_index_s1 is hardy_s1.analytic_index_s1
        assert verify.analytic_index_s1 is not before[0]
        assert hardy_s1.analytic_index_s1(toeplitz_lab.z_power(2), trunc=8).index == -2
    after = (hardy_s1.analytic_index_s1, verify.analytic_index_s1,
             toeplitz_lab.analytic_index_s1, kernel.stabilized_kernel_dim)
    assert all(a is b for a, b in zip(before, after))
    layers = tracer.layers
    assert layers["hardy_s1.analytic_index_s1"].calls == 1
    assert layers["kernel.stabilized_kernel_dim"].calls == 2
    assert layers["kernel.stabilized_kernel_dim"].counts["svd_count"] == 4
    # z^2 has a two-dimensional cokernel: one residual check, on the cokernel side
    assert layers["kernel.stabilized_kernel_dim"].counts["residual_checks"] == 1
    assert layers["hardy_s1.toeplitz_rect_s1"].calls == 5
