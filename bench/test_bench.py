"""Tests of the benchmark itself.

    python3 -m pytest bench -q

Run from the root of the checkout.  These are not part of the package's
test suite (pyproject's testpaths names only tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.prepare_interpreter()

import exact  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    summary, result = measure.timed_run(workload, seed=5, seconds=0.0,
                                        min_ops=3, setup_probes=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] == summary["timed_operations"] + 1
    assert summary["failed_share"]["value"] == result["failed"] / result["attempted"]
    json.dumps(result)


def test_a_timed_run_does_the_same_work_for_the_same_seed():
    # fixed work: the operations that fail are the same in every run of a seed
    runs = [measure.timed_run("dhym-sweep", seed=5, seconds=0.5, min_ops=3,
                              setup_probes=1)[1] for _ in range(2)]
    planned = measure.planned_ops("dhym-sweep", 0.5)
    assert planned % measure.BATCH["dhym-sweep"] == 0
    assert [r["attempted"] for r in runs] == [planned + 1] * 2
    assert runs[0]["failed"] == runs[1]["failed"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    summary, result = measure.trace_run(workload, seed=5, n_ops=3)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert summary["missing_layers"] == []
    assert summary["counts_repeat_in_fresh_process"] is True
    assert result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    a = gen.InputStream(workload, 7).take(6)
    batched = gen.InputStream(workload, 7)
    assert batched.take(2) + batched.take(4) == a
    assert gen.InputStream(workload, 8).take(6) != a


def test_a_wrong_oracle_answer_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(exact, "line_index", lambda w, x0, y_top: 10**6)
    summary, result = measure.timed_run("verdicts", seed=5, seconds=0.0,
                                        min_ops=4, setup_probes=1)
    assert result["failed"] == result["attempted"] == 5
    assert summary["failed_share"]["value"] == 1.0
    assert list(summary["failures"]) == ["z2 band label disagrees with the exact index"]


def test_exact_index_hand_case():
    # w = z + z^3/3, w' = 1 + z^2; on Re z = 1 the ratio is 2y / (2 - y^2),
    # which jumps from +inf to -inf at y = -sqrt(2) and at y = sqrt(2)
    w = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0 / 3.0, 0.0]]
    assert exact.line_index(w, 1.0, 0.0) == -1
    assert exact.line_index(w, 1.0, 2.0) == -2
    assert exact.line_index(w, 0.0, 2.0) == 0  # Im w' vanishes on the axis


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdicts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
