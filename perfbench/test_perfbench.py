"""Smoke tests for the benchmark: run with ``python3 -m pytest perfbench``.

Every run here uses ``--quick`` (a few cells, programs and seconds), so
the numbers are meaningless; the tests pin the contract instead: every
named metric is emitted with its unit, the correctness checks can fail,
traced counters repeat exactly, and the command refuses to run without
the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT))

from perfbench.common import tail  # noqa: E402


def bench(workload: str, *extra: str, trace: int = 0, seed: int = 7, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "3", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, record, done.stderr


def assert_metrics(record: dict, kind: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: value["unit"] for name, value in record["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float) for v in record["metrics"].values())


def test_spec_names_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "paper_figures", "fuzz_oracle", "serve_mixed",
    ]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["paper_figures", "fuzz_oracle", "serve_mixed"])
def test_every_end_to_end_metric_is_emitted(workload):
    code, record, stderr = bench(workload, "--quick")
    assert code == 0, stderr
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    assert_metrics(record, "end_to_end")
    assert all(v["value"] > 0 for v in record["metrics"].values())


@pytest.mark.parametrize("workload", ["paper_figures", "serve_mixed"])
def test_traced_run_emits_every_per_layer_metric_and_repeats(workload):
    first = bench(workload, "--quick", trace=1, seed=3)
    second = bench(workload, "--quick", trace=1, seed=3)
    for code, record, stderr in (first, second):
        assert code == 0, stderr
        assert_metrics(record, "per_layer")
    deterministic = ("interp.ops", "interp.decoded_blocks",
                     "regalloc.interference_builds", "serve.executed")
    for name in deterministic:
        assert first[1]["metrics"][name] == second[1]["metrics"][name]
    layer = "interp.ops" if workload == "paper_figures" else "serve.executed"
    assert first[1]["metrics"][layer]["value"] > 0


@pytest.mark.parametrize("workload", ["paper_figures", "fuzz_oracle", "serve_mixed"])
def test_wrong_expected_value_fails_the_run(workload):
    code, record, stderr = bench(workload, "--quick", "--wrong-expected")
    assert code == 1
    assert record["correct"] is False and record["failed"] >= 1
    assert "FAILED" in stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, record, _ = bench("paper_figures", cwd=tmp_path)
    assert code != 0 and record is None


def test_batch_throughput_is_median_cost_at_reference_speed():
    from perfbench.batch import Pass, summarize
    from perfbench.common import REFERENCE_LOOP_S, Outcome

    passes = []
    for slowdown in (1.0, 1.0, 3.0):  # one pass hit by load from elsewhere
        one = Pass(wall_s=1.0, reference_s=[0.01, 0.01])
        one.latencies_ms = {"a": 100.0 * slowdown, "b": 300.0}
        one.costs = {"a": 10.0 * slowdown, "b": 30.0}
        passes.append(one)
    outcome = Outcome()
    summarize(passes, outcome)
    assert outcome.metrics["ok_per_s"] == (pytest.approx(2 / (40.0 * REFERENCE_LOOP_S)), "1/s")
    assert outcome.notes["ok_per_wall_s"] == pytest.approx(2 / 0.4)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(range(100)) == (89, 90.0, 100)
    assert tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)
