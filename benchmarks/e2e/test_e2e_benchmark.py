"""Self-test of the benchmark harness (collected by tier-1; a few seconds).

Checks the declaration (``BENCHMARK.json`` against the contract's limits and
against the harness's own workload/metric tables) and drives ``run.py
--smoke`` on one MD and one serving workload to see every declared metric come
out finite, exact counts repeat for a seed, and inputs change with it.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2ebench import metrics  # noqa: E402 - needs the path line above
from e2ebench.compare import Side, verdict  # noqa: E402

RUN = HERE / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*args, cwd=metrics.REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=120, check=False
    )


@pytest.fixture(scope="module")
def declaration():
    return metrics.load_declaration()


# -- the declaration ------------------------------------------------------------


def test_benchmark_json_meets_the_contract_limits(declaration):
    assert set(json.loads(metrics.BENCHMARK_JSON.read_text())) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declaration["paths"] == ["benchmarks/e2e"]
    assert declaration["command"][-1] == "benchmarks/e2e/run.py"
    assert isinstance(declaration["run_seconds"], int) and 1 <= declaration["run_seconds"] <= 60
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = (
        declaration["workload_names"]
        + list(declaration["end_to_end_by_name"])
        + list(declaration["per_layer_by_name"])
    )
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = declaration["end_to_end_by_name"]["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert metrics.BENCHMARK_JSON.stat().st_size <= 64 * 1024


def test_every_declared_metric_lists_its_workloads(declaration):
    # the driver gates a subset of the harness's workloads
    assert set(declaration["workload_names"]) <= set(metrics.ALL)
    assert set(metrics.LAYER_WORKLOADS) == set(declaration["per_layer_by_name"])
    for name, workloads in metrics.LAYER_WORKLOADS.items():
        assert workloads and set(workloads) <= set(metrics.ALL), name
    # the workloads separate the layers: no deepmd metric on the LJ workloads
    for workload in ("lj_serial", "lj_ranks"):
        assert not [m for m in metrics.layer_metrics_for(workload) if m.startswith("deepmd.")]


# -- the harness, end to end at toy size ---------------------------------------------


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """seed 0 on both workloads, seed 0 again and seed 1 on the MD one."""
    out = tmp_path_factory.mktemp("e2e")
    both = run_benchmark(
        "--smoke", "--workload", "lj_serial", "--workload", "serve_burst", "--out", str(out / "a.json")
    )
    again = run_benchmark("--smoke", "--workload", "lj_serial", "--out", str(out / "b.json"))
    other = run_benchmark("--smoke", "--workload", "lj_serial", "--seed", "1", "--out", str(out / "c.json"))
    for done in (both, again, other):
        assert done.returncode == 0, done.stdout + done.stderr
    load = lambda name: json.loads((out / name).read_text())["runs"][0]["workloads"]  # noqa: E731
    return {"both": load("a.json"), "again": load("b.json"), "other": load("c.json"), "again_stdout": again.stdout}


@pytest.mark.parametrize("workload", ["lj_serial", "serve_burst"])
def test_smoke_emits_every_declared_metric_finite(smoke_runs, declaration, workload):
    record = smoke_runs["both"][workload]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert set(record["end_to_end"]) == set(declaration["end_to_end_by_name"])
    assert set(record["per_layer"]) == set(metrics.layer_metrics_for(workload))
    for kind in ("end_to_end", "per_layer"):
        for name, metric in record[kind].items():
            assert math.isfinite(metric["value"]), name
            assert metric["unit"] == declaration[f"{kind}_by_name"][name]["unit"]
    for name in declaration["end_to_end_by_name"]:
        assert record["end_to_end"][name]["value"] > 0, name
    assert (metrics.REPO_ROOT / record["trace_file"]).is_file()


def test_same_seed_same_counts_other_seed_other_inputs(smoke_runs):
    first, again, other = (smoke_runs[k]["lj_serial"] for k in ("both", "again", "other"))
    assert first["inputs"] == again["inputs"]
    assert first["inputs"] != other["inputs"]
    exact = [name for name in first["per_layer"] if metrics.is_exact_count(name)]
    assert "md.neighbor.pairs" in exact
    for name in exact:
        assert first["per_layer"][name]["value"] == again["per_layer"][name]["value"], name


def test_single_workload_prints_the_contract_line(smoke_runs, declaration):
    line = json.loads(smoke_runs["again_stdout"].strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    # both passes ran, so every declared metric is there; layers lj_serial
    # never enters read 0
    assert set(line["metrics"]) == set(declaration["end_to_end_by_name"]) | set(declaration["per_layer_by_name"])
    assert line["metrics"]["deepmd.model.evaluate_ms"]["value"] == 0.0
    assert line["metrics"]["md.neighbor.build_ms"]["value"] > 0.0


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(metrics.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lj_serial", "--seed", "0", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- --compare verdicts ------------------------------------------------------------------


def test_compare_verdicts():
    steady = Side(100.0, 99.0, 101.0, 98.0, 102.0, 5)
    assert verdict(steady, Side(97.0, 96.0, 98.0, 95.0, 99.0, 5), "higher", 0.10)[0] == "ok"
    assert verdict(steady, Side(85.0, 84.0, 86.0, 83.0, 87.0, 5), "higher", 0.10)[0] == "regressed"
    assert verdict(steady, Side(115.0, 114.0, 116.0, 113.0, 117.0, 5), "lower", 0.10)[0] == "regressed"
    noisy = Side(95.0, 80.0, 110.0, 70.0, 120.0, 5)
    assert verdict(steady, noisy, "higher", 0.10)[0] == "unresolved"
