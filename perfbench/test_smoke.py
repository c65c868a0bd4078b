"""Smoke test of the benchmark in its two-step-horizon mode.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the output checks reject a corrupted report, and that the benchmark
refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import scenarios  # noqa: E402
from bench import time_setup  # noqa: E402
from otrobust import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]


@pytest.fixture(scope="module")
def setup():
    return time_setup()[1]


@pytest.mark.parametrize("workload", ["ic-desk", "param-lp"])
def test_check_rejects_corrupted_report(workload, setup, tmp_path):
    cfg = scenarios.make_config(workload, 0, str(tmp_path), smoke=True)
    report = harness.run_scenario(cfg, setup=setup, keep_snapshots=True)
    x_trim = setup.trim.x_trim.as_array()
    assert checks.check_outputs(cfg, x_trim, report, tmp_path) == []

    path = tmp_path / "report.json"
    doc = json.loads(path.read_text())
    curve = next(c for c in doc["curves"] if c["variant"] != "deterministic")
    curve["W"] = [w * 1.01 for w in curve["W"]]
    path.write_text(json.dumps(doc))
    assert checks.check_outputs(cfg, x_trim, report, tmp_path)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ic-desk", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
