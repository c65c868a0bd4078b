"""One benchmark run: set-up, a timed window of scenarios, checks, metrics.

A run builds the controllers (AeroTables.default() + build_controllers()),
then repeats `run_scenario(cfg, setup=..., keep_snapshots=True)` for the
requested number of seconds, checking the outputs of every scenario.
Within the window, SETUP_PROBES fresh child processes time the set-up
again; setup_s is the median of those and the first set-up, and
scenario_s the mean of the window's scenarios.
A fixed calibration kernel runs before the set-up and after every
set-up and scenario, for a tenth of its time; every reported time is
scaled by the run's mean kernel time to a reference machine speed
(see calibration.py, which also says why scenario_s is a mean).
With trace=1 the scenarios alternate between untraced and traced; the
traced ones give the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

import numpy as np
import scipy

from otrobust import f16, harness, liouville

import calibration
import checks
import scenarios
from tracing import Tracer, outermost, self_times

# Setup samples per untraced run: this process plus this many fresh ones,
# so that an in-process cache cannot make repeated set-ups look cheap.
SETUP_PROBES = 2

END_TO_END = {
    "setup_s": "s",
    "scenario_s": "s",
    "sample_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "f16.rhs_calls": "count",
    "f16.rhs_s": "s",
    "f16.rhs_us_per_call": "us",
    "f16.rhs_ns_per_sample": "ns",
    "f16.batch_min": "count",
    "f16.rhs_us_per_call_batch_min": "us",
    "f16.batch_max": "count",
    "f16.rhs_us_per_call_batch_max": "us",
    "f16.self_s": "s",
    "controller.law_s": "s",
    "controller.lqr_gain_calls": "count",
    "controller.schedule_s": "s",
    "trim.grid_s": "s",
    "trim.find_trim_calls": "count",
    "trim.nfev": "count",
    "trim.nonconverged": "count",
    "sampling.cloud_s": "s",
    "liouville.propagations": "count",
    "liouville.sample_steps": "count",
    "liouville.propagate_s": "s",
    "liouville.divergence_s": "s",
    "liouville.self_s": "s",
    "liouville.rhs_calls_per_step": "count",
    "liouville.live_frac": "frac",
    "transport.lp_calls": "count",
    "transport.dirac_calls": "count",
    "transport.score_s": "s",
    "transport.score_ms_per_call": "ms",
    "harness.save_s": "s",
    "harness.bytes_written": "bytes",
    "harness.self_s": "s",
    "trace_overhead_frac": "frac",
}

TIME_UNITS = {"s", "ms", "us", "ns"}

RHS = "ClosedLoop.state_rhs"
LAWS = ("LqrLaw.__call__", "ScheduledLaw.__call__")


@dataclass
class Rep:
    run: str
    traced: bool
    seconds: float
    bytes_written: int = 0
    problems: list = field(default_factory=list)
    hash_match: bool | None = None


def time_setup():
    """Wall time of AeroTables.default() + build_controllers(), and the setup."""
    t0 = time.perf_counter()
    tables = f16.AeroTables.default()
    setup = harness.build_controllers(tables=tables)
    return time.perf_counter() - t0, setup


def probe_setup_in_child(script: Path) -> float:
    out = subprocess.run([sys.executable, str(script), "--setup-probe"],
                         capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_scenario_once(cfg, setup, out_dir: Path, run: str, tracer: Tracer | None,
                      workload: str) -> Rep:
    shutil.rmtree(out_dir, ignore_errors=True)
    report = None
    problems = []
    t0 = time.perf_counter()
    try:
        if tracer is None:
            report = harness.run_scenario(cfg, setup=setup, keep_snapshots=True)
            elapsed = time.perf_counter() - t0
        else:
            tracer.run = run
            with tracer:
                t0 = time.perf_counter()
                report = harness.run_scenario(cfg, setup=setup, keep_snapshots=True)
                elapsed = time.perf_counter() - t0
    except Exception:  # a failed scenario is counted, not fatal to the run
        elapsed = time.perf_counter() - t0
        problems.append("scenario raised:\n" + traceback.format_exc())
    rep = Rep(run=run, traced=tracer is not None, seconds=elapsed, problems=problems)
    if report is not None:
        x_trim = setup.trim.x_trim.as_array()
        rep.problems += checks.check_outputs(cfg, x_trim, report, out_dir)
        if not rep.problems:
            ref_problems, rep.hash_match = checks.compare_reference(workload, cfg, out_dir)
            rep.problems += ref_problems
    rep.bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    return rep


def tail_percentile(values):
    """Highest of a fixed ladder of percentiles with at least ten values
    beyond it, as (q, value); None with fewer than 20 values."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return None


def _div(a, b):
    return a / b if b else 0.0


def _per_call_us(durations) -> float:
    return _div(sum(durations), len(durations)) * 1e6


def rep_layer_metrics(spans, selft, outer, idx, rep: Rep) -> dict:
    """Per-layer metrics of one traced scenario from its spans."""
    by_name: dict[str, list[int]] = {}
    for i in idx:
        by_name.setdefault(spans[i].name, []).append(i)

    def total(names):
        return sum(spans[i].duration for n in names for i in by_name.get(n, []))

    def self_of(layer):
        return sum(selft[i] for i in idx if spans[i].layer == layer)

    rhs = by_name.get(RHS, [])
    rhs_s = total([RHS])
    batches: dict[int, list[float]] = {}
    for i in rhs:
        batches.setdefault(spans[i].rows, []).append(spans[i].duration)
    b_min, b_max = (min(batches), max(batches)) if batches else (0, 0)
    props = [spans[i].info for i in by_name.get("propagate", [])]
    steps = sum(p.get("steps", 0) for p in props)
    sample_steps = sum(p.get("sample_steps", 0) for p in props)
    transport = [i for i in idx if i in outer["transport"]]
    transport_s = sum(spans[i].duration for i in transport)
    return {
        "f16.rhs_calls": len(rhs),
        "f16.rhs_s": rhs_s,
        "f16.rhs_us_per_call": _per_call_us([spans[i].duration for i in rhs]),
        "f16.rhs_ns_per_sample": _div(rhs_s, sum(spans[i].rows for i in rhs)) * 1e9,
        "f16.batch_min": b_min,
        "f16.rhs_us_per_call_batch_min": _per_call_us(batches.get(b_min, [])),
        "f16.batch_max": b_max,
        "f16.rhs_us_per_call_batch_max": _per_call_us(batches.get(b_max, [])),
        "f16.self_s": self_of("f16"),
        "controller.law_s": total(LAWS),
        "sampling.cloud_s": sum(spans[i].duration for i in idx if i in outer["sampling"]),
        "liouville.propagations": len(props),
        "liouville.sample_steps": sample_steps,
        "liouville.propagate_s": total(["propagate"]),
        "liouville.divergence_s": total(["divergence"]),
        "liouville.self_s": self_of("liouville"),
        "liouville.rhs_calls_per_step": _div(len(rhs), steps),
        "liouville.live_frac": _div(sum(p.get("live", 0) for p in props), sample_steps),
        "transport.lp_calls": len(by_name.get("wasserstein_lp", [])),
        "transport.dirac_calls": len(by_name.get("wasserstein_dirac", [])),
        "transport.score_s": transport_s,
        "transport.score_ms_per_call": _div(transport_s, len(transport)) * 1e3,
        "harness.save_s": total(["save_report"]),
        "harness.bytes_written": rep.bytes_written,
        "harness.self_s": sum(selft[i] for i in by_name.get("run_scenario", [])),
    }


def setup_layer_metrics(spans, idx) -> dict:
    def named(name):
        return [spans[i] for i in idx if spans[i].name == name]

    trims = named("find_trim")
    return {
        "trim.grid_s": sum(s.duration for s in named("trim_grid")),
        "trim.find_trim_calls": len(trims),
        "trim.nfev": sum(s.rows for s in trims),
        "trim.nonconverged": sum(s.info.get("nonconverged", 0) for s in trims),
        "controller.lqr_gain_calls": len(named("lqr_gain")),
        "controller.schedule_s": sum(s.duration for s in named("build_schedule")),
    }


def layer_metrics(tracer: Tracer, reps: list[Rep], speed: float) -> tuple[dict, list]:
    """Per-layer metrics (median over traced scenarios, times scaled by
    `speed` like the end-to-end ones) and notes on counts that differ
    between traced scenarios."""
    spans = tracer.spans
    selft = self_times(spans)
    outer = {layer: set(outermost(spans, layer)) for layer in ("sampling", "transport")}
    by_run: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_run.setdefault(s.run, []).append(i)
    traced = [r for r in reps if r.traced]
    per_rep = [rep_layer_metrics(spans, selft, outer, by_run.get(r.run, []), r) for r in traced]
    notes = [f"{k} differs between traced scenarios: {sorted({m[k] for m in per_rep})}"
             for k, unit in PER_LAYER.items()
             if unit == "count" and k in per_rep[0] and len({m[k] for m in per_rep}) > 1]
    out = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    out.update(setup_layer_metrics(spans, by_run.get("setup", [])))
    out = {k: v * speed if PER_LAYER[k] in TIME_UNITS else v for k, v in out.items()}
    out["trace_overhead_frac"] = (statistics.fmean(r.seconds for r in traced)
                                  / statistics.fmean(r.seconds for r in reps if not r.traced)
                                  - 1.0)
    return out, notes


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256(root: Path) -> str:
    h = sha256()
    for p in sorted((root / "src" / "otrobust").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def machine_stamp(root: Path, seed: int) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": liouville.resolve_workers(None),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
    }


def run_benchmark(root: Path, script: Path, workload: str, seed: int,
                  seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload; returns the full result document."""
    out_root = root / ".perfbench_out" / workload
    out_root.mkdir(parents=True, exist_ok=True)
    # relative, so the report's content hash does not depend on the checkout
    out_rel = Path(".perfbench_out") / workload / "scenario"
    cfg = scenarios.make_config(workload, seed, str(out_rel), smoke=smoke)

    tracer = Tracer() if trace else None
    kernel_s: list[float] = []
    calibration.sample(0.0, kernel_s)
    with tracer or contextlib.nullcontext():
        setup_s, setup = time_setup()
    calibration.sample(setup_s, kernel_s)
    setup_samples = [setup_s]
    probes = 0 if (smoke or trace) else SETUP_PROBES

    reps: list[Rep] = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        # set-up probes are spread over the window, between scenarios
        if len(setup_samples) <= probes and elapsed >= seconds * len(setup_samples) / (probes + 1):
            setup_samples.append(probe_setup_in_child(script))
            calibration.sample(setup_samples[-1], kernel_s)
            continue
        kinds = {r.traced for r in reps}
        enough = kinds == ({False, True} if trace else {False})
        if enough and elapsed >= seconds:
            break
        traced = trace and len(reps) % 2 == 1
        reps.append(run_scenario_once(cfg, setup, root / out_rel, f"rep{len(reps)}",
                                      tracer if traced else None, workload))
        calibration.sample(reps[-1].seconds, kernel_s)

    speed = calibration.speed_factor(kernel_s)
    untraced = [r.seconds for r in reps if not r.traced]
    scenario_s = statistics.fmean(untraced) * speed
    e2e = {
        "setup_s": statistics.median(setup_samples) * speed,
        "scenario_s": scenario_s,
        "sample_steps_per_s": scenarios.sample_steps(cfg) / scenario_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = [r for r in reps if r.problems]
    doc = {
        "workload": workload,
        "trace": int(trace),
        "smoke": smoke,
        "config": cfg.to_dict(),
        "machine": machine_stamp(root, seed),
        "reference_kernel_s": calibration.REFERENCE_KERNEL_S,
        "kernel_samples_s": kernel_s,
        "speed_factor": speed,
        "setup_samples_s": setup_samples,
        "scenario_samples_s": untraced,
        "end_to_end": e2e,
        "attempted": len(reps),
        "failed": len(failed),
        "problems": [p for r in failed for p in r.problems],
        "hash_matches": sum(r.hash_match is True for r in reps),
        "hash_checked": sum(r.hash_match is not None for r in reps),
    }
    if tracer is not None:
        doc["per_layer"], doc["count_notes"] = layer_metrics(tracer, reps, speed)
        doc["traced_samples_s"] = [r.seconds for r in reps if r.traced]
        spans_path = out_root / f"spans-seed{seed}.jsonl"
        tracer.write(spans_path)
        doc["spans_file"] = str(spans_path.relative_to(root))
    with open(out_root / f"result-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(doc, f, indent=1)
    return doc


def print_report(doc: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    trace = bool(doc["trace"])
    print(f"workload {doc['workload']}  seed {doc['machine']['seed']}  trace {doc['trace']}")
    print("machine " + json.dumps(doc["machine"], sort_keys=True))
    samples = {"setup_s": doc["setup_samples_s"], "scenario_s": doc["scenario_samples_s"]}
    for name, value in doc["end_to_end"].items():
        line = f"  {name:<34s} {value:14.6g} {END_TO_END[name]}"
        if name in samples:
            wall = samples[name]
            stat = "mean" if name == "scenario_s" else "median"
            line += (f"  {stat} of {len(wall)}; wall clock: median "
                     f"{statistics.median(wall):.6g} s")
            tail = tail_percentile(wall)
            line += f", p{tail[0]:g} {tail[1]:.6g}" if tail else ", no tail percentile (< 20 runs)"
        print(line)
    print(f"  (times are wall clock x {doc['speed_factor']:.6g}: the reference "
          f"{doc['reference_kernel_s']:g} s over the mean of "
          f"{len(doc['kernel_samples_s'])} calibration kernel runs)")
    print(f"  {'failed_frac':<34s} {doc['failed'] / doc['attempted']:14.6g} frac"
          f"  ({doc['failed']} of {doc['attempted']} scenarios)")
    if doc["hash_checked"]:
        print(f"  content hash matches reference in {doc['hash_matches']} of "
              f"{doc['hash_checked']} scenarios (not a failure)")
    if trace:
        for name, value in doc["per_layer"].items():
            print(f"  {name:<34s} {value:14.6g} {PER_LAYER[name]}")
        print("  (liouville.live_frac is approximate: live samples taken at emit times; "
              "no layer waits on another, so no wait times are reported)")
        for note in doc["count_notes"]:
            print(f"  note: {note}")
    for p in doc["problems"]:
        print("  FAILED CHECK: " + p.replace("\n", "\n    "))
    names = PER_LAYER if trace else END_TO_END
    values = doc["per_layer"] if trace else doc["end_to_end"]
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": float(values[k]), "unit": names[k]} for k in names},
    }))
