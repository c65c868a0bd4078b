import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from otrobust.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from otrobust.f16 import AircraftParams
from otrobust.harness import DEFAULT_IC_BOX_DEG, build_controllers, read_snapshot_csv
from otrobust.trim import TrimPoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trim_subcommand(capsys):
    code, out, _ = run_cli(capsys, "trim", "--V", "407.8942", "--alpha-deg", "6.1650")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["theta_deg"] == pytest.approx(2.8190, abs=0.3)
    assert doc["T"] == pytest.approx(1000.0, rel=0.05)


def _strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_trim_with_non_finite_residual_exits_3_and_writes_nothing(capsys):
    # At V = 1e-300 the residual overflows to inf, which JSON cannot carry.
    code, out, err = run_cli(capsys, "trim", "--V", "1e-300", "--alpha-deg", "0")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "non-finite value" in err


def test_gains_subcommand(capsys):
    code, out, _ = run_cli(capsys, "gains")
    assert code == EXIT_OK
    doc = json.loads(out)
    K = np.asarray(doc["K"])
    assert K.shape == (2, 4)
    assert doc["closed_loop_abscissa"] < 0.0


def test_trim_grid_and_schedule(capsys, tmp_path):
    trims = tmp_path / "trims.json"
    code, out, _ = run_cli(capsys, "trim-grid", "--nv", "2", "--nalpha", "2",
                           "--out", str(trims))
    assert code == EXIT_OK and "4 trim points" in out
    points = [TrimPoint.from_dict(d) for d in _strict_json(trims.read_text())]
    assert len({(tp.x_trim.V, tp.x_trim.alpha) for tp in points}) == 4


# schedule writes the gain schedule that build_controllers gives the gslqr
# scenarios: the conftest fixture on the nominal plant, and on --params the
# schedule designed on that plant
@pytest.mark.parametrize("plant", [None, {"m": 650.0}], ids=["nominal", "params"])
def test_schedule_writes_the_schedule_the_scenarios_fly(capsys, tmp_path, schedule, plant):
    argv = ["schedule", "--out", str(tmp_path / "s.json")]
    if plant is not None:
        (tmp_path / "p.json").write_text(json.dumps(plant))
        argv += ["--params", str(tmp_path / "p.json")]
        schedule = build_controllers(AircraftParams(**plant)).schedule
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and "100-node schedule" in out
    expected = json.dumps(schedule.to_dict(), indent=1, allow_nan=False)
    assert (tmp_path / "s.json").read_text() == expected
    assert f"worst closed-loop abscissa {schedule.abscissa_closed.max():.4f}" in out


# wasserstein --dirac-at on a scenario's snapshots/ CSV, with the report's own
# nominal trim, reproduces the report's curves exactly: the offline scorer and
# the scenario runner share one score.
@pytest.mark.parametrize("kind,fields,variant", [
    ("ic", {}, ""),
    ("ic", {"sampler": "mcmc"}, ""),
    ("param", {"param_delta_percent": [2.5]}, "delta=2.5"),
    ("param", {"param_delta_percent": [2.5], "sampler": "mcmc"}, "delta=2.5"),
    ("disturbance", {"omega_rad_s": [2.0]}, "omega=2")])
def test_wasserstein_reproduces_the_scenario_report(capsys, tmp_path, monkeypatch, setup,
                                                    kind, fields, variant):
    import otrobust.cli as cli
    monkeypatch.setattr(cli.harness, "build_controllers", lambda *a, **k: setup)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": kind, "controller": "both", "samples": 6,
                                    "t_f": 0.5, "dt": 0.01, "emit_every": 25, "seed": 1,
                                    **fields}))
    out_dir = tmp_path / "report"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == EXIT_OK, err
    doc = json.loads((out_dir / "report.json").read_text())
    trim_json = tmp_path / "trim.json"
    trim_json.write_text(json.dumps(doc["nominal_trim"]))

    def score(snap_csv, weights):
        code, out, err = run_cli(capsys, "wasserstein", "--a", str(snap_csv),
                                 "--dirac-at", str(trim_json), "--weights", weights)
        assert code == EXIT_OK, err
        head, *rows = out.splitlines()
        assert head == "t,W"
        return [[float(v) for v in r.split(",")] for r in rows]

    def snapshot_csv(name):
        return out_dir / "snapshots" / (f"{name}|{variant}.csv" if variant else f"{name}.csv")

    curves = [c for c in doc["curves"] if c["variant"] == variant]
    assert [c["controller"] for c in curves] == ["lqr", "gslqr"]
    for curve in curves:
        snap_csv = snapshot_csv(curve["controller"])
        mass = score(snap_csv, "mass")
        assert [t for t, _ in mass] == curve["t"]  # t = 0, 0.25, 0.5
        if kind == "param":
            assert [w for _, w in mass] == curve["W"]
        else:
            assert [w for _, w in mass] == curve["W_mass"]
            assert [w for _, w in score(snap_csv, "density")] == curve["W"]

    # two-cloud transportation LP route with plan export
    snap_csv = snapshot_csv("lqr")
    plan_csv = tmp_path / "plan.csv"
    code, _, _ = run_cli(capsys, "wasserstein", "--a", str(snap_csv),
                         "--b", str(snap_csv), "--plan", str(plan_csv),
                         "--out", str(tmp_path / "W2.csv"))
    assert code == EXIT_OK
    w2 = [float(r.split(",")[1]) for r in
          (tmp_path / "W2.csv").read_text().splitlines()[1:]]
    assert len(w2) == 3 and all(abs(v) < 1e-9 for v in w2)  # identical clouds
    assert plan_csv.read_text().splitlines()[0] == "i,j,mass"


def test_wasserstein_scores_the_file_as_written(capsys, tmp_path, monkeypatch, setup):
    # The CLI reads a snapshot file's degrees into radians and divides them
    # by the unit table again, which returns the file's numbers, so its rows
    # are the report's W and W_mass bit for bit. Scores of radians times
    # 1 / unit miss those bits at this size, already at t = 0.
    import otrobust.cli as cli
    monkeypatch.setattr(cli.harness, "build_controllers", lambda *a, **k: setup)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kind": "ic", "samples": 24, "t_f": 2.0, "dt": 0.01,
                                    "emit_every": 50, "seed": 0}))
    out_dir = tmp_path / "report"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg_path), "--out", str(out_dir))
    assert code == EXIT_OK, err
    doc = json.loads((out_dir / "report.json").read_text())
    trim_json = tmp_path / "trim.json"
    trim_json.write_text(json.dumps(doc["nominal_trim"]))
    for curve in doc["curves"]:
        for weights, key in (("density", "W"), ("mass", "W_mass")):
            snap_csv = out_dir / "snapshots" / f"{curve['controller']}.csv"
            code, out, err = run_cli(capsys, "wasserstein", "--a", str(snap_csv),
                                     "--dirac-at", str(trim_json), "--weights", weights)
            assert code == EXIT_OK, err
            head, *rows = out.splitlines()
            assert head == "t,W"
            assert [float(r.split(",")[0]) for r in rows] == curve["t"]
            assert [float(r.split(",")[1]) for r in rows] == curve[key], (curve["controller"], key)


def test_freq_subcommand(capsys, tmp_path):
    out = tmp_path / "freq.csv"
    code, _, err = run_cli(capsys, "freq", "--points", "50", "--out", str(out))
    assert code == EXIT_OK
    assert "peak gain at omega" in err
    rows = out.read_text().splitlines()
    assert rows[0] == "omega_rad_s,gain_db"
    assert len(rows) == 51


# --points below 1 leaves no frequency to report: refused before the set-up
@pytest.mark.parametrize("points", ["0", "-1"])
def test_freq_without_points_exits_2_before_any_work(capsys, monkeypatch, points):
    import otrobust.cli as cli

    def refuse(*a, **k):
        pytest.fail("freq built its set-up before checking --points")
    monkeypatch.setattr(cli.harness, "build_controllers", refuse)
    code, out, err = run_cli(capsys, "freq", "--points", points)
    assert code == EXIT_CONFIG and out == ""
    assert f"--points must be at least 1, got {points}" in err


# a grid axis below one node leaves no trim to solve: refused, naming the
# flag, before the model files load and before --out is created
@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--nv", "--nalpha"])
def test_trim_grid_without_nodes_exits_2_before_any_work(capsys, monkeypatch, tmp_path,
                                                         flag, n):
    import otrobust.cli as cli

    def refuse(*a, **k):
        pytest.fail(f"trim-grid loaded the model before checking {flag}")
    monkeypatch.setattr(cli, "_load_params_tables", refuse)
    out = tmp_path / "trims.json"
    # argparse keeps the last value of a repeated flag
    code, stdout, err = run_cli(capsys, "trim-grid", "--nv", "2", "--nalpha", "2", flag, n,
                                "--out", str(out))
    assert code == EXIT_CONFIG and stdout == ""
    assert f"{flag} must be at least 1, got {n}" in err
    assert not out.exists()


def test_scenario_subcommand(capsys, tmp_path):
    cfg = {"kind": "ic", "controller": "lqr", "samples": 8, "t_f": 0.5,
           "dt": 0.01, "emit_every": 25, "seed": 0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "report"
    code, out, _ = run_cli(capsys, "scenario", "--config", str(cfg_path),
                           "--out", str(out_dir))
    assert code == EXIT_OK
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["scenario"] == "ic"
    assert (out_dir / "snapshots" / "lqr.csv").exists()
    head, *curves = out.splitlines()
    assert head == f"report written to {out_dir} (hash {doc['content_hash'][:12]})"
    assert len(curves) == len(doc["curves"]) == 1
    W = doc["curves"][0]["W"]
    assert curves[0] == f"  {'lqr':24s} W(0)={W[0]:8.3f}  W(t_f)={W[-1]:8.4f}"


def test_bad_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "bogus"}')
    code, _, err = run_cli(capsys, "scenario", "--config", str(bad))
    assert code == EXIT_CONFIG
    assert "error" in err


# Malformed scenario configs exit 2 naming the field, before any output.
SMALL_IC = {"kind": "ic", "controller": "lqr", "samples": 4, "t_f": 0.02, "dt": 0.01,
            "emit_every": 1, "seed": 0}
MALFORMED = {
    "samples": {"samples": 2.5},
    "emit_every": {"emit_every": 1.5},
    "x_pert": {"kind": "param", "x_pert": {"theta": 1.0, "alpha": 2.8, "q": 0.0}},
    "workers": {"workers": "two"},
    "param": {"kind": "param", "param_delta_percent": [150]},
    "t_f": {"t_f": 1e308, "dt": 1e-308},  # t_f / dt rounds to infinitely many steps
    "dt": {"t_f": 0.001, "dt": 0.01},     # or to none
    "ic_box_deg": {"ic_box_deg": {"theta": ["a", "b"], "V": [-65, 65],
                                  "alpha": [-20, 50], "q": [-70, 70]}},
    "samples=0": {"samples": 0},
    "samples=-5": {"samples": -5},
}
# what the error says, where the case is not named after it
MALFORMED_ERROR = {"samples=0": "samples must be positive",
                   "samples=-5": "samples must be positive"}


@pytest.mark.parametrize("field", MALFORMED)
def test_malformed_scenario_config_exits_2(capsys, tmp_path, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_IC, **MALFORMED[field]}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_CONFIG
    assert str(cfg) in err and MALFORMED_ERROR.get(field, field) in err
    assert not out.exists()


@pytest.mark.parametrize("fields", [{"kind": "param", "param_delta_percent": [2.5, 2.5000001]},
                                    {"kind": "disturbance", "omega_rad_s": [2.0, 2.0]}])
def test_repeated_sweep_label_exits_2_and_writes_nothing(capsys, tmp_path, fields):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_IC, **fields}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "share the label" in err
    assert not out.exists()


@pytest.mark.parametrize("out", [[], ["--out", ""]], ids=["config", "flag"])
def test_empty_output_dir_exits_2_and_writes_nothing(capsys, tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_IC, "output_dir": ""}))
    code, stdout, err = run_cli(capsys, "scenario", "--config", str(cfg), *out)
    assert code == EXIT_CONFIG and stdout == ""
    assert "output_dir" in err
    assert list(tmp_path.iterdir()) == [cfg]


# The config's output_dir is where a scenario writes, unless --out names another.
@pytest.mark.parametrize("out", [[], ["--out", "elsewhere"]], ids=["config", "flag"])
def test_scenario_writes_to_the_config_or_the_out_directory(capsys, tmp_path, monkeypatch,
                                                            setup, out):
    import otrobust.cli as cli
    monkeypatch.setattr(cli.harness, "build_controllers", lambda *a, **k: setup)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_IC, "output_dir": "from_config"}))
    code, stdout, _ = run_cli(capsys, "scenario", "--config", str(cfg), *out)
    assert code == EXIT_OK
    written = out[-1] if out else "from_config"
    assert stdout.startswith(f"report written to {written} (hash ")
    assert (tmp_path / written / "report.json").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", written])


# Each writing command with one output that cannot be written: under a regular
# file, or (trim-grid-dir) a directory where a file goes. The command must
# refuse before its first expensive call, patched here to fail the test.
UNWRITABLE_OUTPUTS = {
    "scenario": ("--out", "build_controllers", ["scenario", "--config", "cfg.json"]),
    "trim-grid": ("--out", "trim_grid", ["trim-grid", "--nv", "2", "--nalpha", "2"]),
    "trim-grid-dir": ("--out", "trim_grid", ["trim-grid", "--nv", "2", "--nalpha", "2"]),
    "schedule": ("--out", "build_controllers", ["schedule"]),
    "freq": ("--out", "build_controllers", ["freq"]),
    "wasserstein-out": ("--out", "read_snapshot_csv",
                        ["wasserstein", "--a", "ok.csv", "--dirac-at", "t.json"]),
    "wasserstein-plan": ("--plan", "read_snapshot_csv",
                         ["wasserstein", "--a", "ok.csv", "--b", "ok.csv"]),
}


@pytest.mark.parametrize("case", UNWRITABLE_OUTPUTS)
def test_unwritable_output_exits_2_before_any_work(capsys, tmp_path, monkeypatch, case):
    import otrobust.cli as cli
    flag, expensive, argv = UNWRITABLE_OUTPUTS[case]

    def refuse(*a, **k):
        pytest.fail(f"{case} called {expensive} before checking {flag}")
    module = cli.trim if expensive == "trim_grid" else cli.harness
    monkeypatch.setattr(module, expensive, refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(SMALL_IC))
    (tmp_path / "t.json").write_text(json.dumps(GOOD_TRIM))
    _good_snapshot(tmp_path)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    out = "dir" if case == "trim-grid-dir" else str(Path("file") / "out")
    code, stdout, err = run_cli(capsys, *argv, flag, out)
    assert code == EXIT_CONFIG and stdout == ""
    assert err.startswith("error:") and flag in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_malformed_workers_variable_exits_2_naming_it(capsys, tmp_path, monkeypatch, setup):
    import otrobust.cli as cli
    monkeypatch.setattr(cli.harness, "build_controllers", lambda *a, **k: setup)
    monkeypatch.setenv("OTROBUST_WORKERS", "two")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_IC))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "OTROBUST_WORKERS" in err and "'two'" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_workers_variable_exits_2_naming_it(capsys, tmp_path, monkeypatch, setup,
                                                         value):
    import otrobust.cli as cli
    monkeypatch.setattr(cli.harness, "build_controllers", lambda *a, **k: setup)
    monkeypatch.setenv("OTROBUST_WORKERS", value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_IC))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "OTROBUST_WORKERS must be at least 1" in err and f"'{value}'" in err
    assert not out.exists()


# Bounds whose box volume overflows, and bounds whose volume underflows to zero;
# the error names the widest entry of the one and the narrowest of the other.
DEGENERATE_IC_BOXES = {
    "overflow": {k: [-1e300, 1e300] for k in DEFAULT_IC_BOX_DEG},
    "underflow": {"theta": [0, 1e-14], "V": [0, 1e-10], "alpha": [0, 1e-14], "q": [0, 1e-300]},
}
DEGENERATE_IC_BOX_ENTRY = {"overflow": "ic_box_deg['V']", "underflow": "ic_box_deg['q']"}


@pytest.mark.parametrize("box", DEGENERATE_IC_BOXES)
def test_ic_box_without_a_finite_positive_volume_exits_2(capsys, tmp_path, monkeypatch, setup,
                                                         box):
    import otrobust.cli as cli
    monkeypatch.setattr(cli.harness, "build_controllers", lambda *a, **k: setup)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_IC, "ic_box_deg": DEGENERATE_IC_BOXES[box]}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "box volume" in err
    assert DEGENERATE_IC_BOX_ENTRY[box] in err
    assert not out.exists()


def test_ic_box_that_rounds_away_at_trim_exits_2_naming_the_entry(capsys, tmp_path,
                                                                   monkeypatch, setup):
    # a proper interval, but 407.89 ft/s + 1e-14 rounds back to 407.89
    import otrobust.cli as cli
    monkeypatch.setattr(cli.harness, "build_controllers", lambda *a, **k: setup)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_IC, "ic_box_deg": {**DEFAULT_IC_BOX_DEG, "V": [0, 1e-14]}}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "ic_box_deg['V']" in err and "not strictly ordered" in err
    assert not out.exists()


def refuse_the_schedule(monkeypatch, harness):
    """Make the gain schedule's trim grid and synthesis raise: a run that
    reaches either has gone past the nominal trim."""
    def refuse(*args, **kwargs):
        raise AssertionError("the gain schedule was built")
    monkeypatch.setattr(harness, "trim_grid", refuse)
    monkeypatch.setattr(harness, "build_schedule", refuse)


def test_degenerate_ic_box_exits_2_before_the_schedule_is_built(capsys, tmp_path, monkeypatch):
    # the real set-up: the box is checked right after the nominal trim
    import otrobust.cli as cli
    refuse_the_schedule(monkeypatch, cli.harness)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_IC, "controller": "both",
                               "ic_box_deg": {**DEFAULT_IC_BOX_DEG, "V": [0, 1e-14]}}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "ic_box_deg['V']" in err and "not strictly ordered" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scenario_a_one_sample_random_walk_cloud(capsys, tmp_path, monkeypatch, setup, seed):
    import otrobust.cli as cli
    monkeypatch.setattr(cli.harness, "build_controllers", lambda *a, **k: setup)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_IC, "samples": 1, "sampler": "mcmc", "seed": seed}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg), "--out", str(out))
    assert code == EXIT_OK, err
    assert read_snapshot_csv(out / "snapshots" / "lqr.csv")[0].states.shape == (1, 4)


def test_propagate_is_not_a_command(capsys):
    # scenario is the one command that propagates; its snapshots/ feed wasserstein
    with pytest.raises(SystemExit) as exit_:
        main(["propagate", "--config", "cfg.json", "--out", "out"])
    assert exit_.value.code == EXIT_CONFIG
    assert "invalid choice: 'propagate'" in capsys.readouterr().err


# A reader that closes stdout before a command writes (as `| head -0` may)
# wants no more output: the command ends quietly with 0, its files written.
@pytest.mark.parametrize("command", ["trim", "scenario"])
def test_closed_stdout_exits_0_quietly(tmp_path, command):
    (tmp_path / "cfg.json").write_text(json.dumps(SMALL_IC))
    argv = {"trim": ["trim", "--V", "407.8942", "--alpha-deg", "6.1650"],
            "scenario": ["scenario", "--config", "cfg.json", "--out", "out"]}[command]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "otrobust.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                              cwd=tmp_path, env=env, text=True, timeout=300)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    if command == "scenario":
        assert (tmp_path / "out" / "report.json").is_file()


def test_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "scenario", "--config", "/nonexistent.json")
    assert code == EXIT_CONFIG


def test_numerical_failure_exits_3(capsys, monkeypatch, tmp_path):
    import otrobust.cli as cli
    from otrobust.harness import NumericalFailure

    def boom(args):
        raise NumericalFailure("synthetic blow-up")

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "ic", "samples": 4, "t_f": 0.1,
                               "dt": 0.01, "controller": "lqr"}))
    monkeypatch.setattr(cli.harness, "run_scenario", lambda *a, **k: boom(None))
    code, _, err = run_cli(capsys, "scenario", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in err


def test_snapshot_csv_missing_columns_exits_2(capsys, tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("t,id,theta_deg\n0,0,1.0\n")
    code, _, err = run_cli(capsys, "wasserstein", "--a", str(f), "--b", str(f))
    assert code == EXIT_CONFIG
    assert "lacks columns V, alpha_deg, q_dps, phi, gamma, diverged" in err
    short = tmp_path / "short.csv"
    short.write_text("t,id,theta_deg,V,alpha_deg,q_dps,phi,gamma,diverged\n0,0,1.0,400.0\n")
    code, _, _ = run_cli(capsys, "wasserstein", "--a", str(short), "--b", str(short))
    assert code == EXIT_CONFIG


def test_coupling_over_budget_exits_2(capsys, tmp_path):
    n = 501  # 501^2 coupling entries > DEFAULT_BUDGET
    f = tmp_path / "big.csv"
    f.write_text("t,id,theta_deg,V,alpha_deg,q_dps,phi,gamma,diverged\n" + "".join(
        f"0,{i},1.0,{400.0 + i},5.0,0.0,1.0,{1 / n!r},0\n" for i in range(n)))
    code, _, err = run_cli(capsys, "wasserstein", "--a", str(f), "--b", str(f))
    assert code == EXIT_CONFIG
    assert "coupling size m*n = 251001 exceeds budget" in err


def test_dirac_at_zero_density_exits_3(capsys, tmp_path):
    f = tmp_path / "zero.csv"
    f.write_text("t,id,theta_deg,V,alpha_deg,q_dps,phi,gamma,diverged\n"
                 "0,0,1.0,400.0,5.0,0.0,0.0,0.5,0\n"
                 "0,1,3.0,410.0,7.0,1.0,0.0,0.5,0\n")
    code, out, _ = run_cli(capsys, "trim", "--V", "407.8942", "--alpha-deg", "6.1650")
    trim_json = tmp_path / "trim.json"
    trim_json.write_text(out)
    x = json.loads(out)
    code, _, err = run_cli(capsys, "wasserstein", "--a", str(f),
                             "--dirac-at", str(trim_json))
    assert code == EXIT_NUMERICAL
    assert "density values cannot be normalized" in err
    code, _, _ = run_cli(capsys, "wasserstein", "--a", str(f), "--b", str(f))
    assert code == EXIT_NUMERICAL
    code, out, _ = run_cli(capsys, "wasserstein", "--a", str(f),
                           "--dirac-at", str(trim_json), "--weights", "mass")
    assert code == EXIT_OK
    d2 = [(th - x["theta_deg"]) ** 2 + (V - x["V"]) ** 2 + (a - x["alpha_deg"]) ** 2
          + (q - x["q_dps"]) ** 2
          for th, V, a, q in ((1.0, 400.0, 5.0, 0.0), (3.0, 410.0, 7.0, 1.0))]
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
        np.sqrt(0.5 * sum(d2)), rel=1e-12)


SNAPSHOT_HEADER = "t,id,theta_deg,V,alpha_deg,q_dps,phi,gamma,diverged"
GOOD_TRIM = {"theta_deg": 2.8, "V": 407.9, "alpha_deg": 6.2, "q_dps": 0.0, "T": 1000.0,
             "delta_e_deg": -3.0, "residual": 0.0, "optimality": 0.0, "converged": True,
             "iterations": 10}


def _good_snapshot(tmp_path):
    f = tmp_path / "ok.csv"
    f.write_text(SNAPSHOT_HEADER + "\n0,0,1.0,400.0,5.0,0.0,1.0,0.5,0\n"
                 "0,1,3.0,410.0,7.0,1.0,1.0,0.5,0\n")
    return f


# a str doc is written as it is: "{" is not JSON at all
@pytest.mark.parametrize("doc, field", [({"V": 500}, "theta_deg"), ([1, 2], "JSON object"),
                                        ({**GOOD_TRIM, "T": "heavy"}, "T"),
                                        ("{", "Expecting property name")])
def test_dirac_at_malformed_trim_exits_2(capsys, tmp_path, doc, field):
    trim_json = tmp_path / "t.json"
    trim_json.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, _, err = run_cli(capsys, "wasserstein", "--a", str(_good_snapshot(tmp_path)),
                           "--dirac-at", str(trim_json))
    assert code == EXIT_CONFIG
    assert str(trim_json) in err and field in err


@pytest.mark.parametrize("targets, message", [
    ((), "one of the arguments --b --dirac-at is required"),
    (("--b", "ok.csv", "--dirac-at", "t.json"), "not allowed with argument")],
    ids=["neither", "both"])
def test_wasserstein_takes_exactly_one_of_b_and_dirac_at(capsys, tmp_path, monkeypatch,
                                                         targets, message):
    monkeypatch.chdir(tmp_path)
    _good_snapshot(tmp_path)
    (tmp_path / "t.json").write_text(json.dumps(GOOD_TRIM))
    with pytest.raises(SystemExit) as exc:
        main(["wasserstein", "--a", "ok.csv", *targets])
    assert exc.value.code == EXIT_CONFIG
    assert message in capsys.readouterr().err


# a file cut off just before the last field of its last row, and a word
@pytest.mark.parametrize("last_row", ["0,1,3.0,410.0,7.0,1.0,1.0,0.5,",
                                      "0,1,3.0,410.0,7.0,1.0,1.0,0.5,yes\n"],
                         ids=["cut-row", "yes"])
def test_snapshot_csv_unknown_diverged_value_exits_2(capsys, tmp_path, last_row):
    f = tmp_path / "bad.csv"
    f.write_text(SNAPSHOT_HEADER + "\n0,0,1.0,400.0,5.0,0.0,1.0,0.5,0\n" + last_row)
    trim_json = tmp_path / "t.json"
    trim_json.write_text(json.dumps(GOOD_TRIM))
    code, _, err = run_cli(capsys, "wasserstein", "--a", str(f), "--dirac-at", str(trim_json))
    assert code == EXIT_CONFIG
    assert str(f) in err and "diverged" in err


def test_snapshot_csv_row_with_surplus_field_exits_2(capsys, tmp_path):
    # csv.DictReader files a field past the header under the key None
    f = tmp_path / "bad.csv"
    f.write_text(SNAPSHOT_HEADER + "\n0,0,1.0,400.0,5.0,0.0,1.0,0.5,0\n"
                 "0,1,3.0,410.0,7.0,1.0,1.0,0.5,0,7\n")
    trim_json = tmp_path / "t.json"
    trim_json.write_text(json.dumps(GOOD_TRIM))
    code, out, err = run_cli(capsys, "wasserstein", "--a", str(f), "--dirac-at", str(trim_json))
    assert code == EXIT_CONFIG and out == ""
    assert str(f) in err and "more fields than its header" in err


# a row cut off after its V field, and a second row with id 0 at t = 0
@pytest.mark.parametrize("last_row, message", [
    ("0,1,3.0,410.0\n", "a row with fewer fields than its header"),
    ("0,0,3.0,410.0,7.0,1.0,1.0,0.5,0\n", "repeats id 0 at t = 0.0")],
    ids=["short-row", "repeated-id"])
def test_snapshot_csv_malformed_row_exits_2(capsys, tmp_path, last_row, message):
    f = tmp_path / "bad.csv"
    f.write_text(SNAPSHOT_HEADER + "\n0,0,1.0,400.0,5.0,0.0,1.0,0.5,0\n" + last_row)
    trim_json = tmp_path / "t.json"
    trim_json.write_text(json.dumps(GOOD_TRIM))
    code, out, err = run_cli(capsys, "wasserstein", "--a", str(f), "--dirac-at", str(trim_json))
    assert code == EXIT_CONFIG and out == ""
    assert str(f) in err and message in err


# a non-finite state (the score would print nan), a non-finite time (each
# such row would become a snapshot of its own), an unparseable state, a
# non-integer id, and a negative transport mass: with the first row's 1.5 the
# masses sum to one, so only the sign check stops --weights mass scoring it
@pytest.mark.parametrize("header, last_row, error", [
    (SNAPSHOT_HEADER, "0,1,3.0,nan,7.0,1.0,1.0,0.5,0\n", "1 has non-finite V"),
    (SNAPSHOT_HEADER, "nan,1,3.0,410.0,7.0,1.0,1.0,0.5,0\n", "1 has non-finite t"),
    ("t,id,theta_deg,V,alpha_deg,q_dps,m,xcg,Jyy,phi,gamma,diverged",
     "0,1,3.0,410.0,7.0,1.0,inf,0.35,55814.0,1.0,0.5,0\n", "1 has non-finite m"),
    (SNAPSHOT_HEADER, "0,1,3.0,abc,7.0,1.0,1.0,0.5,0\n", "1 has non-numeric V 'abc'"),
    (SNAPSHOT_HEADER, "0,1.5,3.0,410.0,7.0,1.0,1.0,0.5,0\n", "1.5 has non-integer id"),
    (SNAPSHOT_HEADER, "0,1,3.0,410.0,7.0,1.0,1.0,-0.5,0\n", "1 has negative gamma")],
    ids=["V-nan", "t-nan", "m-inf", "V-abc", "id-1.5", "gamma-negative"])
def test_snapshot_csv_non_finite_number_exits_2(capsys, tmp_path, header, last_row, error):
    f = tmp_path / "bad.csv"
    first = "0,0,1.0,400.0,5.0,0.0," + ("637.0,0.35,55814.0," if ",m," in header else "")
    f.write_text(header + "\n" + first + "1.0,1.5,0\n" + last_row)
    trim_json = tmp_path / "t.json"
    trim_json.write_text(json.dumps(GOOD_TRIM))
    code, out, err = run_cli(capsys, "wasserstein", "--a", str(f), "--dirac-at", str(trim_json),
                             "--weights", "mass")
    assert code == EXIT_CONFIG and out == ""
    assert f"snapshot file {f} row id {error}" in err


def test_snapshot_csv_id_gaps_are_accepted(tmp_path):
    f = tmp_path / "gaps.csv"
    f.write_text(SNAPSHOT_HEADER + "\n0,0,1.0,400.0,5.0,0.0,1.0,0.5,0\n"
                 "0,7,3.0,410.0,7.0,1.0,1.0,0.5,0\n")
    (snap,) = read_snapshot_csv(f)
    assert snap.n == 2


def test_wasserstein_rejects_different_snapshot_times(capsys, tmp_path):
    rows = "{t},0,1.0,400.0,5.0,0.0,1.0,0.5,0\n{t},1,3.0,410.0,7.0,1.0,1.0,0.5,0\n"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(SNAPSHOT_HEADER + "\n" + rows.format(t=0) + rows.format(t=1))
    b.write_text(SNAPSHOT_HEADER + "\n" + rows.format(t=0) + rows.format(t=5))
    w_csv = tmp_path / "W.csv"
    code, out, err = run_cli(capsys, "wasserstein", "--a", str(a), "--b", str(b),
                             "--out", str(w_csv))
    assert code == EXIT_CONFIG and out == ""
    assert "t = 1.0" in err and "t = 5.0" in err
    assert not w_csv.exists()


def test_plan_without_b_exits_2(capsys, tmp_path):
    # --dirac-at solves no transport LP, so there is no plan to write
    trim_json = tmp_path / "t.json"
    trim_json.write_text(json.dumps(GOOD_TRIM))
    plan = tmp_path / "plan.csv"
    code, out, err = run_cli(capsys, "wasserstein", "--a", str(_good_snapshot(tmp_path)),
                             "--dirac-at", str(trim_json), "--plan", str(plan))
    assert code == EXIT_CONFIG and out == ""
    assert "--plan" in err and not plan.exists()


# Every command that takes --params / --tables, up to those options; each
# writer writes to "out", which a refused model file must leave unmade.
MODEL_COMMANDS = {
    "trim": ["trim", "--V", "500", "--alpha-deg", "2"],
    "trim-grid": ["trim-grid", "--nv", "2", "--nalpha", "2", "--out", "out"],
    "gains": ["gains"],
    "schedule": ["schedule", "--out", "out"],
    "freq": ["freq", "--out", "out"],
    "scenario": ["scenario", "--config", "cfg.json", "--out", "out"],
}


def _model_argv(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(SMALL_IC))
    return MODEL_COMMANDS[command]


@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_trim_unknown_parameter_exits_2(capsys, tmp_path, monkeypatch, command):
    p = tmp_path / "p.json"
    p.write_text('{"mass": 3}')
    code, _, err = run_cli(capsys, *_model_argv(tmp_path, monkeypatch, command),
                           "--params", str(p))
    assert code == EXIT_CONFIG
    assert str(p) in err and "'mass'" in err
    assert not (tmp_path / "out").exists()


def test_trim_altitude_past_density_model_exits_2(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"h": 200000}')
    code, _, err = run_cli(capsys, "trim", "--V", "500", "--alpha-deg", "2", "--params", str(p))
    assert code == EXIT_CONFIG
    assert str(p) in err and "h must be below" in err


def test_trim_at_an_absurd_air_density_is_not_converged(capsys, tmp_path):
    # the residual overflows and zeroes the slope of the solver's step
    p = tmp_path / "p.json"
    p.write_text('{"rho0": 1.957318894963978e+50}')
    code, out, _ = run_cli(capsys, "trim", "--V", "50", "--alpha-deg", "0", "--params", str(p))
    assert code == EXIT_OK
    assert _strict_json(out)["converged"] is False


@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_trim_malformed_tables_exit_2(capsys, tmp_path, monkeypatch, command):
    t = tmp_path / "tables.json"
    t.write_text('{"CX": [[1]]}')
    code, _, err = run_cli(capsys, *_model_argv(tmp_path, monkeypatch, command),
                           "--tables", str(t))
    assert code == EXIT_CONFIG
    assert str(t) in err and "'alpha_breakpoints_deg'" in err
    assert not (tmp_path / "out").exists()


# A model file that is not JSON at all exits 2 naming the file, as one with a
# bad field does.
@pytest.mark.parametrize("option", ["--params", "--tables"])
@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_model_file_that_is_not_json_exits_2_naming_it(capsys, tmp_path, monkeypatch,
                                                       command, option):
    bad = tmp_path / "model.json"
    bad.write_text("{")
    code, out, err = run_cli(capsys, *_model_argv(tmp_path, monkeypatch, command),
                             option, str(bad))
    assert code == EXIT_CONFIG and out == ""
    assert str(bad) in err and "Expecting property name" in err
    assert not (tmp_path / "out").exists()


def _heavier_plant(tmp_path, option):
    """--params: a heavier aircraft; --tables: the shipped tables with less
    lift at every entry. Either moves the nominal trim."""
    if option == "--params":
        doc = {"m": 650.0}
    else:
        doc = json.loads((Path(__file__).resolve().parents[1] / "src" / "otrobust" / "data"
                          / "f16_aero_tables.json").read_text())
        doc["CZ"] = (np.asarray(doc["CZ"]) * 0.98).tolist()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return [option, str(path)]


@pytest.mark.parametrize("option", ["--params", "--tables"])
def test_scenario_flies_the_plant_of_its_params(capsys, tmp_path, option):
    # the set-up is trimmed and designed on --params / --tables, as otrobust trim is
    model = _heavier_plant(tmp_path, option)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_IC))
    trims = {}
    for name, argv in (("nominal", []), ("changed", model)):
        code, _, err = run_cli(capsys, "scenario", "--config", str(cfg),
                               "--out", str(tmp_path / name), *argv)
        assert code == EXIT_OK, err
        trims[name] = json.loads((tmp_path / name / "report.json").read_text())["nominal_trim"]
    code, out, _ = run_cli(capsys, "trim", "--V", "407.8942", "--alpha-deg", "6.1650", *model)
    assert code == EXIT_OK
    assert trims["changed"] == json.loads(out)
    assert trims["changed"] != trims["nominal"]


_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30),
                          st.floats(), st.text(max_size=4))
_cells = st.one_of(st.sampled_from(["0", "1", "-1", "0.5", "", "nan", "inf", "-inf",
                                    "1e308", "True", "x"]),
                   st.floats().map(repr), st.integers(-3, 3).map(str))


@st.composite
def _trim_docs(draw):
    if draw(st.booleans()):
        return draw(st.one_of(_json_scalars, st.lists(_json_scalars, max_size=3)))
    doc = {k: v for k, v in GOOD_TRIM.items() if draw(st.booleans()) or k == "V"}
    doc.update(draw(st.dictionaries(st.sampled_from(sorted(GOOD_TRIM) + ["extra"]),
                                    _json_scalars, max_size=3)))
    return doc


@st.composite
def _snapshot_bodies(draw):
    columns = SNAPSHOT_HEADER.split(",")
    header = draw(st.one_of(st.just(columns), st.lists(st.sampled_from(columns + ["m"]),
                                                        max_size=10)))
    rows = draw(st.lists(st.lists(_cells, min_size=max(len(header) - 1, 0),
                                  max_size=len(header) + 1), max_size=4))
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


@settings(max_examples=40, deadline=None)
@example(trim_doc=GOOD_TRIM, weights="mass", route="--dirac-at",
         body=SNAPSHOT_HEADER + "\n0,0,1,400,5,0,1,1e308,0\n0,1,3,410,7,1,1,1e308,0\n")
@example(trim_doc=GOOD_TRIM, weights="density", route="--b",
         body=SNAPSHOT_HEADER + "\n0,0,1,400,5,0,1,0.5,0\n0,1,3,410,7,1,1,0.5,0\n")
@given(trim_doc=_trim_docs(), body=_snapshot_bodies(),
       weights=st.sampled_from(["density", "mass"]), route=st.sampled_from(["--dirac-at", "--b"]))
def test_dirac_at_exit_codes_on_malformed_inputs(trim_doc, body, weights, route):
    # route "--b" scores the snapshot file against itself with the LP
    with tempfile.TemporaryDirectory() as d:
        snap, trim_json = Path(d) / "a.csv", Path(d) / "t.json"
        snap.write_text(body)
        trim_json.write_text(json.dumps(trim_doc))
        other = trim_json if route == "--dirac-at" else snap
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["wasserstein", "--a", str(snap), route, str(other),
                         "--weights", weights])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)


def _quiet_main(argv):
    """(exit code, stdout) of the CLI, its stderr discarded."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


_param_docs = st.one_of(st.none(), _json_scalars, st.dictionaries(
    st.sampled_from(["m", "xcg", "Jyy", "h", "rho0", "mass"]), _json_scalars, max_size=2))


@settings(max_examples=30, deadline=None)
@example(V=407.9, alpha=6.2, params={"h": -1e308})
@given(V=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1e308]),
                   st.floats(50.0, 1e6)),
       alpha=st.floats(), params=_param_docs)
def test_trim_exit_codes(V, alpha, params):
    # Small positive V is left to the explicit test above: a trim below
    # about 10 ft/s can take over a second.
    with tempfile.TemporaryDirectory() as d:
        argv = ["trim", f"--V={V!r}", f"--alpha-deg={alpha!r}"]
        if params is not None:
            path = Path(d) / "params.json"
            path.write_text(json.dumps(params))
            argv += ["--params", str(path)]
        code, out = _quiet_main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if code == EXIT_OK:
        assert _strict_json(out)["V"] == V
    else:
        assert out == ""


_TINY_CONFIG = {"kind": "ic", "controller": "lqr", "samples": 3, "t_f": 0.03, "dt": 0.01,
                "emit_every": 1, "seed": 0}
_bad_numbers = st.sampled_from([0.0, -1.0, math.nan, math.inf, "1", None, True])
# Tiny or malformed values only: no more than 4 samples, 5 steps and one worker.
_config_fields = {
    "kind": st.sampled_from(["ic", "param", "disturbance", "bogus", None]),
    "controller": st.sampled_from(["lqr", "LQR", 3]),
    "samples": st.one_of(st.integers(-1, 4), _bad_numbers, st.just(2.5)),
    "t_f": st.one_of(st.sampled_from([0.01, 0.02, 0.05]), _bad_numbers),
    "dt": st.one_of(st.sampled_from([0.01, 0.02, 0.05, 1.0]), _bad_numbers),
    "emit_every": st.one_of(st.integers(-1, 3), st.just(1.5)),
    "seed": st.one_of(st.integers(-2, 3), _bad_numbers),
    "sampler": st.sampled_from(["halton", "mcmc", "grid"]),
    "workers": st.sampled_from([None, 1, 0, "two", 1.5]),
    "strict_rk4": st.sampled_from([False, True, "yes"]),
    "x_pert_units": st.sampled_from(["deg", "rad", "grad"]),
    "x_pert": st.one_of(st.dictionaries(st.sampled_from(["theta", "V", "alpha", "q"]),
                                        st.floats(-100, 100), min_size=3), _json_scalars),
    "ic_box_deg": st.one_of(
        st.just(DEFAULT_IC_BOX_DEG),
        st.fixed_dictionaries({k: st.lists(st.floats(), min_size=1, max_size=3)
                               for k in DEFAULT_IC_BOX_DEG}),
        _json_scalars),
    "param_delta_percent": st.one_of(
        st.lists(st.sampled_from([0.0, 2.5, 15.0, -5.0, 1e308, math.nan, "x"]), max_size=2),
        _bad_numbers, st.just(5.0)),
    "omega_rad_s": st.one_of(
        st.lists(st.sampled_from([0.0, 2.0, 100.0, -1.0, 1e308, math.nan, "x"]), max_size=2),
        _bad_numbers, st.just(2.0)),
    "disturbance_amp_deg": st.one_of(st.sampled_from([6.5, 1e308]), _bad_numbers),
    "bogus": _json_scalars,
}


@st.composite
def _scenario_docs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(_json_scalars, st.lists(_json_scalars, max_size=2)))
    return {**_TINY_CONFIG, **draw(st.fixed_dictionaries({}, optional=_config_fields))}


@settings(max_examples=60, deadline=None)
@example(doc=_TINY_CONFIG)
@example(doc={**_TINY_CONFIG, "kind": "param", "param_delta_percent": [0.0, 2.5]})
@given(doc=_scenario_docs())
def test_scenario_exit_codes(doc):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cfg.json"
        path.write_text(json.dumps(doc))
        code, _ = _quiet_main(["scenario", "--config", str(path), "--out", str(Path(d) / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
