import importlib.util
import json
import sys
from pathlib import Path

import pytest

from otrobust import harness

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_scenario_script(monkeypatch, capsys, *argv):
    spec = importlib.util.spec_from_file_location("run_scenario", SCRIPTS / "run_scenario.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["run_scenario.py", *argv])
    code = module.main()
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "ic.json"
    path.write_text(json.dumps({"kind": "ic", "controller": "lqr", "samples": 4,
                                "t_f": 0.02, "dt": 0.01, "output_dir": str(tmp_path / "out")}))
    return path


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_run_scenario_rejects_a_non_positive_sample_override(monkeypatch, capsys, config,
                                                             tmp_path, samples):
    code, out, err = run_scenario_script(monkeypatch, capsys, str(config), "--samples", samples)
    assert code == 2
    assert out == "" and "samples must be positive" in err
    assert not (tmp_path / "out").exists()


def test_run_scenario_applies_overrides_and_prints_its_summary(monkeypatch, capsys, config,
                                                               tmp_path):
    out_dir = tmp_path / "elsewhere"
    code, out, _ = run_scenario_script(monkeypatch, capsys, str(config), "--samples", "3",
                                       "--out", str(out_dir))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ic scenario (3 samples, 1 controllers) finished in ")
    assert lines[1].startswith(f"outputs in {out_dir} (content hash ")
    assert lines[2].startswith("  lqr ") and "W(0)=" in lines[2] and "W(t_f)=" in lines[2]
    assert (out_dir / "report.json").is_file() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon", [{"t_f": 1e308, "dt": 1e-308}, {"t_f": 0.001, "dt": 0.01}])
def test_run_scenario_rejects_a_horizon_without_a_step_count(monkeypatch, capsys, config,
                                                             tmp_path, horizon):
    config.write_text(json.dumps({**json.loads(config.read_text()), **horizon}))
    code, out, err = run_scenario_script(monkeypatch, capsys, str(config))
    assert code == 2
    assert out == "" and "step count" in err
    assert not (tmp_path / "out").exists()


def test_run_scenario_names_a_malformed_workers_variable(monkeypatch, capsys, config,
                                                         tmp_path, setup):
    monkeypatch.setattr(harness, "build_controllers", lambda **kw: setup)
    monkeypatch.setenv("OTROBUST_WORKERS", "two")
    code, out, err = run_scenario_script(monkeypatch, capsys, str(config))
    assert code == 2
    assert out == "" and "OTROBUST_WORKERS" in err and "'two'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_run_scenario_rejects_a_non_positive_workers_variable(monkeypatch, capsys, config,
                                                              tmp_path, setup, value):
    monkeypatch.setattr(harness, "build_controllers", lambda **kw: setup)
    monkeypatch.setenv("OTROBUST_WORKERS", value)
    code, out, err = run_scenario_script(monkeypatch, capsys, str(config))
    assert code == 2
    assert out == "" and "OTROBUST_WORKERS must be at least 1" in err
    assert not (tmp_path / "out").exists()


# Bounds whose box volume overflows, and bounds whose volume underflows to zero;
# the error names the widest entry of the one and the narrowest of the other.
@pytest.mark.parametrize("box, entry", [
    ({k: [-1e300, 1e300] for k in harness.DEFAULT_IC_BOX_DEG}, "ic_box_deg['V']"),
    ({"theta": [0, 1e-14], "V": [0, 1e-10], "alpha": [0, 1e-14], "q": [0, 1e-300]},
     "ic_box_deg['q']")],
    ids=["overflow", "underflow"])
def test_run_scenario_rejects_an_ic_box_without_a_finite_positive_volume(
        monkeypatch, capsys, config, tmp_path, setup, box, entry):
    monkeypatch.setattr(harness, "build_controllers", lambda **kw: setup)
    config.write_text(json.dumps({**json.loads(config.read_text()), "ic_box_deg": box}))
    code, out, err = run_scenario_script(monkeypatch, capsys, str(config))
    assert code == 2
    assert out == "" and "box volume" in err
    assert entry in err
    assert not (tmp_path / "out").exists()


def test_run_scenario_names_an_ic_box_entry_that_rounds_away_at_trim(monkeypatch, capsys,
                                                                     config, tmp_path, setup):
    monkeypatch.setattr(harness, "build_controllers", lambda **kw: setup)
    box = {**harness.DEFAULT_IC_BOX_DEG, "V": [0, 1e-14]}
    config.write_text(json.dumps({**json.loads(config.read_text()), "ic_box_deg": box}))
    code, out, err = run_scenario_script(monkeypatch, capsys, str(config))
    assert code == 2
    assert out == "" and "ic_box_deg['V']" in err and "not strictly ordered" in err
    assert not (tmp_path / "out").exists()


def test_run_scenario_rejects_a_degenerate_ic_box_before_the_schedule_is_built(
        monkeypatch, capsys, config, tmp_path):
    # the real set-up, with the gain schedule's trim grid and synthesis
    # refused: the box is checked right after the nominal trim
    def refuse(*args, **kwargs):
        raise AssertionError("the gain schedule was built")
    monkeypatch.setattr(harness, "trim_grid", refuse)
    monkeypatch.setattr(harness, "build_schedule", refuse)
    box = {**harness.DEFAULT_IC_BOX_DEG, "V": [0, 1e-14]}
    config.write_text(json.dumps({**json.loads(config.read_text()), "controller": "both",
                                  "ic_box_deg": box}))
    code, out, err = run_scenario_script(monkeypatch, capsys, str(config))
    assert code == 2
    assert out == "" and "ic_box_deg['V']" in err and "not strictly ordered" in err
    assert not (tmp_path / "out").exists()
