import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from otrobust.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from otrobust.harness import read_snapshot_csv


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
    sched = tmp_path / "sched.json"
    code, out, _ = run_cli(capsys, "schedule", "--trims", str(trims),
                           "--out", str(sched))
    assert code == EXIT_OK
    doc = json.loads(sched.read_text())
    assert np.asarray(doc["K"]).shape == (2, 2, 2, 4)
    assert np.all(np.asarray(doc["abscissa_closed"]) < 0)


def test_propagate_and_wasserstein(capsys, tmp_path):
    cfg = {"kind": "ic", "controller": "lqr", "samples": 10, "t_f": 0.5,
           "dt": 0.01, "emit_every": 25, "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "snaps"
    code, out, _ = run_cli(capsys, "propagate", "--scenario", str(cfg_path),
                           "--out", str(out_dir))
    assert code == EXIT_OK
    snap_csv = out_dir / "lqr.csv"
    assert snap_csv.exists()

    trim_json = tmp_path / "trim.json"
    code, out, _ = run_cli(capsys, "trim", "--V", "407.8942", "--alpha-deg", "6.1650")
    trim_json.write_text(out)

    w_csv = tmp_path / "W.csv"
    code, _, _ = run_cli(capsys, "wasserstein", "--a", str(snap_csv),
                         "--dirac-at", str(trim_json), "--out", str(w_csv))
    assert code == EXIT_OK
    lines = w_csv.read_text().splitlines()
    assert lines[0] == "t,W"
    assert len(lines) == 4  # t = 0, 0.25, 0.5

    # two-cloud transportation LP route with plan export
    plan_csv = tmp_path / "plan.csv"
    code, _, _ = run_cli(capsys, "wasserstein", "--a", str(snap_csv),
                         "--b", str(snap_csv), "--plan", str(plan_csv),
                         "--out", str(tmp_path / "W2.csv"))
    assert code == EXIT_OK
    w2 = [float(r.split(",")[1]) for r in
          (tmp_path / "W2.csv").read_text().splitlines()[1:]]
    assert all(abs(v) < 1e-9 for v in w2)  # identical clouds
    assert plan_csv.read_text().splitlines()[0] == "i,j,mass"


def test_propagate_per_time_files(capsys, tmp_path):
    cfg = {"kind": "ic", "controller": "lqr", "samples": 6, "t_f": 0.2,
           "dt": 0.01, "emit_every": 10, "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "pertime"
    code, _, _ = run_cli(capsys, "propagate", "--scenario", str(cfg_path),
                         "--out", str(out_dir), "--per-time")
    assert code == EXIT_OK
    assert len(list(out_dir.glob("lqr_t*.csv"))) == 3
    assert (out_dir / "lqr_t0000.10.csv").exists()  # the two-decimal names stay


def test_propagate_per_time_files_at_a_fine_cadence(capsys, tmp_path):
    # Emitted every 1 ms: two decimals would give 7 snapshots only 2 names.
    cfg = {"kind": "ic", "controller": "lqr", "samples": 4, "t_f": 0.006,
           "dt": 0.001, "emit_every": 1, "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "pertime"
    code, out, _ = run_cli(capsys, "propagate", "--scenario", str(cfg_path),
                           "--out", str(out_dir), "--per-time")
    assert code == EXIT_OK and "7 snapshots" in out
    files = sorted(out_dir.glob("lqr_t*.csv"))
    assert len(files) == 7
    for k, path in enumerate(files):
        (snap,) = read_snapshot_csv(path)
        assert snap.t == pytest.approx(0.001 * k, abs=1e-12)
        assert path.name == f"lqr_t{snap.t:08.3f}.csv"


def test_freq_subcommand(capsys, tmp_path):
    out = tmp_path / "freq.csv"
    code, _, err = run_cli(capsys, "freq", "--points", "50", "--out", str(out))
    assert code == EXIT_OK
    assert "peak gain at omega" in err
    rows = out.read_text().splitlines()
    assert rows[0] == "omega_rad_s,gain_db"
    assert len(rows) == 51


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


def test_bad_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "bogus"}')
    code, _, err = run_cli(capsys, "scenario", "--config", str(bad))
    assert code == EXIT_CONFIG
    assert "error" in err


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


@pytest.mark.parametrize("doc, field", [({"V": 500}, "theta_deg"), ([1, 2], "JSON object"),
                                        ({**GOOD_TRIM, "T": "heavy"}, "T")])
def test_dirac_at_malformed_trim_exits_2(capsys, tmp_path, doc, field):
    trim_json = tmp_path / "t.json"
    trim_json.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "wasserstein", "--a", str(_good_snapshot(tmp_path)),
                           "--dirac-at", str(trim_json))
    assert code == EXIT_CONFIG
    assert str(trim_json) in err and field in err


def test_trim_unknown_parameter_exits_2(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"mass": 3}')
    code, _, err = run_cli(capsys, "trim", "--V", "500", "--alpha-deg", "2", "--params", str(p))
    assert code == EXIT_CONFIG
    assert str(p) in err and "'mass'" in err


def test_trim_altitude_past_density_model_exits_2(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"h": 200000}')
    code, _, err = run_cli(capsys, "trim", "--V", "500", "--alpha-deg", "2", "--params", str(p))
    assert code == EXIT_CONFIG
    assert str(p) in err and "h must be below" in err


def test_trim_malformed_tables_exit_2(capsys, tmp_path):
    t = tmp_path / "tables.json"
    t.write_text('{"CX": [[1]]}')
    code, _, err = run_cli(capsys, "trim", "--V", "500", "--alpha-deg", "2", "--tables", str(t))
    assert code == EXIT_CONFIG
    assert str(t) in err and "'alpha_breakpoints_deg'" in err


def test_schedule_trim_missing_field_exits_2(capsys, tmp_path):
    trims = tmp_path / "s.json"
    trims.write_text('[{"theta_deg": 1}]')
    code, _, err = run_cli(capsys, "schedule", "--trims", str(trims),
                           "--out", str(tmp_path / "o.json"))
    assert code == EXIT_CONFIG
    assert str(trims) in err and "'V'" in err


def test_schedule_empty_trim_list_exits_2(capsys, tmp_path):
    trims = tmp_path / "s.json"
    trims.write_text("[]")
    out = tmp_path / "o.json"
    code, _, err = run_cli(capsys, "schedule", "--trims", str(trims), "--out", str(out))
    assert code == EXIT_CONFIG
    assert "at least one trim point" in err and not out.exists()


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
@example(trim_doc=GOOD_TRIM, weights="mass",
         body=SNAPSHOT_HEADER + "\n0,0,1,400,5,0,1,1e308,0\n0,1,3,410,7,1,1,1e308,0\n")
@given(trim_doc=_trim_docs(), body=_snapshot_bodies(),
       weights=st.sampled_from(["density", "mass"]))
def test_dirac_at_exit_codes_on_malformed_inputs(trim_doc, body, weights):
    with tempfile.TemporaryDirectory() as d:
        snap, trim_json = Path(d) / "a.csv", Path(d) / "t.json"
        snap.write_text(body)
        trim_json.write_text(json.dumps(trim_doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["wasserstein", "--a", str(snap), "--dirac-at", str(trim_json),
                         "--weights", weights])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
