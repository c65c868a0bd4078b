import copy
import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import dominant_frequency, mc_compare, weighted_mean
from otrobust import harness, liouville
from otrobust.controller import LinearModel, LqrWeights
from otrobust.f16 import DEG, STATE_UNITS, AircraftParams, ClosedLoop, SineDisturbance
from otrobust.harness import (
    ConfigError,
    NumericalFailure,
    ScenarioConfig,
    _param_cloud,
    _x_pert_internal,
    freq_response,
    in_reporting_units,
    probability_weights,
    read_snapshot_csv,
    run_scenario,
    write_snapshot_csv,
)
from otrobust.liouville import EnsembleSnapshot, propagate
from otrobust.sampling import BoxDomain
from otrobust.transport import (
    DiscreteDistribution,
    extended_wasserstein,
    wasserstein_dirac,
    wasserstein_lp,
)


def mini_cfg(**kw):
    base = dict(kind="ic", samples=24, t_f=2.0, dt=0.01, emit_every=50, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(kind="nope")
    with pytest.raises(ConfigError):
        ScenarioConfig(kind="ic", controller="pid")
    with pytest.raises(ConfigError):
        ScenarioConfig(kind="ic", t_f=-1.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(kind="ic", ic_box_deg={"theta": [1, -1], "V": [-1, 1],
                                              "alpha": [-1, 1], "q": [-1, 1]})
    box = {"theta": [-1, 1], "V": [-1, 1], "alpha": [-1, 1]}
    for fields in [{"seed": True}, {"seed": 1.0}, {"samples": "8"}, {"workers": 0},
                   {"workers": 1.5}, {"t_f": float("inf")}, {"dt": "0.01"},
                   {"disturbance_amp_deg": float("nan")}, {"strict_rk4": "false"},
                   {"output_dir": 5}, {"output_dir": ""}, {"x_pert": [1.0, 5.0, 2.8, 0.0]},
                   {"x_pert": {"theta": 1.0, "V": "5", "alpha": 2.8, "q": 0.0}},
                   {"ic_box_deg": {**box, "q": -70}},
                   {"ic_box_deg": {**box, "q": [-1, True]}},
                   {"kind": "param", "param_delta_percent": []},
                   {"kind": "param", "param_delta_percent": ["2.5"]},
                   {"kind": "param", "param_delta_percent": [150]},
                   {"kind": "param", "param_delta_percent": [-5]},
                   {"kind": "disturbance", "omega_rad_s": []},
                   {"kind": "param", "param_delta_percent": True},
                   {"kind": "disturbance", "omega_rad_s": False},
                   {"t_f": 1e308, "dt": 1e-308}, {"t_f": 0.001, "dt": 0.01}]:
        with pytest.raises(ConfigError):
            ScenarioConfig(**{"kind": "ic", **fields})


def test_config_json_roundtrip(tmp_path):
    cfg = mini_cfg(controller="lqr")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = ScenarioConfig.from_json(path)
    assert again == cfg


def test_config_scalar_lists_normalized():
    cfg = ScenarioConfig(kind="param", param_delta_percent=2.5)
    assert cfg.param_delta_percent == [2.5]
    cfg2 = ScenarioConfig(kind="disturbance", omega_rad_s=2)
    assert cfg2.omega_rad_s == [2.0]


REPEATED_LABELS = [({"kind": "param", "param_delta_percent": [2.5, 2.5000001]}, "'2.5'"),
                   ({"kind": "disturbance", "omega_rad_s": [2.0, 2.0]}, "'2'")]


@pytest.mark.parametrize("fields, label", REPEATED_LABELS)
def test_repeated_sweep_labels_are_a_config_error(fields, label):
    # two entries with one f"{v:g}" label would give two curves, extremes
    # and snapshot files of one name, the second overwriting the first
    with pytest.raises(ConfigError, match=label):
        ScenarioConfig(**fields)


def test_freq_response_scalar_analytic():
    model = LinearModel(A=np.array([[-1.0]]), B=np.array([[0.0, 1.0]]))
    grid = np.logspace(-2, 2, 60)
    gains_db, peak = freq_response(model, grid)
    expect = 20 * np.log10(1.0 / np.sqrt(1.0 + grid ** 2))
    assert np.max(np.abs(gains_db - expect)) < 1e-10
    assert np.all(np.diff(gains_db) < 0)
    assert peak == grid[0]
    g0, _ = freq_response(model, np.array([1e-9]))
    assert g0[0] == pytest.approx(0.0, abs=1e-6)


def test_freq_response_rejects_unstable():
    model = LinearModel(A=np.array([[0.5]]), B=np.array([[0.0, 1.0]]))
    with pytest.raises(NumericalFailure):
        freq_response(model, np.array([1.0]))


def test_dominant_frequency_synthetic():
    t = np.arange(0.0, 30.0, 0.05)
    W = 2.0 + 0.5 * np.sin(2.0 * t) + 0.05 * np.sin(9.0 * t)
    # FFT bin spacing over a 20 s window is ~0.31 rad/s
    assert dominant_frequency(t, W, 10.0, 30.0) == pytest.approx(2.0, abs=0.32)


def test_probability_weights_normalization(rng):
    snap = EnsembleSnapshot.from_cloud(rng.normal(size=(7, 4)),
                                       rng.uniform(0.5, 2.0, 7), np.full(7, 1 / 7))
    w = probability_weights(snap)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0)


@pytest.fixture(scope="module")
def ic_report(setup):
    cfg = mini_cfg()
    return cfg, run_scenario(cfg, setup=setup, keep_snapshots=True)


class TestMiniScenarios:
    def test_curves_and_hash_reproducible(self, setup, ic_report):
        cfg, rep = ic_report
        t, W = rep.curve("lqr")
        assert t[0] == 0.0 and t[-1] == pytest.approx(2.0)
        assert np.all(W >= 0)
        rep2 = run_scenario(cfg, setup=setup)
        assert rep2.content_hash == rep.content_hash

    def test_w_matches_snapshot_recompute(self, ic_report, setup):
        cfg, rep = ic_report
        snaps = rep.extras["snapshots"]["lqr"]
        t, W = rep.curve("lqr")
        ref = setup.trim.x_trim.as_array() / STATE_UNITS
        for k, snap in enumerate(snaps):
            again = wasserstein_dirac(in_reporting_units(snap), ref,
                                      weights=probability_weights(snap))
            assert W[k] == again

    def test_initial_W_equals_mass_weighted(self, ic_report):
        cfg, rep = ic_report
        for c in rep.curves:
            assert c["W"][0] == pytest.approx(c["W_mass"][0], rel=1e-12)

    def test_extremes_recorded(self, ic_report):
        cfg, rep = ic_report
        assert len(rep.extremes["lqr"]) == len(rep.curve("lqr")[0])

    def test_run_section_is_outside_the_content_hash(self, ic_report):
        cfg, rep = ic_report
        again = copy.deepcopy(rep)
        again.run.update(workers=7, output_dir="elsewhere", added={"any": [1.0]})
        assert again.finalize().content_hash == rep.content_hash
        again.curves[0]["W"][-1] = math.nextafter(again.curves[0]["W"][-1], math.inf)
        assert again.finalize().content_hash != rep.content_hash

    def test_report_persistence(self, ic_report, setup, tmp_path, monkeypatch):
        monkeypatch.delenv("OTROBUST_WORKERS", raising=False)
        cfg, base = ic_report
        out = tmp_path / "run"
        cfg2 = ScenarioConfig(**{**cfg.to_dict(), "output_dir": str(out)})
        rep = run_scenario(cfg2, setup=setup, keep_snapshots=True)
        assert (out / "report.json").exists()
        assert (out / "W.csv").exists()
        assert (out / "snapshots" / "lqr.csv").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["content_hash"] == rep.content_hash
        # the output directory and the worker count the run used (1 with
        # workers unset) are echoed under run, which the content hash leaves
        # out; the marginals live in the snapshots
        assert doc["run"] == {"workers": 1, "output_dir": str(out)}
        assert not {"workers", "output_dir"} & set(doc["config"])
        assert "histograms" not in doc
        assert rep.content_hash == base.content_hash
        lines = (out / "W.csv").read_text().splitlines()
        assert lines[0] == "t,variant,controller,W"


# Two variants per swept kind: the Monte Carlo oracle integrates every curve.
SWEEP_FIELDS = {"ic": {}, "param": {"param_delta_percent": [2.5, 15.0]},
                "disturbance": {"omega_rad_s": [2.0, 0.0]}}


@pytest.mark.parametrize("kind", ["ic", "param", "disturbance"])
def test_mc_matches_propagation_bitwise(setup, kind):
    # 100 steps emitted every 30: the last snapshot is the t_f one
    cfg = mini_cfg(kind=kind, samples=16, t_f=1.0, emit_every=30, **SWEEP_FIELDS[kind])
    rep = run_scenario(cfg, setup=setup, keep_snapshots=True)
    mc = mc_compare(cfg, setup=setup)["controllers"]
    x_trim = setup.trim.x_trim.as_array()
    assert len(mc) == len(rep.curves)
    for c in rep.curves:
        key = harness._key(c["controller"], c["variant"])
        assert mc[key]["t"] == c["t"] and len(c["t"]) == 5
        if c["variant"] == "deterministic":
            assert c["W"] == [float(np.linalg.norm(x[0] / STATE_UNITS - x_trim / STATE_UNITS))
                              for x in mc[key]["states"]]
            continue
        snaps = rep.extras["snapshots"][key]
        assert np.array_equal(np.stack([s.states for s in snaps]), mc[key]["states"])
        for k, snap in enumerate(snaps):
            assert np.array_equal(weighted_mean(snap.states, snap.gamma), mc[key]["mean"][k])


# The reporting columns of a snapshot CSV and of a trim record, by name: the
# test below reads the files as any reader would, without the unit table.
DEGREE_COLUMNS = ("theta_deg", "V", "alpha_deg", "q_dps")


def _parse_snapshot_file(path) -> list[EnsembleSnapshot]:
    """Per emit time, the file's degree states, densities and masses, parsed
    with csv and float alone."""
    by_t: dict[float, list] = {}
    with open(path, newline="") as f:
        for r in csv.DictReader(f):
            by_t.setdefault(float(r["t"]), []).append(r)
    return [EnsembleSnapshot.from_cloud([[float(r[c]) for c in DEGREE_COLUMNS] for r in rows],
                                        [float(r["phi"]) for r in rows],
                                        [float(r["gamma"]) for r in rows], t=t)
            for t, rows in by_t.items()]


@pytest.mark.parametrize("kind, fields", [("ic", {}),
                                          ("disturbance", {"omega_rad_s": [2.0]}),
                                          ("param", {"param_delta_percent": [5.0]})])
def test_report_scores_are_the_scores_of_its_own_files(setup, tmp_path, kind, fields):
    # Every W in report.json is bitwise the Dirac score of the snapshot CSV
    # the same run wrote, against the report's own nominal_trim, and so is
    # the off-trim count. The param deterministic curve has no file of its
    # own: its trajectory, written by the same writer, scores the same.
    cfg = mini_cfg(kind=kind, output_dir=str(tmp_path / "run"), **fields)
    run_scenario(cfg, setup=setup, keep_snapshots=True)
    doc = json.loads((tmp_path / "run" / "report.json").read_text())
    ref = [doc["nominal_trim"][c] for c in DEGREE_COLUMNS]
    scored = [c for c in doc["curves"] if c["variant"] != "deterministic"]
    assert len(scored) == 2
    for c in scored:
        key = harness._key(c["controller"], c["variant"])
        snaps = _parse_snapshot_file(tmp_path / "run" / "snapshots" / f"{key}.csv")
        assert [s.t for s in snaps] == c["t"] and len(snaps) == 5
        W_mass = [wasserstein_dirac(s, ref) for s in snaps]
        if kind == "param":
            assert c["W"] == W_mass, key
        else:
            assert c["W_mass"] == W_mass, key
            assert c["W"] == [wasserstein_dirac(s, ref, weights=probability_weights(s))
                              for s in snaps], key
        off = np.linalg.norm(snaps[-1].states - ref, axis=1) > 1.0
        assert doc["nonconverged"][key] == np.count_nonzero(off), key
    if kind == "param":
        for name, variant, traj in harness._runs(cfg, setup):
            if variant == "deterministic":
                path = tmp_path / f"{name}_deterministic.csv"
                write_snapshot_csv(traj, path)
                W = [float(np.linalg.norm(s.states[0] - ref)) for s in _parse_snapshot_file(path)]
                assert W == [c["W"] for c in doc["curves"]
                             if c["controller"] == name and c["variant"] == variant][0]


def test_snapshot_csv_roundtrip(tmp_path, rng):
    states = rng.normal(size=(5, 4)) * [0.1, 100, 0.1, 0.1] + [0, 400, 0.1, 0]
    params_block = rng.normal(size=(5, 3)) + [600, 3.4, 55000]
    snaps = [EnsembleSnapshot(t=float(k), states=states + 0.01 * k,
                              params=params_block, phi=rng.uniform(1, 2, 5),
                              gamma=np.full(5, 0.2),
                              diverged=np.array([False, k > 0, False, False, False]))
             for k in range(3)]
    path = tmp_path / "snap.csv"
    write_snapshot_csv(snaps, path)
    again = read_snapshot_csv(path)
    assert len(again) == 3
    for a, b in zip(snaps, again):
        assert np.allclose(a.states, b.states, rtol=1e-12)
        assert np.allclose(a.params, b.params, rtol=1e-12)
        assert np.array_equal(a.diverged, b.diverged)


def _per_row_snapshot_csv(snapshots, path):
    """The snapshot writer as it was, one numpy-indexed row at a time."""
    import csv
    from otrobust.harness import _snapshot_columns
    has_params = snapshots[0].params.shape[1] == 3
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_snapshot_columns(has_params))
        for snap in snapshots:
            for i in range(snap.n):
                row = [snap.t, i, snap.states[i, 0] / DEG, snap.states[i, 1],
                       snap.states[i, 2] / DEG, snap.states[i, 3] / DEG]
                if has_params:
                    row += snap.params[i].tolist()
                row += [snap.phi[i], snap.gamma[i], int(snap.diverged[i])]
                w.writerow(row)


def _mixed_snapshots(rng, with_params):
    n = 7
    states = rng.normal(size=(n, 4)) * [0.1, 100, 0.1, 0.1] + [0, 400, 0.1, 0]
    states[2] = [1e-17, 1e16, -0.0, 123456.789]
    phi = np.concatenate([rng.uniform(1, 2, n - 3), [4.8e28, 1e-300, 0.0]])
    return [EnsembleSnapshot(t=0.1 * k, states=states * (1 + k), phi=phi * (k + 1),
                             params=(rng.normal(size=(n, 3)) + [600, 3.4, 55000]
                                     if with_params else None),
                             gamma=np.full(n, 1 / n),
                             diverged=np.arange(n) % 3 == k)
            for k in range(3)]


def _constant_column_snapshots(rng):
    # q holds 0.0 and -0.0, equal under == but not in bits; phi is a constant
    # NaN; the t = 0 snapshot is the param shape, every state row the same.
    n = 5
    x0 = np.array([0.05, 410.0, 0.1, 0.02])
    q = np.array([0.0, 0.0, -0.0, 0.0, 0.0])
    states = np.column_stack([rng.normal(size=(n, 3)) + x0[:3], q])
    params_block = rng.normal(size=(n, 3)) + [600, 3.4, 55000]
    return [EnsembleSnapshot(t=0.0, states=np.tile(x0, (n, 1)), params=params_block,
                             phi=np.ones(n), gamma=np.full(n, 0.2), diverged=None),
            EnsembleSnapshot(t=np.float64(0.1) * 3, states=states, params=params_block,
                             phi=np.full(n, np.nan), gamma=np.full(n, 0.2),
                             diverged=q == 0)]


@pytest.mark.parametrize("case", [False, True, "constant_columns", "one_row"])
def test_snapshot_csv_bytes_match_per_row_writer(tmp_path, rng, case):
    # False / True: mixed values without / with a parameter block.
    if case == "constant_columns":
        snaps = _constant_column_snapshots(rng)
    elif case == "one_row":
        snaps = [EnsembleSnapshot(t=np.float64(2.5), states=[[-0.0, 400.0, 0.1, 1e-5]],
                                  params=None, phi=[3.0], gamma=[1.0], diverged=[True])]
    else:
        snaps = _mixed_snapshots(rng, with_params=case)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_snapshot_csv(snaps, new)
    _per_row_snapshot_csv(snaps, old)
    body = new.read_bytes()
    assert body == old.read_bytes()
    if isinstance(case, bool):
        assert b"1e+16" in body and b",1\r\n" in body
    if case == "constant_columns":
        assert b",-0.0," in body and b",nan," in body and b"\r\n0.30000000000000004,0," in body


def test_scenario_snapshot_csvs_match_per_row_writer(tmp_path, setup):
    cfg = ScenarioConfig(kind="param", controller="lqr", samples=6, t_f=0.1, dt=0.01,
                         emit_every=5, seed=3, param_delta_percent=[2.5],
                         output_dir=str(tmp_path / "run"))
    rep = run_scenario(cfg, setup=setup, keep_snapshots=True)
    for key, snaps in rep.extras["snapshots"].items():
        _per_row_snapshot_csv(snaps, tmp_path / "oracle.csv")
        written = (tmp_path / "run" / "snapshots" / f"{key}.csv").read_bytes()
        assert written == (tmp_path / "oracle.csv").read_bytes()


def test_ic_report_hash_independent_of_workers_with_kink_rows(setup, monkeypatch):
    monkeypatch.delenv("OTROBUST_WORKERS", raising=False)
    flagged = []
    fused = ClosedLoop.state_rhs_div

    def counting(self, t, x, p=None, out=None):
        out = fused(self, t, x, p, out)
        flagged.append(int(np.count_nonzero(out[2])))
        return out

    monkeypatch.setattr(ClosedLoop, "state_rhs_div", counting)
    cfg = mini_cfg(samples=40, t_f=1.0)
    rep = run_scenario(cfg, setup=setup)
    assert sum(flagged) > 0  # some steps take the finite-difference fallback
    rep2 = run_scenario(ScenarioConfig(**{**cfg.to_dict(), "workers": 2}), setup=setup)
    assert rep2.content_hash == rep.content_hash


def test_param_scenario_delta_zero_is_deterministic(setup):
    cfg = ScenarioConfig(kind="param", controller="lqr", samples=8, t_f=1.5,
                         dt=0.01, emit_every=50, param_delta_percent=[0.0])
    rep = run_scenario(cfg, setup=setup)
    t, W0 = rep.curve("lqr", "delta=0")
    _, Wdet = rep.curve("lqr", "deterministic")
    assert np.max(np.abs(W0 - Wdet)) < 1e-6


def test_param_scenario_carries_parameters(setup):
    cfg = ScenarioConfig(kind="param", controller="lqr", samples=8, t_f=0.5,
                         dt=0.01, emit_every=25, param_delta_percent=[5.0])
    rep = run_scenario(cfg, setup=setup, keep_snapshots=True)
    snaps = rep.extras["snapshots"]["lqr|delta=5"]
    assert snaps[0].params.shape == (8, 3)
    # frozen parameters: identical in every snapshot
    assert np.array_equal(snaps[0].params, snaps[-1].params)


def test_param_scenario_centres_on_the_setup_plant(setup):
    heavy = replace(setup, params=AircraftParams(m=700.0))
    cfg = ScenarioConfig(kind="param", controller="lqr", samples=8, t_f=0.1,
                         dt=0.01, emit_every=5, param_delta_percent=[0.0, 2.5])
    (_, _, deterministic), (_, _, zero), (_, _, box) = harness._runs(cfg, heavy)
    assert deterministic[0].params[0, 0] == 700.0  # the deterministic nominal row
    for s in zero:
        assert np.all(s.params[:, 0] == 700.0)
    assert np.all(np.abs(box[0].params[:, 0] - 700.0) <= 700.0 * 0.025)


def test_ic_run_flies_the_setup_plant_with_the_same_gains(setup):
    heavy = replace(setup, params=AircraftParams(m=700.0))
    cfg = mini_cfg(controller="lqr", samples=8, t_f=1.0)
    _, W = run_scenario(cfg, setup=setup).curve("lqr")
    _, W_heavy = run_scenario(cfg, setup=heavy).curve("lqr")
    assert heavy.K is setup.K
    assert W_heavy[0] == W[0] and not np.array_equal(W_heavy, W)


def test_gslqr_without_a_schedule_is_a_config_error():
    setup = harness.build_controllers(need_schedule=False)
    with pytest.raises(ConfigError, match="gain schedule not built"):
        run_scenario(mini_cfg(controller="gslqr", samples=4, t_f=0.1), setup=setup)
    with pytest.raises(ConfigError, match="unknown controller 'pid'"):
        setup.closed_loop("pid")


def test_a_scenario_runs_on_the_setup_its_caller_built(monkeypatch):
    # run_scenario builds no set-up of its own: a caller without one is refused
    monkeypatch.setattr(harness, "build_controllers",
                        lambda *a, **k: pytest.fail("run_scenario built a set-up"))
    with pytest.raises(TypeError, match="'setup'"):
        run_scenario(mini_cfg(samples=4, t_f=0.1))


PARAM_SMALL = dict(kind="param", samples=20, t_f=0.5, dt=0.01, emit_every=10,
                   seed=0, param_delta_percent=[0.0, 2.5, 15.0])


@pytest.fixture(scope="module")
def param_small(setup):
    cfg = ScenarioConfig(**PARAM_SMALL)
    return cfg, run_scenario(cfg, setup=setup, keep_snapshots=True)


def test_param_closed_form_equals_extended_lp(param_small, setup):
    cfg, rep = param_small
    x_trim = setup.trim.x_trim.as_array()
    for name in ("lqr", "gslqr"):
        for delta in cfg.param_delta_percent:
            _, W = rep.curve(name, f"delta={delta:g}")
            lp = [extended_wasserstein(in_reporting_units(s), x_trim / STATE_UNITS).W
                  for s in rep.extras["snapshots"][f"{name}|delta={delta:g}"]]
            assert np.allclose(W, lp, rtol=1e-12, atol=0.0), (name, delta)


def test_param_stacked_slices_equal_own_propagation(param_small, params, setup):
    cfg, rep = param_small
    x0 = setup.trim.x_trim.as_array() + _x_pert_internal(cfg)
    for name in ("lqr", "gslqr"):
        loop = setup.closed_loop(name)
        for delta in cfg.param_delta_percent:
            cloud = _param_cloud(cfg, float(delta), x0, params)
            own = propagate(cloud, loop, cfg.t_f, cfg.dt, cfg.emit_every)
            sliced = rep.extras["snapshots"][f"{name}|delta={delta:g}"]
            assert len(sliced) == len(own)
            for a, b in zip(sliced, own):
                assert a.t == b.t
                for f in ("states", "params", "phi", "gamma", "diverged"):
                    assert np.array_equal(getattr(a, f), getattr(b, f)), (name, delta, f)


@pytest.mark.parametrize("name", ["lqr", "gslqr"])
def test_param_deterministic_curve_equals_its_own_one_row_propagation(setup, name):
    # x0 alone on the set-up plant: for lqr a lone row takes LqrLaw's two-row
    # BLAS block, in the stacked ensemble it shares a block with the clouds
    cfg = ScenarioConfig(**{**PARAM_SMALL, "controller": name, "t_f": 2.0})
    x_trim = setup.trim.x_trim.as_array()
    x0 = x_trim + _x_pert_internal(cfg)
    p = setup.params
    alone = EnsembleSnapshot.from_cloud(x0[None], np.ones(1), np.ones(1),
                                        params=np.array([[p.m, p.xcg, p.Jyy]]))
    own = propagate(alone, setup.closed_loop(name), cfg.t_f, cfg.dt, cfg.emit_every)
    [curve] = [snaps for _, variant, snaps in harness._runs(cfg, setup)
               if variant == "deterministic"]
    assert len(curve) == len(own)
    for a, b in zip(curve, own):
        assert a.t == b.t
        for f in ("states", "params", "phi", "gamma", "diverged"):
            assert np.array_equal(getattr(a, f), getattr(b, f)), (name, a.t, f)
    _, W = run_scenario(cfg, setup=setup).curve(name, "deterministic")
    assert W.tolist() == [float(np.linalg.norm(s.states[0] / STATE_UNITS - x_trim / STATE_UNITS))
                          for s in own]


def test_param_report_hash_independent_of_workers(param_small, setup, monkeypatch):
    cfg, rep = param_small
    assert rep.run["workers"] == liouville.resolve_workers(None)
    monkeypatch.delenv("OTROBUST_WORKERS", raising=False)
    rep2 = run_scenario(ScenarioConfig(**PARAM_SMALL, workers=2), setup=setup)
    assert rep2.run["workers"] == 2
    assert rep2.content_hash == rep.content_hash


def test_run_workers_is_the_count_the_run_used(setup, monkeypatch):
    # with workers unset in the config, OTROBUST_WORKERS sets the count
    monkeypatch.setenv("OTROBUST_WORKERS", "2")
    cfg = mini_cfg(samples=8, t_f=0.1, emit_every=10)
    assert cfg.workers is None
    assert run_scenario(cfg, setup=setup).run["workers"] == 2


def test_array_holding_dataclasses_compare_by_identity(tables, setup):
    box = BoxDomain([0.0, 0.0], [1.0, 2.0])
    dist = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
    snap = EnsembleSnapshot.from_cloud(np.zeros((2, 4)), np.ones(2), np.full(2, 0.5))
    objs = [tables, setup, setup.model, setup.schedule, LqrWeights(),
            setup.closed_loop("lqr").law, setup.closed_loop("gslqr").law,
            setup.closed_loop("lqr"),
            box, dist, wasserstein_lp(dist, dist), snap]
    for obj in objs:
        twin = copy.deepcopy(obj)
        assert (obj == twin) is False, type(obj).__name__
        assert obj == obj
        assert len({obj, twin}) == 2


def test_disturbance_zero_amplitude_matches_ic(setup):
    ic = mini_cfg(samples=12, t_f=1.0)
    base = run_scenario(ic, setup=setup)
    dist = ScenarioConfig(kind="disturbance", samples=12, t_f=1.0, dt=0.01,
                          emit_every=50, seed=0, omega_rad_s=[2.0],
                          disturbance_amp_deg=0.0)
    rep = run_scenario(dist, setup=setup)
    for name in ("lqr", "gslqr"):
        _, W_ic = base.curve(name)
        _, W_d = rep.curve(name, "omega=2")
        assert np.array_equal(W_ic, W_d)


def test_disturbance_difference_series(setup):
    cfg = ScenarioConfig(kind="disturbance", samples=10, t_f=1.0, dt=0.01,
                         emit_every=50, omega_rad_s=[0.0, 2.0])
    rep = run_scenario(cfg, setup=setup)
    diffs = rep.extras["W_lqr_minus_gslqr"]
    assert {d["variant"] for d in diffs} == {"omega=0", "omega=2"}
    for d in diffs:
        t, Wl = rep.curve("lqr", d["variant"])
        _, Wg = rep.curve("gslqr", d["variant"])
        assert np.allclose(np.asarray(d["W_diff"]), Wl - Wg, rtol=1e-12)



def _blocks_equal_own_propagation(cfg, setup, disturbance=lambda k: None):
    """Each curve of the scenario's one propagation against its initial
    cloud's own propagation through its controller alone, bit for bit."""
    _, _, curves = harness._cases(cfg, setup)
    runs = list(harness._runs(cfg, setup))
    assert len(runs) == len(curves) == len(cfg.controllers) * {
        "ic": 1, "param": 1 + len(cfg.param_delta_percent),
        "disturbance": len(cfg.omega_rad_s)}[cfg.kind]
    for k, ((name, variant, _, cloud), (run_name, run_variant, snaps)) in enumerate(
            zip(curves, runs)):
        assert (run_name, run_variant) == (name, variant)
        loop = replace(setup.closed_loop(name), disturbance=disturbance(k))
        own = propagate(cloud, loop, cfg.t_f, cfg.dt, cfg.emit_every)
        assert len(snaps) == len(own)
        for a, b in zip(snaps, own):
            assert a.t == b.t
            for f in ("states", "params", "phi", "diverged"):
                assert np.array_equal(getattr(a, f), getattr(b, f)), (name, k, f)


def test_disturbance_blocks_equal_own_propagation(setup, monkeypatch):
    # each row must meet its own law and its own omega, also inside one
    # finite-difference stencil call that holds kink rows of both laws
    mixed = []
    divergence = liouville.divergence

    def recording(f, X, P, t):
        mixed.append(P is not None and len(set(P[:, -2].tolist())) == 2)
        return divergence(f, X, P, t)

    monkeypatch.setattr(liouville, "divergence", recording)
    cfg = ScenarioConfig(kind="disturbance", samples=12, t_f=1.0, dt=0.01, emit_every=20,
                         omega_rad_s=[0.0, 2.0, 100.0])
    omegas = [w for w in cfg.omega_rad_s for _ in cfg.controllers]  # report order
    _blocks_equal_own_propagation(
        cfg, setup, lambda k: SineDisturbance(cfg.disturbance_amp_deg * DEG, omegas[k]))
    assert any(mixed)


def test_ic_blocks_equal_own_propagation(setup):
    _blocks_equal_own_propagation(mini_cfg(samples=16, t_f=0.5), setup)


def test_param_blocks_equal_own_propagation(setup):
    _blocks_equal_own_propagation(ScenarioConfig(**{**PARAM_SMALL, "t_f": 0.3}), setup)


@pytest.mark.parametrize("controller", ["both", "lqr", "gslqr"])
@pytest.mark.parametrize("kind", ["ic", "param", "disturbance"])
def test_one_propagation_per_scenario(setup, monkeypatch, kind, controller):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(harness, "propagate", counting)
    cfg = ScenarioConfig(kind=kind, controller=controller, samples=3, t_f=0.02, dt=0.01,
                         param_delta_percent=[0.0, 2.5], omega_rad_s=[0.0, 2.0, 100.0])
    rep = run_scenario(cfg, setup=setup)
    per_controller = {"ic": 3, "param": 1 + 2 * 3, "disturbance": 3 * 3}[kind]
    assert calls == [len(cfg.controllers) * per_controller]
    assert len(rep.curves) == len(cfg.controllers) * {"ic": 1, "param": 3, "disturbance": 3}[kind]


def test_disturbance_report_hash_independent_of_workers(setup, monkeypatch):
    monkeypatch.delenv("OTROBUST_WORKERS", raising=False)
    cfg = ScenarioConfig(kind="disturbance", samples=12, t_f=0.5, dt=0.01, emit_every=10,
                         omega_rad_s=[0.0, 2.0, 100.0])
    rep = run_scenario(cfg, setup=setup)
    rep2 = run_scenario(replace(cfg, workers=2), setup=setup)
    assert rep2.run["workers"] == 2
    assert rep2.content_hash == rep.content_hash


def test_shared_initial_snapshot_is_formatted_once(setup, monkeypatch, tmp_path):
    texts = []
    snapshot_text = harness._snapshot_text

    def counting(snap, has_params):
        texts.append(snap.t)
        return snapshot_text(snap, has_params)

    monkeypatch.setattr(harness, "_snapshot_text", counting)
    cfg = mini_cfg(samples=6, t_f=0.1, emit_every=5, output_dir=str(tmp_path / "run"))
    rep = run_scenario(cfg, setup=setup, keep_snapshots=True)
    assert sorted(texts) == [0.0, 0.05, 0.05, 0.1, 0.1]  # t = 0 once for both files
    for key, snaps in rep.extras["snapshots"].items():
        _per_row_snapshot_csv(snaps, tmp_path / "oracle.csv")
        written = (tmp_path / "run" / "snapshots" / f"{key}.csv").read_bytes()
        assert written == (tmp_path / "oracle.csv").read_bytes()
