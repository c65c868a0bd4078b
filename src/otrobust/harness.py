"""Scenario orchestration and reporting.

Three experiment families share one pipeline: sample an initial joint
density, propagate it through the LQR and gain-scheduled LQR closed loops,
and score regulation as the Wasserstein distance to the trim condition at
every emitted time.

  ic          uniform initial-condition box around trim, no disturbance
  param       deterministic initial state, uniform (m, xcg, Jyy) boxes
              over +/- delta percent, one stacked ensemble per controller
  disturbance initial-condition box plus a sinusoidal elevator disturbance
              swept over forcing frequencies

Every curve is a closed-form Dirac distance to trim, the param one on the
extended space (see run_param_scenario); the transportation LP is kept
for general CLI inputs and as the oracle of that score. Wasserstein
values are reported in the degree-based unit convention (deg, ft/s, deg,
deg/s) used by all file outputs. Reports are plain dicts rendered to
report.json / W.csv / snapshot CSVs, stamped with a content hash so
identical configurations are bit-reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .controller import (
    GainSchedule,
    LinearModel,
    LqrLaw,
    LqrWeights,
    ScheduledLaw,
    build_schedule,
    linearize_plant,
    lqr_gain,
    spectral_abscissa,
)
from .f16 import DEG, AeroTables, AircraftParams, ClosedLoop, SineDisturbance
from .liouville import EnsembleSnapshot, likelihood_extremes, propagate
from .sampling import BoxDomain, InitialPdf, halton, mcmc_sample, weighted_cloud
from .transport import wasserstein_dirac
from .trim import TrimPoint, find_trim, trim_grid

# Nominal flight condition for the regulation study.
NOMINAL_V = 407.8942          # ft/s
NOMINAL_ALPHA_DEG = 6.1650    # deg

# Admissible initial-condition perturbation box (deg / ft/s / deg / deg/s).
DEFAULT_IC_BOX_DEG = {
    "theta": [-35.0, 35.0],
    "V": [-65.0, 65.0],
    "alpha": [-20.0, 50.0],
    "q": [-70.0, 70.0],
}

# Deterministic initial perturbation for the parametric study; the source
# tabulates these numbers with a radian label, which would put the initial
# state 68 deg off trim and outside the aero tables, so they are read as
# degrees by default (config field x_pert_units selects the unit).
DEFAULT_X_PERT = {"theta": 1.1803, "V": 5.1058, "alpha": 2.8370, "q": 1e-4}

DEFAULT_DELTAS = [0.5, 2.5, 5.0, 7.5, 15.0]
DEFAULT_OMEGAS = [0.0, 2.0, 100.0]
DEFAULT_DISTURBANCE_AMP_DEG = 6.5

# Cost weights expressing states in the reporting units (angles in deg).
PAPER_STATE_SCALE = np.array([1.0 / DEG, 1.0, 1.0 / DEG, 1.0 / DEG])

SNAPSHOT_BASE_COLUMNS = ["t", "id", "theta_deg", "V", "alpha_deg", "q_dps"]
SNAPSHOT_PARAM_COLUMNS = ["m", "xcg", "Jyy"]

# Config fields that say where and how a run executes, not what it computes;
# report.json echoes them, the content hash leaves them out.
RUN_ENVIRONMENT_FIELDS = ("workers", "output_dir")


class ConfigError(ValueError):
    """Scenario configuration is malformed or inconsistent."""


class NumericalFailure(RuntimeError):
    """A scenario aborted on a numerical error."""


@dataclass
class ScenarioConfig:
    """Declarative description of one experiment."""

    kind: str                                  # ic | param | disturbance
    controller: str = "both"                   # lqr | gslqr | both
    samples: int = 200
    t_f: float = 20.0
    dt: float = 0.01
    seed: int = 0
    emit_every: int = 100                      # steps between snapshots
    ic_box_deg: dict = field(default_factory=lambda: dict(DEFAULT_IC_BOX_DEG))
    x_pert: dict = field(default_factory=lambda: dict(DEFAULT_X_PERT))
    x_pert_units: str = "deg"                  # deg | rad
    param_delta_percent: list = field(default_factory=lambda: list(DEFAULT_DELTAS))
    omega_rad_s: list = field(default_factory=lambda: list(DEFAULT_OMEGAS))
    disturbance_amp_deg: float = DEFAULT_DISTURBANCE_AMP_DEG
    sampler: str = "halton"                    # halton | mcmc
    strict_rk4: bool = False
    workers: int | None = None
    output_dir: str | None = None

    def __post_init__(self):
        if self.kind not in ("ic", "param", "disturbance"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.controller not in ("lqr", "gslqr", "both"):
            raise ConfigError(f"unknown controller {self.controller!r}")
        if not (self.t_f > 0 and self.dt > 0 and self.samples > 0):
            raise ConfigError("t_f, dt and samples must be positive")
        if self.emit_every < 1:
            raise ConfigError("emit_every must be at least 1")
        if self.x_pert_units not in ("deg", "rad"):
            raise ConfigError(f"unknown x_pert_units {self.x_pert_units!r}")
        if self.sampler not in ("halton", "mcmc"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if isinstance(self.param_delta_percent, (int, float)):
            self.param_delta_percent = [float(self.param_delta_percent)]
        if isinstance(self.omega_rad_s, (int, float)):
            self.omega_rad_s = [float(self.omega_rad_s)]
        for key in ("theta", "V", "alpha", "q"):
            if key not in self.ic_box_deg:
                raise ConfigError(f"ic_box_deg missing {key!r}")
            lo, hi = self.ic_box_deg[key]
            if not lo < hi:
                raise ConfigError(f"ic_box_deg[{key!r}] is not a proper interval")

    @property
    def controllers(self) -> list[str]:
        return ["lqr", "gslqr"] if self.controller == "both" else [self.controller]

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read scenario config {path}: {exc}") from exc
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(f"bad scenario config field: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ControllerSetup:
    """Everything scenario runs need: nominal trim, fixed gain, schedule."""

    trim: TrimPoint
    K: np.ndarray
    model: LinearModel
    schedule: GainSchedule | None

    def law(self, name: str):
        if name == "lqr":
            return LqrLaw(self.K, self.trim)
        if name == "gslqr":
            if self.schedule is None:
                raise ConfigError("gain schedule not built")
            return ScheduledLaw(self.schedule)
        raise ConfigError(f"unknown controller {name!r}")

    def closed_loop_linear_model(self, units: str = "deg") -> LinearModel:
        """Closed-loop (A - B K, B) model in deg or internal rad units."""
        A_cl = self.model.A - self.model.B @ self.K
        B = self.model.B
        if units == "rad":
            return LinearModel(A=A_cl, B=B, x0=self.model.x0, u0=self.model.u0)
        D = np.diag(PAPER_STATE_SCALE)
        Du = np.diag([1.0, 1.0 / DEG])
        return LinearModel(A=D @ A_cl @ np.linalg.inv(D),
                           B=D @ B @ np.linalg.inv(Du),
                           x0=self.model.x0, u0=self.model.u0)


def build_controllers(params: AircraftParams | None = None,
                      tables: AeroTables | None = None,
                      weights: LqrWeights | None = None,
                      need_schedule: bool = True) -> ControllerSetup:
    """Trim at the nominal condition, synthesize the fixed gain, and build
    the 10x10 gain schedule (unless need_schedule is False)."""
    params = params or AircraftParams()
    tables = tables or AeroTables.default()
    weights = weights or LqrWeights()
    trim = find_trim(NOMINAL_V, NOMINAL_ALPHA_DEG * DEG, params, tables)
    model = linearize_plant(trim.x_trim, trim.u_trim, params, tables)
    K = lqr_gain(model, weights)
    schedule = None
    if need_schedule:
        schedule = build_schedule(trim_grid(None, params, tables),
                                  weights, params, tables, reference=trim)
    return ControllerSetup(trim=trim, K=K, model=model, schedule=schedule)


def _ic_box_internal(cfg: ScenarioConfig, x_trim: np.ndarray) -> BoxDomain:
    b = cfg.ic_box_deg
    lower = x_trim + np.array([b["theta"][0] * DEG, b["V"][0],
                               b["alpha"][0] * DEG, b["q"][0] * DEG])
    upper = x_trim + np.array([b["theta"][1] * DEG, b["V"][1],
                               b["alpha"][1] * DEG, b["q"][1] * DEG])
    return BoxDomain(lower, upper)


def _x_pert_internal(cfg: ScenarioConfig) -> np.ndarray:
    p = cfg.x_pert
    vec = np.array([p["theta"], p["V"], p["alpha"], p["q"]], dtype=float)
    if cfg.x_pert_units == "deg":
        vec = vec * np.array([DEG, 1.0, DEG, DEG])
    return vec


def initial_cloud(cfg: ScenarioConfig, x_trim: np.ndarray) -> EnsembleSnapshot:
    """Sample the initial-condition box and tag densities and masses."""
    box = _ic_box_internal(cfg, x_trim)
    pdf = InitialPdf.uniform_box(box)
    if cfg.sampler == "halton":
        samples = halton(cfg.samples, box)
    else:
        samples = mcmc_sample(pdf, cfg.samples, cfg.seed)
    states, phi, gamma = weighted_cloud(samples, pdf)
    return EnsembleSnapshot.from_cloud(states, phi, gamma,
                                       metadata={"scenario": cfg.kind, "seed": cfg.seed})


def weighted_mean(states: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Mass-weighted ensemble mean; also used for plain MC averages so the
    two sides agree bit for bit under equal masses."""
    return np.asarray(gamma) @ np.asarray(states)


def marginal_histogram(snapshot: EnsembleSnapshot, axis: int, bins: int,
                       value_range=None):
    """Mass-weighted histogram of one state axis; bin masses sum to 1."""
    if bins < 1:
        raise ValueError("bins must be at least 1")
    values = snapshot.extended[:, axis]
    masses, edges = np.histogram(values, bins=bins, range=value_range,
                                 weights=snapshot.gamma)
    return masses, edges


def freq_response(model: LinearModel, omega_grid) -> tuple[np.ndarray, float]:
    """Disturbance-to-state gain of the closed-loop model over omega_grid.

    model.A must be the (Hurwitz) closed-loop matrix; the transfer column
    is (jw I - A)^-1 Bw, whose largest singular value is its 2-norm.
    Returns gains in dB and the grid frequency of the peak.
    """
    if spectral_abscissa(model.A) >= 0.0:
        raise NumericalFailure("closed-loop matrix is not Hurwitz")
    omega_grid = np.asarray(omega_grid, dtype=float)
    n = model.A.shape[0]
    gains = np.empty(omega_grid.size)
    for k, w in enumerate(omega_grid):
        col = np.linalg.solve(1j * w * np.eye(n) - model.A, model.Bw)
        gains[k] = np.linalg.norm(col)
    gains_db = 20.0 * np.log10(gains)
    return gains_db, float(omega_grid[int(np.argmax(gains_db))])


def default_omega_grid(n: int = 200) -> np.ndarray:
    return np.logspace(-2, 3, n)


def probability_weights(snapshot: EnsembleSnapshot) -> np.ndarray:
    """Unit-mass marginal weights from the carried density values.

    The scoring treats each sample's tracked joint-density value as its
    probability-mass value, normalized to satisfy mass balance against the
    unit-mass reference. Samples whose trajectories wander off (tracked
    density collapsing relative to the ensemble) then contribute little,
    which is what makes the W series converge when a thin set of
    characteristics fails to regulate. At t = 0 with a uniform initial
    density these weights equal the 1/n transport masses exactly.
    """
    phi = np.maximum(snapshot.phi, 0.0)
    total = phi.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NumericalFailure("density values cannot be normalized into weights")
    return phi / total


def _W_dirac_series(snapshots, x_trim, weighting: str = "density") -> list[float]:
    out = []
    for s in snapshots:
        w = probability_weights(s) if weighting == "density" else None
        out.append(wasserstein_dirac(s, x_trim, scale=PAPER_STATE_SCALE, weights=w))
    return out


def _histograms(snapshots, bins: int = 40) -> list[dict]:
    out = []
    for snap in snapshots:
        axes = {}
        for k, name in enumerate(("theta", "V", "alpha", "q")):
            masses, edges = marginal_histogram(snap, k, bins)
            axes[name] = {"edges": edges.tolist(), "mass": masses.tolist()}
        out.append({"t": snap.t, "axes": axes})
    return out


def _extremes_records(snapshots) -> list[dict]:
    return [{"t": t, "most_likely": hi, "least_likely": lo}
            for t, hi, lo in likelihood_extremes(snapshots)]


def _nonconverged_count(snapshot: EnsembleSnapshot, x_trim: np.ndarray,
                        tol: float = 1.0) -> int:
    """Samples still farther than tol (deg-mixed units) from trim."""
    diff = (snapshot.states - x_trim) * PAPER_STATE_SCALE
    return int(np.count_nonzero(np.linalg.norm(diff, axis=1) > tol))


@dataclass
class RunReport:
    """Assembled scenario results, hashable and serializable."""

    scenario: str
    config: dict
    nominal_trim: dict
    curves: list            # {controller, variant, t: [...], W: [...]}
    histograms: dict        # key "controller|variant" -> per-time marginals
    extremes: dict          # key -> likelihood extreme ids per time
    diverged: dict          # key -> diverged-sample count at final time
    nonconverged: dict      # key -> samples off trim at final time
    extras: dict = field(default_factory=dict)
    content_hash: str = ""

    def finalize(self) -> "RunReport":
        body = self.to_dict()
        body.pop("content_hash", None)
        body["config"] = {k: v for k, v in self.config.items()
                          if k not in RUN_ENVIRONMENT_FIELDS}
        blob = json.dumps(body, sort_keys=True).encode()
        self.content_hash = hashlib.sha256(blob).hexdigest()
        return self

    def to_dict(self) -> dict:
        extras = {k: v for k, v in self.extras.items() if k != "snapshots"}
        return {
            "scenario": self.scenario,
            "config": self.config,
            "nominal_trim": self.nominal_trim,
            "curves": self.curves,
            "histograms": self.histograms,
            "extremes": self.extremes,
            "diverged": self.diverged,
            "nonconverged": self.nonconverged,
            "extras": extras,
            "content_hash": self.content_hash,
        }

    def curve(self, controller: str, variant: str = "") -> tuple[np.ndarray, np.ndarray]:
        for c in self.curves:
            if c["controller"] == controller and c["variant"] == variant:
                return np.asarray(c["t"]), np.asarray(c["W"])
        raise KeyError(f"no curve for {controller!r} / {variant!r}")


def _snapshot_columns(has_params: bool) -> list[str]:
    return (SNAPSHOT_BASE_COLUMNS + (SNAPSHOT_PARAM_COLUMNS if has_params else [])
            + ["phi", "gamma", "diverged"])


def write_snapshot_csv(snapshots, path, controller: str = "") -> None:
    """Long-format snapshot CSV (all emitted times in one file)."""
    snapshots = snapshots if isinstance(snapshots, (list, tuple)) else [snapshots]
    has_params = snapshots[0].params.shape[1] == 3
    cols = _snapshot_columns(has_params)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for snap in snapshots:
            x = snap.states
            columns = [[snap.t] * snap.n, range(snap.n), (x[:, 0] / DEG).tolist(),
                       x[:, 1].tolist(), (x[:, 2] / DEG).tolist(), (x[:, 3] / DEG).tolist()]
            if has_params:
                columns += snap.params.T.tolist()
            columns += [snap.phi.tolist(), snap.gamma.tolist(),
                        snap.diverged.astype(int).tolist()]
            w.writerows(zip(*columns))


def read_snapshot_csv(path) -> list[EnsembleSnapshot]:
    """Inverse of write_snapshot_csv; ValueError on a malformed file."""
    with open(path) as f:
        reader = csv.DictReader(f, restval="")
        rows = list(reader)
    header = reader.fieldnames or []
    has_params = "m" in header
    missing = [c for c in _snapshot_columns(has_params) if c not in header]
    if missing:
        raise ValueError(f"snapshot file {path} lacks columns {', '.join(missing)}")
    if not rows:
        raise ValueError(f"empty snapshot file {path}")
    by_t: dict[float, list] = {}
    for r in rows:
        by_t.setdefault(float(r["t"]), []).append(r)
    snaps = []
    for t in sorted(by_t):
        chunk = sorted(by_t[t], key=lambda r: int(r["id"]))
        states = np.array([[float(r["theta_deg"]) * DEG, float(r["V"]),
                            float(r["alpha_deg"]) * DEG, float(r["q_dps"]) * DEG]
                           for r in chunk])
        params = (np.array([[float(r["m"]), float(r["xcg"]), float(r["Jyy"])]
                            for r in chunk]) if has_params else None)
        phi = np.array([float(r["phi"]) for r in chunk])
        gamma = np.array([float(r["gamma"]) for r in chunk])
        dead = np.array([r["diverged"] not in ("0", "False", "false") for r in chunk])
        snaps.append(EnsembleSnapshot(t=t, states=states, params=params,
                                      phi=phi, gamma=gamma, diverged=dead))
    return snaps


def save_report(report: RunReport, out_dir,
                snapshots_by_key: dict | None = None) -> Path:
    """Write report.json, W.csv, and snapshot CSVs under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as f:
        json.dump(report.to_dict(), f, indent=1)
    with open(out / "W.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "variant", "controller", "W"])
        for c in report.curves:
            for t, W in zip(c["t"], c["W"]):
                w.writerow([t, c["variant"], c["controller"], W])
    if snapshots_by_key:
        for key, snaps in snapshots_by_key.items():
            write_snapshot_csv(snaps, out / "snapshots" / f"{key}.csv")
    return out


def _key(controller: str, variant: str) -> str:
    return f"{controller}|{variant}" if variant else controller


def run_ic_scenario(cfg: ScenarioConfig,
                    params: AircraftParams | None = None,
                    tables: AeroTables | None = None,
                    setup: ControllerSetup | None = None,
                    keep_snapshots: bool = False) -> RunReport:
    """Initial-condition uncertainty study: uniform box around trim."""
    if cfg.kind != "ic":
        raise ConfigError(f"run_ic_scenario got kind {cfg.kind!r}")
    params = params or AircraftParams()
    tables = tables or AeroTables.default()
    setup = setup or build_controllers(params, tables,
                                       need_schedule="gslqr" in cfg.controllers)
    x_trim = setup.trim.x_trim.as_array()
    cloud = initial_cloud(cfg, x_trim)

    report = RunReport(scenario="ic", config=cfg.to_dict(),
                       nominal_trim=setup.trim.to_dict(), curves=[],
                       histograms={}, extremes={}, diverged={}, nonconverged={})
    snapshots_by_key = {}
    for name in cfg.controllers:
        loop = ClosedLoop(law=setup.law(name), params=params, tables=tables)
        snaps = propagate(cloud, loop, cfg.t_f, cfg.dt,
                          cfg.emit_every, cfg.strict_rk4, cfg.workers)
        W = _W_dirac_series(snaps, x_trim)
        report.curves.append({"controller": name, "variant": "",
                              "t": [s.t for s in snaps], "W": W,
                              "W_mass": _W_dirac_series(snaps, x_trim, "mass")})
        report.histograms[name] = _histograms(snaps)
        report.extremes[name] = _extremes_records(snaps)
        report.diverged[name] = int(np.count_nonzero(snaps[-1].diverged))
        report.nonconverged[name] = _nonconverged_count(snaps[-1], x_trim)
        if keep_snapshots:
            snapshots_by_key[_key(name, "")] = snaps
    report.finalize()
    if cfg.output_dir:
        save_report(report, cfg.output_dir, snapshots_by_key or None)
    if keep_snapshots:
        report.extras["snapshots"] = snapshots_by_key
    return report


def _param_cloud(cfg: ScenarioConfig, delta: float, x0: np.ndarray,
                 params: AircraftParams) -> EnsembleSnapshot:
    nominal = np.array([params.m, params.xcg, params.Jyy])
    n = cfg.samples
    if delta == 0.0:
        p = np.tile(nominal, (n, 1))
        phi = np.ones(n)  # degenerate parameter distribution: flat placeholder
    else:
        half = np.abs(nominal) * (delta / 100.0)
        box = BoxDomain(nominal - half, nominal + half)
        pdf = InitialPdf.uniform_box(box)
        p = halton(n, box) if cfg.sampler == "halton" else mcmc_sample(pdf, n, cfg.seed)
        phi = np.asarray(pdf(p))
    gamma = np.full(n, 1.0 / n)
    states = np.tile(x0, (n, 1))
    return EnsembleSnapshot(t=0.0, states=states, params=p, phi=phi,
                            gamma=gamma, diverged=None,
                            metadata={"scenario": "param", "delta": delta})


def run_param_scenario(cfg: ScenarioConfig,
                       params: AircraftParams | None = None,
                       tables: AeroTables | None = None,
                       setup: ControllerSetup | None = None,
                       keep_snapshots: bool = False) -> RunReport:
    """Parametric uncertainty study: +/- delta % boxes on (m, xcg, Jyy).

    Per controller, the deterministic (nominal-parameter) trajectory and
    all delta clouds propagate as one stacked ensemble [x0 | cloud_1 | ...]
    sliced back per variant (samples are independent). The extended-space
    W against the trim-pinned reference sharing the parameter samples, with
    transport masses on both marginals, is the mass-weighted Dirac distance
    to trim: every coupling pays sum_i gamma_i ||x_i - x_trim||^2 and the
    identity pays no parameter displacement (extended_wasserstein's LP is
    the oracle). The deterministic distance-to-trim curve rides alongside.
    """
    if cfg.kind != "param":
        raise ConfigError(f"run_param_scenario got kind {cfg.kind!r}")
    params = params or AircraftParams()
    tables = tables or AeroTables.default()
    setup = setup or build_controllers(params, tables,
                                       need_schedule="gslqr" in cfg.controllers)
    x_trim = setup.trim.x_trim.as_array()
    x0 = x_trim + _x_pert_internal(cfg)
    clouds = [_param_cloud(cfg, float(d), x0, params) for d in cfg.param_delta_percent]
    rows = 1 + cfg.samples * len(clouds)
    stacked = EnsembleSnapshot.from_cloud(
        np.vstack([x0] + [c.states for c in clouds]),
        np.concatenate([[1.0]] + [c.phi for c in clouds]),
        np.full(rows, 1.0 / rows),
        params=np.vstack([[params.m, params.xcg, params.Jyy]] + [c.params for c in clouds]))

    report = RunReport(scenario="param", config=cfg.to_dict(),
                       nominal_trim=setup.trim.to_dict(), curves=[],
                       histograms={}, extremes={}, diverged={}, nonconverged={})
    snapshots_by_key = {}
    for name in cfg.controllers:
        loop = ClosedLoop(law=setup.law(name), params=params, tables=tables)
        all_snaps = propagate(stacked, loop, cfg.t_f, cfg.dt,
                              cfg.emit_every, cfg.strict_rk4, cfg.workers)
        ref_curve = [float(np.linalg.norm((s.states[0] - x_trim) * PAPER_STATE_SCALE))
                     for s in all_snaps]
        report.curves.append({"controller": name, "variant": "deterministic",
                              "t": [s.t for s in all_snaps], "W": ref_curve})
        for k, (delta, cloud) in enumerate(zip(cfg.param_delta_percent, clouds)):
            sel = slice(1 + k * cfg.samples, 1 + (k + 1) * cfg.samples)
            snaps = [EnsembleSnapshot(t=s.t, states=s.states[sel], params=cloud.params,
                                      phi=s.phi[sel], gamma=cloud.gamma,
                                      diverged=s.diverged[sel],
                                      metadata={**cloud.metadata, **s.metadata})
                     for s in all_snaps]
            variant = f"delta={delta:g}"
            report.curves.append({"controller": name, "variant": variant,
                                  "t": [s.t for s in snaps],
                                  "W": _W_dirac_series(snaps, x_trim, "mass")})
            key = _key(name, variant)
            report.histograms[key] = _histograms(snaps)
            report.extremes[key] = _extremes_records(snaps)
            report.diverged[key] = int(np.count_nonzero(snaps[-1].diverged))
            report.nonconverged[key] = _nonconverged_count(snaps[-1], x_trim)
            if keep_snapshots:
                snapshots_by_key[key] = snaps
    report.finalize()
    if cfg.output_dir:
        save_report(report, cfg.output_dir, snapshots_by_key or None)
    if keep_snapshots:
        report.extras["snapshots"] = snapshots_by_key
    return report


def run_disturbance_scenario(cfg: ScenarioConfig,
                             params: AircraftParams | None = None,
                             tables: AeroTables | None = None,
                             setup: ControllerSetup | None = None,
                             keep_snapshots: bool = False) -> RunReport:
    """Actuator disturbance study: IC box plus w(t) = A sin(omega t) on the
    elevator, swept over forcing frequencies; also reports the
    W_lqr - W_gslqr series per frequency when both controllers run."""
    if cfg.kind != "disturbance":
        raise ConfigError(f"run_disturbance_scenario got kind {cfg.kind!r}")
    params = params or AircraftParams()
    tables = tables or AeroTables.default()
    setup = setup or build_controllers(params, tables,
                                       need_schedule="gslqr" in cfg.controllers)
    x_trim = setup.trim.x_trim.as_array()
    cloud = initial_cloud(cfg, x_trim)
    amp = cfg.disturbance_amp_deg * DEG

    report = RunReport(scenario="disturbance", config=cfg.to_dict(),
                       nominal_trim=setup.trim.to_dict(), curves=[],
                       histograms={}, extremes={}, diverged={}, nonconverged={})
    snapshots_by_key = {}
    W_by = {}
    for omega in cfg.omega_rad_s:
        for name in cfg.controllers:
            loop = ClosedLoop(law=setup.law(name), params=params, tables=tables,
                              disturbance=SineDisturbance(amp, float(omega)))
            snaps = propagate(cloud, loop, cfg.t_f, cfg.dt,
                              cfg.emit_every, cfg.strict_rk4, cfg.workers)
            W = _W_dirac_series(snaps, x_trim)
            variant = f"omega={omega:g}"
            report.curves.append({"controller": name, "variant": variant,
                                  "t": [s.t for s in snaps], "W": W,
                                  "W_mass": _W_dirac_series(snaps, x_trim, "mass")})
            key = _key(name, variant)
            W_by[(name, float(omega))] = ([s.t for s in snaps], W)
            report.histograms[key] = _histograms(snaps)
            report.extremes[key] = _extremes_records(snaps)
            report.diverged[key] = int(np.count_nonzero(snaps[-1].diverged))
            report.nonconverged[key] = _nonconverged_count(snaps[-1], x_trim)
            if keep_snapshots:
                snapshots_by_key[key] = snaps
    if set(cfg.controllers) == {"lqr", "gslqr"}:
        diffs = []
        for omega in cfg.omega_rad_s:
            t, W_l = W_by[("lqr", float(omega))]
            _, W_g = W_by[("gslqr", float(omega))]
            diffs.append({"variant": f"omega={omega:g}", "t": t,
                          "W_diff": (np.asarray(W_l) - np.asarray(W_g)).tolist()})
        report.extras["W_lqr_minus_gslqr"] = diffs
    report.finalize()
    if cfg.output_dir:
        save_report(report, cfg.output_dir, snapshots_by_key or None)
    if keep_snapshots:
        report.extras["snapshots"] = snapshots_by_key
    return report


def run_scenario(cfg: ScenarioConfig, **kw) -> RunReport:
    runner = {"ic": run_ic_scenario, "param": run_param_scenario,
              "disturbance": run_disturbance_scenario}[cfg.kind]
    return runner(cfg, **kw)


def mc_compare(cfg: ScenarioConfig,
               params: AircraftParams | None = None,
               tables: AeroTables | None = None,
               setup: ControllerSetup | None = None) -> dict:
    """Plain trajectory ensembles (no density ODE) for cross-validation.

    Uses the same sampling and the same integrator kernel as the density
    propagation, so state trajectories agree bit for bit with the
    characteristics under identical seeds. Returns per-controller error
    trajectories, mass-weighted means (computed by the same routine the
    density side uses), quantile envelopes, and final-time statistics.
    """
    params = params or AircraftParams()
    tables = tables or AeroTables.default()
    setup = setup or build_controllers(params, tables,
                                       need_schedule="gslqr" in cfg.controllers)
    x_trim = setup.trim.x_trim.as_array()
    if cfg.kind == "param":
        x0 = x_trim + _x_pert_internal(cfg)
        delta = cfg.param_delta_percent[0] if cfg.param_delta_percent else 0.0
        cloud = _param_cloud(cfg, float(delta), x0, params)
    else:
        cloud = initial_cloud(cfg, x_trim)

    out = {"t": None, "controllers": {}}
    for name in cfg.controllers:
        disturbance = None
        if cfg.kind == "disturbance":
            omega = cfg.omega_rad_s[0] if cfg.omega_rad_s else 0.0
            disturbance = SineDisturbance(cfg.disturbance_amp_deg * DEG, float(omega))
        loop = ClosedLoop(law=setup.law(name), params=params, tables=tables,
                          disturbance=disturbance)
        snaps = propagate(cloud, loop, cfg.t_f, cfg.dt,
                          cfg.emit_every, cfg.strict_rk4, cfg.workers,
                          track_density=False)
        t = np.array([s.t for s in snaps])
        states = np.stack([s.states for s in snaps])          # (T, n, 4)
        delta_x = states - x_trim
        means = np.stack([weighted_mean(s.states, s.gamma) for s in snaps])
        q = np.quantile(delta_x, [0.05, 0.25, 0.5, 0.75, 0.95], axis=1)
        out["t"] = t
        out["controllers"][name] = {
            "states": states,
            "delta": delta_x,
            "mean": means,
            "quantiles": q,
            "diverged": int(np.count_nonzero(snaps[-1].diverged)),
            "nonconverged": _nonconverged_count(snaps[-1], x_trim),
            "snapshots": snaps,
        }
    return out


def dominant_frequency(t: np.ndarray, W: np.ndarray,
                       t_min: float, t_max: float) -> float:
    """Dominant nonzero FFT frequency (rad/s) of W(t) on [t_min, t_max]."""
    t = np.asarray(t, dtype=float)
    W = np.asarray(W, dtype=float)
    sel = (t >= t_min) & (t <= t_max)
    if np.count_nonzero(sel) < 8:
        raise ValueError("too few samples in the analysis window")
    ts, Ws = t[sel], W[sel]
    dt = float(np.mean(np.diff(ts)))
    y = Ws - np.mean(Ws)
    spec = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(y.size, d=dt) * 2.0 * math.pi
    k = int(np.argmax(spec[1:])) + 1
    return float(freqs[k])
