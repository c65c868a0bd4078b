"""Scenario orchestration and reporting.

Three experiment families share one pipeline: sample an initial joint
density, propagate it through the LQR and gain-scheduled LQR closed loops,
and score regulation as the Wasserstein distance to the trim condition at
every emitted time.

  ic          uniform initial-condition box around trim, no disturbance
  param       deterministic initial state, uniform (m, xcg, Jyy) boxes
              over +/- delta percent
  disturbance initial-condition box plus a sinusoidal elevator disturbance
              swept over forcing frequencies

A ControllerSetup holds the gains and the plant they fly. Every scenario
is one propagation: _cases(cfg, setup) lays out one flat list of curves in
report order, each (controller, variant, its rows, its initial cloud), and
stacks their clouds into one ensemble whose per-row index columns pick
each row's law and disturbance; _runs(cfg, setup) propagates it once and
slices out each curve, and run_scenario scores every curve. Every curve
is a closed-form Dirac distance to trim, the param one on the extended
space (see _cases); the transportation LP is kept for general CLI inputs
and as the oracle of that score. Wasserstein values are reported in the
degree-based reporting units (deg, ft/s, deg, deg/s) of f16.STATE_UNITS,
as are all file outputs. Reports are plain dicts rendered to report.json /
W.csv / snapshot CSVs. report.json holds the curves, the likelihood extremes
and the diverged and off-trim counts per curve, stamped with a content hash
over all of it but its run section (where and how the run executed: workers,
output_dir), so identical configurations are bit-reproducible. The snapshot
CSVs hold every sample's state and mass, from which any marginal is binned.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
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
from .f16 import (CONTROL_UNITS, DEG, STATE_UNITS, AeroTables, AircraftParams, ClosedLoop,
                  SineDisturbance, as_number, read_json)
from .liouville import EnsembleSnapshot, propagate, resolve_workers
from .sampling import BoxDomain, halton, mcmc_sample, weighted_cloud
from .transport import wasserstein_dirac
from .trim import TrimPoint, default_grid, find_trim, trim_grid

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
# The config list each scenario kind sweeps, one variant per entry.
_SWEEPS = {"param": "param_delta_percent", "disturbance": "omega_rad_s"}

STATE_KEYS = ("theta", "V", "alpha", "q")
# Cost weights expressing states in the reporting units (angles in deg).
PAPER_STATE_SCALE = 1.0 / STATE_UNITS

SNAPSHOT_BASE_COLUMNS = ["t", "id", "theta_deg", "V", "alpha_deg", "q_dps"]
SNAPSHOT_PARAM_COLUMNS = ["m", "xcg", "Jyy"]
# The diverged flags a snapshot CSV may hold; anything else is malformed.
_DIVERGED = {"0": False, "False": False, "false": False,
             "1": True, "True": True, "true": True}


class ConfigError(ValueError):
    """Scenario configuration is malformed or inconsistent."""


class NumericalFailure(RuntimeError):
    """A scenario aborted on a numerical error."""


def _check_int(v, what: str) -> None:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{what} must be an integer, got {v!r}")


def _check_number(v, what: str) -> None:
    try:
        if math.isfinite(as_number(v, what)):
            return
    except ValueError:
        pass
    raise ConfigError(f"{what} must be a finite number, got {v!r}")


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
        for name in ("samples", "emit_every", "seed"):
            _check_int(getattr(self, name), name)
        if self.workers is not None:
            _check_int(self.workers, "workers")
            if self.workers < 1:
                raise ConfigError("workers must be at least 1")
        for name in ("t_f", "dt", "disturbance_amp_deg"):
            _check_number(getattr(self, name), name)
        if not isinstance(self.strict_rk4, bool):
            raise ConfigError(f"strict_rk4 must be true or false, got {self.strict_rk4!r}")
        if not (self.output_dir is None or isinstance(self.output_dir, str) and self.output_dir):
            raise ConfigError(f"output_dir must be a non-empty path string, "
                              f"got {self.output_dir!r}")
        if not (self.t_f > 0 and self.dt > 0 and self.samples > 0):
            raise ConfigError("t_f, dt and samples must be positive")
        steps = self.t_f / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ConfigError(f"t_f / dt = {steps:g} must round to a finite step count "
                              "of at least 1")
        if self.emit_every < 1:
            raise ConfigError("emit_every must be at least 1")
        if self.x_pert_units not in ("deg", "rad"):
            raise ConfigError(f"unknown x_pert_units {self.x_pert_units!r}")
        if self.sampler not in ("halton", "mcmc"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        for name in _SWEEPS.values():  # a scalar is a one-entry sweep; a bool is neither
            value = getattr(self, name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                setattr(self, name, [float(value)])
        sweep = _SWEEPS.get(self.kind)
        if sweep:
            values = getattr(self, sweep)
            if not (isinstance(values, (list, tuple)) and values):
                raise ConfigError(f"a {self.kind} scenario needs a number or a non-empty "
                                  f"list {sweep}, got {values!r}")
            labels: dict[str, float] = {}  # the curves' variant labels, as _cases names them
            for v in values:
                _check_number(v, f"{sweep} entry")
                if sweep == "param_delta_percent" and not 0.0 <= v < 100.0:
                    raise ConfigError(f"{sweep} entry must lie in [0, 100), got {v!r}")
                label = f"{v:g}"
                if label in labels:
                    raise ConfigError(f"{sweep} entries {labels[label]!r} and {v!r} share "
                                      f"the label {label!r}")
                labels[label] = v
        for what in ("ic_box_deg", "x_pert"):
            if not isinstance(getattr(self, what), dict):
                raise ConfigError(f"{what} must be a JSON object")
        for key in STATE_KEYS:
            if key not in self.ic_box_deg:
                raise ConfigError(f"ic_box_deg missing {key!r}")
            bounds = self.ic_box_deg[key]
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
                raise ConfigError(f"ic_box_deg[{key!r}] must be a [lo, hi] pair")
            for v in bounds:
                _check_number(v, f"ic_box_deg[{key!r}] bound")
            if not bounds[0] < bounds[1]:
                raise ConfigError(f"ic_box_deg[{key!r}] is not a proper interval")
            if key not in self.x_pert:
                raise ConfigError(f"x_pert missing {key!r}")
            _check_number(self.x_pert[key], f"x_pert[{key!r}]")

    @property
    def controllers(self) -> list[str]:
        return ["lqr", "gslqr"] if self.controller == "both" else [self.controller]

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        def parse(doc):
            try:
                return cls(**doc)
            except TypeError as exc:  # an unknown field, or not a JSON object
                raise ConfigError(f"bad scenario config field: {exc}") from None
        return read_json(path, parse)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class ControllerSetup:
    """Everything scenario runs need: nominal trim, fixed gain, schedule, and
    the plant (params, tables) the gains were designed for and the closed
    loops fly; replace(setup, params=...) flies another with the same gains."""

    trim: TrimPoint
    K: np.ndarray
    model: LinearModel
    schedule: GainSchedule | None
    params: AircraftParams
    tables: AeroTables

    def closed_loop(self, name: str) -> ClosedLoop:
        """Controller "lqr" or "gslqr" flying the set-up's plant."""
        if name not in ("lqr", "gslqr"):
            raise ConfigError(f"unknown controller {name!r}")
        if name == "gslqr" and self.schedule is None:
            raise ConfigError("gain schedule not built")
        law = LqrLaw(self.K, self.trim) if name == "lqr" else ScheduledLaw(self.schedule)
        return ClosedLoop(law, self.params, self.tables)

    def closed_loop_linear_model(self) -> LinearModel:
        """Closed-loop (A - B K, B) model in the reporting units: the
        similarity transform of the radian model by the unit table."""
        A_cl = self.model.A - self.model.B @ self.K
        scale = PAPER_STATE_SCALE[:, None]
        return LinearModel(A=scale * A_cl * STATE_UNITS,
                           B=scale * self.model.B * CONTROL_UNITS)


def build_controllers(params: AircraftParams | None = None,
                      tables: AeroTables | None = None,
                      need_schedule: bool = True,
                      cfg: ScenarioConfig | None = None) -> ControllerSetup:
    """Trim the plant (nominal by default) at the nominal condition,
    synthesize the fixed gain under LqrWeights(), and build the 10x10 gain
    schedule (unless need_schedule is False). Given the scenario cfg the
    set-up is for, an ic box that the trim makes degenerate raises its
    ConfigError (_ic_box_internal) right after the trim, before the gains."""
    params = params or AircraftParams()
    tables = tables or AeroTables.default()
    weights = LqrWeights()
    trim = find_trim(NOMINAL_V, NOMINAL_ALPHA_DEG * DEG, params, tables)
    if cfg is not None and cfg.kind != "param":
        _ic_box_internal(cfg, trim.x_trim.as_array())
    model = linearize_plant(trim.x_trim.as_array(), trim.u_trim.as_array(), params, tables)
    K = lqr_gain(model, weights)
    schedule = None
    if need_schedule:
        schedule = build_schedule(trim_grid(default_grid(), params, tables),
                                  weights, params, tables, trim)
    return ControllerSetup(trim=trim, K=K, model=model, schedule=schedule,
                           params=params, tables=tables)


def _ic_box_internal(cfg: ScenarioConfig, x_trim: np.ndarray) -> BoxDomain:
    """The ic box around x_trim in internal units. ConfigError names the
    ic_box_deg entry whose shifted bounds are not strictly ordered, or, for
    a box volume that is not finite and positive, the widest (overflow) or
    narrowest (underflow) entry."""
    lower, upper = np.array([cfg.ic_box_deg[k] for k in STATE_KEYS], dtype=float).T
    lower, upper = x_trim + lower * STATE_UNITS, x_trim + upper * STATE_UNITS
    for key, lo, hi in zip(STATE_KEYS, lower.tolist(), upper.tolist()):
        if not lo < hi:
            raise ConfigError(f"ic_box_deg[{key!r}] {cfg.ic_box_deg[key]!r} shifted to trim "
                              f"gives bounds [{lo!r}, {hi!r}] that are not strictly ordered")
    try:
        return BoxDomain(lower, upper)
    except ValueError as exc:
        widths = upper - lower
        k = np.argmax(widths) if np.log(widths).sum() > 0.0 else np.argmin(widths)
        raise ConfigError(f"ic_box_deg[{STATE_KEYS[k]!r}]: {exc}") from None


def _x_pert_internal(cfg: ScenarioConfig) -> np.ndarray:
    vec = np.array([cfg.x_pert[k] for k in STATE_KEYS], dtype=float)
    return vec * STATE_UNITS if cfg.x_pert_units == "deg" else vec


def _draw(cfg: ScenarioConfig, box: BoxDomain):
    """cfg.samples points of box (cfg.sampler: Halton, or the seeded random
    walk on the box), each with the uniform density 1/volume and the
    transport mass 1/n (sampling.weighted_cloud)."""
    if cfg.sampler == "halton":
        samples = halton(cfg.samples, box)
    else:
        samples = mcmc_sample(box, cfg.samples, cfg.seed)
    return weighted_cloud(samples, box)


def initial_cloud(cfg: ScenarioConfig, x_trim: np.ndarray) -> EnsembleSnapshot:
    """Sample the initial-condition box and tag densities and masses."""
    return EnsembleSnapshot.from_cloud(*_draw(cfg, _ic_box_internal(cfg, x_trim)))


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
    """Unit-mass weights phi_i / sum(phi) from the carried density values.

    The samples of a snapshot are distributed as the propagated density
    rho_t, so their transport masses 1/n make W_mass an estimate of
    W(rho_t, delta_trim). These weights tilt that measure by rho_t once
    more: W, scored with them, estimates W of rho_t^2 / Z (Z the integral
    of rho_t^2) to trim, not of rho_t. Samples whose tracked density
    collapses relative to the ensemble, a low-density set that may still
    hold a few percent of the probability, then contribute little, which is
    what makes the W series converge when such a set fails to regulate.
    Where the divergence is uniform over the cloud (a linear field on a
    uniform box) the two weightings coincide; at t = 0 with a uniform
    initial density these weights equal the 1/n transport masses exactly.
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


def _extremes_records(snapshots) -> list[dict]:
    """Most- and least-likely trajectory ids (argmax and argmin phi) per
    emitted time; ties break to the lowest sample index."""
    return [{"t": s.t, "most_likely": int(np.argmax(s.phi)),
             "least_likely": int(np.argmin(s.phi))} for s in snapshots]


def _nonconverged_count(snapshot: EnsembleSnapshot, x_trim: np.ndarray,
                        tol: float = 1.0) -> int:
    """Samples still farther than tol (deg-mixed units) from trim."""
    diff = (snapshot.states - x_trim) * PAPER_STATE_SCALE
    return int(np.count_nonzero(np.linalg.norm(diff, axis=1) > tol))


@dataclass
class RunReport:
    """Assembled scenario results, hashable and serializable. The content
    hash covers every section but run, which says where and how the run
    executed rather than what it computed."""

    scenario: str
    config: dict
    nominal_trim: dict
    curves: list            # {controller, variant, t: [...], W: [...]}
    extremes: dict          # key "controller|variant" -> likelihood extreme ids per time
    diverged: dict          # key -> diverged-sample count at final time
    nonconverged: dict      # key -> samples off trim at final time
    extras: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    content_hash: str = ""

    def finalize(self) -> "RunReport":
        body = self.to_dict()
        del body["run"], body["content_hash"]
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
            "extremes": self.extremes,
            "diverged": self.diverged,
            "nonconverged": self.nonconverged,
            "extras": extras,
            "run": self.run,
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


def _float_column(values: np.ndarray):
    """The repr of each value. A column whose values are bit-identical (the
    int64 view, so 0.0 and -0.0 stay apart) is formatted once and repeated."""
    bits = values.view(np.int64)
    if (bits == bits[0]).all():
        return repeat(repr(float(values[0])), values.size)
    return map(repr, values.tolist())


def _snapshot_text(snap: EnsembleSnapshot, has_params: bool) -> str:
    floats = list((snap.states / STATE_UNITS).T)
    if has_params:
        floats += list(snap.params.T)
    floats += [snap.phi, snap.gamma]
    columns = [repeat(str(snap.t), snap.n), map(str, range(snap.n)),
               *map(_float_column, floats),
               [("0\r\n", "1\r\n")[d] for d in snap.diverged.tolist()]]
    return "".join(map(",".join, zip(*columns)))


def write_snapshot_csv(snapshots, path, memo: dict | None = None) -> None:
    """Long-format snapshot CSV (all emitted times in one file).

    The bytes are those csv.writer writes for the same rows: repr floats,
    str(t), CRLF line ends, and no quoting, which no field needs since none
    can hold a delimiter, a quote or a newline. Each snapshot is one write;
    its line ends ride on the last (diverged) column. memo, a dict shared
    between calls, maps the content of each file's first snapshot to its
    text: the initial cloud that several controllers (and frequencies)
    share is formatted once.
    """
    snapshots = snapshots if isinstance(snapshots, (list, tuple)) else [snapshots]
    has_params = snapshots[0].params.shape[1] == 3
    first = snapshots[0]
    key = (str(first.t), *(a.tobytes() for a in (first.states, first.params, first.phi,
                                                first.gamma, first.diverged)))
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = _snapshot_text(first, has_params)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(",".join(_snapshot_columns(has_params)) + "\r\n")
        f.write(memo[key])
        for snap in snapshots[1:]:
            f.write(_snapshot_text(snap, has_params))


def read_snapshot_csv(path) -> list[EnsembleSnapshot]:
    """Inverse of write_snapshot_csv; ValueError naming the file (and the row
    and column) on a malformed file, an unparseable or non-finite number, or
    a negative transport mass gamma. A negative phi is read as it is: the
    density weights clamp it at zero (probability_weights)."""
    with open(path) as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    header = reader.fieldnames or []
    has_params = "m" in header
    missing = [c for c in _snapshot_columns(has_params) if c not in header]
    if missing:
        raise ValueError(f"snapshot file {path} lacks columns {', '.join(missing)}")
    if not rows:
        raise ValueError(f"empty snapshot file {path}")
    if any(None in r for r in rows):  # DictReader files surplus fields under None
        raise ValueError(f"snapshot file {path} has a row with more fields than its header")
    if any(None in r.values() for r in rows):  # and fills missing ones with None
        raise ValueError(f"snapshot file {path} has a row with fewer fields than its header")
    numeric = [c for c in _snapshot_columns(has_params) if c not in ("id", "diverged")]
    by_t: dict[float, list] = {}
    for r in rows:
        where = f"snapshot file {path} row id {r['id']}"
        try:
            r["id"] = int(r["id"])
        except ValueError:
            raise ValueError(f"{where} has non-integer id") from None
        for c in numeric:
            try:
                r[c] = float(r[c])
            except ValueError:
                raise ValueError(f"{where} has non-numeric {c} {r[c]!r}") from None
            if not math.isfinite(r[c]):
                raise ValueError(f"{where} has non-finite {c}")
        if r["gamma"] < 0.0:
            raise ValueError(f"{where} has negative gamma")
        by_t.setdefault(r["t"], []).append(r)
    snaps = []
    for t in sorted(by_t):
        chunk = sorted(by_t[t], key=lambda r: r["id"])
        ids = [r["id"] for r in chunk]
        repeated = [i for i, j in zip(ids, ids[1:]) if i == j]
        if repeated:
            raise ValueError(f"snapshot file {path} repeats id {repeated[0]} at t = {t}")
        states = np.array([[r[c] for c in SNAPSHOT_BASE_COLUMNS[2:]] for r in chunk]) * STATE_UNITS
        params = (np.array([[r[c] for c in SNAPSHOT_PARAM_COLUMNS] for r in chunk])
                  if has_params else None)
        phi = np.array([r["phi"] for r in chunk])
        gamma = np.array([r["gamma"] for r in chunk])
        try:
            dead = np.array([_DIVERGED[r["diverged"]] for r in chunk])
        except KeyError as exc:
            raise ValueError(f"snapshot file {path} has diverged value {exc.args[0]!r}, "
                             "not one of 0, 1, False, True, false, true") from None
        snaps.append(EnsembleSnapshot(t=t, states=states, params=params,
                                      phi=phi, gamma=gamma, diverged=dead))
    return snaps


def save_report(report: RunReport, out_dir,
                snapshots_by_key: dict | None = None) -> Path:
    """Write report.json, W.csv, and snapshot CSVs under out_dir; the CSVs
    share one write_snapshot_csv memo."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as f:
        f.write(json.dumps(report.to_dict()) + "\n")  # json's C encoder takes no indent
    with open(out / "W.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "variant", "controller", "W"])
        for c in report.curves:
            for t, W in zip(c["t"], c["W"]):
                w.writerow([t, c["variant"], c["controller"], W])
    if snapshots_by_key:
        memo: dict = {}
        for key, snaps in snapshots_by_key.items():
            write_snapshot_csv(snaps, out / "snapshots" / f"{key}.csv", memo)
    return out


def _key(controller: str, variant: str) -> str:
    return f"{controller}|{variant}" if variant else controller


def _param_cloud(cfg: ScenarioConfig, delta: float, x0: np.ndarray,
                 params: AircraftParams) -> EnsembleSnapshot:
    nominal = np.array([params.m, params.xcg, params.Jyy])
    if delta == 0.0:
        n = cfg.samples  # degenerate parameter distribution: flat placeholder density
        p, phi, gamma = np.tile(nominal, (n, 1)), np.ones(n), np.full(n, 1.0 / n)
    else:
        half = np.abs(nominal) * (delta / 100.0)
        p, phi, gamma = _draw(cfg, BoxDomain(nominal - half, nominal + half))
    return EnsembleSnapshot.from_cloud(np.tile(x0, (len(p), 1)), phi, gamma, params=p)


def _cases(cfg: ScenarioConfig, setup: ControllerSetup):
    """The one propagation of a scenario: (stacked ensemble, closed loop,
    curves in report order).

    A curve is (controller, variant, its rows of the ensemble, its initial
    cloud, whose params and masses its snapshots carry). Per kind, a
    controller's curves are
      ic          the box cloud, variant ""
      disturbance the box cloud under w(t) = A sin(omega t), variant
                  "omega=.." per omega (report order: per omega, then per
                  controller)
      param       the deterministic trajectory, variant "deterministic": x0
                  on the set-up plant, one row with phi = 1; then a cloud
                  per delta, variant "delta=..", the boxes centred on
                  setup.params.
    The rows are controller-major, [lqr: curve_1 ... curve_m | gslqr:
    curve_1 ... curve_m], and each row's p block ends (after its cloud's
    m, xcg, Jyy, if any) in the frozen index columns f16.ClosedLoop reads:
    its controller's position in cfg.controllers and its omega's in
    cfg.omega_rad_s (0 without one). Rows are independent, so a curve's
    slice equals its cloud's own propagation bit for bit.

    The param W against the trim-pinned reference sharing the parameter
    samples, with transport masses on both marginals, is the mass-weighted
    Dirac distance to trim: every coupling pays sum_i gamma_i ||x_i -
    x_trim||^2 and the identity pays no parameter displacement
    (extended_wasserstein's LP is the oracle).
    """
    x_trim = setup.trim.x_trim.as_array()
    if cfg.kind == "param":
        x0 = x_trim + _x_pert_internal(cfg)
        variants = [("deterministic", _param_cloud(replace(cfg, samples=1), 0.0, x0,
                                                   setup.params))]
        variants += [(f"delta={d:g}", _param_cloud(cfg, float(d), x0, setup.params))
                     for d in cfg.param_delta_percent]
    else:
        cloud = initial_cloud(cfg, x_trim)
        names = [f"omega={w:g}" for w in cfg.omega_rad_s] if cfg.kind == "disturbance" else [""]
        variants = [(name, cloud) for name in names]
    keyed, start = [], 0  # ((controller, disturbance) ids, curve), controller-major
    for i, name in enumerate(cfg.controllers):
        for k, (variant, cloud) in enumerate(variants):
            ids = (i, k if cfg.kind == "disturbance" else 0)
            keyed.append((ids, (name, variant, slice(start, start + cloud.n), cloud)))
            start += cloud.n
    clouds = [(ids, curve[-1]) for ids, curve in keyed]
    ensemble = EnsembleSnapshot.from_cloud(
        np.vstack([c.states for _, c in clouds]), np.concatenate([c.phi for _, c in clouds]),
        np.full(start, 1.0 / start),
        params=np.vstack([np.column_stack([c.params, np.full((c.n, 2), ids)])
                          for ids, c in clouds]))
    disturbances = (tuple(SineDisturbance(cfg.disturbance_amp_deg * DEG, float(w))
                          for w in cfg.omega_rad_s) if cfg.kind == "disturbance" else None)
    loop = ClosedLoop(tuple(setup.closed_loop(name).law for name in cfg.controllers),
                      setup.params, setup.tables, disturbances)
    # report order: per disturbance, then per controller (sorted is stable)
    return ensemble, loop, [curve for _, curve in sorted(keyed, key=lambda e: e[0][::-1])]


def _runs(cfg: ScenarioConfig, setup: ControllerSetup):
    """Propagate the stacked ensemble of _cases once and slice it up.

    Yields, per curve in report order, (controller, variant, snapshots): its
    rows of the ensemble's snapshots, carrying its cloud's params and masses.
    """
    ensemble, loop, curves = _cases(cfg, setup)
    snaps = propagate(ensemble, loop, cfg.t_f, cfg.dt, cfg.emit_every,
                      cfg.strict_rk4, cfg.workers)
    for name, variant, rows, cloud in curves:
        yield name, variant, [EnsembleSnapshot(t=s.t, states=s.states[rows], params=cloud.params,
                                               phi=s.phi[rows], gamma=cloud.gamma,
                                               diverged=s.diverged[rows]) for s in snaps]


def run_scenario(cfg: ScenarioConfig, setup: ControllerSetup,
                 keep_snapshots: bool = False) -> RunReport:
    """Run the experiment cfg describes and assemble its report.

    The scenario propagates once (_runs) and each curve is scored on its
    slice: ic and disturbance curves by density weights (W) and transport
    masses (W_mass), param delta curves by masses, and the param
    deterministic curve by its distance to trim alone. A disturbance run of
    both controllers also reports the W_lqr - W_gslqr series per
    frequency.
    """
    x_trim = setup.trim.x_trim.as_array()
    config = cfg.to_dict()
    del config["workers"]
    run = {"workers": resolve_workers(cfg.workers), "output_dir": config.pop("output_dir")}
    report = RunReport(scenario=cfg.kind, config=config, nominal_trim=setup.trim.to_dict(),
                       curves=[], extremes={}, diverged={}, nonconverged={}, run=run)
    snapshots_by_key = {}
    for name, variant, snaps in _runs(cfg, setup):
        curve = {"controller": name, "variant": variant, "t": [s.t for s in snaps]}
        report.curves.append(curve)
        if variant == "deterministic":
            curve["W"] = [float(np.linalg.norm((s.states[0] - x_trim) * PAPER_STATE_SCALE))
                          for s in snaps]
            continue
        W_mass = _W_dirac_series(snaps, x_trim, "mass")
        if cfg.kind == "param":
            curve["W"] = W_mass
        else:
            curve.update(W=_W_dirac_series(snaps, x_trim), W_mass=W_mass)
        key = _key(name, variant)
        report.extremes[key] = _extremes_records(snaps)
        report.diverged[key] = int(np.count_nonzero(snaps[-1].diverged))
        report.nonconverged[key] = _nonconverged_count(snaps[-1], x_trim)
        if keep_snapshots:
            snapshots_by_key[key] = snaps
    if cfg.kind == "disturbance" and cfg.controller == "both":
        lqr, gslqr = ([c for c in report.curves if c["controller"] == name]
                      for name in ("lqr", "gslqr"))
        report.extras["W_lqr_minus_gslqr"] = [
            {"variant": a["variant"], "t": a["t"],
             "W_diff": (np.asarray(a["W"]) - np.asarray(b["W"])).tolist()}
            for a, b in zip(lqr, gslqr)]
    report.finalize()
    if cfg.output_dir:
        save_report(report, cfg.output_dir, snapshots_by_key or None)
    if keep_snapshots:
        report.extras["snapshots"] = snapshots_by_key
    return report

