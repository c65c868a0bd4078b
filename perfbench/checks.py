"""Output checks run on every scenario of every benchmark run.

The checks read what a user gets (report.json, W.csv, the snapshot CSVs)
and compare it with closed forms the benchmark computes itself from the
in-memory snapshots:

  * every W is finite and >= 0, and transport masses sum to 1;
  * ic: W and W_mass equal the density- and mass-weighted RMS distance to
    trim of each snapshot, and the t = 0 cloud lies in the configured box;
  * param: every LP W equals the mass-weighted Dirac distance of the same
    snapshot (the parameter block never moves, so the optimal plan pays
    only the state dispersion), and the deterministic curve starts at the
    norm of x_pert;
  * snapshot CSVs read back through read_snapshot_csv match the snapshots.

For seed 0 the W curves are also compared with the stored reference curves
in reference/<workload>.json, to REFERENCE_RTOL; content-hash agreement is
reported separately and is not a failure.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from otrobust.f16 import AircraftParams
from otrobust.harness import read_snapshot_csv

DEG = math.pi / 180.0
# reporting units: deg, ft/s, deg, deg/s
SCALE = np.array([1.0 / DEG, 1.0, 1.0 / DEG, 1.0 / DEG])
IDENTITY_RTOL = 1e-9        # program W against the benchmark's closed form
CSV_RTOL = 1e-12            # snapshot CSV round trip (deg <-> rad)
REFERENCE_RTOL = 1e-6       # seed-0 W curves against the stored reference
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def rms_to(states, x_ref, weights) -> float:
    """Closed-form W2 between a weighted cloud and the Dirac at x_ref."""
    d = (np.asarray(states) - x_ref) * SCALE
    return math.sqrt(float(np.sum(np.asarray(weights) * np.sum(d * d, axis=1))))


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * abs(b) + 1e-12


def _key(curve) -> str:
    return f"{curve['controller']}|{curve['variant']}" if curve["variant"] else curve["controller"]


def _box_internal(cfg, x_trim):
    b = cfg.ic_box_deg
    unit = np.array([DEG, 1.0, DEG, DEG])
    lo = x_trim + np.array([b[k][0] for k in ("theta", "V", "alpha", "q")]) * unit
    hi = x_trim + np.array([b[k][1] for k in ("theta", "V", "alpha", "q")]) * unit
    return lo, hi


def _x_pert_internal(cfg):
    vec = np.array([cfg.x_pert[k] for k in ("theta", "V", "alpha", "q")], dtype=float)
    return vec * np.array([DEG, 1.0, DEG, DEG]) if cfg.x_pert_units == "deg" else vec


def _check_curve(cfg, x_trim, curve, snaps, problems):
    label = _key(curve)
    W = np.asarray(curve["W"], dtype=float)
    if curve["variant"] == "deterministic":
        expected = float(np.linalg.norm(_x_pert_internal(cfg) * SCALE))
        if not _close(W[0], expected, IDENTITY_RTOL):
            problems.append(f"{label}: W(0) = {W[0]!r}, norm of x_pert is {expected!r}")
        return
    if snaps is None:
        problems.append(f"{label}: no in-memory snapshots")
        return
    if [s.t for s in snaps] != list(curve["t"]):
        problems.append(f"{label}: curve times differ from snapshot times")
        return
    for k, s in enumerate(snaps):
        if abs(math.fsum(s.gamma.tolist()) - 1.0) > 1e-12 or np.any(s.gamma < 0):
            problems.append(f"{label} t={s.t}: transport masses do not sum to 1")
        W_mass = rms_to(s.states, x_trim, s.gamma)
        if cfg.kind == "param":
            if not _close(W[k], W_mass, IDENTITY_RTOL):
                problems.append(f"{label} t={s.t}: LP W {W[k]!r} != Dirac {W_mass!r}")
            continue
        phi = np.maximum(s.phi, 0.0)
        W_dens = rms_to(s.states, x_trim, phi / phi.sum())
        if not _close(W[k], W_dens, IDENTITY_RTOL):
            problems.append(f"{label} t={s.t}: W {W[k]!r} != closed form {W_dens!r}")
        if not _close(curve["W_mass"][k], W_mass, IDENTITY_RTOL):
            problems.append(f"{label} t={s.t}: W_mass {curve['W_mass'][k]!r} "
                            f"!= closed form {W_mass!r}")
    first = snaps[0]
    if cfg.kind == "ic":
        lo, hi = _box_internal(cfg, x_trim)
        if first.n != cfg.samples or np.any(first.states < lo) or np.any(first.states > hi):
            problems.append(f"{label}: t = 0 cloud is not {cfg.samples} samples in the box")
    else:
        x0 = x_trim + _x_pert_internal(cfg)
        delta = float(curve["variant"].split("=")[1]) / 100.0
        p = AircraftParams()
        nominal = np.array([p.m, p.xcg, p.Jyy])
        half = np.abs(nominal) * delta * (1 + 1e-12)
        if (not np.allclose(first.states, x0, rtol=0, atol=1e-12)
                or np.any(np.abs(first.params - nominal) > half)):
            problems.append(f"{label}: t = 0 cloud is not x0 with parameters in the box")


def _check_csv(path, snaps, problems):
    try:
        back = read_snapshot_csv(path)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"{path.name}: cannot read back ({exc})")
        return
    if len(back) != len(snaps):
        problems.append(f"{path.name}: {len(back)} snapshots read back, {len(snaps)} kept")
        return
    for b, s in zip(back, snaps):
        same = (b.t == s.t and np.array_equal(b.diverged, s.diverged)
                and all(np.allclose(getattr(b, f), getattr(s, f), rtol=CSV_RTOL, atol=1e-300)
                        for f in ("states", "params", "phi", "gamma")))
        if not same:
            problems.append(f"{path.name} t={s.t}: read-back differs from the snapshot")


def check_outputs(cfg, x_trim, report, out_dir) -> list[str]:
    """Problems found in one scenario's outputs; empty when all hold."""
    out_dir = Path(out_dir)
    problems: list[str] = []
    try:
        with open(out_dir / "report.json") as f:
            disk = json.load(f)
        with open(out_dir / "W.csv", newline="") as f:
            w_rows = list(csv.DictReader(f))
    except (OSError, ValueError) as exc:
        return [f"cannot read outputs: {exc}"]
    curves = disk.get("curves", [])
    per_controller = 1 + len(cfg.param_delta_percent) if cfg.kind == "param" else 1
    if len(curves) != len(cfg.controllers) * per_controller:
        problems.append(f"report has {len(curves)} curves")
    csv_W = [float(r["W"]) for r in w_rows]
    if csv_W != [w for c in curves for w in c["W"]]:
        problems.append("W.csv differs from report.json")
    snaps_by_key = report.extras.get("snapshots", {})
    for c in curves:
        W = np.asarray(c["W"], dtype=float)
        if W.size == 0 or W.size != len(c["t"]) or not np.all(np.isfinite(W)) or np.any(W < 0):
            problems.append(f"{_key(c)}: W is empty, non-finite or negative")
            continue
        _check_curve(cfg, x_trim, c, snaps_by_key.get(_key(c)), problems)
    for key, snaps in snaps_by_key.items():
        _check_csv(out_dir / "snapshots" / f"{key}.csv", snaps, problems)
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def compare_reference(workload: str, cfg, out_dir):
    """(problems, hash_match) against the stored seed-0 curves; hash_match
    is None when no reference applies to this config."""
    path = reference_path(workload)
    if not path.exists():
        return [], None
    with open(path) as f:
        ref = json.load(f)
    if ref["config"] != json.loads(json.dumps(cfg.to_dict())):
        return [], None
    with open(Path(out_dir) / "report.json") as f:
        disk = json.load(f)
    problems = []
    got = {_key(c): c["W"] for c in disk["curves"]}
    for c in ref["curves"]:
        W = got.get(_key(c))
        if W is None or len(W) != len(c["W"]) or not all(
                _close(a, b, REFERENCE_RTOL) for a, b in zip(W, c["W"])):
            problems.append(f"{_key(c)}: W differs from the reference curve")
    return problems, disk.get("content_hash") == ref["content_hash"]


def write_reference(workload: str, cfg, out_dir) -> Path:
    with open(Path(out_dir) / "report.json") as f:
        disk = json.load(f)
    doc = {"config": cfg.to_dict(), "content_hash": disk["content_hash"],
           "rtol": REFERENCE_RTOL,
           "curves": [{k: c[k] for k in ("controller", "variant", "t", "W")}
                      for c in disk["curves"]]}
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path
