"""Benchmark workloads: seed -> scenario config, and the work each one does.

Seed 0 gives the checked-in desk geometry (default ic box, x_pert and the
2.5 / 15 % deltas). Any other seed moves the ic-box edges, the x_pert
components and the delta values by small seeded offsets, so the numbers
change but the work (sample count, step count, snapshot count) does not.
The program only ever sees the generated ScenarioConfig.
"""

from __future__ import annotations

import numpy as np

from otrobust.harness import DEFAULT_IC_BOX_DEG, DEFAULT_X_PERT, ScenarioConfig

# name -> fixed shape of the workload. Horizons are short so that one
# scenario takes a fraction of a second (about two on param-lp, whose LP
# solves do not shrink with the horizon) and a run repeats it many times:
# the median over many short scenarios, scaled by the calibration kernel
# (calibration.py), is what keeps a run steady on a machine whose speed
# drifts from second to second.
WORKLOADS = {
    # per-call-overhead regime: 200 samples, desk emit cadence
    "ic-desk": {"kind": "ic", "samples": 200, "t_f": 0.25, "emit_every": 100},
    # per-sample regime: the 2000-sample ic_full shape, 10x the CSV rows
    "ic-wide": {"kind": "ic", "samples": 2000, "t_f": 0.1, "emit_every": 100},
    # extended-space LP on the hot path, several variants per controller,
    # plus the n = 1 deterministic reference propagation
    "param-lp": {"kind": "param", "samples": 200, "t_f": 0.3, "emit_every": 30,
                 "param_delta_percent": [2.5, 15.0]},
}

DT = 0.01
# Smoke mode keeps every code path but integrates only two steps.
SMOKE_T_F = 2 * DT


def make_config(workload: str, seed: int, output_dir: str,
                smoke: bool = False) -> ScenarioConfig:
    """Scenario config for one workload and seed."""
    shape = dict(WORKLOADS[workload])
    kind = shape.pop("kind")
    rng = np.random.default_rng(seed)
    jitter = (lambda size: np.zeros(size)) if seed == 0 else \
        (lambda size: rng.uniform(-1.0, 1.0, size))
    box = {k: [lo + 2.0 * e_lo, hi + 2.0 * e_hi]
           for (k, (lo, hi)), (e_lo, e_hi)
           in zip(DEFAULT_IC_BOX_DEG.items(), jitter((4, 2)))}
    x_pert = {k: v * (1.0 + 0.1 * e)
              for (k, v), e in zip(DEFAULT_X_PERT.items(), jitter(4))}
    doc = {"kind": kind, "controller": "both", "dt": DT, "seed": seed,
           "ic_box_deg": box, "x_pert": x_pert,
           "output_dir": output_dir, **shape}
    if "param_delta_percent" in doc:
        deltas = np.asarray(doc["param_delta_percent"], dtype=float)
        doc["param_delta_percent"] = (deltas * (1.0 + 0.1 * jitter(deltas.size))).tolist()
    if smoke:
        doc["t_f"] = SMOKE_T_F
    return ScenarioConfig(**doc)


def sample_steps(cfg: ScenarioConfig) -> int:
    """Sum over the scenario's propagations of samples x RK4 steps."""
    steps = int(round(cfg.t_f / cfg.dt))
    if cfg.kind == "param":
        # one n = 1 reference trajectory plus one cloud per delta
        per_controller = 1 + len(cfg.param_delta_percent) * cfg.samples
    else:
        per_controller = cfg.samples
    return len(cfg.controllers) * per_controller * steps
