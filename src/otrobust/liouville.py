"""Meshless density propagation along closed-loop characteristics.

Each sample of the initial joint density is co-integrated as a fixed-step
RK4 characteristic: the state follows the closed-loop field, constant
uncertain parameters ride along with zero derivative, and the tracked
density value obeys d(phi)/dt = -div(f) phi along the trajectory.

The divergence is the trace of the Jacobian of the state block (the
parameter block contributes nothing). By default it is evaluated once per
step at the Euler midpoint state X2 and the density is advanced by the
degree-4 Taylor factor of exp(-div dt): exact-order RK4 when the divergence
is constant along the trajectory, second-order for a time-varying
divergence, and one Jacobian per step instead of four. strict_rk4 switches
to per-stage divergence evaluations co-integrated through the full RK4
tableau.

Kink convention. The closed loop is only piecewise smooth (saturation,
table breakpoints, schedule cells), and the divergence is defined as the
central-difference secant with steps h = H_REL max(1, |x|) per direction.
A ClosedLoop gives it in closed form: its state_rhs_div runs the stage
that needs a divergence and returns the analytic trace, with the thrust
saturation taken as that same secant, plus the rows whose stencil crosses
any other kink. Only those rows get finite differences, in one field call
of their own. Any other rhs, a plain callable rhs(t, x, p), gets finite
differences on every row: all +/- perturbed copies stacked into as few
field calls as DIVERGENCE_ROW_BUDGET allows (a 200-sample step makes 5
field calls, 4 of them RK4 stages). divergence() is that path, the
fallback at kinks and the closed form's test oracle.

Samples whose state or density goes non-finite are frozen at their last
finite values and flagged diverged; they stay in every later snapshot so
transport masses remain accounted for.

Vector fields are callables rhs(t, x, p) -> dx/dt, vectorized over leading
sample axes (p may be None), or objects with such a state_rhs method and a
state_rhs_div (a ClosedLoop). Per-sample propagation is independent, so the
ensemble can be split across a process pool. The split is round robin:
worker i takes rows i, i + workers, ..., so that the rows of every curve of
a stacked ensemble (one per controller and variant, see harness._cases)
spread over the workers; the results are reassembled in index order, and
the arithmetic per sample is identical regardless of the split.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .f16 import H_REL

WORKERS_ENV = "OTROBUST_WORKERS"
# Largest stacked batch of perturbed states per rhs call in divergence().
DIVERGENCE_ROW_BUDGET = 4096
# RK4 stage nodes: stage i runs at t + c_i dt from y + c_i dt k_(i-1).
_RK4_C = (0.0, 0.5, 0.5, 1.0)


@dataclass(eq=False)
class EnsembleSnapshot:
    """Time-stamped ensemble: states (n, dx), params (n, dp), densities,
    masses and diverged flags."""

    t: float
    states: np.ndarray
    params: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    diverged: np.ndarray

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        n = self.states.shape[0]
        self.params = (np.zeros((n, 0)) if self.params is None
                       else np.atleast_2d(np.asarray(self.params, dtype=float)))
        self.phi = np.asarray(self.phi, dtype=float).reshape(n)
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(n)
        self.diverged = (np.zeros(n, dtype=bool) if self.diverged is None
                         else np.asarray(self.diverged, dtype=bool).reshape(n))
        if self.params.shape[0] != n:
            raise ValueError("params row count differs from states")
        try:
            total = math.fsum(self.gamma.tolist())
        except (OverflowError, ValueError):  # the sum overflows, or holds inf - inf
            total = math.nan
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError("transport masses must sum to one")

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def extended(self) -> np.ndarray:
        """States and parameters concatenated, (n, dx + dp)."""
        return np.concatenate([self.states, self.params], axis=1)

    @classmethod
    def from_cloud(cls, states, phi, gamma, params=None, t: float = 0.0) -> "EnsembleSnapshot":
        return cls(t=t, states=states, params=params, phi=phi, gamma=gamma, diverged=None)


def divergence(rhs: Callable, x: np.ndarray, p: np.ndarray | None, t: float) -> np.ndarray:
    """Divergence of the state block of rhs at (x, p, t), batched.

    Central differences per state direction with steps H_REL max(1, |x|);
    the frozen parameter block contributes zero. The +/- perturbed copies of
    the block go through rhs stacked (p tiled to match): as many whole +/-
    pairs per call as fit in DIVERGENCE_ROW_BUDGET rows, and at least one.
    The terms are summed in direction order either way. The step is larger
    than the one used for control-synthesis Jacobians: the trace feeds only
    the density ODE and a larger step keeps subtractive-cancellation noise
    below the integrator's truncation error. Non-finite entries stay in
    place, so ensemble integration can flag the sample (a state mid-blow-up
    can be finite while its neighbourhood is not).

    This is the generic path of propagate, the fallback of the closed-form
    divergence at kinks, and its test oracle.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    X = np.atleast_2d(x)
    P = None if p is None else np.atleast_2d(np.asarray(p, dtype=float))
    n, dx = X.shape
    div = np.zeros(n)
    h = H_REL * np.maximum(1.0, np.abs(X))
    per_call = max(1, DIVERGENCE_ROW_BUDGET // (2 * n))
    for k0 in range(0, dx, per_call):
        ks = range(k0, min(dx, k0 + per_call))
        # rows ordered (direction, sign, sample)
        S = np.broadcast_to(X, (len(ks), 2, n, dx)).copy()
        for i, k in enumerate(ks):
            S[i, 0, :, k] += h[:, k]
            S[i, 1, :, k] -= h[:, k]
        F = np.atleast_2d(rhs(t, S.reshape(-1, dx),
                              None if P is None else np.tile(P, (2 * len(ks), 1))))
        F = F.reshape(len(ks), 2, n, -1)
        for i, k in enumerate(ks):
            div += (F[i, 0, :, k] - F[i, 1, :, k]) / (2.0 * h[:, k])
    return div[0] if squeeze else div


def _density_multiplier(z: np.ndarray) -> np.ndarray:
    """Degree-4 Taylor factor of exp(-z); strictly positive for real z."""
    return 1.0 - z + z * z / 2.0 - z ** 3 / 6.0 + z ** 4 / 24.0


def _fields(rhs):
    """(field, fused) of a propagate rhs: the vector field f(t, x, p), and
    state_rhs_div of an rhs that has one (a ClosedLoop), else None."""
    return getattr(rhs, "state_rhs", rhs), getattr(rhs, "state_rhs_div", None)


def _rhs_div(f, fused, t, X, P):
    """(f(t, X, P), divergence): the closed form, with the finite-difference
    divergence on the rows it flags, or finite differences throughout when
    there is no closed form."""
    if fused is None:
        return f(t, X, P), divergence(f, X, P, t)
    k, div, kink = fused(t, X, P)
    if np.any(kink):
        div[kink] = divergence(f, X[kink], None if P is None else P[kink], t)
    return k, div


def _step(f, fused, t, X, P, phi, dt, strict_rk4: bool, track_density: bool):
    """One RK4 step of states plus the density factor for the step.

    Each stage calls f, or _rhs_div where the density needs a divergence:
    at every stage under strict_rk4, by default only at the k2 stage (the
    Euler midpoint X2), and nowhere with track_density=False. The state
    arithmetic is the same either way, so a plain trajectory ensemble
    reproduces the density-tracking run bit for bit.
    """
    k, div = [], []
    for c in _RK4_C:
        Xs = X + c * dt * k[-1] if k else X
        if track_density and (strict_rk4 or len(k) == 1):
            ki, di = _rhs_div(f, fused, t + c * dt, Xs, P)
            div.append(di)
        else:
            ki = f(t + c * dt, Xs, P)
        k.append(ki)
    X_new = X + dt / 6.0 * (k[0] + 2 * k[1] + 2 * k[2] + k[3])
    if not track_density:
        return X_new, phi
    if not strict_rk4:
        # the RK4 one-step map of phi' = -div phi with div frozen at X2
        return X_new, phi * _density_multiplier(dt * div[0])
    kp = []
    for c, di in zip(_RK4_C, div):
        kp.append(-di * (phi + c * dt * kp[-1] if kp else phi))
    return X_new, phi + dt / 6.0 * (kp[0] + 2 * kp[1] + 2 * kp[2] + kp[3])


def _propagate_arrays(rhs, X0, P0, phi0, t0, n_steps, dt, emit_steps,
                      strict_rk4, diverged0=None, track_density=True):
    """Integrate a block of samples; returns per-emit (t, X, phi, diverged).

    A sample is frozen (flagged diverged) as soon as its next state has a
    non-finite component; its last finite state and density stay in every
    later snapshot. A density value that degenerates on its own freezes
    only the density, never the state.
    """
    f, fused = _fields(rhs)
    X = np.array(X0, dtype=float)
    phi = np.array(phi0, dtype=float)
    dead = (np.zeros(X.shape[0], dtype=bool) if diverged0 is None
            else np.array(diverged0, dtype=bool))
    out = []
    if 0 in emit_steps:
        out.append((t0, X.copy(), phi.copy(), dead.copy()))
    with np.errstate(all="ignore"):
        for s in range(1, n_steps + 1):
            t = t0 + (s - 1) * dt
            X_new, phi_new = _step(f, fused, t, X, P0, phi, dt, strict_rk4, track_density)
            ok = np.isfinite(X_new[:, 0])
            for column in X_new.T[1:]:  # a row is finite if each of its columns is
                ok &= np.isfinite(column)
            upd = ok & ~dead
            np.copyto(X, X_new, where=upd[:, None])
            if track_density:
                np.copyto(phi, phi_new, where=upd & np.isfinite(phi_new))
            dead |= ~ok
            if s in emit_steps:
                out.append((t0 + s * dt, X.copy(), phi.copy(), dead.copy()))
    return out


def _propagate_chunk(args):
    return _propagate_arrays(*args)


def resolve_workers(workers: int | None = None) -> int:
    """Worker-count policy: explicit argument capped by OTROBUST_WORKERS."""
    env = os.environ.get(WORKERS_ENV)
    try:
        cap = int(env) if env else None
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers is None:
        workers = cap if cap is not None else 1
    if cap is not None:
        workers = min(workers, cap)
    return max(1, workers)


def propagate(cloud: EnsembleSnapshot, rhs: Callable, t_f: float, dt: float,
              emit_every: int = 1, strict_rk4: bool = False,
              workers: int | None = None,
              track_density: bool = True) -> list[EnsembleSnapshot]:
    """Propagate an ensemble to t_f with fixed-step RK4; emit snapshots.

    Snapshots are produced at the initial time, every emit_every steps, and
    at t_f. Transport masses are carried through unchanged; densities evolve
    per the characteristic ODE (track_density=False runs the same state
    integration as a plain Monte Carlo ensemble). rhs is a vector field
    rhs(t, x, p) or a ClosedLoop, whose closed-form divergence the density
    then uses (see the module docstring). With workers > 1 the rows are
    dealt round robin across a process pool (rhs must then be picklable);
    the result is identical to the single-process run.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round((t_f - cloud.t) / dt))
    if n_steps <= 0:
        raise ValueError("t_f must lie at least one step beyond the cloud time")
    emit_every = max(1, int(emit_every))
    emit_steps = set(range(0, n_steps + 1, emit_every))
    emit_steps.add(n_steps)

    workers = resolve_workers(workers)
    X0, P0 = cloud.states, (cloud.params if cloud.params.shape[1] else None)
    parts = ([slice(None)] if workers == 1 or cloud.n < 2 * workers
             else [np.arange(i, cloud.n, workers) for i in range(workers)])
    jobs = [(rhs, X0[rows], None if P0 is None else P0[rows], cloud.phi[rows], cloud.t,
             n_steps, dt, emit_steps, strict_rk4, cloud.diverged[rows], track_density)
            for rows in parts]
    if len(jobs) == 1:
        blocks = [_propagate_chunk(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            blocks = list(pool.map(_propagate_chunk, jobs))

    snapshots = []
    for k in range(len(emit_steps)):
        X, phi = np.empty_like(X0), np.empty(cloud.n)
        dead = np.empty(cloud.n, dtype=bool)
        for rows, blk in zip(parts, blocks):
            t_k, X[rows], phi[rows], dead[rows] = blk[k]
        snapshots.append(EnsembleSnapshot(
            t=t_k, states=X, params=cloud.params, phi=phi,
            gamma=cloud.gamma, diverged=dead))
    return snapshots


def likelihood_extremes(snapshots: Sequence[EnsembleSnapshot]) -> list[tuple[float, int, int]]:
    """Most- and least-likely trajectory ids per emitted time.

    Returns (t, argmax phi, argmin phi) triples; ties break to the lowest
    sample index (np.argmax/argmin semantics).
    """
    if not snapshots:
        raise ValueError("no snapshots")
    out = []
    for snap in snapshots:
        out.append((snap.t, int(np.argmax(snap.phi)), int(np.argmin(snap.phi))))
    return out
