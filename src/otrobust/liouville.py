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
differences on every row: all +/- perturbed copies stacked into one
field call (a step makes 5 field calls, 4 of them RK4 stages).
divergence() is that path, the fallback at kinks and the closed form's
test oracle.

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
from typing import Callable

import numpy as np

from .f16 import H_REL, central_difference

WORKERS_ENV = "OTROBUST_WORKERS"
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

    @classmethod
    def from_cloud(cls, states, phi, gamma, params=None, t: float = 0.0) -> "EnsembleSnapshot":
        return cls(t=t, states=states, params=params, phi=phi, gamma=gamma, diverged=None)


def divergence(rhs: Callable, x: np.ndarray, p: np.ndarray | None, t: float) -> np.ndarray:
    """Divergence of the state block of rhs at (x, p, t), batched.

    The trace of f16.central_difference with steps H_REL max(1, |x|): every
    +/- perturbed copy of the block goes through one call of rhs (p tiled
    to match), and the diagonal terms are summed in direction order; the
    frozen parameter block contributes zero. The step is larger than the
    one used for control-synthesis Jacobians: the trace feeds only the
    density ODE and a larger step keeps subtractive-cancellation noise
    below the integrator's truncation error. Non-finite entries stay in
    place, so ensemble integration can flag the sample (a state mid-blow-up
    can be finite while its neighbourhood is not).

    This is the generic path of propagate, the fallback of the closed-form
    divergence at kinks, and its test oracle.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    n, dx = X.shape
    P = None if p is None else np.tile(np.atleast_2d(np.asarray(p, dtype=float)), (2 * dx, 1))
    J = central_difference(lambda S: rhs(t, S, P), X, H_REL)
    div = np.zeros(n)
    for k in range(dx):
        div += J[:, k, k]
    return div[0] if np.ndim(x) == 1 else div


def _density_multiplier(z: np.ndarray) -> np.ndarray:
    """Degree-4 Taylor factor of exp(-z); positive until z * z overflows.

    The powers are products, not `**`: numpy's `pow` takes a slow path for a
    negative base, and every z = dt div of a contracting ensemble is negative."""
    z2 = z * z
    return 1.0 - z + z2 / 2.0 - z2 * z / 6.0 + z2 * z2 / 24.0


def _fields(rhs):
    """(field, fused) of a propagate rhs: the vector field f(t, x, p, out=None),
    which writes into out if given, and state_rhs_div of an rhs that has one
    (a ClosedLoop), else None. The field of any other rhs, rhs(t, x, p) or
    rhs.state_rhs, is wrapped to copy into out."""
    f, fused = getattr(rhs, "state_rhs", rhs), getattr(rhs, "state_rhs_div", None)
    if fused is not None:
        return f, fused

    def field(t, x, p, out=None):
        if out is None:
            return f(t, x, p)
        np.copyto(out, f(t, x, p))
        return out
    return field, None


def _rhs_div(f, fused, t, X, P, out=None):
    """(f(t, X, P, out), divergence): the closed form, with the
    finite-difference divergence on the rows it flags, or finite differences
    throughout when there is no closed form."""
    if fused is None:
        return f(t, X, P, out=out), divergence(f, X, P, t)
    k, div, kink = fused(t, X, P, out=out)
    if np.any(kink):
        div[kink] = divergence(f, X[kink], None if P is None else P[kink], t)
    return k, div


def _step(f, fused, t, X, P, phi, dt, strict_rk4: bool, work):
    """One RK4 step of states plus the density factor for the step.

    Each stage calls f, or _rhs_div where the density needs a divergence:
    at every stage under strict_rk4, by default only at the k2 stage (the
    Euler midpoint X2). Either way the states follow the classical RK4
    tableau on f, since the xdot of state_rhs_div is f's bit for bit: a
    plain states-only RK4 ensemble reproduces them exactly.

    work holds three arrays shaped like X that the step overwrites: the
    stage state X + c dt k, the stage slope k, and the running sum
    k0 + 2 k1 + 2 k2 + k3, which becomes X_new. Each is formed in place in
    the order of the textbook expressions, so the bits are theirs.
    """
    Xs, k, acc = work
    div = []
    for i, c in enumerate(_RK4_C):
        ki, xi = (acc, X) if i == 0 else (k, Xs)
        if strict_rk4 or i == 1:
            div.append(_rhs_div(f, fused, t + c * dt, xi, P, ki)[1])
        else:
            f(t + c * dt, xi, P, out=ki)
        if i < 3:  # the next stage's state, X + c dt k
            np.multiply(ki, _RK4_C[i + 1] * dt, out=Xs)
            Xs += X
        if 0 < i < 3:
            k *= 2
        if i:
            acc += k
    acc *= dt / 6.0
    X_new = np.add(acc, X, out=acc)  # X + dt / 6 (k0 + 2 k1 + 2 k2 + k3)
    if not strict_rk4:
        # the RK4 one-step map of phi' = -div phi with div frozen at X2
        return X_new, phi * _density_multiplier(dt * div[0])
    kp = []
    for c, di in zip(_RK4_C, div):
        kp.append(-di * (phi + c * dt * kp[-1] if kp else phi))
    return X_new, phi + dt / 6.0 * (kp[0] + 2 * kp[1] + 2 * kp[2] + kp[3])


def _propagate_arrays(rhs, X0, P0, phi0, t0, n_steps, dt, emit_every,
                      strict_rk4, diverged0=None):
    """Integrate a block of samples; returns per-emit (t, X, phi, diverged)
    at step 0, every emit_every steps and at step n_steps.

    A sample is frozen (flagged diverged) as soon as its next state has a
    non-finite component; its last finite state and density stay in every
    later snapshot. A density value that degenerates on its own freezes
    only the density, never the state.

    The block is bound to rhs once (ClosedLoop.bind, for an rhs that has
    it): every stage of every step passes that RowBlock as p, so the row
    bookkeeping is made once here, not per field call, and the field's
    scratch arrays live as long as this call. So do the step's three
    work arrays (see _step).
    """
    f, fused = _fields(rhs)
    X = np.array(X0, dtype=float)
    P = rhs.bind(P0) if hasattr(rhs, "bind") else P0
    work = np.empty((3,) + X.shape)
    phi = np.array(phi0, dtype=float)
    dead = (np.zeros(X.shape[0], dtype=bool) if diverged0 is None
            else np.array(diverged0, dtype=bool))
    out = [(t0, X.copy(), phi.copy(), dead.copy())]
    with np.errstate(all="ignore"):
        for s in range(1, n_steps + 1):
            t = t0 + (s - 1) * dt
            X_new, phi_new = _step(f, fused, t, X, P, phi, dt, strict_rk4, work)
            ok = np.isfinite(X_new[:, 0])
            for column in X_new.T[1:]:  # a row is finite if each of its columns is
                ok &= np.isfinite(column)
            upd = ok & ~dead
            np.copyto(X, X_new, where=upd[:, None])
            np.copyto(phi, phi_new, where=upd & np.isfinite(phi_new))
            dead |= ~ok
            if s % emit_every == 0 or s == n_steps:
                out.append((t0 + s * dt, X.copy(), phi.copy(), dead.copy()))
    return out


def _propagate_chunk(args):
    return _propagate_arrays(*args)


def resolve_workers(workers: int | None = None) -> int:
    """Worker-count policy: explicit argument capped by OTROBUST_WORKERS,
    which must be an integer of at least 1 (ValueError otherwise)."""
    env = os.environ.get(WORKERS_ENV)
    try:
        cap = int(env) if env else None
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if cap is not None and cap < 1:
        raise ValueError(f"{WORKERS_ENV} must be at least 1, got {env!r}")
    if workers is None:
        workers = cap if cap is not None else 1
    if cap is not None:
        workers = min(workers, cap)
    return max(1, workers)


def propagate(cloud: EnsembleSnapshot, rhs: Callable, t_f: float, dt: float,
              emit_every: int = 1, strict_rk4: bool = False,
              workers: int | None = None) -> list[EnsembleSnapshot]:
    """Propagate an ensemble to t_f with fixed-step RK4; emit snapshots.

    Snapshots are produced at the initial time, every emit_every steps, and
    at t_f. Transport masses are carried through unchanged; densities evolve
    per the characteristic ODE. rhs is a vector field rhs(t, x, p) or a
    ClosedLoop, whose closed-form divergence the density then uses (see the
    module docstring). With workers > 1 the rows are dealt round robin
    across a process pool (rhs must then be picklable); the result is
    identical to the single-process run.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round((t_f - cloud.t) / dt))
    if n_steps <= 0:
        raise ValueError("t_f must lie at least one step beyond the cloud time")
    emit_every = max(1, int(emit_every))

    workers = resolve_workers(workers)
    X0, P0 = cloud.states, (cloud.params if cloud.params.shape[1] else None)
    parts = ([slice(None)] if workers == 1 or cloud.n < 2 * workers
             else [np.arange(i, cloud.n, workers) for i in range(workers)])
    jobs = [(rhs, X0[rows], None if P0 is None else P0[rows], cloud.phi[rows], cloud.t,
             n_steps, dt, emit_every, strict_rk4, cloud.diverged[rows])
            for rows in parts]
    if len(jobs) == 1:
        blocks = [_propagate_chunk(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            blocks = list(pool.map(_propagate_chunk, jobs))

    snapshots = []
    for k in range(len(blocks[0])):
        X, phi = np.empty_like(X0), np.empty(cloud.n)
        dead = np.empty(cloud.n, dtype=bool)
        for rows, blk in zip(parts, blocks):
            t_k, X[rows], phi[rows], dead[rows] = blk[k]
        snapshots.append(EnsembleSnapshot(
            t=t_k, states=X, params=cloud.params, phi=phi,
            gamma=cloud.gamma, diverged=dead))
    return snapshots

