"""Reference computations that only the tests use.

Each one checks a production path against an independent answer: the exact
1-D quantile coupling and the marginal bound for the transportation LP, a
density query by back-propagation for the Liouville density, the dominant
frequency of a W series for the disturbance study, and a single-coefficient
table lookup for the aerodynamic interpolation.
"""

from __future__ import annotations

import math

import numpy as np

from otrobust.f16 import AeroTables, _aero
from otrobust.liouville import _fields, _propagate_arrays, _step
from otrobust.transport import DiscreteDistribution, TransportPlan, wasserstein_lp

COEFFICIENT_IDS = ("CX", "CZ", "Cm", "CXq", "CZq", "Cmq")


def lookup_coefficient(tables: AeroTables, which: str, alpha, delta_e=0.0):
    """Interpolated aerodynamic coefficient at alpha, delta_e (radians).

    CX, CZ, Cm interpolate bilinearly over (alpha, delta_e); CXq, CZq, Cmq
    linearly over alpha. Queries outside the breakpoint range clamp to the
    nearest edge.
    """
    if which not in COEFFICIENT_IDS:
        raise KeyError(f"unknown coefficient id {which!r}; expected one of {COEFFICIENT_IDS}")
    k = COEFFICIENT_IDS.index(which)
    return np.take(_aero(tables, alpha, delta_e)[k // 3], k % 3, axis=-1)


def marginal(dist: DiscreteDistribution, axis: int) -> DiscreteDistribution:
    """The 1-D marginal of dist on one axis."""
    return DiscreteDistribution(dist.points[:, axis:axis + 1], dist.masses)


def dense(plan: TransportPlan) -> np.ndarray:
    """The coupling of plan as a dense (m, n) matrix."""
    M = np.zeros(plan.shape)
    M[plan.rows, plan.cols] = plan.flows
    return M


def wasserstein_1d(a: DiscreteDistribution, b: DiscreteDistribution) -> float:
    """Exact 1-D W via the quantile coupling (merged CDF segments)."""
    if a.dim != 1 or b.dim != 1:
        raise ValueError("wasserstein_1d requires 1-D distributions")
    xa = a.points[:, 0]
    xb = b.points[:, 0]
    oa = np.argsort(xa, kind="stable")
    ob = np.argsort(xb, kind="stable")
    xa, wa = xa[oa], a.masses[oa]
    xb, wb = xb[ob], b.masses[ob]

    cost = 0.0
    i = j = 0
    ra, rb = wa[0], wb[0]
    while i < xa.size and j < xb.size:
        seg = min(ra, rb)
        diff = xa[i] - xb[j]
        cost += seg * diff * diff
        ra -= seg
        rb -= seg
        if ra <= 1e-17:
            i += 1
            ra = wa[i] if i < xa.size else 0.0
        if rb <= 1e-17:
            j += 1
            rb = wb[j] if j < xb.size else 0.0
    return math.sqrt(max(cost, 0.0))


def marginal_bound_check(a: DiscreteDistribution, b: DiscreteDistribution):
    """Per-axis marginal distances, joint distance, and the bound flag.

    Returns (W_i list, W_joint, flag) with flag true when
    sum_i W_i^2 <= W_joint^2 + 1e-9: marginal transport can never cost
    more than the joint plan whose marginals it projects.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    per_axis = [wasserstein_1d(marginal(a, k), marginal(b, k)) for k in range(a.dim)]
    joint = wasserstein_lp(a, b).W
    flag = math.fsum(w * w for w in per_axis) <= joint * joint + 1e-9
    return per_axis, joint, flag


class UnresolvableQueryError(RuntimeError):
    """Backward integration of a density query blew up."""


def query_density(x_star: np.ndarray, t: float, rhs, phi0, dt: float,
                  strict_rk4: bool = False, n_params: int = 0) -> float:
    """Joint density value at an arbitrary extended-state point and time.

    The point is integrated backward to time zero; if it lands outside the
    support of the initial density the answer is exactly zero, otherwise
    the characteristic is re-integrated forward from the recovered initial
    condition. phi0 must expose support membership through a zero density
    value (as InitialPdf does). The trailing n_params entries of x_star are
    the frozen parameter block.
    """
    if t < 0:
        raise ValueError("query time must be nonnegative")
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    phi_fn = phi0 if callable(phi0) else phi0.density
    if t == 0.0:
        return float(np.asarray(phi_fn(x_star)))

    dx = x_star.size - n_params
    x = x_star[:dx][None, :]
    p = x_star[dx:][None, :] if n_params else None

    n_steps = max(1, int(round(t / dt)))
    dt_eff = t / n_steps
    f, _ = _fields(rhs)
    with np.errstate(all="ignore"):
        for s in range(n_steps):
            tau = t - s * dt_eff
            x, _ = _step(f, None, tau, x, p, None, -dt_eff, False, False)
            if not np.all(np.isfinite(x)):
                raise UnresolvableQueryError(
                    f"backward integration diverged at t={tau - dt_eff:.4f}")

    x0_ext = np.concatenate([x[0], p[0] if p is not None else []])
    phi_init = float(np.asarray(phi_fn(x0_ext)))
    if phi_init == 0.0:
        return 0.0

    out = _propagate_arrays(rhs, x, p, np.array([phi_init]), 0.0,
                            n_steps, dt_eff, {n_steps}, strict_rk4)
    _, _, phi, dead = out[0]
    if dead[0]:
        raise UnresolvableQueryError("forward re-integration diverged")
    return float(phi[0])


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
