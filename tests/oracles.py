"""Reference computations that only the tests use.

Each one checks a production path against an independent answer: the exact
1-D quantile coupling and the marginal bound for the transportation LP, a
density query by back-propagation for the Liouville density, plain Monte
Carlo trajectory ensembles (textbook RK4 on the closed-loop field, no
density) for the propagated states, the exact moments of a propagated 1-D
density under a nonlinear flow for the two W weightings, the dominant
frequency of a W series for the disturbance study, a single-coefficient
table lookup for the aerodynamic interpolation, and scipy's
trust-region-reflective least squares, uncapped and restarted, for the
trim solve.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import least_squares

from otrobust import harness, trim
from otrobust.f16 import AeroTables, ControlInput, LongitudinalState, _aero, central_difference
from otrobust.liouville import _fields, _propagate_arrays
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
    return np.take(_aero(tables, alpha, delta_e)[k // 3], k % 3, axis=0)


def trf_trim(V: float, alpha: float, params, tables) -> trim.TrimPoint:
    """The trim at (V, alpha) by scipy's TRF alone, from trim_grid's start
    with its bounds, scaling and central-difference Jacobian: up to three
    solves of at most 600 residual evaluations, each restarting from the
    last point (which re-inflates the trust region), until the point is
    converged as trim_grid judges it. iterations counts the evaluations."""
    def residual(z):
        return trim._residual(z, V, alpha, params, tables)

    z = np.clip(np.array([alpha, 5000.0, 0.0]), trim._LOWER, trim._UPPER)
    nfev = 0
    for _ in range(3):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sol = least_squares(residual, z, jac=lambda z: central_difference(residual, z),
                                bounds=(trim._LOWER, trim._UPPER), method="trf",
                                x_scale=trim._X_SCALE, ftol=1e-15, xtol=1e-15, gtol=1e-14,
                                max_nfev=600)
        nfev += int(sol.nfev)
        z = sol.x
        r = sol.fun
        rnorm = float(np.sqrt(trim._dot3(r, r)))
        optimality = float(trim._optimality(z[None], r[None], sol.jac[None])[0])
        converged = trim._converged(rnorm, optimality)
        if converged:
            break
    return trim.TrimPoint(x_trim=LongitudinalState(float(z[0]), V, alpha, 0.0),
                          u_trim=ControlInput(float(z[1]), float(z[2])), residual=rnorm,
                          converged=converged, optimality=optimality, iterations=nfev)


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


def rk4_states(f, t, X, P, dt):
    """One classical RK4 step of the states alone, f(t, X, P) at every stage."""
    k1 = f(t, X, P)
    k2 = f(t + 0.5 * dt, X + 0.5 * dt * k1, P)
    k3 = f(t + 0.5 * dt, X + 0.5 * dt * k2, P)
    k4 = f(t + 1.0 * dt, X + 1.0 * dt * k3, P)
    return X + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def weighted_mean(states: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Mass-weighted ensemble mean."""
    return np.asarray(gamma) @ np.asarray(states)


def mc_compare(cfg, setup) -> dict:
    """Plain Monte Carlo trajectory ensembles of every curve of a scenario.

    Takes the stacked initial ensemble and the closed loop of
    harness._cases and integrates the states alone with rk4_states on
    loop.state_rhs: no density, no divergence and none of liouville's step
    or propagation code. A row whose next state has a non-finite component
    is frozen at its last finite state. Snapshots are taken at t = 0, every
    emit_every steps and at t_f, and each curve's rows are sliced out.

    Returns {"controllers": {key: {"t", "states" (T, n, 4), "mean" (T, 4)}}}
    keyed as run_scenario keys its snapshots ("lqr", "lqr|delta=2.5", ...),
    the param deterministic curve included; "mean" is weighted_mean with
    the curve's transport masses.
    """
    ensemble, loop, curves = harness._cases(cfg, setup)
    f, P = loop.state_rhs, ensemble.params
    X, dead = ensemble.states.copy(), ensemble.diverged.copy()
    t0, dt, n_steps = ensemble.t, cfg.dt, int(round((cfg.t_f - ensemble.t) / cfg.dt))
    times, states = [t0], [X]
    with np.errstate(all="ignore"):
        for s in range(1, n_steps + 1):
            X_new = rk4_states(f, t0 + (s - 1) * dt, X, P, dt)
            ok = np.all(np.isfinite(X_new), axis=1)
            X = np.where((ok & ~dead)[:, None], X_new, X)
            dead |= ~ok
            if s % cfg.emit_every == 0 or s == n_steps:
                times.append(t0 + s * dt)
                states.append(X)
    stacked = np.stack(states)
    out = {}
    for name, variant, rows, cloud in curves:
        curve = stacked[:, rows]
        out[harness._key(name, variant)] = {
            "t": times, "states": curve,
            "mean": np.stack([weighted_mean(x, cloud.gamma) for x in curve])}
    return {"controllers": out}


def cubic_decay_moments(t: float, lo: float, hi: float, nodes: int = 64) -> tuple[float, float]:
    """Exact targets of W_mass^2 and W^2 to the Dirac at 0 for x' = -x - x^3
    from x0 ~ U[lo, hi] (0 < lo < hi), at time t.

    The flow is closed form: s = x / sqrt(1 + x^2) decays as e^-t, so
    x_t = s / sqrt(1 - s^2) with s = e^-t x0 / sqrt(1 + x0^2), and
    J = dx_t/dx0 = e^-t (1 + x0^2)^-1.5 (1 - s^2)^-1.5. The propagated
    density is rho_t(x_t) = rho_0 / J. Returns
      E_rho_t[x^2]                    = mean over x0 of x_t^2, and
      int rho_t^2 x^2 / int rho_t^2   = int x_t^2 / J dx0 / int 1 / J dx0,
    each by Gauss-Legendre quadrature over x0 (smooth integrands: 32 and
    128 nodes agree with 64 to 2e-15 relative at t = 1 on [0.2, 3]).
    """
    z, w = np.polynomial.legendre.leggauss(nodes)
    x0 = 0.5 * (hi - lo) * z + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w
    s = math.exp(-t) * x0 / np.sqrt(1.0 + x0 * x0)
    x = s / np.sqrt(1.0 - s * s)
    inv_J = math.exp(t) * ((1.0 + x0 * x0) * (1.0 - s * s)) ** 1.5
    return float(w @ (x * x)) / (hi - lo), float(w @ (x * x * inv_J) / (w @ inv_J))


class UnresolvableQueryError(RuntimeError):
    """Backward integration of a density query blew up."""


def query_density(x_star: np.ndarray, t: float, rhs, phi0, dt: float,
                  strict_rk4: bool = False, n_params: int = 0) -> float:
    """Joint density value at an arbitrary extended-state point and time.

    The point is integrated backward to time zero; if it lands outside the
    support of the initial density the answer is exactly zero, otherwise
    the characteristic is re-integrated forward from the recovered initial
    condition. phi0 is the initial density as a function, zero off its
    support. The trailing n_params entries of x_star are the frozen
    parameter block.
    """
    if t < 0:
        raise ValueError("query time must be nonnegative")
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    if t == 0.0:
        return float(np.asarray(phi0(x_star)))

    dx = x_star.size - n_params
    x = x_star[:dx][None, :]
    p = x_star[dx:][None, :] if n_params else None

    n_steps = max(1, int(round(t / dt)))
    dt_eff = t / n_steps
    f, _ = _fields(rhs)
    with np.errstate(all="ignore"):
        for s in range(n_steps):
            tau = t - s * dt_eff
            x = rk4_states(f, tau, x, p, -dt_eff)
            if not np.all(np.isfinite(x)):
                raise UnresolvableQueryError(
                    f"backward integration diverged at t={tau - dt_eff:.4f}")

    x0_ext = np.concatenate([x[0], p[0] if p is not None else []])
    phi_init = float(np.asarray(phi0(x0_ext)))
    if phi_init == 0.0:
        return 0.0

    out = _propagate_arrays(rhs, x, p, np.array([phi_init]), 0.0,
                            n_steps, dt_eff, n_steps, strict_rk4)
    _, _, phi, dead = out[-1]
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
