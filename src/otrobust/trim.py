"""Equilibrium (trim) search for the open-loop longitudinal dynamics.

At a prescribed flight condition (V, alpha) the pitch rate must vanish
(theta_dot = q), leaving three unknowns (theta, T, delta_e) against the
three residual equations (V_dot, alpha_dot, q_dot), solved as a least
squares problem on the scaled residual (V_dot / 100, alpha_dot, q_dot)
over the actuator box, with a central-difference Jacobian.

trim_grid trims every node of a (V, alpha) grid, and find_trim is the
one-node grid. The residual broadcasts over leading axes of z, so each
iteration evaluates the residuals and central-difference Jacobians
(f16.central_difference) of all live nodes in one stacked plant call.
Each node takes two trust-region trials as scipy's TRF does, which settle
the stationary basin it lands in (from the guess alone, three low-V,
low-alpha nodes end at a worse stationary point), then projected
Levenberg-Marquardt. All per-node arithmetic is elementwise, in
fixed-order sums and 3x3 solves, so a trim is bitwise the same in any
batch and on any BLAS kernel.

Thrust frequently rides its 1000 lb floor at low-drag conditions, and parts
of the scheduling envelope admit no exact equilibrium at all (e.g. high V
with the lift coefficient pinned far from weight balance). In both cases
the solver settles on a constrained least-squares stationary point, the
same behaviour a general NLP code reports as success, and the leftover
residual is returned for the caller to judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .f16 import (
    CONTROL_FIELDS,
    CONTROL_UNITS,
    DEG,
    ELEVATOR_LIMIT,
    STATE_FIELDS,
    STATE_UNITS,
    THRUST_MAX,
    THRUST_MIN,
    AeroTables,
    AircraftParams,
    ControlInput,
    LongitudinalState,
    _rhs,
    as_number,
    central_difference,
    read_json,
)

# Residual scaling: V_dot in ft/s^2 is divided by 100 so the mixed-unit norm
# does not let the force balance drown the angular rates (rad/s^2 terms keep
# unit weight).
V_DOT_SCALE = 100.0

# Pitch attitude is confined to operationally meaningful values. Much of
# the scheduling envelope admits no exact equilibrium; the bound keeps the
# compromise stationary points (and the gains later synthesized about
# them) at sane attitudes instead of chasing near-vertical force balances
# where cos(theta) ~ 0 makes the linearization blind to pitch.
_THETA_LIMIT = 30.0 * DEG

_RTOL = 1e-8   # residual norm regarded as an exact equilibrium
_GTOL = 1e-8   # projected-gradient norm regarded as stationary

_LOWER = np.array([-_THETA_LIMIT, THRUST_MIN, -ELEVATOR_LIMIT])
_UPPER = np.array([_THETA_LIMIT, THRUST_MAX, ELEVATOR_LIMIT])

# Trust-region scaling for the wildly mixed variable magnitudes
# (theta rad, T lb, delta_e rad); without it the thrust axis swallows
# the trust radius and the solve stalls far from stationarity.
_X_SCALE = np.array([0.5, 5000.0, 0.2])

# Trust-region trials before the polish (one leaves node 0 off the basin
# of an uncapped TRF solve on three plants), and the halvings of the
# damping that solve each trial's subproblem.
_TRIALS = 2
_BISECT = 60

# The polish stops a node when its step, in _X_SCALE units, is at most
# _XTOL (1 + |z / _X_SCALE|); a default-grid node takes 5 to 39 iterations,
# and _POLISH_MAX only bounds a node that never settles.
_XTOL = 1e-15
_POLISH_MAX = 200


# TrimPoint.to_dict fields; all but the last are numbers.
_FIELDS = (*STATE_FIELDS, *CONTROL_FIELDS, "residual", "optimality", "iterations", "converged")


@dataclass(frozen=True)
class TrimPoint:
    """Result of a trim solve.

    residual is the scaled norm ||(V_dot/100, alpha_dot, q_dot)|| at the
    returned point; optimality is the projected-gradient infinity norm of
    the bound-constrained least-squares problem (zero at a constrained
    stationary point). converged means either an equilibrium to 1e-8 or
    first-order stationarity (projected gradient below 1e-8, relaxed to
    1e-7 relative at large-residual minima where the finite-difference
    gradient bottoms out at roundoff of the objective); flight conditions
    with no exact equilibrium end in the second branch with a nonzero
    residual. trim_grid reports residual and optimality from its solve's
    final evaluation, in fixed-order sums; iterations counts the
    trust-region trials and the polish iterations of the solve.
    """

    x_trim: LongitudinalState
    u_trim: ControlInput
    residual: float
    converged: bool
    optimality: float = float("nan")
    iterations: int = 0

    def to_dict(self) -> dict:
        """Degree-based JSON form (file/CLI boundary)."""
        x = (self.x_trim.as_array() / STATE_UNITS).tolist()
        u = (self.u_trim.as_array() / CONTROL_UNITS).tolist()
        return {
            **dict(zip(STATE_FIELDS + CONTROL_FIELDS, x + u)),
            "residual": self.residual,
            "optimality": self.optimality,
            "converged": self.converged,
            "iterations": self.iterations,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrimPoint":
        """Inverse of to_dict; ValueError naming a missing or mistyped field."""
        if not isinstance(d, dict):
            raise ValueError(f"trim point must be a JSON object, got {type(d).__name__}")
        d = {"optimality": float("nan"), "iterations": 0, **d}
        missing = [k for k in _FIELDS if k not in d]
        if missing:
            raise ValueError(f"trim point lacks field {missing[0]!r}")
        v = {k: as_number(d[k], f"trim point field {k!r}") for k in _FIELDS[:-1]}
        if not isinstance(d["converged"], bool):
            raise ValueError(f"trim point field 'converged' must be true or false, "
                             f"got {d['converged']!r}")
        if not v["iterations"].is_integer():
            raise ValueError(f"trim point field 'iterations' must be an integer, "
                             f"got {d['iterations']!r}")
        x = np.array([v[k] for k in STATE_FIELDS]) * STATE_UNITS
        u = np.array([v[k] for k in CONTROL_FIELDS]) * CONTROL_UNITS
        return cls(
            x_trim=LongitudinalState(*x.tolist()),
            u_trim=ControlInput(*u.tolist()),
            residual=v["residual"],
            converged=d["converged"],
            optimality=v["optimality"],
            iterations=int(v["iterations"]),
        )

    @classmethod
    def from_json(cls, path) -> "TrimPoint":
        return read_json(path, cls.from_dict)


def _residual(z: np.ndarray, V, alpha, params: AircraftParams,
              tables: AeroTables) -> np.ndarray:
    x = np.zeros(z.shape[:-1] + (4,))
    x[..., 0], x[..., 1], x[..., 2] = z[..., 0], V, alpha
    xdot = _rhs(x, z[..., 1:], params.m, params.xcg, params.Jyy, params, tables)
    return xdot[..., 1:] / np.array([V_DOT_SCALE, 1.0, 1.0])


def _at_bounds(z: np.ndarray):
    """Masks of the variables at (within 1e-10 relative of) their lower and
    upper bounds."""
    return (z <= _LOWER + 1e-10 * np.maximum(1.0, np.abs(_LOWER)),
            z >= _UPPER - 1e-10 * np.maximum(1.0, np.abs(_UPPER)))


def _fixed(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The active set: variables at a bound that the gradient g pushes
    against (a descent step would leave the box)."""
    at_lo, at_hi = _at_bounds(z)
    return (at_lo & (g > 0)) | (at_hi & (g < 0))


def _converged(rnorm: float, optimality: float) -> bool:
    """An equilibrium to _RTOL, or first-order stationarity: the projected
    gradient below _GTOL, relaxed to 1e-7 relative to a finite residual."""
    return rnorm < _RTOL or (math.isfinite(rnorm) and optimality < max(_GTOL, 1e-7 * rnorm))


def find_trim(V: float, alpha: float, params: AircraftParams, tables: AeroTables) -> TrimPoint:
    """Trim the plant at velocity V (ft/s) and angle of attack alpha (rad):
    the one-node trim_grid, so a trim here is bitwise the grid's at the
    same node."""
    return trim_grid([(V, alpha)], params, tables)[0]


def default_grid(n_v: int = 10, n_alpha: int = 10) -> list[tuple[float, float]]:
    """Uniform lattice over 100..1000 ft/s x -10..45 deg, V-major order."""
    vs = np.linspace(100.0, 1000.0, n_v)
    alphas = np.linspace(-10.0 * DEG, 45.0 * DEG, n_alpha)
    return [(float(v), float(a)) for v in vs for a in alphas]


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last axis (length 3) of a * b, elementwise in a fixed
    order, so that each entry is bitwise the same in any batch and under
    any SIMD dispatch."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def _stacked(Z: np.ndarray, V: np.ndarray, alpha: np.ndarray, params: AircraftParams,
             tables: AeroTables):
    """Residuals (n, 3) and central-difference Jacobians (n, 3, 3) at the n
    points Z of the conditions (V, alpha), from one _residual call over the
    6 n stencil rows and the n points; each row is bitwise a single-point
    call."""
    n = len(Z)
    at_z = {}

    def f(zs):
        R = _residual(np.concatenate([zs, Z]), np.tile(V, 7), np.tile(alpha, 7), params, tables)
        at_z["R"] = R[6 * n:]
        return R[:6 * n]

    J = central_difference(f, Z)
    return at_z["R"], J


def _optimality(Z: np.ndarray, R: np.ndarray, J: np.ndarray) -> np.ndarray:
    """TrimPoint.optimality of n points, from their residuals and Jacobians:
    the infinity norm of the gradient J^T r with its active-set components
    zeroed (the projected gradient)."""
    g = _dot3(np.swapaxes(J, 1, 2), R[:, None, :])
    return np.max(np.abs(np.where(_fixed(Z, g), 0.0, g)), axis=1)


def _solve3(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solutions of the symmetric 3x3 systems M x = y, (n, 3, 3) and (n, 3),
    by the adjugate; a singular system gives non-finite x."""
    a, b, c = M[:, 0, 0], M[:, 0, 1], M[:, 0, 2]
    d, e, f = M[:, 1, 1], M[:, 1, 2], M[:, 2, 2]
    adj = np.stack([d * f - e * e, c * e - b * f, b * e - c * d,
                    c * e - b * f, a * f - c * c, b * c - a * e,
                    b * e - c * d, b * c - a * e, a * d - b * b], axis=1).reshape(-1, 3, 3)
    return _dot3(adj, y[:, None, :]) / _dot3(M[:, 0], adj[:, 0])[:, None]


def _lm_step(z, g, H, lam):
    """The damped Gauss-Newton step in _X_SCALE units, (n, 3), of each
    node's free variables, (H + lam I) d = -g; a variable at a bound that
    the gradient g pushes against is fixed there (its step only snaps it
    onto the bound)."""
    fixed = _fixed(z, g)
    free = ~fixed
    M = np.where(free[:, :, None] & free[:, None, :], H + lam[:, None, None] * np.eye(3), np.eye(3))
    d = _solve3(M, np.where(free, -g, 0.0))
    return np.where(fixed, (np.where(g > 0, _LOWER, _UPPER) - z) / _X_SCALE, d)


def _tr_step(B, gh, radius):
    """Moré's exact trust-region steps (n, 3) of the quadratics gh.p + p.B p / 2,
    B positive semidefinite (n, 3, 3): -(B + lam I)^-1 gh at the least lam
    in [0, |gh| / radius], to _BISECT halvings, whose step lies within the
    radius."""
    lo, hi = np.zeros(len(gh)), np.sqrt(_dot3(gh, gh)) / radius
    for _ in range(_BISECT):
        mid = 0.5 * (lo + hi)
        p = _solve3(B + mid[:, None, None] * np.eye(3), -gh)
        outside = ~(_dot3(p, p) <= radius * radius)
        lo, hi = np.where(outside, mid, lo), np.where(outside, hi, mid)
    return _solve3(B + hi[:, None, None] * np.eye(3), -gh)


def _polish(Z: np.ndarray, V: np.ndarray, alpha: np.ndarray, params: AircraftParams,
            tables: AeroTables):
    """Bound-constrained least squares from the points Z (n, 3) of the
    conditions (V, alpha), all nodes in one stacked evaluation per
    iteration (_stacked at the trial points).

    The first _TRIALS iterations are those of TRF, the trust-region method
    of Branch, Coleman and Li (SIAM J. Sci. Comput. 21, 1999). In _X_SCALE
    units, with D = diag(sqrt(v)) for v the distance to the bound that the
    gradient g pushes toward, each takes Moré's step (_tr_step) of the hat
    problem with Hessian D H D + diag|g| and gradient D g, maps it back by
    D and clips it to the box; the radius starts at |z / sqrt(v)|. Projected
    Levenberg-Marquardt follows, with each node's own damping (Nielsen's
    update; Madsen, Nielsen and Tingleff, 2004).

    A node takes a trial that lowers its cost r.r, or, at large-residual
    nodes where the cost no longer resolves the last digits, keeps the cost
    within roundoff and lowers its optimality. It stops at its own step
    test, so its result does not depend on the other nodes. Returns the
    final points, their costs r.r and optimalities (_optimality) from the
    final evaluation, the per-node iteration counts, and the nodes whose
    evaluation or step was not finite, which stop at once.
    """
    n = len(Z)
    its = np.zeros(n, dtype=int)
    with np.errstate(all="ignore"):
        R, J = _stacked(Z, V, alpha, params, tables)
        cost, opt = _dot3(R, R), _optimality(Z, R, J)
        failed = ~(np.isfinite(cost) & np.isfinite(J).all(axis=(1, 2)))
        live = ~failed
        lam, nu, radius = np.full(n, np.nan), np.full(n, 2.0), np.full(n, np.nan)
        for it in range(_POLISH_MAX):
            k = np.flatnonzero(live)
            if k.size == 0:
                break
            z = Z[k]
            Jt = np.swapaxes(J[k] * _X_SCALE, 1, 2)  # of r over z / _X_SCALE, transposed
            g = _dot3(Jt, R[k][:, None, :])
            H = _dot3(Jt[:, :, None, :], Jt[:, None, :, :])
            if it < _TRIALS:
                s = np.sqrt(np.where(g > 0, (z - _LOWER) / _X_SCALE,
                                     np.where(g < 0, (_UPPER - z) / _X_SCALE, 1.0)))
                B = s[:, :, None] * H * s[:, None, :] + np.abs(g)[:, None] * np.eye(3)
                if it == 0:
                    radius[k] = np.sqrt(_dot3(z / _X_SCALE / s, z / _X_SCALE / s))
                step = s * _tr_step(B, s * g, radius[k])
            else:
                s, B = np.ones_like(z), H
                lam_k = lam[k]  # first iteration: 1e-3 of the largest curvature
                lam_k = np.where(np.isnan(lam_k), 1e-3 * np.diagonal(H, 0, 1, 2).max(axis=1), lam_k)
                step = _lm_step(z, g, H, lam_k)
            trial = np.clip(z + step * _X_SCALE, _LOWER, _UPPER)
            d = (trial - z) / _X_SCALE
            Rt, Jtrial = _stacked(trial, V[k], alpha[k], params, tables)
            cost_t, opt_t = _dot3(Rt, Rt), _optimality(trial, Rt, Jtrial)
            tie = (cost_t <= cost[k] * (1.0 + 4.0 * np.finfo(float).eps)) & (opt_t < opt[k])
            better = np.isfinite(Jtrial).all(axis=(1, 2)) & ((cost_t < cost[k]) | tie)
            q = np.where(s > 0, d / s, 0.0)  # the step taken, in hat units
            rho = (cost[k] - cost_t) / -(2.0 * _dot3(g, d) + _dot3(q, _dot3(B, q[:, None])))
            if it < _TRIALS:  # TRF's radius update
                q_norm = np.sqrt(_dot3(q, q))
                grown = np.where((rho > 0.75) & (q_norm > 0.95 * radius[k]), 2.0, 1.0) * radius[k]
                radius[k] = np.where(rho >= 0.25, grown, 0.25 * q_norm)
            else:
                shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                lam[k] = np.where(better, lam_k * shrink, lam_k * nu[k])
                nu[k] = np.where(better, 2.0, 2.0 * nu[k])
            a = k[better]
            Z[a], R[a], J[a], cost[a], opt[a] = (trial[better], Rt[better], Jtrial[better],
                                                 cost_t[better], opt_t[better])
            its[k] += 1
            singular = ~np.isfinite(d).all(axis=1)
            failed[k[singular]] = True
            live[k[singular | (np.max(np.abs(d), axis=1)
                               <= _XTOL * (1.0 + np.max(np.abs(z / _X_SCALE), axis=1)))]] = False
    return Z, cost, opt, its, failed


def trim_grid(grid: list[tuple[float, float]], params: AircraftParams,
              tables: AeroTables) -> list[TrimPoint]:
    """Trim every (V, alpha) node of the grid (default_grid()), order preserved.

    All nodes are solved together (_polish) from theta = alpha (at least
    1e-10 inside its bounds), T = 5000 lb, delta_e = 0. residual (sqrt of
    the cost r.r), optimality and converged are the solve's own final
    evaluation, in fixed-order sums, whose residual is no larger than the
    start's; iterations counts the node's trust-region trials and polish
    iterations. Per-node failures (a non-finite residual, Jacobian or step)
    are reported through the converged flag of the corresponding TrimPoint;
    the batch never aborts.
    """
    if not grid:
        raise ValueError("empty trim grid")
    for V, alpha in grid:
        if not (V > 0 and math.isfinite(V) and math.isfinite(alpha)):
            raise ValueError(f"invalid flight condition V={V}, alpha={alpha}")
    V, alpha = np.array(grid, dtype=float).T
    theta = np.clip(alpha, -_THETA_LIMIT + 1e-10, _THETA_LIMIT - 1e-10)
    Z = np.stack([theta, np.full_like(alpha, 5000.0), np.zeros_like(alpha)], axis=1)
    Z, cost, opt, its, failed = _polish(Z, V, alpha, params, tables)
    return [TrimPoint(x_trim=LongitudinalState(float(z[0]), float(v), float(a), 0.0),
                      u_trim=ControlInput(float(z[1]), float(z[2])),
                      residual=float(r), converged=not bad and _converged(float(r), float(o)),
                      optimality=float(o), iterations=int(it))
            for z, v, a, r, o, bad, it in zip(Z, V, alpha, np.sqrt(cost), opt, failed, its)]
