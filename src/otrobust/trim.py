"""Equilibrium (trim) search for the open-loop longitudinal dynamics.

At a prescribed flight condition (V, alpha) the pitch rate must vanish
(theta_dot = q), leaving three unknowns (theta, T, delta_e) against the
three residual equations (V_dot, alpha_dot, q_dot). The solve is a damped
Gauss-Newton iteration on the scaled residual (V_dot / 100, alpha_dot,
q_dot) constrained to the actuator box (scipy's trust-region-reflective
least squares, central-difference Jacobian).

The residual broadcasts over leading axes of z, so the Jacobian
(f16.central_difference, as in controller.linearize) evaluates its six
+/- points as one stacked plant call, bitwise equal to six single calls,
and hands it to scipy in C order: an F-ordered copy holds the same numbers
but sends the TRF step down another LAPACK/BLAS path, which moves most
lattice trims (thrust by up to 1e-3 lb).

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
from scipy.optimize import least_squares

from .f16 import (
    CONTROL_UNITS,
    DEG,
    ELEVATOR_LIMIT,
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


# TrimPoint.to_dict fields; all but the last are numbers.
_FIELDS = ("theta_deg", "V", "alpha_deg", "q_dps", "T", "delta_e_deg",
           "residual", "optimality", "iterations", "converged")


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
    residual.
    """

    x_trim: LongitudinalState
    u_trim: ControlInput
    residual: float
    converged: bool
    optimality: float = float("nan")
    iterations: int = 0

    def to_dict(self) -> dict:
        """Degree-based JSON form (file/CLI boundary)."""
        theta, V, alpha, q = (self.x_trim.as_array() / STATE_UNITS).tolist()
        T, delta_e = (self.u_trim.as_array() / CONTROL_UNITS).tolist()
        return {
            "theta_deg": theta,
            "V": V,
            "alpha_deg": alpha,
            "q_dps": q,
            "T": T,
            "delta_e_deg": delta_e,
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
        x = np.array([v[k] for k in _FIELDS[:4]]) * STATE_UNITS
        u = np.array([v[k] for k in _FIELDS[4:6]]) * CONTROL_UNITS
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


def _residual(z: np.ndarray, V: float, alpha: float, params: AircraftParams,
              tables: AeroTables) -> np.ndarray:
    x = np.zeros(z.shape[:-1] + (4,))
    x[..., 0], x[..., 1], x[..., 2] = z[..., 0], V, alpha
    xdot = _rhs(x, z[..., 1:], params.m, params.xcg, params.Jyy, params, tables)
    return xdot[..., 1:] / np.array([V_DOT_SCALE, 1.0, 1.0])


def _projected_gradient(z: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient with components pointing out of an active bound zeroed."""
    pg = g.copy()
    at_lo = z <= _LOWER + 1e-10 * np.maximum(1.0, np.abs(_LOWER))
    at_hi = z >= _UPPER - 1e-10 * np.maximum(1.0, np.abs(_UPPER))
    pg[at_lo & (pg > 0)] = 0.0
    pg[at_hi & (pg < 0)] = 0.0
    return pg


def _converged(rnorm: float, optimality: float) -> bool:
    """An equilibrium to _RTOL, or first-order stationarity: the projected
    gradient below _GTOL, relaxed to 1e-7 relative to a finite residual."""
    return rnorm < _RTOL or (math.isfinite(rnorm) and optimality < max(_GTOL, 1e-7 * rnorm))


def find_trim(V: float, alpha: float, params: AircraftParams, tables: AeroTables) -> TrimPoint:
    """Trim the plant at velocity V (ft/s) and angle of attack alpha (rad).

    Minimizes the scaled residual over (theta, T, delta_e) subject to the
    actuator box, starting from theta = alpha, T = 5000 lb, delta_e = 0.
    Deterministic (fixed iteration policy, no randomness), and the reported
    residual never exceeds the residual of the initial guess.
    """
    if not (V > 0 and math.isfinite(V) and math.isfinite(alpha)):
        raise ValueError(f"invalid flight condition V={V}, alpha={alpha}")

    z = np.clip(np.array([alpha, 5000.0, 0.0]), _LOWER, _UPPER)
    nfev = 0
    rnorm = optimality = float("inf")
    # A warm restart re-inflates the trust region and polishes the last
    # digits of stationarity at awkward (no-equilibrium) conditions.
    # A residual too large to square (V near 0, or an absurd air density)
    # overflows in the solver's cost and in the norm, and can zero a slope
    # its trust-region step divides by; such a trim is never converged.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(3):
            sol = least_squares(
                _residual, z,
                jac=lambda z, *a: central_difference(lambda zs: _residual(zs, *a), z),
                bounds=(_LOWER, _UPPER),
                args=(V, alpha, params, tables),
                method="trf",
                x_scale=_X_SCALE,
                ftol=1e-15, xtol=1e-15, gtol=1e-14,
                max_nfev=600,
            )
            nfev += int(sol.nfev)
            z = sol.x
            rnorm = float(np.linalg.norm(sol.fun))
            g = sol.jac.T @ sol.fun  # both evaluated at sol.x
            optimality = float(np.max(np.abs(_projected_gradient(z, g))))
            if _converged(rnorm, optimality):
                break

    return TrimPoint(
        x_trim=LongitudinalState(float(z[0]), V, alpha, 0.0),
        u_trim=ControlInput(float(z[1]), float(z[2])),
        residual=rnorm,
        converged=_converged(rnorm, optimality),
        optimality=optimality,
        iterations=nfev,
    )


def default_grid(n_v: int = 10, n_alpha: int = 10) -> list[tuple[float, float]]:
    """Uniform lattice over 100..1000 ft/s x -10..45 deg, V-major order."""
    vs = np.linspace(100.0, 1000.0, n_v)
    alphas = np.linspace(-10.0 * DEG, 45.0 * DEG, n_alpha)
    return [(float(v), float(a)) for v in vs for a in alphas]


def trim_grid(grid: list[tuple[float, float]], params: AircraftParams,
              tables: AeroTables) -> list[TrimPoint]:
    """Trim every (V, alpha) node of the grid (default_grid()), order preserved.

    Per-node failures are reported through the converged flag of the
    corresponding TrimPoint; the batch never aborts.
    """
    if not grid:
        raise ValueError("empty trim grid")
    return [find_trim(V, alpha, params, tables) for V, alpha in grid]
