"""Nonlinear F-16 longitudinal plant.

Four states x = (theta, V, alpha, q): pitch angle (rad), total velocity
(ft/s), angle of attack (rad), pitch rate (rad/s). Two controls
u = (T, delta_e): thrust (lb) and elevator deflection (rad). Aerodynamic
force and moment coefficients come from clamped multilinear interpolation
of wind-tunnel tables; the shipped data file carries the public-domain
Stevens-Lewis longitudinal set.

Angles are radians internally. Table files and the CLI speak degrees, with
conversion at the boundary.

All evaluation routines are pure and broadcast over leading sample axes:
states have a trailing axis of length 4, controls of length 2. Per-sample
parameter overrides (mass, c.g. position, pitch inertia) may be arrays.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import Callable

import numpy as np

DEG = math.pi / 180.0

# Actuator limits: thrust (lb) and elevator (rad).
THRUST_MIN = 1000.0
THRUST_MAX = 28000.0
ELEVATOR_LIMIT = 25.0 * DEG

COEFFICIENT_IDS = ("CX", "CZ", "Cm", "CXq", "CZq", "Cmq")


class SingularStateError(ValueError):
    """Raised when the plant is evaluated at V <= 0 or a non-finite state."""


@dataclass(frozen=True)
class LongitudinalState:
    """Pitch-plane state: theta (rad), V (ft/s), alpha (rad), q (rad/s)."""

    theta: float
    V: float
    alpha: float
    q: float

    def __post_init__(self):
        vals = (self.theta, self.V, self.alpha, self.q)
        if not all(math.isfinite(v) for v in vals):
            raise SingularStateError(f"non-finite state {vals}")
        if self.V <= 0.0:
            raise SingularStateError(f"V must be positive, got {self.V}")

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.V, self.alpha, self.q])


@dataclass(frozen=True)
class ControlInput:
    """Thrust T (lb) and elevator deflection delta_e (rad)."""

    T: float
    delta_e: float

    def __post_init__(self):
        if not (math.isfinite(self.T) and math.isfinite(self.delta_e)):
            raise ValueError(f"non-finite control ({self.T}, {self.delta_e})")

    def as_array(self) -> np.ndarray:
        return np.array([self.T, self.delta_e])


@dataclass(frozen=True)
class AircraftParams:
    """Mass/geometry/atmosphere constants of the longitudinal model.

    Defaults are the nominal F-16 values; c.g. positions are measured in
    feet along the chord (reference at 0.35 cbar, actual at 0.30 cbar).
    Density is frozen per run at the configured altitude h.
    """

    m: float = 636.94            # slug
    g: float = 32.17             # ft/s^2
    S: float = 300.0             # ft^2
    cbar: float = 11.32          # ft
    xcg_ref: float = 0.35 * 11.32  # ft
    xcg: float = 0.30 * 11.32    # ft
    Jyy: float = 55814.0         # slug ft^2
    rho0: float = 2.377e-3       # slug/ft^3, sea level
    h: float = 10000.0           # ft

    def __post_init__(self):
        for name in ("m", "g", "S", "cbar", "Jyy", "rho0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 1.0 - 0.703e-5 * self.h > 0.0:
            raise ValueError(f"h must be below {1 / 0.703e-5:.0f} ft, where density reaches 0")

    def density(self) -> float:
        """Atmospheric density rho(h) = rho0 (1 - 0.703e-5 h)^4.14, slug/ft^3."""
        return self.rho0 * (1.0 - 0.703e-5 * self.h) ** 4.14

    @classmethod
    def from_json(cls, path) -> "AircraftParams":
        return read_json(path, cls.from_dict)

    @classmethod
    def from_dict(cls, d: dict) -> "AircraftParams":
        """Inverse of to_dict; ValueError naming an unknown or non-numeric field."""
        if not isinstance(d, dict):
            raise ValueError(f"aircraft parameters must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown aircraft parameter {sorted(unknown)[0]!r}")
        return cls(**{key: as_number(v, f"aircraft parameter {key!r}")
                      for key, v in d.items()})

    def to_dict(self) -> dict:
        return {
            "m": self.m, "g": self.g, "S": self.S, "cbar": self.cbar,
            "xcg_ref": self.xcg_ref, "xcg": self.xcg, "Jyy": self.Jyy,
            "rho0": self.rho0, "h": self.h,
        }

    def with_overrides(self, m=None, xcg=None, Jyy=None) -> "AircraftParams":
        kw = {}
        if m is not None:
            kw["m"] = m
        if xcg is not None:
            kw["xcg"] = xcg
        if Jyy is not None:
            kw["Jyy"] = Jyy
        return replace(self, **kw)


@dataclass(frozen=True, eq=False)
class AeroTables:
    """Breakpoint grids for CX, CZ, Cm (alpha x delta_e) and the pitch-rate
    derivatives CXq, CZq, Cmq (alpha only). Breakpoints are stored in degrees
    as in the data file; lookups accept radians."""

    alpha_breakpoints_deg: np.ndarray
    deltae_breakpoints_deg: np.ndarray
    CX: np.ndarray
    CZ: np.ndarray
    Cm: np.ndarray
    CXq: np.ndarray
    CZq: np.ndarray
    Cmq: np.ndarray

    def __post_init__(self):
        for name in ("alpha_breakpoints_deg", "deltae_breakpoints_deg",
                     "CX", "CZ", "Cm", "CXq", "CZq", "Cmq"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        na = self.alpha_breakpoints_deg.size
        nd = self.deltae_breakpoints_deg.size
        if na < 2:
            raise ValueError("need at least two alpha breakpoints")
        for bp in (self.alpha_breakpoints_deg, self.deltae_breakpoints_deg):
            if bp.size > 1 and not np.all(np.diff(bp) > 0):
                raise ValueError("breakpoints must be strictly increasing")
        for name in ("CX", "CZ", "Cm"):
            if getattr(self, name).shape != (na, nd):
                raise ValueError(f"{name} grid must be {na}x{nd}")
        for name in ("CXq", "CZq", "Cmq"):
            if getattr(self, name).shape != (na,):
                raise ValueError(f"{name} must have {na} entries")
        for name in ("CX", "CZ", "Cm", "CXq", "CZq", "Cmq"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        # derived lookup grids: (na, nd, 3) for CX/CZ/Cm, (na, 3) for CXq/CZq/Cmq
        object.__setattr__(self, "_static", np.stack([self.CX, self.CZ, self.Cm], axis=-1))
        object.__setattr__(self, "_damping", np.stack([self.CXq, self.CZq, self.Cmq], axis=-1))

    @classmethod
    def from_json(cls, path) -> "AeroTables":
        return read_json(path, lambda d: cls(**numeric_arrays(d, (
            "alpha_breakpoints_deg", "deltae_breakpoints_deg",
            "CX", "CZ", "Cm", "CXq", "CZq", "Cmq"), "aero tables")))

    @classmethod
    def default(cls) -> "AeroTables":
        ref = resources.files("otrobust.data").joinpath("f16_aero_tables.json")
        with resources.as_file(ref) as path:
            return cls.from_json(path)


def read_json(path, parse: Callable):
    """parse(document) of the JSON file at path. A ValueError from parse, such
    as a missing or mistyped field, is re-raised with the file name."""
    with open(path) as f:
        doc = json.load(f)
    try:
        return parse(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def as_number(v, what: str) -> float:
    """v as a float; ValueError naming `what` unless v is a JSON number."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        with contextlib.suppress(OverflowError):
            return float(v)
    raise ValueError(f"{what} must be a number, got {v!r}")


def numeric_arrays(d: dict, keys, what: str) -> dict[str, np.ndarray]:
    """Float arrays of the named fields of d; ValueError naming `what` and
    the field if d is not a JSON object or a field is missing or non-numeric."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    out = {}
    for key in keys:
        if key not in d:
            raise ValueError(f"{what}: missing field {key!r}")
        try:
            out[key] = np.asarray(d[key], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{what} field {key!r} is not a numeric array") from None
    return out


def _cell(bp: np.ndarray, x):
    """Lower breakpoint index and fractional position of x, clamped to bp."""
    x = np.minimum(np.maximum(x, bp[0]), bp[-1])
    i = np.minimum(np.maximum(bp.searchsorted(x, side="right") - 1, 0), bp.size - 2)
    return i, np.asarray((x - bp[i]) / (bp[i + 1] - bp[i]))[..., None]


def _aero(tables: AeroTables, alpha, delta_e):
    """Clamped table lookup of (CX, CZ, Cm) and (CXq, CZq, Cmq), each stacked
    on a trailing axis of 3. One alpha cell serves all six coefficients; a
    degenerate single-column delta_e grid makes CX, CZ, Cm alpha-only."""
    i, wa = _cell(tables.alpha_breakpoints_deg, np.asarray(alpha) / DEG)
    ua = 1 - wa
    gq = tables._damping
    damping = gq.take(i, axis=0) * ua + gq.take(i + 1, axis=0) * wa
    nd = tables.deltae_breakpoints_deg.size
    g = tables._static.reshape(-1, 3)  # row i * nd + j holds cell (i, j)
    if nd == 1:
        return g.take(i, axis=0) * ua + g.take(i + 1, axis=0) * wa, damping
    j, wd = _cell(tables.deltae_breakpoints_deg, np.asarray(delta_e) / DEG)
    ud = 1 - wd
    k = i * nd + j
    static = (ua * ud * g.take(k, axis=0)
              + wa * ud * g.take(k + nd, axis=0)
              + ua * wd * g.take(k + 1, axis=0)
              + wa * wd * g.take(k + nd + 1, axis=0))
    return static, damping


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


def dynamic_pressure(V, params: AircraftParams):
    """Dynamic pressure 0.5 rho(h) V^2 in lb/ft^2 at the configured altitude."""
    V = np.asarray(V, dtype=float)
    if not np.all(np.isfinite(V)):
        raise ValueError("non-finite velocity")
    return 0.5 * params.density() * V * V


def saturate_array(u: np.ndarray) -> np.ndarray:
    """Clamp (..., 2) control arrays to the actuator box."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    out[..., 0] = np.minimum(np.maximum(u[..., 0], THRUST_MIN), THRUST_MAX)
    out[..., 1] = np.minimum(np.maximum(u[..., 1], -ELEVATOR_LIMIT), ELEVATOR_LIMIT)
    return out


def saturate(u: ControlInput) -> ControlInput:
    """Clamp thrust to [1000, 28000] lb and elevator to +/-25 deg."""
    return ControlInput(
        float(np.clip(u.T, THRUST_MIN, THRUST_MAX)),
        float(np.clip(u.delta_e, -ELEVATOR_LIMIT, ELEVATOR_LIMIT)),
    )


def _rhs(x: np.ndarray, u: np.ndarray, m, xcg, Jyy, params: AircraftParams,
         tables: AeroTables) -> np.ndarray:
    """State derivative, broadcast over leading axes; V <= 0 yields NaN rows
    rather than raising so that ensemble integration can flag divergences."""
    theta = x[..., 0]
    V = x[..., 1]
    alpha = x[..., 2]
    q = x[..., 3]
    T = u[..., 0]
    de = u[..., 1]

    with np.errstate(all="ignore"):
        V_safe = np.where(V > 0.0, V, np.nan)
        qbar = 0.5 * params.density() * V_safe * V_safe
        qS = qbar * params.S
        chord_rate = params.cbar * q / (2.0 * V_safe)

        static, damping = _aero(tables, alpha, de)
        coef = static + np.asarray(chord_rate)[..., None] * damping
        cx, cz, cm = coef[..., 0], coef[..., 1], coef[..., 2]

        sa, ca = np.sin(alpha), np.cos(alpha)
        st, ct = np.sin(theta), np.cos(theta)
        f_axial = T - m * params.g * st + qS * cx      # along body x
        f_normal = m * params.g * ct + qS * cz         # along body z

        V_dot = (ca * f_axial + sa * f_normal) / m
        alpha_dot = q + (-sa * f_axial + ca * f_normal) / (m * V_safe)
        q_dot = (qS * params.cbar / Jyy) * (
            cm + ((params.xcg_ref - xcg) / params.cbar) * cz)

    out = np.empty(np.broadcast(q, V_dot, alpha_dot, q_dot).shape + (4,))
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = q, V_dot, alpha_dot, q_dot
    return out


def dynamics(x, u, params: AircraftParams, tables: AeroTables) -> np.ndarray:
    """Open-loop state derivative (theta_dot, V_dot, alpha_dot, q_dot).

    Accepts LongitudinalState/ControlInput or plain arrays with trailing
    axes 4 and 2. Raises SingularStateError for V <= 0 (the equations divide
    by V).
    """
    if isinstance(x, LongitudinalState):
        x = x.as_array()
    if isinstance(u, ControlInput):
        u = u.as_array()
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(x[..., 1] <= 0.0) or not np.all(np.isfinite(x)):
        raise SingularStateError("dynamics evaluated at V <= 0 or non-finite state")
    return _rhs(x, u, params.m, params.xcg, params.Jyy, params, tables)


def _split_params(p, params: AircraftParams):
    """Map an (m, xcg, Jyy) override block (possibly empty) to rhs arguments."""
    if p is None:
        return params.m, params.xcg, params.Jyy, 0
    p = np.asarray(p, dtype=float)
    if p.shape[-1] == 0:
        return params.m, params.xcg, params.Jyy, 0
    if p.shape[-1] != 3:
        raise ValueError("parameter block must be empty or (m, xcg, Jyy)")
    return p[..., 0], p[..., 1], p[..., 2], 3


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Closed-loop extended vector field.

    The control law sees the state, an actuator disturbance w(t) (radians)
    adds to the elevator command, and the sum is saturated before entering
    the plant. Uncertain parameters (m, xcg, Jyy) ride along as frozen
    extended states with zero derivative.
    """

    law: Callable[[np.ndarray], np.ndarray]
    params: AircraftParams
    tables: AeroTables
    disturbance: Callable[[float], float] | None = None

    def control(self, x: np.ndarray, t: float) -> np.ndarray:
        """Saturated control applied at state x, time t."""
        u = np.array(self.law(x), dtype=float, copy=True)
        if self.disturbance is not None:
            u[..., 1] = u[..., 1] + self.disturbance(t)
        return saturate_array(u)

    def state_rhs(self, t: float, x: np.ndarray, p=None) -> np.ndarray:
        """Derivative of the state block; p overrides (m, xcg, Jyy)."""
        m, xcg, Jyy, _ = _split_params(p, self.params)
        return _rhs(np.asarray(x, dtype=float), self.control(x, t),
                    m, xcg, Jyy, self.params, self.tables)

    def extended_rhs(self, t: float, xt: np.ndarray) -> np.ndarray:
        """Derivative of [x, p]: the parameter block is identically zero."""
        xt = np.asarray(xt, dtype=float)
        x, p = xt[..., :4], xt[..., 4:]
        xdot = self.state_rhs(t, x, p if p.shape[-1] else None)
        return np.concatenate([xdot, np.zeros_like(p)], axis=-1)


def closed_loop_rhs(x, p, t, law, w, params: AircraftParams,
                    tables: AeroTables) -> np.ndarray:
    """Extended-state derivative of the closed loop at (x, p, t).

    law maps states to pre-saturation controls; w(t) is the elevator
    disturbance in radians (None for no disturbance). Returns the
    concatenated (state, parameter) derivative with a zero parameter block.
    """
    if isinstance(x, LongitudinalState):
        x = x.as_array()
    x = np.asarray(x, dtype=float)
    if np.any(x[..., 1] <= 0.0) or not np.all(np.isfinite(x)):
        raise SingularStateError("closed loop evaluated at V <= 0 or non-finite state")
    loop = ClosedLoop(law=law, params=params, tables=tables, disturbance=w)
    p_arr = None if p is None else np.asarray(p, dtype=float)
    if p_arr is None or p_arr.shape[-1] == 0:
        xt = x if p_arr is None else np.concatenate([x, p_arr], axis=-1)
        xdot = loop.state_rhs(t, x, None)
        zeros = np.zeros(x.shape[:-1] + (0,)) if p_arr is not None else None
        return xdot if zeros is None else np.concatenate([xdot, zeros], axis=-1)
    return loop.extended_rhs(t, np.concatenate([x, p_arr], axis=-1))


@dataclass(frozen=True, eq=False)
class ConstantLaw:
    """Control law that ignores the state (open-loop hold)."""

    u: np.ndarray

    def __post_init__(self):
        u = self.u.as_array() if isinstance(self.u, ControlInput) else np.asarray(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.u, np.shape(x)[:-1] + (2,)).copy()


@dataclass(frozen=True)
class SineDisturbance:
    """Elevator disturbance w(t) = amplitude * sin(omega t), radians."""

    amplitude: float
    omega: float

    def __call__(self, t: float) -> float:
        return self.amplitude * math.sin(self.omega * t)
