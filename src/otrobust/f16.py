"""Nonlinear F-16 longitudinal plant.

Four states x = (theta, V, alpha, q): pitch angle (rad), total velocity
(ft/s), angle of attack (rad), pitch rate (rad/s). Two controls
u = (T, delta_e): thrust (lb) and elevator deflection (rad). Aerodynamic
force and moment coefficients come from clamped multilinear interpolation
of wind-tunnel tables; the shipped data file carries the public-domain
Stevens-Lewis longitudinal set.

One lattice kernel serves the aero tables and the controller's gain
schedule: _cell finds a clamped cell (index, weight, slope factor; a
one-node axis has none), _lattice blends the four corners of a 2-D grid
and gives its in-cell partials, and _crosses tells whether a stencil
crosses a node line. The divergence below reads all three.

Angles are radians internally. Files, the CLI and the Wasserstein scores
speak degrees (deg, ft/s, deg, deg/s for states; lb, deg for controls), and
STATE_UNITS and CONTROL_UNITS are the one table that converts state and
control vectors between the two: a reporting value times its unit is the
internal value.

All evaluation routines are pure, take arrays and broadcast over leading
sample axes: states have a trailing axis of length 4, controls of length 2.
Per-sample parameter overrides (mass, c.g. position, pitch inertia) may be
arrays. Inside, the hot arrays are value-major: lattice lookups return
(values..., n), the law Jacobians are (2, 4, n) and the controls are
stored column by column, so each per-sample operation runs on a contiguous
n-long row rather than broadcasting over a short trailing axis.

The Liouville density needs the divergence of the closed loop, the trace
dV_dot/dV + dalpha_dot/dalpha + dq_dot/dq (theta_dot = q adds 0). Where the
loop is piecewise smooth its value is a convention: the central-difference
secant with steps h = H_REL max(1, |x|). ClosedLoop.state_rhs_div
computes it in the same pass as the state derivative, with the Jacobian
its law must give (a plain callable field gets finite differences):
  * closed form: the plant partials from the table cells the lookup already
    found, plus the elevator channel times the law's Jacobian;
  * thrust enters linearly, so its saturation kink is the secant itself,
    (sat(u_T + h_k J_k + h_k^2 C_k) - sat(u_T - h_k J_k + h_k^2 C_k)) / 2 h_k
    in V and alpha, evaluated in closed form on every row;
  * every other kink the stencil crosses (elevator saturation, an alpha or
    delta_e breakpoint or table edge, a cell edge of the law, V = 0) flags
    the row, and the caller takes finite differences there.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from typing import Callable

import numpy as np

DEG = math.pi / 180.0

# Internal value of one reporting unit per state (deg, ft/s, deg, deg/s) and
# per control (lb, deg).
STATE_UNITS = np.array([DEG, 1.0, DEG, DEG])
CONTROL_UNITS = np.array([1.0, DEG])

# Actuator limits: thrust (lb) and elevator (rad).
THRUST_MIN = 1000.0
THRUST_MAX = 28000.0
ELEVATOR_LIMIT = 25.0 * DEG

# Relative step of the divergence stencil, h_k = H_REL max(1, |x_k|): the
# central-difference step of liouville.divergence, and so the width of the
# secants the closed-form divergence reproduces (see the module docstring).
H_REL = 3e-5


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
        with contextlib.suppress(OverflowError):
            if math.isfinite(self.density()):
                return
        raise ValueError(f"the density at h = {self.h} ft is not finite")

    def density(self) -> float:
        """Atmospheric density rho(h) = rho0 (1 - 0.703e-5 h)^4.14, slug/ft^3."""
        return self.rho0 * (1.0 - 0.703e-5 * self.h) ** 4.14

    @classmethod
    def from_json(cls, path) -> "AircraftParams":
        return read_json(path, cls.from_dict)

    @classmethod
    def from_dict(cls, d: dict) -> "AircraftParams":
        """Parameters from a JSON object of field values; ValueError naming
        an unknown or non-numeric field."""
        if not isinstance(d, dict):
            raise ValueError(f"aircraft parameters must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown aircraft parameter {sorted(unknown)[0]!r}")
        return cls(**{key: as_number(v, f"aircraft parameter {key!r}")
                      for key, v in d.items()})


@dataclass(frozen=True, eq=False)
class AeroTables:
    """Breakpoint grids for CX, CZ, Cm (alpha x delta_e) and the pitch-rate
    derivatives CXq, CZq, Cmq (alpha only). Breakpoints are stored in degrees
    as in the data file; lookups accept radians. The lookups read value-major
    stacks built here, (3, na, nd) for CX, CZ, Cm and (3, na) for the
    damping derivatives, and return one n-long row per coefficient."""

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
        # derived value-major lookup grids: (3, na, nd) for CX/CZ/Cm, (3, na)
        # for CXq/CZq/Cmq
        object.__setattr__(self, "_static", np.stack([self.CX, self.CZ, self.Cm]))
        object.__setattr__(self, "_damping", np.stack([self.CXq, self.CZq, self.Cmq]))

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


def _cell(bp: np.ndarray, x, unit: float = 1.0, slopes: bool = False):
    """Lattice cell of x (in the units of the breakpoints bp), clamped to
    [bp[0], bp[-1]]: the lower index i and the weight w of bp[i + 1], and
    with slopes=True the slope factor 1 / (cell width * unit) (zero where x
    clamps). A one-node axis gives i = 0, w = 0 and slope 0."""
    if bp.size == 1:
        zero = np.zeros(np.shape(x))
        return (zero.astype(np.intp), zero) + ((zero,) if slopes else ())
    xc = np.minimum(np.maximum(x, bp[0]), bp[-1])
    # xc >= bp[0] (or NaN, which sorts last), so only the top needs a clamp
    i = np.minimum(bp.searchsorted(xc, side="right") - 1, bp.size - 2)
    lo = bp[i]
    width = bp[i + 1] - lo
    w = np.asarray((xc - lo) / width)
    if not slopes:
        return i, w
    return i, w, np.asarray(((x > bp[0]) & (x < bp[-1])) / (width * unit))


def _lattice(grid: np.ndarray, cell_a, cell_b):
    """Bilinear blend of grid (*values, na, nb) at the _cell cells of its two
    axes, broadcast against each other, from one gather of the four corners;
    a one-node axis takes the node itself as its upper corner. The result
    is value-major, (*values, *cell shape). When the cells carry slopes,
    also the partials along a and along b."""
    na, nb = grid.shape[-2:]
    da, db = (nb if na > 1 else 0), (1 if nb > 1 else 0)
    flat = grid.reshape(grid.shape[:-2] + (na * nb,))  # entry i * nb + j holds node (i, j)
    corners = flat.take(np.add.outer(np.array((0, da, db, da + db)),
                                     cell_a[0] * nb + cell_b[0]), axis=-1)
    nv = grid.ndim - 2  # corner axis after the value axes
    g00, g10, g01, g11 = corners.transpose((nv, *range(nv), *range(nv + 1, corners.ndim)))
    wa, wb = cell_a[1], cell_b[1]
    ua, ub = 1 - wa, 1 - wb
    blend = ua * ub * g00  # in place, in the order of a + b + c + d: fewer live temporaries
    blend += wa * ub * g10
    blend += ua * wb * g01
    blend += wa * wb * g11
    if len(cell_a) == 2:
        return blend
    sa, sb = cell_a[2], cell_b[2]
    return (blend, (ub * (g10 - g00) + wb * (g11 - g01)) * sa,
            (ua * (g01 - g00) + wa * (g11 - g10)) * sb)


def _crosses(bp: np.ndarray, lo, hi):
    """Whether lo and hi lie in different cells of the breakpoints bp."""
    return bp.searchsorted(lo, side="right") != bp.searchsorted(hi, side="right")


def _aero(tables: AeroTables, alpha, delta_e, slopes: bool = False):
    """Clamped table lookup of (CX, CZ, Cm) and (CXq, CZq, Cmq), each stacked
    value-major on a leading axis of 3. One alpha cell serves all six
    coefficients; a single-column delta_e grid makes CX, CZ, Cm alpha-only.

    slopes=True also returns the in-cell per-radian partials
    d(static)/d alpha, d(damping)/d alpha and d(static)/d delta_e (zero where
    the lookup clamps), from the same cells and gathers."""
    cell_a = _cell(tables.alpha_breakpoints_deg, np.asarray(alpha) / DEG, DEG, slopes)
    cell_d = _cell(tables.deltae_breakpoints_deg, np.asarray(delta_e) / DEG, DEG, slopes)
    i, wa = cell_a[0], cell_a[1]
    gq = tables._damping
    q0, q1 = gq.take(i, axis=-1), gq.take(i + 1, axis=-1)
    damping = q0 * (1 - wa) + q1 * wa
    if not slopes:
        return _lattice(tables._static, cell_a, cell_d), damping
    static, static_a, static_e = _lattice(tables._static, cell_a, cell_d)
    return static, damping, (static_a, (q1 - q0) * cell_a[2], static_e)


def saturate_array(u: np.ndarray) -> np.ndarray:
    """Clamp (..., 2) control arrays to the actuator box."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    out[..., 0] = np.minimum(np.maximum(u[..., 0], THRUST_MIN), THRUST_MAX)
    out[..., 1] = np.minimum(np.maximum(u[..., 1], -ELEVATOR_LIMIT), ELEVATOR_LIMIT)
    return out


def _rhs(x: np.ndarray, u: np.ndarray, m, xcg, Jyy, params: AircraftParams,
         tables: AeroTables, partials: bool = False):
    """State derivative, broadcast over leading axes; V <= 0 yields NaN rows
    rather than raising so that ensemble integration can flag divergences.

    partials=True returns (xdot, trace, dfde) from the same arithmetic:
    trace = dV_dot/dV + dalpha_dot/dalpha + dq_dot/dq at fixed u, without the
    -sin(alpha) T / (m V) term of alpha_dot (a caller whose thrust depends on
    alpha takes that term's secant itself), and dfde = the three partials
    d(V_dot, alpha_dot, q_dot)/d delta_e.
    """
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

        lookup = _aero(tables, alpha, de, partials)
        static, damping = lookup[:2]
        cx, cz, cm = static + chord_rate * damping

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
    if not partials:
        return out
    with np.errstate(all="ignore"):
        static_a, damping_a, static_e = lookup[2]
        mV = m * V_safe
        pitch = qS * params.cbar / Jyy
        arm = (params.xcg_ref - xcg) / params.cbar
        qx, qz, qm = damping
        # coefficient partials: chord_rate = cbar q / (2 V) scales damping
        trace = ((2.0 * qS / V_safe * (ca * cx + sa * cz)
                  - qS * chord_rate / V_safe * (ca * qx + sa * qz)) / m
                 + (-ca * (qS * cx - m * params.g * st) - sa * f_normal
                    + qS * (-sa * static_a[0] + ca * static_a[1]
                            + chord_rate * (-sa * damping_a[0] + ca * damping_a[1])))
                 / mV
                 + pitch * params.cbar / (2.0 * V_safe) * (qm + arm * qz))
        ex, ez, em = static_e
        dfde = (qS * (ca * ex + sa * ez) / m, qS * (-sa * ex + ca * ez) / mV,
                pitch * (em + arm * ez))
    return out, trace, dfde


def dynamics(x, u, params: AircraftParams, tables: AeroTables) -> np.ndarray:
    """Open-loop state derivative (theta_dot, V_dot, alpha_dot, q_dot) of state
    and control arrays; SingularStateError for V <= 0 (the equations divide by V)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(x[..., 1] <= 0.0) or not np.all(np.isfinite(x)):
        raise SingularStateError("dynamics evaluated at V <= 0 or non-finite state")
    return _rhs(x, u, params.m, params.xcg, params.Jyy, params, tables)


def _split_params(p, params: AircraftParams):
    """(m, xcg, Jyy, law ids, disturbance ids) of a p block: an optional
    (m, xcg, Jyy) override, then optionally ClosedLoop's two index columns;
    a missing part gives the plant's values or id 0."""
    p = np.zeros(0) if p is None else np.asarray(p, dtype=float)
    width = p.shape[-1]
    if width not in (0, 2, 3, 5):
        raise ValueError("parameter block must be [m, xcg, Jyy] [law id, disturbance id]")
    m, xcg, Jyy = ((p[..., 0], p[..., 1], p[..., 2]) if width >= 3
                   else (params.m, params.xcg, params.Jyy))
    ids = p[..., -2:].astype(np.intp) if width in (2, 5) else np.zeros(2, dtype=np.intp)
    return m, xcg, Jyy, ids[..., 0], ids[..., 1]


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Closed-loop extended vector field.

    The control law sees the state, an actuator disturbance w(t) (radians)
    adds to the elevator command, and the sum is saturated before entering
    the plant. Uncertain parameters (m, xcg, Jyy) ride along as frozen
    extended states with zero derivative.

    law and disturbance may be tuples: one loop then flies a stacked
    ensemble whose p rows end in two frozen index columns, the positions of
    the row's law and disturbance in those tuples. Each law runs on its own
    rows (slices where the law ids are sorted, index arrays in a kink
    stencil); each w(t) is evaluated once per call and gathered per row.

    state_rhs_div needs law.jacobian(x, h) -> (u, J, C, kink) for (n, 4)
    states x and steps h: the (n, 2) command u (bitwise law(x)), its
    Jacobian J and in-cell curvature C per direction, so that the command
    at x +/- h_k e_k is u +/- h_k J_k + h_k^2 C_k (both value-major,
    broadcasting to (2, 4, n): J[i, k] is one row over the samples), and
    the rows whose stencil leaves the law's own cell (as LqrLaw and
    ScheduledLaw give).
    For a law without one, pass state_rhs to liouville.propagate as a plain
    field: it then takes finite differences on every row.
    """

    law: Callable[[np.ndarray], np.ndarray] | tuple
    params: AircraftParams
    tables: AeroTables
    disturbance: Callable[[float], float] | tuple | None = None

    def _blocks(self, ids):
        """(law, rows) of each law that flies some of the rows with law ids."""
        laws = self.law if isinstance(self.law, tuple) else (self.law,)
        if np.ndim(ids) == 0:
            return [(laws[ids], slice(None))]
        counts = np.bincount(ids, minlength=len(laws))
        if counts.size > len(laws):
            raise ValueError("a law id lies outside the loop's laws")
        if np.all(ids[1:] >= ids[:-1]):
            ends = np.cumsum(counts).tolist()
            rows = [slice(end - c, end) for end, c in zip(ends, counts.tolist())]
        else:
            rows = [np.flatnonzero(ids == k) for k in range(counts.size)]
        return [(law, r) for law, r, c in zip(laws, rows, counts) if c]

    def _disturb(self, u: np.ndarray, t: float, ids) -> np.ndarray:
        """u with each row's elevator disturbance w(t) added, in place."""
        d = self.disturbance
        if d is not None:
            u[..., 1] += np.take([w(t) for w in (d if isinstance(d, tuple) else (d,))], ids)
        return u

    def control(self, x: np.ndarray, t: float, p=None) -> np.ndarray:
        """Saturated control applied at state x, time t (p as in state_rhs)."""
        x = np.asarray(x, dtype=float)
        *_, law_ids, dist_ids = _split_params(p, self.params)
        u = np.empty(x.shape[:-1] + (2,), order="F")  # value-major: T and delta_e rows
        for law, rows in self._blocks(law_ids):
            u[rows] = law(x[rows])
        return saturate_array(self._disturb(u, t, dist_ids))

    def state_rhs(self, t: float, x: np.ndarray, p=None) -> np.ndarray:
        """Derivative of the state block; p overrides (m, xcg, Jyy) and
        carries the index columns (see the class docstring)."""
        m, xcg, Jyy, _, _ = _split_params(p, self.params)
        return _rhs(np.asarray(x, dtype=float), self.control(x, t, p),
                    m, xcg, Jyy, self.params, self.tables)

    def state_rhs_div(self, t: float, x: np.ndarray, p=None):
        """(state_rhs(t, x, p), divergence, kink) for (n, 4) states x.

        The divergence is the closed-form trace of the closed-loop Jacobian
        under the kink convention of the module docstring; kink flags the
        rows it does not cover, whose +/- h stencil (h = H_REL max(1, |x|))
        in V, alpha or q crosses elevator saturation, an alpha or delta_e
        table breakpoint (or table edge), a cell edge of the law, or V = 0.
        """
        x = np.asarray(x, dtype=float)
        m, xcg, Jyy, law_ids, dist_ids = _split_params(p, self.params)
        h = H_REL * np.maximum(1.0, np.abs(x.T, order="C"))  # value-major: a row per state
        n = len(x)
        u_cmd, J, C = np.empty((n, 2), order="F"), np.empty((2, 4, n)), np.empty((2, 4, n))
        kink = np.empty(n, dtype=bool)
        for law, rows in self._blocks(law_ids):
            u_cmd[rows], J[..., rows], C[..., rows], kink[rows] = law.jacobian(x[rows], h.T[rows])
        u_cmd = self._disturb(u_cmd, t, dist_ids)
        xdot, div, dfde = _rhs(x, saturate_array(u_cmd), m, xcg, Jyy,
                               self.params, self.tables, partials=True)
        # directions V, alpha, q (theta_dot = q contributes 0) on (3, n) rows;
        # the command at x +/- h_k e_k is u +/- h_k J_k + h_k^2 C_k inside
        # the law's cell
        h, J, C = h[1:], J[:, 1:], C[:, 1:]
        hh = h * h
        dT, dE = h * J[0], h * J[1]
        cT, cE = hh * C[0], hh * C[1]
        V, alpha = x[:, 1], x[:, 2]
        hV, ha = h[0], h[1]
        uT, uE = u_cmd.T
        with np.errstate(all="ignore"):
            # thrust enters linearly: the secant of its saturation in V, alpha
            T_hi = np.minimum(np.maximum(uT + dT + cT, THRUST_MIN), THRUST_MAX)
            T_lo = np.minimum(np.maximum(uT - dT + cT, THRUST_MIN), THRUST_MAX)
            div = (div + np.cos(alpha) * (T_hi[0] - T_lo[0]) / (2.0 * hV * m)
                   + (np.sin(alpha - ha) * T_lo[1] - np.sin(alpha + ha) * T_hi[1])
                   / (2.0 * ha * m * V))
            free = np.abs(uE) < ELEVATOR_LIMIT
            JE = J[1]
            div = div + free * (dfde[0] * JE[0] + dfde[1] * JE[1] + dfde[2] * JE[2])
            # the elevator command over all three stencils, against its kinks
            lo, hi = cE - np.abs(dE), cE + np.abs(dE)
            e_lo = uE + np.minimum(np.minimum(lo[0], lo[1]), lo[2])
            e_hi = uE + np.maximum(np.maximum(hi[0], hi[1]), hi[2])
        kinks = self._deltae_kinks()
        kink = (kink | (kinks.searchsorted(e_lo) != kinks.searchsorted(e_hi))
                | _crosses(self.tables.alpha_breakpoints_deg, (alpha - ha) / DEG,
                           (alpha + ha) / DEG)
                | (V - hV <= 0.0))
        return xdot, div, kink

    def _deltae_kinks(self) -> np.ndarray:
        """Elevator commands (rad) where the applied delta_e is not smooth:
        the saturation limits and the delta_e breakpoints between them."""
        bp = self.tables.deltae_breakpoints_deg * DEG
        bp = bp[np.abs(bp) < ELEVATOR_LIMIT] if bp.size > 1 else bp[:0]
        return np.concatenate([[-ELEVATOR_LIMIT], bp, [ELEVATOR_LIMIT]])


@dataclass(frozen=True)
class SineDisturbance:
    """Elevator disturbance w(t) = amplitude * sin(omega t), radians."""

    amplitude: float
    omega: float

    def __call__(self, t: float) -> float:
        return self.amplitude * math.sin(self.omega * t)
