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
control vectors between the two, in one form each way: internal =
reporting * unit, and reporting = internal / unit. STATE_FIELDS and
CONTROL_FIELDS name the reporting columns.

All evaluation routines take arrays and broadcast over leading sample
axes: states have a trailing axis of length 4, controls of length 2.
Per-sample parameter overrides (mass, c.g. position, pitch inertia) may be
arrays. Inside, the hot arrays are value-major: lattice lookups return
(values..., n), the law Jacobians are (2, 4, n) and the controls are
stored column by column, so each per-sample operation runs on a contiguous
n-long row rather than broadcasting over a short trailing axis.

The routines are pure but for their scratch: the large per-call arrays
(corner gathers, blends, table lookups, law Jacobians) are written in
place into a _Work, in the order of the plain expressions, so the bits are
theirs. A ClosedLoop binds the rows of a propagation once into a RowBlock,
whose _Work lives as long as the block (see ClosedLoop); at a few thousand
rows this stops each field call from faulting its temporaries in afresh.

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
from functools import partial
from importlib import resources
from typing import Callable

import numpy as np

DEG = math.pi / 180.0

# Internal value of one reporting unit per state (deg, ft/s, deg, deg/s) and
# per control (lb, deg), and the name of each reporting column.
STATE_UNITS = np.array([DEG, 1.0, DEG, DEG])
CONTROL_UNITS = np.array([1.0, DEG])
STATE_FIELDS = ("theta_deg", "V", "alpha_deg", "q_dps")
CONTROL_FIELDS = ("T", "delta_e_deg")

# Actuator limits: thrust (lb) and elevator (rad).
THRUST_MIN = 1000.0
THRUST_MAX = 28000.0
ELEVATOR_LIMIT = 25.0 * DEG

# Relative step of the divergence stencil, h_k = H_REL max(1, |x_k|): the
# step liouville.divergence passes to central_difference (whose default,
# the trim and linearization step, is smaller), and so the width of the
# secants the closed-form divergence reproduces (see the module docstring).
H_REL = 3e-5


def central_difference(f, z: np.ndarray, rel: float = 1e-6) -> np.ndarray:
    """Jacobian of f by central differences with steps rel max(1, |z_k|).

    One point z (k,) gives the (m, k) Jacobian in C order; points (n, k)
    give (n, m, k). All 2 k n perturbed points go through one call of f, in
    (sign, direction, point) row order, and f maps them row by row to m
    values."""
    z = np.asarray(z, dtype=float)
    Z = np.atleast_2d(z)
    n, k = Z.shape
    h = rel * np.maximum(1.0, np.abs(Z.T))  # (direction, point)
    zs = np.tile(Z, (2 * k, 1)).reshape(2, k, n, k)
    e = np.arange(k)
    zs[0, e, :, e] += h
    zs[1, e, :, e] -= h
    r = np.asarray(f(zs.reshape(-1, k))).reshape(2, k, n, -1)
    J = ((r[0] - r[1]) / (2.0 * h)[..., None]).transpose(1, 2, 0).copy()  # C order
    return J[0] if z.ndim == 1 else J


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
    """parse(document) of the JSON file at path. Malformed JSON, or a
    ValueError from parse (such as a missing or mistyped field), is
    re-raised as a ValueError naming the file; an OSError names it already."""
    with open(path) as f:
        try:
            return parse(json.load(f))
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


class _Work(dict):
    """Named scratch arrays: work(key, shape) is a view of the flat array
    kept under key, made on first use and grown when a call needs more.
    Every call that asks for a key overwrites it, so no result that outlives
    a call may be one. The lattice and table kernels below take one, or
    _fresh."""

    def __call__(self, key: str, shape: tuple, dtype=float, order: str = "C") -> np.ndarray:
        size = math.prod(shape)
        a = self.get(key)
        if a is None or a.size < size:
            a = self[key] = np.empty(size, dtype)
        return a[:size].reshape(shape, order=order)


def _fresh(key: str, shape: tuple, dtype=float, order: str = "C") -> np.ndarray:
    """Scratch as a _Work hands it out, but a new array on every call: the
    work of a caller that keeps none (a trim solve, a plain lookup)."""
    return np.empty(shape, dtype, order)


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


def _lattice(grid: np.ndarray, cell_a, cell_b, work):
    """Bilinear blend of grid (*values, na, nb) at the _cell cells of its two
    axes, broadcast against each other, from one gather of the four corners;
    a one-node axis takes the node itself as its upper corner. The result
    is value-major, (*values, *cell shape). When the cells carry slopes,
    also the partials along a and along b. The corners, the blend and the
    partials are work's arrays (see _Work)."""
    na, nb = grid.shape[-2:]
    da, db = (nb if na > 1 else 0), (1 if nb > 1 else 0)
    flat = grid.reshape(grid.shape[:-2] + (na * nb,))  # entry i * nb + j holds node (i, j)
    idx = np.add.outer(np.array((0, da, db, da + db)), cell_a[0] * nb + cell_b[0])
    # the cells lie on the grid, so "clip" clips nothing; unlike "raise" it
    # writes straight into out
    corners = flat.take(idx, axis=-1, out=work("corners", flat.shape[:-1] + idx.shape),
                        mode="clip")
    nv = grid.ndim - 2  # corner axis after the value axes
    g00, g10, g01, g11 = corners.transpose((nv, *range(nv), *range(nv + 1, corners.ndim)))
    wa, wb = cell_a[1], cell_b[1]
    ua, ub = 1 - wa, 1 - wb
    blend, t = work("blend", g00.shape), work("lattice", g00.shape)
    np.multiply(ua * ub, g00, out=blend)  # in place, in the order of a + b + c + d
    blend += np.multiply(wa * ub, g10, out=t)
    blend += np.multiply(ua * wb, g01, out=t)
    blend += np.multiply(wa * wb, g11, out=t)
    if len(cell_a) == 2:
        return blend
    # the partials (ub (g10 - g00) + wb (g11 - g01)) sa and
    # (ua (g01 - g00) + wa (g11 - g10)) sb, formed in the corners' place
    np.subtract(g01, g00, out=t)
    d_a = np.subtract(g10, g00, out=g00)
    np.subtract(g11, g10, out=g10)
    np.subtract(g11, g01, out=g11)
    d_a *= ub
    d_a += np.multiply(wb, g11, out=g11)
    d_a *= cell_a[2]
    d_b = np.multiply(t, ua, out=t)
    d_b += np.multiply(wa, g10, out=g10)
    d_b *= cell_b[2]
    return blend, d_a, d_b


def _crosses(bp: np.ndarray, lo, hi):
    """Whether lo and hi lie in different cells of the breakpoints bp."""
    return bp.searchsorted(lo, side="right") != bp.searchsorted(hi, side="right")


def _aero(tables: AeroTables, alpha, delta_e, slopes: bool = False, work=None):
    """Clamped table lookup of (CX, CZ, Cm) and (CXq, CZq, Cmq), each stacked
    value-major on a leading axis of 3. One alpha cell serves all six
    coefficients; a single-column delta_e grid makes CX, CZ, Cm alpha-only.

    slopes=True also returns the in-cell per-radian partials
    d(static)/d alpha, d(damping)/d alpha and d(static)/d delta_e (zero where
    the lookup clamps), from the same cells and gathers. The lookups are
    arrays of work (see _Work; new arrays by default)."""
    work = _fresh if work is None else work
    cell_a = _cell(tables.alpha_breakpoints_deg, np.asarray(alpha) / DEG, DEG, slopes)
    cell_d = _cell(tables.deltae_breakpoints_deg, np.asarray(delta_e) / DEG, DEG, slopes)
    i, wa = cell_a[0], cell_a[1]
    gq = tables._damping
    shape = gq.shape[:-1] + i.shape
    q0 = gq.take(i, axis=-1, out=work("q0", shape), mode="clip")
    q1 = gq.take(i + 1, axis=-1, out=work("q1", shape), mode="clip")
    if slopes:  # (q1 - q0) slope, before q0 and q1 are scaled in place
        damping_a = np.subtract(q1, q0, out=work("damping_a", shape))
        damping_a *= cell_a[2]
    q0 *= 1 - wa  # q0 (1 - wa) + q1 wa
    q0 += np.multiply(q1, wa, out=q1)
    if not slopes:
        return _lattice(tables._static, cell_a, cell_d, work), q0
    static, static_a, static_e = _lattice(tables._static, cell_a, cell_d, work)
    return static, q0, (static_a, damping_a, static_e)


def saturate_array(u: np.ndarray) -> np.ndarray:
    """Clamp (..., 2) control arrays to the actuator box."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    out[..., 0] = np.minimum(np.maximum(u[..., 0], THRUST_MIN), THRUST_MAX)
    out[..., 1] = np.minimum(np.maximum(u[..., 1], -ELEVATOR_LIMIT), ELEVATOR_LIMIT)
    return out


def _rhs(x: np.ndarray, u: np.ndarray, m, xcg, Jyy, params: AircraftParams,
         tables: AeroTables, partials: bool = False, work=None, out=None):
    """State derivative, broadcast over leading axes; V <= 0 yields NaN rows
    rather than raising so that ensemble integration can flag divergences.
    It is written into out if given; work holds the table lookups (see
    _Work; new arrays by default).

    partials=True returns (xdot, trace, dfde) from the same arithmetic:
    trace = dV_dot/dV + dalpha_dot/dalpha + dq_dot/dq at fixed u, without the
    -sin(alpha) T / (m V) term of alpha_dot (a caller whose thrust depends on
    alpha takes that term's secant itself), and dfde = the three partials
    d(V_dot, alpha_dot, q_dot)/d delta_e.
    """
    work = _fresh if work is None else work
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

        lookup = _aero(tables, alpha, de, partials, work)
        static, damping = lookup[:2]
        coef = np.multiply(chord_rate, damping, out=work("coef", static.shape))
        cx, cz, cm = np.add(static, coef, out=coef)

        sa, ca = np.sin(alpha), np.cos(alpha)
        st, ct = np.sin(theta), np.cos(theta)
        f_axial = T - m * params.g * st + qS * cx      # along body x
        f_normal = m * params.g * ct + qS * cz         # along body z

        V_dot = (ca * f_axial + sa * f_normal) / m
        alpha_dot = q + (-sa * f_axial + ca * f_normal) / (m * V_safe)
        q_dot = (qS * params.cbar / Jyy) * (
            cm + ((params.xcg_ref - xcg) / params.cbar) * cz)

    if out is None:
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


@dataclass(frozen=True, eq=False)
class RowBlock:
    """A p block bound to a ClosedLoop by ClosedLoop.bind (see there): m,
    xcg and Jyy are the per-row columns or the plant's values; laws holds
    (law, rows, command) per law that flies some of the rows, command being
    law(x, work=work) for a law with a jacobian and law(x) otherwise;
    dist_ids are the disturbance positions, kinks the elevator kinks
    (ClosedLoop._deltae_kinks), and work the scratch that the laws, the
    table lookups and the divergence share in turn. Indexing gives rows of
    p itself (None without one), which a field call binds afresh."""

    p: np.ndarray | None
    m: np.ndarray | float
    xcg: np.ndarray | float
    Jyy: np.ndarray | float
    laws: list
    dist_ids: np.ndarray
    kinks: np.ndarray
    work: _Work

    def __getitem__(self, rows):
        return None if self.p is None else self.p[rows]


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

    Every field call reads p through bind, which splits it into a RowBlock
    (a block is kept as it is). liouville._propagate_arrays binds its rows
    once and passes the block to every stage of every step: the rows are
    split once, and the block's scratch (law Jacobians, lattice corner
    gathers, table lookups) is overwritten call after call and freed with
    the block. The loop holds no scratch; a raw p gets a new block per call.
    Results never alias the scratch: xdot is new or the caller's out, and
    the divergence, kink flags and control are new.

    state_rhs_div needs law.jacobian(x, h, work) -> (u, J, C, kink) for
    (n, 4) states x and steps h: the (n, 2) command u (bitwise law(x)), its
    Jacobian J and in-cell curvature C per direction, so that the command
    at x +/- h_k e_k is u +/- h_k J_k + h_k^2 C_k (both value-major,
    broadcasting to (2, 4, n): J[i, k] is one row over the samples), and
    the rows whose stencil leaves the law's own cell (as LqrLaw and
    ScheduledLaw give). work is the block's scratch, which law(x, work=...)
    also takes; J and C may be arrays of it, read before the next call.
    For a law without one, pass state_rhs to liouville.propagate as a plain
    field: it then takes finite differences on every row.
    """

    law: Callable[[np.ndarray], np.ndarray] | tuple
    params: AircraftParams
    tables: AeroTables
    disturbance: Callable[[float], float] | tuple | None = None

    def bind(self, p=None) -> RowBlock:
        """p split into a RowBlock: an optional (m, xcg, Jyy) override, then
        optionally the two index columns; a missing part gives the plant's
        values or id 0. A RowBlock is returned as it is."""
        if isinstance(p, RowBlock):
            return p
        raw = p
        p = np.zeros(0) if p is None else np.asarray(p, dtype=float)
        width = p.shape[-1]
        if width not in (0, 2, 3, 5):
            raise ValueError("parameter block must be [m, xcg, Jyy] [law id, disturbance id]")
        m, xcg, Jyy = ((p[..., 0].copy(), p[..., 1].copy(), p[..., 2].copy()) if width >= 3
                       else (self.params.m, self.params.xcg, self.params.Jyy))
        ids = p[..., -2:].astype(np.intp) if width in (2, 5) else np.zeros(2, dtype=np.intp)
        work = _Work()
        laws = [(law, rows, partial(law, work=work) if hasattr(law, "jacobian") else law)
                for law, rows in self._blocks(ids[..., 0])]
        return RowBlock(None if raw is None else p, m, xcg, Jyy, laws, ids[..., 1],
                        self._deltae_kinks(), work)

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
        blk = self.bind(p)
        # value-major: T and delta_e rows
        u = blk.work("u", x.shape[:-1] + (2,), order="F")
        for _, rows, command in blk.laws:
            u[rows] = command(x[rows])
        return saturate_array(self._disturb(u, t, blk.dist_ids))

    def state_rhs(self, t: float, x: np.ndarray, p=None, out=None) -> np.ndarray:
        """Derivative of the state block, written into out if given; p
        overrides (m, xcg, Jyy) and carries the index columns, or is a
        RowBlock of them (see the class docstring)."""
        x = np.asarray(x, dtype=float)
        blk = self.bind(p)
        return _rhs(x, self.control(x, t, blk), blk.m, blk.xcg, blk.Jyy, self.params,
                    self.tables, work=blk.work, out=out)

    def state_rhs_div(self, t: float, x: np.ndarray, p=None, out=None):
        """(state_rhs(t, x, p, out), divergence, kink) for (n, 4) states x.

        The divergence is the closed-form trace of the closed-loop Jacobian
        under the kink convention of the module docstring; kink flags the
        rows it does not cover, whose +/- h stencil (h = H_REL max(1, |x|))
        in V, alpha or q crosses elevator saturation, an alpha or delta_e
        table breakpoint (or table edge), a cell edge of the law, or V = 0.
        """
        x = np.asarray(x, dtype=float)
        blk = self.bind(p)
        w, n = blk.work, len(x)
        # value-major: a row per state, H_REL max(1, |x|)
        h = np.abs(x.T, out=w("h", (4, n)))
        np.maximum(h, 1.0, out=h)
        h *= H_REL
        # J and C without their theta column, which the divergence never reads
        u_cmd, J, C = w("u", (n, 2), order="F"), w("J", (2, 3, n)), w("C", (2, 3, n))
        kink = w("kink", (n,), bool)
        for law, rows, _ in blk.laws:
            u_cmd[rows], J_law, C_law, kink[rows] = law.jacobian(x[rows], h.T[rows], w)
            J[..., rows], C[..., rows] = J_law[:, 1:], C_law[:, 1:]
        u_cmd = self._disturb(u_cmd, t, blk.dist_ids)
        m = blk.m
        xdot, div, dfde = _rhs(x, saturate_array(u_cmd), m, blk.xcg, blk.Jyy,
                               self.params, self.tables, partials=True, work=w, out=out)
        # directions V, alpha, q (theta_dot = q contributes 0) on (3, n) rows;
        # the command at x +/- h_k e_k is u +/- h_k J_k + h_k^2 C_k inside
        # the law's cell
        h = h[1:]
        # the table lookups are spent: these rows reuse their corner gather
        scratch = w("corners", (15, n))
        hh, dE, hi = scratch[:3], scratch[3:6], scratch[6:9]
        # thrust rows V and alpha only: the q row's secant is not needed
        dT, cT, T_hi = scratch[9:11], scratch[11:13], scratch[13:]
        np.multiply(h, h, out=hh)
        np.multiply(h, J[1], out=dE)
        np.multiply(h[:2], J[0, :2], out=dT)
        np.multiply(hh[:2], C[0, :2], out=cT)
        cE = np.multiply(hh, C[1], out=hh)
        V, alpha = x[:, 1], x[:, 2]
        hV, ha = h[0], h[1]
        uT, uE = u_cmd.T
        with np.errstate(all="ignore"):
            # thrust enters linearly: the secant of its saturation in V, alpha,
            # T_hi = sat(uT + dT + cT) and T_lo = sat(uT - dT + cT)
            np.add(uT, dT, out=T_hi)
            T_hi += cT
            T_lo = np.subtract(uT, dT, out=dT)
            T_lo += cT
            for T in (T_hi, T_lo):
                np.maximum(T, THRUST_MIN, out=T)
                np.minimum(T, THRUST_MAX, out=T)
            div = (div + np.cos(alpha) * (T_hi[0] - T_lo[0]) / (2.0 * hV * m)
                   + (np.sin(alpha - ha) * T_lo[1] - np.sin(alpha + ha) * T_hi[1])
                   / (2.0 * ha * m * V))
            free = np.abs(uE) < ELEVATOR_LIMIT
            JE = J[1]
            div = div + free * (dfde[0] * JE[0] + dfde[1] * JE[1] + dfde[2] * JE[2])
            # the elevator command over all three stencils, against its kinks:
            # lo = cE - |dE| and hi = cE + |dE|
            np.abs(dE, out=dE)
            np.add(cE, dE, out=hi)
            lo = np.subtract(cE, dE, out=cE)
            e_lo = uE + np.minimum(np.minimum(lo[0], lo[1]), lo[2])
            e_hi = uE + np.maximum(np.maximum(hi[0], hi[1]), hi[2])
        kinks = blk.kinks
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
