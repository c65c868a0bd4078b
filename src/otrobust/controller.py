"""LQR synthesis and gain scheduling.

Linearization is the trim solve's central-difference Jacobian
(f16.central_difference) over the stacked (x, u) of a right-hand side that
broadcasts over leading axes (as f16.dynamics does); A and B come back in C
order, so the LAPACK calls of the Riccati solve take a fixed path. The
continuous algebraic Riccati equation is solved from the stable invariant
subspace of the ordered real Schur form of the Hamiltonian, polished with
one Newton-Kleinman (Lyapunov) step. The closed loop calls one of two law
objects: LqrLaw, one gain about a trim, or ScheduledLaw, which keeps one
gain per node of a (V, alpha) lattice, interpolates the gains bilinearly
in the scheduling states (clamped to the lattice hull, by the lattice
kernel the aero tables use, f16._lattice) and regulates deviations from
one fixed reference trim; node trims are not interpolated. Both also give
the Jacobian of their command, which the closed-form Liouville divergence
uses (f16.ClosedLoop.state_rhs_div).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .f16 import (CONTROL_UNITS, DEG, STATE_UNITS, AeroTables, AircraftParams, _cell, _crosses,
                  _fresh, _lattice, central_difference, dynamics)
from .trim import TrimPoint

CARE_RESIDUAL_RTOL = 1e-8
# The unit of every gain matrix: K acts on radian state deviations.
K_UNITS = "thrust lb and elevator rad per (rad, ft/s, rad, rad/s) deviation"


class LinearizationError(RuntimeError):
    """Finite-difference Jacobian produced non-finite entries."""


class SynthesisError(RuntimeError):
    """Riccati solve failed or the closed loop is not Hurwitz."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Linearization x_dot ~ A (x - x0) + B (u - u0) about a point (x0, u0).

    Bw is the elevator column of B: the actuator disturbance enters the
    plant through that channel.
    """

    A: np.ndarray
    B: np.ndarray

    @property
    def Bw(self) -> np.ndarray:
        return self.B[:, 1:2]


@dataclass(frozen=True, eq=False)
class LqrWeights:
    """Quadratic cost weights; defaults are the regulation weights used for
    both the fixed and the scheduled controller."""

    Q: np.ndarray = field(default_factory=lambda: np.diag([100.0, 0.25, 100.0, 1e-4]))
    R: np.ndarray = field(default_factory=lambda: np.diag([1e-6, 625.0]))

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        R = np.asarray(self.R, dtype=float)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if not np.allclose(Q, Q.T) or not np.allclose(R, R.T):
            raise ValueError("Q and R must be symmetric")
        if np.any(np.linalg.eigvalsh(Q) < -1e-12):
            raise ValueError("Q must be positive semidefinite")
        if np.any(np.linalg.eigvalsh(R) <= 0):
            raise ValueError("R must be positive definite")


def spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part of the eigenvalues of A."""
    return float(np.max(np.linalg.eigvals(A).real))


def linearize(rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
              x0, u0) -> LinearModel:
    """Central-difference linearization of rhs(x, u) about the arrays
    (x0, u0); rhs must broadcast over leading axes (f16.central_difference).
    Stacked points, x0 (n, k) and u0 (n, m), give A (n, k, k) and B
    (n, k, m) from one call of rhs, each node bitwise its single-point
    linearization. Exact for linear maps up to roundoff."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    n = x0.shape[-1]
    D = central_difference(lambda xu: rhs(xu[:, :n], xu[:, n:]),
                           np.concatenate([x0, u0], axis=-1))
    A, B = np.ascontiguousarray(D[..., :n]), np.ascontiguousarray(D[..., n:])

    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise LinearizationError("non-finite entries in finite-difference Jacobian")
    return LinearModel(A=A, B=B)


def linearize_plant(x0, u0, params: AircraftParams, tables: AeroTables) -> LinearModel:
    """Linearize the open-loop F-16 dynamics about a trim point's state and
    control arrays, or about each of stacked points (see linearize)."""
    return linearize(lambda x, u: dynamics(x, u, params, tables), x0, u0)


def care_residual(A, B, Q, R, P) -> float:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q."""
    G = B @ np.linalg.solve(R, B.T)
    return float(np.linalg.norm(A.T @ P + P @ A - P @ G @ P + Q, "fro"))


def solve_care(A, B, Q, R) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Builds the 2n x 2n Hamiltonian, orders its real Schur form so the stable
    invariant subspace comes first, recovers P from the subspace basis, and
    applies one Newton-Kleinman refinement (a Lyapunov solve at the current
    gain) to push the residual to roundoff.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    n = A.shape[0]
    G = B @ np.linalg.solve(R, B.T)
    H = np.block([[A, -G], [-Q, -A.T]])

    _, Z, sdim = scipy.linalg.schur(H, sort=lambda re, im: re < 0.0)
    if sdim != n:
        raise SynthesisError(
            f"ordered Schur split returned a {sdim}-dimensional stable subspace, expected {n}")
    Z11 = Z[:n, :n]
    Z21 = Z[n:, :n]
    try:
        P = np.linalg.solve(Z11.T, Z21.T).T
    except np.linalg.LinAlgError as exc:
        raise SynthesisError("singular stable-subspace basis") from exc
    P = 0.5 * (P + P.T)

    # One Newton-Kleinman step: with K = R^-1 B' P, the refined P solves
    # (A - B K)' P+ + P+ (A - B K) = -(Q + K' R K).
    K = np.linalg.solve(R, B.T @ P)
    Acl = A - B @ K
    P = scipy.linalg.solve_continuous_lyapunov(Acl.T, -(Q + K.T @ R @ K))
    P = 0.5 * (P + P.T)

    if not np.all(np.isfinite(P)):
        raise SynthesisError("non-finite Riccati solution")
    qnorm = np.linalg.norm(Q, "fro")
    if care_residual(A, B, Q, R, P) >= CARE_RESIDUAL_RTOL * max(qnorm, 1e-300):
        raise SynthesisError("Riccati residual above tolerance")
    if spectral_abscissa(A - B @ np.linalg.solve(R, B.T @ P)) >= 0.0:
        raise SynthesisError("closed loop not Hurwitz after Riccati solve")
    return P


def lqr_gain(model: LinearModel, weights: LqrWeights) -> np.ndarray:
    """State-feedback gain K = R^-1 B' P for the linearized model and weights."""
    P = solve_care(model.A, model.B, weights.Q, weights.R)
    return np.linalg.solve(weights.R, model.B.T @ P)


def _contract(M: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """sum_j M[:, j] dx[j] of value-major (2, 4, ...) gains and (4, ...)
    deviations, summed in the order of np.einsum("...ij,...j->...i") over
    the sample-major arrays, so the two agree bit for bit."""
    return (M[:, 0] * dx[0] + M[:, 2] * dx[2]) + (M[:, 1] * dx[1] + M[:, 3] * dx[3])


@dataclass(frozen=True, eq=False)
class LqrLaw:
    """Fixed-gain LQR law about a trim point, as the closed loop calls it.
    The trim state and control arrays, -K and the zero curvature are made
    once, here."""

    K: np.ndarray
    trim: TrimPoint

    def __post_init__(self):
        for name, value in (("_x", self.trim.x_trim.as_array()), ("_u", self.trim.u_trim.as_array()),
                            ("_J", -np.asarray(self.K)[..., None]), ("_C", np.zeros((2, 4, 1)))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __call__(self, x: np.ndarray, work=None) -> np.ndarray:
        """Pre-saturation control u = u_trim - K (x - x_trim), batched over x,
        value-major in the fixed order of _contract (work is unused)."""
        x = np.asarray(x, dtype=float)
        dx = np.reshape(x, (-1, 4)).T - self._x[:, None]
        return (self._u[:, None] + _contract(self._J, dx)).T.reshape(x.shape[:-1] + (2,))

    def jacobian(self, x: np.ndarray, h: np.ndarray, work=None):
        """The command (as __call__), its Jacobian -K, zero curvature and no
        cell edges, value-major (2, 4, 1) as f16.ClosedLoop.state_rhs_div
        takes them."""
        return self(x), self._J, self._C, False


@dataclass(frozen=True, eq=False)
class GainSchedule:
    """Per-node gains on a rectangular (V, alpha) lattice, regulating to a
    fixed reference trim.

    The gain matrices are interpolated in the scheduling states; the
    deviation offsets are NOT: the per-node trims across this envelope are
    wildly different equilibria (steep climb/dive at off-design nodes), and
    using their interpolation as the regulation target plants spurious
    closed-loop equilibria all over the envelope, so every scheduled gain
    regulates deviations from the single reference (x_ref, u_ref). Per-node
    trims are retained as a synthesis record alongside the per-node
    open/closed-loop spectral abscissas.

    Shapes: x_trims (nv, na, 4), u_trims (nv, na, 2), K (nv, na, 2, 4);
    the laws read K through its value-major copy (2, 4, nv, na), built once
    here. Immutable after construction and safe to share between workers.
    """

    V_nodes: np.ndarray
    alpha_nodes: np.ndarray
    x_trims: np.ndarray
    u_trims: np.ndarray
    K: np.ndarray
    abscissa_open: np.ndarray
    abscissa_closed: np.ndarray
    x_ref: np.ndarray
    u_ref: np.ndarray

    def __post_init__(self):
        for name in ("V_nodes", "alpha_nodes", "x_trims", "u_trims", "K",
                     "abscissa_open", "abscissa_closed", "x_ref", "u_ref"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        nv, na = self.V_nodes.size, self.alpha_nodes.size
        if self.x_trims.shape != (nv, na, 4) or self.u_trims.shape != (nv, na, 2):
            raise ValueError("trim grids inconsistent with node vectors")
        if self.K.shape != (nv, na, 2, 4):
            raise ValueError("gain grid inconsistent with node vectors")
        if self.x_ref.shape != (4,) or self.u_ref.shape != (2,):
            raise ValueError("reference trim must be a (4,) state and (2,) control")
        object.__setattr__(self, "_K", np.ascontiguousarray(np.moveaxis(self.K, (0, 1), (2, 3))))

    @property
    def n_nodes(self) -> int:
        return self.V_nodes.size * self.alpha_nodes.size

    def to_dict(self) -> dict:
        return {
            "V_nodes": self.V_nodes.tolist(),
            "alpha_nodes_deg": (self.alpha_nodes / STATE_UNITS[2]).tolist(),
            "x_trims_deg": (self.x_trims / STATE_UNITS).tolist(),
            "u_trims_deg": (self.u_trims / CONTROL_UNITS).tolist(),
            "K": self.K.tolist(),
            "K_units": K_UNITS,
            "abscissa_open": self.abscissa_open.tolist(),
            "abscissa_closed": self.abscissa_closed.tolist(),
            "x_ref_deg": (self.x_ref / STATE_UNITS).tolist(),
            "u_ref_deg": (self.u_ref / CONTROL_UNITS).tolist(),
        }


def build_schedule(trims: list[TrimPoint], weights: LqrWeights, params: AircraftParams,
                   tables: AeroTables, reference: TrimPoint) -> GainSchedule:
    """Synthesize one LQR gain per trim node and assemble the schedule.

    The trim list must be a full rectangular (V, alpha) lattice in V-major
    order, as trim_grid(default_grid()) returns it; the node vectors are
    the distinct V and alpha of the trims, and any other list (a node
    missing, repeated or out of order) raises ValueError. All nodes are
    linearized in one stacked plant call. A node whose Riccati solve
    fails (solve_care, which also rejects a closed loop that is not
    Hurwitz) raises SynthesisError naming the node. `reference` sets the
    regulation target of the scheduled law.
    """
    if not trims:
        raise ValueError("a gain schedule needs at least one trim point")
    X = np.array([tp.x_trim.as_array() for tp in trims])
    U = np.array([tp.u_trim.as_array() for tp in trims])
    Vs, alphas = np.unique(X[:, 1]), np.unique(X[:, 2])
    nv, na = Vs.size, alphas.size
    if not (np.array_equal(X[:, 1], np.repeat(Vs, na))
            and np.array_equal(X[:, 2], np.tile(alphas, nv))):
        raise ValueError(f"{len(trims)} trim points do not form a {nv}x{na} rectangular grid "
                         "in V-major order")

    models = linearize_plant(X, U, params, tables)
    K, ab_open, ab_closed = [], [], []
    for x, A, B in zip(X, models.A, models.B):
        try:
            Kk = lqr_gain(LinearModel(A=A, B=B), weights)
        except SynthesisError as exc:
            raise SynthesisError(
                f"node (V={x[1]:.1f}, alpha={x[2] / DEG:.2f} deg): {exc}") from exc
        K.append(Kk)
        ab_open.append(spectral_abscissa(A))
        # negative: solve_care has checked these very bits
        ab_closed.append(spectral_abscissa(A - B @ Kk))

    return GainSchedule(V_nodes=Vs, alpha_nodes=alphas, x_trims=X.reshape(nv, na, 4),
                        u_trims=U.reshape(nv, na, 2), K=np.reshape(K, (nv, na, 2, 4)),
                        abscissa_open=np.reshape(ab_open, (nv, na)),
                        abscissa_closed=np.reshape(ab_closed, (nv, na)),
                        x_ref=reference.x_trim.as_array(),
                        u_ref=reference.u_trim.as_array())


@dataclass(frozen=True, eq=False)
class ScheduledLaw:
    """Gain-scheduled LQR law, as the closed loop calls it. The arithmetic
    runs value-major, on (4, n) deviations and (2, 4, n) gains, in the
    arrays of work (an f16._Work: a closed loop's row block passes its
    own, kept from call to call; new arrays by default)."""

    schedule: GainSchedule

    def _gains(self, x: np.ndarray, slopes: bool, work):
        """For (n, 4) states x: their deviations from x_ref as contiguous
        (4, n) rows, and the lattice blend of K~ at their (V, alpha),
        (2, 4, n) (with slopes, also its two partials)."""
        s = self.schedule
        work = _fresh if work is None else work
        return np.subtract(x.T, s.x_ref[:, None], out=work("dx", x.shape[::-1])), _lattice(
            s._K, _cell(s.V_nodes, x[:, 1], slopes=slopes),
            _cell(s.alpha_nodes, x[:, 2], slopes=slopes), work)

    def __call__(self, x: np.ndarray, work=None) -> np.ndarray:
        """Pre-saturation control u = u_ref - K~(V, alpha) (x - x_ref), batched
        over x; K~ is bilinear in (V, alpha), clamped to the lattice hull."""
        x = np.asarray(x, dtype=float)
        dx, Kt = self._gains(np.reshape(x, (-1, 4)), False, work)
        return (self.schedule.u_ref[:, None] - _contract(Kt, dx)).T.reshape(x.shape[:-1] + (2,))

    def jacobian(self, x: np.ndarray, h: np.ndarray, work=None):
        """For (n, 4) states x and steps h: the command u = u_ref - K~(V, alpha)
        dx (bitwise as __call__); its Jacobian inside the gain cell, -K~ -
        (dK~/dV dx) e_V' - (dK~/dalpha dx) e_alpha'; the curvature -dK~/dV e_V
        and -dK~/dalpha e_alpha in the V and alpha columns; and the rows whose
        V or alpha stencil crosses a node line or the lattice hull (see
        f16.ClosedLoop). J and C are value-major, (2, 4, n), formed in the
        lattice arrays of work."""
        s = self.schedule
        x = np.asarray(x, dtype=float)
        dx, (Kt, dK_dV, dK_da) = self._gains(x, True, work)
        u = s.u_ref[:, None] - _contract(Kt, dx)
        J = np.negative(Kt, out=Kt)
        J[:, 1] -= _contract(dK_dV, dx)
        J[:, 2] -= _contract(dK_da, dx)
        C = np.negative(dK_dV, out=dK_dV)  # in dK~/dV's place, keeping its V column
        C[:, 0] = C[:, 3] = 0.0
        np.negative(dK_da[:, 2], out=C[:, 2])
        V, alpha, hV, ha = x[:, 1], x[:, 2], h[:, 1], h[:, 2]
        return u.T, J, C, (_crosses(s.V_nodes, V - hV, V + hV)
                           | _crosses(s.alpha_nodes, alpha - ha, alpha + ha))
