"""Wasserstein-2 distances between weighted point clouds.

The general case solves the transportation linear program over couplings
mu_ij >= 0 with prescribed row/column marginals minimizing the total
squared-distance cost. scipy's HiGHS solver (`linprog(method="highs")`)
takes the LP with a sparse (m+n) x mn marginal matrix; its plan is checked
against the marginals here. A Dirac reference target reduces to a
mass-weighted root-mean-square distance in closed form. Scenario scores use
only the Dirac form; the LP serves general CLI inputs and, via
extended_wasserstein, as the oracle of the extended-space param score.

Costs are squared Euclidean in the units of the points, so a score is in
whatever units its caller passes: the scenario scores and the CLI pass
states in the reporting units of f16.STATE_UNITS (harness.in_reporting_units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

# Refuse coupling matrices above this many entries (500 x 500): HiGHS's
# storage grows with m*n while the Dirac short cut stays linear. Its peak
# also depends on the shape: one LP at the budget (d = 4, uniform masses)
# peaked at 384 MB RSS as 500 x 500 and at 505 MB as 1 x 250,000, the
# most elongated shape and the worst measured.
DEFAULT_BUDGET = 250_000

_MASS_REJECT_TOL = 1e-9     # inputs farther than this from unit mass are errors
_MASS_TOL = 1e-12           # post-normalization imbalance tolerance
_FEAS_TOL = 1e-9            # marginal feasibility of returned plans


class MassBalanceError(ValueError):
    """Total masses differ beyond tolerance (conservation of mass)."""


class BudgetExceededError(ValueError):
    """Coupling size m*n exceeds DEFAULT_BUDGET."""


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Weighted point cloud: points (n, d), nonnegative masses summing to 1."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.masses, dtype=float).reshape(pts.shape[0])
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if np.any(w < 0):
            raise ValueError("masses must be nonnegative")
        total = math.fsum(w.tolist())
        if abs(total - 1.0) > _MASS_REJECT_TOL:
            raise MassBalanceError(f"masses sum to {total}, not 1")
        if total != 1.0:
            w = w / total
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse optimal coupling with its squared cost and W = sqrt(cost)."""

    rows: np.ndarray
    cols: np.ndarray
    flows: np.ndarray
    cost: float
    shape: tuple[int, int]

    @property
    def W(self) -> float:
        return math.sqrt(max(self.cost, 0.0))


def _pairwise_sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    C = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        C += diff * diff
    return C


def wasserstein_lp(a: DiscreteDistribution, b: DiscreteDistribution) -> TransportPlan:
    """Optimal transport plan and W between two weighted point clouds.

    Cost entries are squared Euclidean distances. Zero-mass points
    are dropped before solving; the returned plan is checked against the
    marginal constraints to 1e-9. Problems above DEFAULT_BUDGET coupling
    variables are refused with the offending size named. When the optimum
    is not unique, the plan is whichever optimal vertex HiGHS returns.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} vs {b.dim}")
    if a.n * b.n > DEFAULT_BUDGET:
        raise BudgetExceededError(
            f"coupling size m*n = {a.n * b.n} exceeds budget {DEFAULT_BUDGET}")
    keep_a = a.masses > 0.0
    keep_b = b.masses > 0.0
    pa, wa = a.points[keep_a], a.masses[keep_a]
    pb, wb = b.points[keep_b], b.masses[keep_b]
    if abs(math.fsum(wa.tolist()) - math.fsum(wb.tolist())) > _MASS_TOL:
        raise MassBalanceError("marginal masses do not balance")

    # Variable k = i*n + j is mu_ij; row i of A_eq sums source i's flows,
    # row m+j sums sink j's. HiGHS's tolerances are absolute: its default
    # 1e-7 left W up to 1e-9 above the quantile optimum on 1-D clouds of
    # ~200 points, and any fixed threshold is loose on small costs. So the
    # costs are scaled to a maximum of 1 and both tolerances set to 1e-10,
    # the smallest HiGHS takes.
    C = _pairwise_sqdist(pa, pb)
    m, n = C.shape
    k = np.arange(m * n)
    A_eq = csr_array((np.ones(2 * m * n), (np.concatenate([k // n, m + k % n]),
                                           np.tile(k, 2))), shape=(m + n, m * n))
    res = linprog(C.ravel() / (C.max() or 1.0), A_eq=A_eq, b_eq=np.concatenate([wa, wb]),
                  bounds=(0, None), method="highs",
                  options={"dual_feasibility_tolerance": 1e-10,
                           "primal_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    if np.any(res.x < -_FEAS_TOL):
        raise RuntimeError("negative flow in transport plan")
    mu = np.maximum(res.x, 0.0).reshape(m, n)
    if (np.max(np.abs(mu.sum(axis=1) - wa)) > _FEAS_TOL
            or np.max(np.abs(mu.sum(axis=0) - wb)) > _FEAS_TOL):
        raise RuntimeError("transport plan violates marginal constraints")

    rows, cols = np.nonzero(mu)
    flows = mu[rows, cols]
    cost = float(np.dot(flows, C[rows, cols]))
    return TransportPlan(rows=np.flatnonzero(keep_a)[rows], cols=np.flatnonzero(keep_b)[cols],
                         flows=flows, cost=cost, shape=(a.n, b.n))


def wasserstein_dirac(snapshot, x_ref, weights=None) -> float:
    """W between an ensemble and the Dirac distribution at x_ref.

    The single-point target trivializes the transport problem:
    W = sqrt(sum_i w_i ||x_i - x_ref||^2), linear in the sample count.
    The marginal weights default to the snapshot's transport masses;
    density-derived weights may be passed instead (they must sum to one).
    """
    states = snapshot.states
    w = snapshot.gamma if weights is None else np.asarray(weights, dtype=float)
    diff = states - np.asarray(x_ref, dtype=float).reshape(states.shape[1])
    return math.sqrt(max(float(np.dot(w, np.einsum("ij,ij->i", diff, diff))), 0.0))


def extended_wasserstein(snapshot, x_trim) -> TransportPlan:
    """W on the extended state space against the trim-pinned reference.

    The reference cloud shares the parameter samples but pins every state
    to x_trim, so the pair cost splits into state-to-trim distance plus
    parameter displacement. Both marginals carry the snapshot's transport
    masses, matching a reference density that is uniform over the
    parameter cloud.
    """
    if snapshot.params.shape[1] == 0:
        raise ValueError("snapshot carries no parameter block")
    x_trim = np.asarray(x_trim, dtype=float).reshape(snapshot.states.shape[1])
    pts_a = np.concatenate([snapshot.states, snapshot.params], axis=1)
    pts_b = np.concatenate([np.tile(x_trim, (snapshot.n, 1)), snapshot.params], axis=1)
    return wasserstein_lp(DiscreteDistribution(pts_a, snapshot.gamma),
                          DiscreteDistribution(pts_b, snapshot.gamma))
