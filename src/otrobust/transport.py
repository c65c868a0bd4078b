"""Wasserstein-2 distances between weighted point clouds.

The general case solves the transportation linear program over couplings
mu_ij >= 0 with prescribed row/column marginals minimizing the total
squared-distance cost, via a transportation-specialized network simplex:
Vogel-approximation start, tree-structured duals, Dantzig entering rule
with a switch to Bland's rule under degenerate stalling. Special cases are
computed in closed form: a Dirac reference target reduces to a mass-
weighted root-mean-square distance, and 1-D problems to the exact quantile
coupling (which doubles as an independent oracle for the LP). Scenario
scores use only the Dirac form; the LP serves general CLI inputs and, via
extended_wasserstein, as the oracle of the extended-space param score.

Costs are squared Euclidean with optional per-dimension scale weights
(the state mixes angles and velocities; the CLI boundary uses degrees).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

# Refuse coupling matrices above this many entries unless overridden:
# the LP's storage grows as m*n while the Dirac short cut stays linear.
DEFAULT_BUDGET = 25_000_000

_MASS_REJECT_TOL = 1e-9     # inputs farther than this from unit mass are errors
_MASS_TOL = 1e-12           # post-normalization imbalance tolerance
_FEAS_TOL = 1e-9            # marginal feasibility of returned plans


class MassBalanceError(ValueError):
    """Total masses differ beyond tolerance (conservation of mass)."""


class BudgetExceededError(ValueError):
    """Coupling size m*n exceeds the configured memory budget."""


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

    def marginal(self, axis: int) -> "DiscreteDistribution":
        return DiscreteDistribution(self.points[:, axis:axis + 1], self.masses)


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

    def dense(self) -> np.ndarray:
        M = np.zeros(self.shape)
        M[self.rows, self.cols] = self.flows
        return M


def _vogel_initial_basis(C: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Vogel-approximation starting basis: m+n-1 cells forming a tree."""
    m, n = C.shape
    s = supply.copy()
    d = demand.copy()
    rows = list(range(m))
    cols = list(range(n))
    cells: list[tuple[int, int, float]] = []

    while rows and cols:
        if len(rows) == 1:
            i = rows[0]
            for j in cols:
                cells.append((i, j, d[j]))
            break
        if len(cols) == 1:
            j = cols[0]
            for i in rows:
                cells.append((i, j, s[i]))
            break

        ridx = np.array(rows)
        cidx = np.array(cols)
        sub = C[np.ix_(ridx, cidx)]
        two_r = np.partition(sub, 1, axis=1)[:, :2]
        two_c = np.partition(sub, 1, axis=0)[:2, :]
        pen_r = two_r[:, 1] - two_r[:, 0]
        pen_c = two_c[1, :] - two_c[0, :]
        kr = int(np.argmax(pen_r))
        kc = int(np.argmax(pen_c))
        if pen_r[kr] >= pen_c[kc]:
            i = rows[kr]
            j = cols[int(np.argmin(sub[kr]))]
        else:
            j = cols[kc]
            i = rows[int(np.argmin(sub[:, kc]))]

        amt = min(s[i], d[j])
        cells.append((i, j, amt))
        s[i] -= amt
        d[j] -= amt
        # On a tie, retire the row and let the column absorb a zero-flow
        # basic cell later: keeps the basis at exactly m+n-1 cells.
        if s[i] <= d[j]:
            rows.remove(i)
        else:
            cols.remove(j)

    if len(cells) != m + n - 1:
        raise RuntimeError(f"degenerate Vogel basis: {len(cells)} cells for {m}x{n}")
    return cells


class _SimplexState:
    """Spanning-tree basis bookkeeping for the transportation simplex.

    Nodes 0..m-1 are sources, m..m+n-1 sinks; basic cells are tree edges.
    """

    def __init__(self, C, cells):
        self.C = C
        self.m, self.n = C.shape
        self.ei = [c[0] for c in cells]
        self.ej = [c[1] for c in cells]
        self.flow = [float(c[2]) for c in cells]
        self.adj: list[set[int]] = [set() for _ in range(self.m + self.n)]
        for e in range(len(cells)):
            self._link(e)

    def _link(self, e):
        self.adj[self.ei[e]].add(e)
        self.adj[self.m + self.ej[e]].add(e)

    def _unlink(self, e):
        self.adj[self.ei[e]].discard(e)
        self.adj[self.m + self.ej[e]].discard(e)

    def duals(self):
        """Solve u_i + v_j = c_ij over the tree (u_0 = 0 at the root)."""
        u = np.full(self.m, np.nan)
        v = np.full(self.n, np.nan)
        u[0] = 0.0
        stack = [0]
        seen_e = set()
        while stack:
            node = stack.pop()
            for e in self.adj[node]:
                if e in seen_e:
                    continue
                seen_e.add(e)
                i, j = self.ei[e], self.ej[e]
                if node < self.m:
                    v[j] = self.C[i, j] - u[i]
                    stack.append(self.m + j)
                else:
                    u[i] = self.C[i, j] - v[j]
                    stack.append(i)
        if np.any(np.isnan(u)) or np.any(np.isnan(v)):
            raise RuntimeError("basis tree is disconnected")
        return u, v

    def cycle_path(self, i0, j0):
        """Edges of the tree path from source i0 to sink j0."""
        target = self.m + j0
        parent_edge = {i0: -1}
        q = deque([i0])
        while q:
            node = q.popleft()
            if node == target:
                break
            for e in self.adj[node]:
                nxt = self.m + self.ej[e] if node < self.m else self.ei[e]
                if nxt not in parent_edge:
                    parent_edge[nxt] = e
                    q.append(nxt)
        if target not in parent_edge:
            raise RuntimeError("entering cell not connected to basis tree")
        path = []
        node = target
        while node != i0:
            e = parent_edge[node]
            path.append(e)
            node = self.ei[e] if node >= self.m else self.m + self.ej[e]
        path.reverse()
        return path

    def pivot(self, i0, j0):
        """Introduce cell (i0, j0); returns the flow change (0 = degenerate)."""
        path = self.cycle_path(i0, j0)
        # Walking i0 -> j0, odd-positioned edges (0-based even) lose flow.
        give = path[0::2]
        theta = min(self.flow[e] for e in give)
        # Deterministic leaving choice: smallest flow, then lowest cell index.
        leave = min(give, key=lambda e: (self.flow[e], self.ei[e], self.ej[e]))
        sign = -1.0
        for e in path:
            self.flow[e] += sign * theta
            sign = -sign
        self._unlink(leave)
        self.ei[leave], self.ej[leave] = i0, j0
        self.flow[leave] = theta
        self._link(leave)
        return theta


def _solve_transportation(C: np.ndarray, supply: np.ndarray, demand: np.ndarray):
    """Exact transportation LP via network simplex; returns basis triplets."""
    m, n = C.shape
    state = _SimplexState(C, _vogel_initial_basis(C, supply, demand))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(C))))
    max_pivots = 200 * (m + n) + 10_000
    stall = 0
    bland = False

    for _ in range(max_pivots):
        u, v = state.duals()
        red = C - u[:, None] - v[None, :]
        if bland:
            cand = np.argwhere(red < -tol)
            if cand.size == 0:
                break
            i0, j0 = map(int, cand[0])
        else:
            flat = int(np.argmin(red))
            i0, j0 = divmod(flat, n)
            if red[i0, j0] >= -tol:
                break
        theta = state.pivot(i0, j0)
        if theta <= 0.0:
            stall += 1
            if stall > m + n:
                bland = True  # anti-cycling: first-index rule until progress
        else:
            stall = 0
            bland = False
    else:
        raise RuntimeError("transportation simplex exceeded pivot budget")

    rows = np.array(state.ei)
    cols = np.array(state.ej)
    flows = np.array(state.flow)
    return rows, cols, flows


def _pairwise_sqdist(a: np.ndarray, b: np.ndarray, scale) -> np.ndarray:
    d = a.shape[1]
    scale = np.ones(d) if scale is None else np.asarray(scale, dtype=float).reshape(d)
    C = np.zeros((a.shape[0], b.shape[0]))
    for k in range(d):
        diff = scale[k] * (a[:, k, None] - b[None, :, k])
        C += diff * diff
    return C


def wasserstein_lp(a: DiscreteDistribution, b: DiscreteDistribution,
                   scale=None, budget: int = DEFAULT_BUDGET) -> TransportPlan:
    """Optimal transport plan and W between two weighted point clouds.

    Cost entries are squared scaled-Euclidean distances. Zero-mass points
    are dropped before solving; the returned plan is checked against the
    marginal constraints to 1e-9. Problems above `budget` coupling
    variables are refused with the offending size named.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} vs {b.dim}")
    if a.n * b.n > budget:
        raise BudgetExceededError(
            f"coupling size m*n = {a.n * b.n} exceeds budget {budget}")
    keep_a = a.masses > 0.0
    keep_b = b.masses > 0.0
    pa, wa = a.points[keep_a], a.masses[keep_a]
    pb, wb = b.points[keep_b], b.masses[keep_b]
    if abs(math.fsum(wa.tolist()) - math.fsum(wb.tolist())) > _MASS_TOL:
        raise MassBalanceError("marginal masses do not balance")

    C = _pairwise_sqdist(pa, pb, scale)
    rows, cols, flows = _solve_transportation(C, wa, wb)
    if np.any(flows < -_FEAS_TOL):
        raise RuntimeError("negative flow in transport plan")
    flows = np.maximum(flows, 0.0)

    row_sums = np.zeros(pa.shape[0])
    col_sums = np.zeros(pb.shape[0])
    np.add.at(row_sums, rows, flows)
    np.add.at(col_sums, cols, flows)
    if (np.max(np.abs(row_sums - wa)) > _FEAS_TOL
            or np.max(np.abs(col_sums - wb)) > _FEAS_TOL):
        raise RuntimeError("transport plan violates marginal constraints")

    cost = float(np.dot(flows, C[rows, cols]))
    idx_a = np.flatnonzero(keep_a)
    idx_b = np.flatnonzero(keep_b)
    live = flows > 0.0
    return TransportPlan(rows=idx_a[rows[live]], cols=idx_b[cols[live]],
                         flows=flows[live], cost=cost, shape=(a.n, b.n))


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


def wasserstein_dirac(snapshot, x_ref, scale=None, weights=None) -> float:
    """W between an ensemble and the Dirac distribution at x_ref.

    The single-point target trivializes the transport problem:
    W = sqrt(sum_i w_i ||x_i - x_ref||^2), linear in the sample count.
    The marginal weights default to the snapshot's transport masses;
    density-derived weights may be passed instead (they must sum to one).
    scale applies per-dimension cost weights as in wasserstein_lp.
    """
    states = snapshot.states
    w = snapshot.gamma if weights is None else np.asarray(weights, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float).reshape(states.shape[1])
    d = states.shape[1]
    s = np.ones(d) if scale is None else np.asarray(scale, dtype=float).reshape(d)
    diff = (states - x_ref) * s
    return math.sqrt(max(float(np.dot(w, np.einsum("ij,ij->i", diff, diff))), 0.0))


def extended_wasserstein(snapshot, x_trim, scale=None, weights=None,
                         budget: int = DEFAULT_BUDGET) -> TransportPlan:
    """W on the extended state space against the trim-pinned reference.

    The reference cloud shares the parameter samples but pins every state
    to x_trim, so the pair cost splits into state-to-trim distance plus
    parameter displacement. The moving marginal defaults to the snapshot's
    transport masses (weights overrides it, e.g. with density-derived
    values); the reference marginal always carries the snapshot masses,
    matching a reference density that is uniform over the parameter cloud.
    Parameter dimensions enter the cost unscaled; `scale` weights the
    state block only.
    """
    if snapshot.params.shape[1] == 0:
        raise ValueError("snapshot carries no parameter block")
    x_trim = np.asarray(x_trim, dtype=float).reshape(snapshot.states.shape[1])
    dx, dp = snapshot.states.shape[1], snapshot.params.shape[1]
    s = np.ones(dx) if scale is None else np.asarray(scale, dtype=float).reshape(dx)
    full_scale = np.concatenate([s, np.ones(dp)])

    pts_a = np.concatenate([snapshot.states, snapshot.params], axis=1)
    pts_b = np.concatenate([np.tile(x_trim, (snapshot.n, 1)), snapshot.params], axis=1)
    a = DiscreteDistribution(pts_a, snapshot.gamma if weights is None else weights)
    b = DiscreteDistribution(pts_b, snapshot.gamma)
    return wasserstein_lp(a, b, scale=full_scale, budget=budget)


def marginal_bound_check(a: DiscreteDistribution, b: DiscreteDistribution,
                         scale=None):
    """Per-axis marginal distances, joint distance, and the bound flag.

    Returns (W_i list, W_joint, flag) with flag true when
    sum_i W_i^2 <= W_joint^2 + 1e-9: marginal transport can never cost
    more than the joint plan whose marginals it projects.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    per_axis = [wasserstein_1d(a.marginal(k), b.marginal(k)) for k in range(a.dim)]
    joint = wasserstein_lp(a, b, scale=scale).W
    flag = math.fsum(w * w for w in per_axis) <= joint * joint + 1e-9
    return per_axis, joint, flag
