import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from oracles import dense, marginal_bound_check, wasserstein_1d
from otrobust.liouville import EnsembleSnapshot
from otrobust.transport import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DiscreteDistribution,
    MassBalanceError,
    extended_wasserstein,
    wasserstein_dirac,
    wasserstein_lp,
)


def uniform_cloud(rng, n, d):
    return DiscreteDistribution(rng.normal(size=(n, d)), np.full(n, 1.0 / n))


def random_cloud(rng, n, d):
    return DiscreteDistribution(rng.normal(size=(n, d)), rng.dirichlet(np.ones(n)))


def brute_force_cost(a: DiscreteDistribution, b: DiscreteDistribution) -> float:
    # exhaustive assignment minimum for equal uniform masses, m = n
    n = a.n
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.sum((a.points[i] - b.points[perm[i]]) ** 2) for i in range(n)) / n
        best = min(best, cost)
    return best


def test_identity_plan_zero_distance(rng):
    a = random_cloud(rng, 6, 3)
    plan = wasserstein_lp(a, a)
    assert plan.W == pytest.approx(0.0, abs=1e-12)
    assert np.all(plan.rows == plan.cols)


def test_two_diracs():
    a = DiscreteDistribution([[0.0]], [1.0])
    b = DiscreteDistribution([[3.0]], [1.0])
    assert wasserstein_lp(a, b).W == pytest.approx(3.0, rel=1e-12)


def test_half_half_to_dirac():
    a = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
    b = DiscreteDistribution([[0.0]], [1.0])
    assert wasserstein_lp(a, b).W == pytest.approx(math.sqrt(0.5), rel=1e-12)


def tied_cloud(rng, n, grid):
    # degenerate inputs: points on a small integer grid, or a few points
    # each repeated, with uniform or Dirichlet masses
    if grid:
        pts = rng.integers(-3, 4, size=(n, 1)).astype(float)
    else:
        base = rng.normal(size=(n // 3 + 1, 1))
        pts = base[rng.integers(0, len(base), size=n)]
    w = np.full(n, 1.0 / n) if rng.random() < 0.5 else rng.dirichlet(np.ones(n))
    return DiscreteDistribution(pts, w)


def test_lp_matches_quantile_oracle(rng):
    for _ in range(60):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        a = random_cloud(rng, m, 1)
        b = random_cloud(rng, n, 1)
        assert abs(wasserstein_lp(a, b).W - wasserstein_1d(a, b)) < 1e-9
    for grid in (True, False):
        for _ in range(30):
            m, n = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            a = tied_cloud(rng, m, grid)
            b = tied_cloud(rng, n, grid)
            assert abs(wasserstein_lp(a, b).W - wasserstein_1d(a, b)) < 1e-9


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_lp_relative_accuracy_at_any_cost_scale(rng, scale):
    # an absolute stopping tolerance on reduced costs (HiGHS's default
    # 1e-7, or even 1e-10) leaves W wrong from the 5th digit at scale 1e-3
    for uniform in (True, False):
        m, n = int(rng.integers(150, 200)), int(rng.integers(150, 200))
        mk = uniform_cloud if uniform else random_cloud
        a, b = mk(rng, m, 1), mk(rng, n, 1)
        a = DiscreteDistribution(500.0 * scale + scale * a.points, a.masses)
        b = DiscreteDistribution(500.0 * scale + scale * b.points, b.masses)
        exact = wasserstein_1d(a, b)
        assert abs(wasserstein_lp(a, b).W - exact) <= 1e-12 * exact


def test_lp_matches_assignment_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a = uniform_cloud(rng, n, 2)
        b = uniform_cloud(rng, n, 2)
        assert wasserstein_lp(a, b).cost == pytest.approx(brute_force_cost(a, b), abs=1e-9)


@pytest.mark.parametrize("d", [2, 4])
def test_lp_matches_linear_sum_assignment_oracle(rng, d):
    # uniform equal-n masses: an optimal plan is a permutation
    # (Birkhoff-von Neumann), so the assignment optimum is the LP optimum
    for n in (20, 61, 137, 200):
        A, B = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        C = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
        r, c = linear_sum_assignment(C)
        lp = wasserstein_lp(DiscreteDistribution(A, np.full(n, 1.0 / n)),
                            DiscreteDistribution(B, np.full(n, 1.0 / n)))
        assert abs(lp.cost - C[r, c].sum() / n) < 1e-9


def test_plan_feasibility(rng):
    a = random_cloud(rng, 17, 3)
    b = random_cloud(rng, 11, 3)
    plan = wasserstein_lp(a, b)
    M = dense(plan)
    assert np.all(M >= 0.0)
    assert np.max(np.abs(M.sum(axis=1) - a.masses)) < 1e-9
    assert np.max(np.abs(M.sum(axis=0) - b.masses)) < 1e-9


def test_metric_axioms(rng):
    for _ in range(30):
        a = random_cloud(rng, 8, 2)
        b = random_cloud(rng, 9, 2)
        c = random_cloud(rng, 7, 2)
        w_ab = wasserstein_lp(a, b).W
        w_ba = wasserstein_lp(b, a).W
        w_ac = wasserstein_lp(a, c).W
        w_cb = wasserstein_lp(c, b).W
        assert w_ab == pytest.approx(w_ba, abs=1e-9)
        assert w_ab <= w_ac + w_cb + 1e-9
        assert wasserstein_lp(a, a).W <= 1e-9


def test_scale_weights(rng):
    a = DiscreteDistribution([[1.0, 0.0]], [1.0])
    b = DiscreteDistribution([[0.0, 1.0]], [1.0])
    w = wasserstein_lp(a, b, scale=[2.0, 0.5]).W
    assert w == pytest.approx(math.hypot(2.0, 0.5), rel=1e-12)


def test_budget_error_names_size():
    # 5001^2 = 25,010,001 > DEFAULT_BUDGET (500^2); refused before any allocation
    a = DiscreteDistribution(np.zeros((5001, 1)), np.full(5001, 1.0 / 5001))
    with pytest.raises(BudgetExceededError, match="25010001"):
        wasserstein_lp(a, a)


def test_budget_is_inclusive():
    # The budget counts coupling entries before zero-mass points are dropped,
    # so b puts all its mass on one point and the LP left over is 1 x 1.
    a = DiscreteDistribution([[0.0]], [1.0])

    def spike(n):
        masses = np.zeros(n)
        masses[0] = 1.0
        return DiscreteDistribution(np.full((n, 1), 2.0), masses)

    assert wasserstein_lp(a, spike(DEFAULT_BUDGET)).W == 2.0
    with pytest.raises(BudgetExceededError, match=str(DEFAULT_BUDGET + 1)):
        wasserstein_lp(a, spike(DEFAULT_BUDGET + 1))


def test_mass_balance_policy():
    with pytest.raises(MassBalanceError):
        DiscreteDistribution([[0.0], [1.0]], [0.6, 0.6])
    # small drift renormalizes
    d = DiscreteDistribution([[0.0], [1.0]], [0.5 + 2e-10, 0.5])
    assert math.fsum(d.masses.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_zero_mass_points_dropped(rng):
    a = DiscreteDistribution([[0.0], [50.0]], [1.0, 0.0])
    b = DiscreteDistribution([[1.0]], [1.0])
    plan = wasserstein_lp(a, b)
    assert plan.W == pytest.approx(1.0, rel=1e-12)


def test_quantile_examples():
    a = DiscreteDistribution([[0.0]], [1.0])
    b = DiscreteDistribution([[3.0]], [1.0])
    assert wasserstein_1d(a, b) == pytest.approx(3.0)
    u = DiscreteDistribution([[0.0], [1.0]], [0.5, 0.5])
    v = DiscreteDistribution([[2.0], [3.0]], [0.5, 0.5])
    assert wasserstein_1d(u, v) == pytest.approx(2.0, rel=1e-12)
    assert wasserstein_1d(u, u) == 0.0
    with pytest.raises(ValueError):
        wasserstein_1d(DiscreteDistribution(np.zeros((2, 2)), [0.5, 0.5]), u)


def snapshot_of(states, gamma=None, params=None, phi=None):
    states = np.atleast_2d(states)
    n = states.shape[0]
    return EnsembleSnapshot.from_cloud(
        states, np.ones(n) if phi is None else phi,
        np.full(n, 1.0 / n) if gamma is None else gamma, params=params)


def test_dirac_form_examples():
    x_ref = np.array([1.0, 2.0, 3.0, 4.0])
    snap = snapshot_of(np.tile(x_ref, (5, 1)))
    assert wasserstein_dirac(snap, x_ref) == 0.0
    two = snapshot_of(np.stack([x_ref + np.eye(4)[0], x_ref - np.eye(4)[0]]))
    assert wasserstein_dirac(two, x_ref) == pytest.approx(1.0, rel=1e-12)
    one = snapshot_of((x_ref + 3.0 * np.eye(4)[2])[None, :])
    assert wasserstein_dirac(one, x_ref) == pytest.approx(3.0, rel=1e-12)


def test_dirac_consistent_with_lp(rng):
    for _ in range(25):
        n = int(rng.integers(1, 40))
        states = rng.normal(size=(n, 4))
        gamma = rng.dirichlet(np.ones(n))
        snap = snapshot_of(states, gamma=gamma)
        x_ref = rng.normal(size=4)
        w_closed = wasserstein_dirac(snap, x_ref)
        a = DiscreteDistribution(states, gamma)
        b = DiscreteDistribution(x_ref[None, :], [1.0])
        assert abs(w_closed - wasserstein_lp(a, b).W) < 1e-9


def test_extended_all_at_trim_zero(rng):
    x_trim = rng.normal(size=4)
    p = rng.normal(size=(6, 3))
    snap = snapshot_of(np.tile(x_trim, (6, 1)), params=p)
    assert extended_wasserstein(snap, x_trim).W == pytest.approx(0.0, abs=1e-9)


def test_extended_matches_brute_force_two_samples(rng):
    # 2x2 coupling, uniform masses: enumerate both feasible extreme plans
    x_trim = np.zeros(2)
    states = np.array([[1.0, 0.0], [0.0, 2.0]])
    p = np.array([[0.0], [1.0]])
    snap = EnsembleSnapshot.from_cloud(states, np.ones(2), [0.5, 0.5], params=p)
    got = extended_wasserstein(snap, x_trim).cost
    a_cost = lambda i: float(np.sum(states[i] ** 2))
    c = np.array([[a_cost(0) + 0.0, a_cost(0) + 1.0],
                  [a_cost(1) + 1.0, a_cost(1) + 0.0]])
    best = min(0.5 * (c[0, 0] + c[1, 1]), 0.5 * (c[0, 1] + c[1, 0]))
    assert got == pytest.approx(best, abs=1e-9)


def test_extended_no_spread_is_euclidean(rng):
    x_trim = rng.normal(size=4)
    x_now = x_trim + np.array([0.3, -1.0, 0.2, 0.05])
    p = np.tile(rng.normal(size=3), (8, 1))
    snap = snapshot_of(np.tile(x_now, (8, 1)), params=p)
    assert extended_wasserstein(snap, x_trim).W == pytest.approx(
        np.linalg.norm(x_now - x_trim), rel=1e-9)


def test_extended_requires_parameters(rng):
    snap = snapshot_of(rng.normal(size=(4, 4)))
    with pytest.raises(ValueError):
        extended_wasserstein(snap, np.zeros(4))


def test_marginal_bound_1d_equality(rng):
    a = random_cloud(rng, 9, 1)
    b = random_cloud(rng, 7, 1)
    per, joint, ok = marginal_bound_check(a, b)
    assert ok
    assert per[0] == pytest.approx(joint, abs=1e-9)


def test_marginal_bound_random_instances(rng):
    for _ in range(30):
        d = int(rng.integers(1, 4))
        a = random_cloud(rng, int(rng.integers(2, 10)), d)
        b = random_cloud(rng, int(rng.integers(2, 10)), d)
        per, joint, ok = marginal_bound_check(a, b)
        assert ok
        assert math.fsum(w * w for w in per) <= joint ** 2 + 1e-9


def test_marginal_bound_product_clouds_equality(rng):
    # product-form clouds on tensor grids: the optimal plan factorizes and
    # the joint squared distance equals the sum of marginal squared distances
    xa, wa = np.array([0.0, 1.0]), np.array([0.4, 0.6])
    ya, va = np.array([-1.0, 2.0]), np.array([0.5, 0.5])
    xb, wb = np.array([0.5, 1.5]), np.array([0.3, 0.7])
    yb, vb = np.array([0.0, 1.0]), np.array([0.8, 0.2])
    pts_a = np.array([[x, y] for x in xa for y in ya])
    m_a = np.array([wx * wy for wx in wa for wy in va])
    pts_b = np.array([[x, y] for x in xb for y in yb])
    m_b = np.array([wx * wy for wx in wb for wy in vb])
    a = DiscreteDistribution(pts_a, m_a)
    b = DiscreteDistribution(pts_b, m_b)
    per, joint, ok = marginal_bound_check(a, b)
    assert ok
    assert math.fsum(w * w for w in per) == pytest.approx(joint ** 2, abs=1e-9)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_lp_quantile_agreement_hypothesis(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    a = DiscreteDistribution(rng.normal(size=(m, 1)), rng.dirichlet(np.ones(m)))
    b = DiscreteDistribution(rng.normal(size=(n, 1)), rng.dirichlet(np.ones(n)))
    assert abs(wasserstein_lp(a, b).W - wasserstein_1d(a, b)) < 1e-9
