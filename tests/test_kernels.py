"""Bit-identity of the fused aero lookup, the plant output and the stacked
divergence against straightforward per-coefficient / per-direction
reference formulas, and the closed-form divergence against the finite-
difference one on states packed around every kink of the closed loop."""

import numpy as np
import pytest

from oracles import lookup_coefficient, rk4_states
from otrobust import harness, liouville
from otrobust.controller import LqrLaw, ScheduledLaw
from otrobust.f16 import (
    DEG,
    ELEVATOR_LIMIT,
    H_REL,
    THRUST_MAX,
    THRUST_MIN,
    AeroTables,
    ClosedLoop,
    SineDisturbance,
    _aero,
    _rhs,
)
from otrobust.liouville import EnsembleSnapshot, divergence, propagate


def _ref_interp1(bp, vals, x):
    x = np.clip(x, bp[0], bp[-1])
    i = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, bp.size - 2)
    w = (x - bp[i]) / (bp[i + 1] - bp[i])
    return vals[i] * (1.0 - w) + vals[i + 1] * w


def _ref_interp2(bpa, bpd, grid, a, d):
    if bpd.size == 1:
        return _ref_interp1(bpa, grid[:, 0], a)
    a = np.clip(a, bpa[0], bpa[-1])
    d = np.clip(d, bpd[0], bpd[-1])
    i = np.clip(np.searchsorted(bpa, a, side="right") - 1, 0, bpa.size - 2)
    j = np.clip(np.searchsorted(bpd, d, side="right") - 1, 0, bpd.size - 2)
    wa = (a - bpa[i]) / (bpa[i + 1] - bpa[i])
    wd = (d - bpd[j]) / (bpd[j + 1] - bpd[j])
    return ((1 - wa) * (1 - wd) * grid[i, j]
            + wa * (1 - wd) * grid[i + 1, j]
            + (1 - wa) * wd * grid[i, j + 1]
            + wa * wd * grid[i + 1, j + 1])


def _ref_lookup(tables, which, alpha, delta_e):
    a, d = np.asarray(alpha) / DEG, np.asarray(delta_e) / DEG
    bpa, bpd = tables.alpha_breakpoints_deg, tables.deltae_breakpoints_deg
    if which in ("CX", "CZ", "Cm"):
        return _ref_interp2(bpa, bpd, getattr(tables, which), a, d)
    return _ref_interp1(bpa, getattr(tables, which), a)


def _query_points(tables, rng):
    bpa, bpd = tables.alpha_breakpoints_deg, tables.deltae_breakpoints_deg
    a = np.concatenate([rng.uniform(bpa[0], bpa[-1], 50), bpa,
                        [bpa[0] - 7.0, bpa[-1] + 12.0, np.nan, 3.0]])
    d = np.concatenate([rng.uniform(bpd[0], bpd[-1], 50), np.resize(bpd, bpa.size),
                        [bpd[-1] + 9.0, bpd[0] - 4.0, 1.0, np.nan]])
    return a * DEG, d * DEG


def _single_column(tables):
    return AeroTables(
        alpha_breakpoints_deg=tables.alpha_breakpoints_deg,
        deltae_breakpoints_deg=[0.0],
        CX=tables.CX[:, :1], CZ=tables.CZ[:, :1], Cm=tables.Cm[:, :1],
        CXq=tables.CXq, CZq=tables.CZq, Cmq=tables.Cmq)


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("which", ["CX", "CZ", "Cm", "CXq", "CZq", "Cmq"])
def test_fused_lookup_matches_reference(tables, rng, which, degenerate):
    tab = _single_column(tables) if degenerate else tables
    a, d = _query_points(tables, rng)
    got = lookup_coefficient(tab, which, a, d)
    assert np.array_equal(got, _ref_lookup(tab, which, a, d), equal_nan=True)
    # interior, both clamped edges and NaN rows are all present
    assert np.isnan(got[-2]) and not np.isnan(got[-4])
    for k in range(a.size):
        assert np.array_equal(lookup_coefficient(tab, which, a[k], d[k]), got[k],
                              equal_nan=True)


def _ref_cell(bp, x):
    """Clamped cell (i, i + 1), weight and per-radian slope factor of x
    (degrees) on bp; one-node axes get (0, 0), weight 0 and slope 0."""
    if bp.size == 1:
        zero = np.zeros(x.shape, dtype=int)
        return zero, zero, np.zeros(x.shape), np.zeros(x.shape)
    xc = np.clip(x, bp[0], bp[-1])
    i = np.clip(np.searchsorted(bp, xc, side="right") - 1, 0, bp.size - 2)
    width = bp[i + 1] - bp[i]
    return i, i + 1, (xc - bp[i]) / width, ((x > bp[0]) & (x < bp[-1])) / (width * DEG)


@pytest.mark.parametrize("degenerate", [False, True])
def test_lookup_slopes_match_corner_formulas(tables, rng, degenerate):
    # the in-cell partials of the lookup against the four corners indexed one
    # at a time, on every query point with a finite (alpha, delta_e)
    tab = _single_column(tables) if degenerate else tables
    a, d = _query_points(tables, rng)
    keep = np.isfinite(a) & np.isfinite(d)
    a, d = a[keep], d[keep]
    static_a, damping_a, static_e = (v.T for v in _aero(tab, a, d, slopes=True)[2])
    i, i1, wa, sa = _ref_cell(tab.alpha_breakpoints_deg, a / DEG)
    j, j1, wd, sd = _ref_cell(tab.deltae_breakpoints_deg, d / DEG)
    wa, sa, wd, sd = (v[:, None] for v in (wa, sa, wd, sd))
    g = np.stack([tab.CX, tab.CZ, tab.Cm], axis=-1)
    q = np.stack([tab.CXq, tab.CZq, tab.Cmq], axis=-1)
    g00, g10, g01, g11 = g[i, j], g[i1, j], g[i, j1], g[i1, j1]
    assert np.array_equal(static_a, ((1 - wd) * (g10 - g00) + wd * (g11 - g01)) * sa)
    assert np.array_equal(damping_a, (q[i1] - q[i]) * sa)
    assert np.array_equal(static_e, ((1 - wa) * (g01 - g00) + wa * (g11 - g10)) * sd)
    # zero slope where the lookup clamps, and along a one-node delta_e axis
    clamped = (a / DEG <= tab.alpha_breakpoints_deg[0]) | (a / DEG >= tab.alpha_breakpoints_deg[-1])
    assert clamped.any() and not static_a[clamped].any() and not damping_a[clamped].any()
    assert static_e.any() != degenerate


def _ref_divergence(rhs, X, P, t, h_rel=3e-5):
    h = h_rel * np.maximum(1.0, np.abs(X))
    div = np.zeros(X.shape[0])
    for k in range(X.shape[1]):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, k] += h[:, k]
        Xm[:, k] -= h[:, k]
        div += (rhs(t, Xp, P)[:, k] - rhs(t, Xm, P)[:, k]) / (2.0 * h[:, k])
    return div


def _states(trim, n, rng):
    spread = np.array([0.05, 40.0, 0.08, 0.2])
    return trim.x_trim.as_array() + spread * rng.uniform(-1.0, 1.0, (n, 4))


@pytest.mark.parametrize("law_kind", ["lqr", "scheduled"])
@pytest.mark.parametrize("n", [1, 200, 2148])
@pytest.mark.parametrize("with_params", [False, True])
def test_stacked_divergence_matches_per_direction(params, tables, nominal_trim,
                                                  nominal_gain, schedule, rng,
                                                  law_kind, n, with_params):
    law = (LqrLaw(K=nominal_gain, trim=nominal_trim) if law_kind == "lqr"
           else ScheduledLaw(schedule))
    loop = ClosedLoop(law=law, params=params, tables=tables)
    X = _states(nominal_trim, n, rng)
    P = None
    if with_params:
        P = np.array([params.m, params.xcg, params.Jyy]) * rng.uniform(0.9, 1.1, (n, 3))
    got = divergence(loop.state_rhs, X, P, 0.3)
    ref = _ref_divergence(loop.state_rhs, X, P, 0.3)
    assert np.array_equal(got, ref)


def _ref_rhs(x, u, m, xcg, Jyy, params, tables):
    """The plant as one np.stack of the four broadcast derivative columns."""
    theta, V, alpha, q = (x[..., k] for k in range(4))
    static, damping = _aero(tables, alpha, u[..., 1])
    qS = 0.5 * params.density() * V * V * params.S
    coef = static + np.asarray(params.cbar * q / (2.0 * V)) * damping
    cx, cz, cm = coef[0], coef[1], coef[2]
    sa, ca, st, ct = np.sin(alpha), np.cos(alpha), np.sin(theta), np.cos(theta)
    f_axial = u[..., 0] - m * params.g * st + qS * cx
    f_normal = m * params.g * ct + qS * cz
    V_dot = (ca * f_axial + sa * f_normal) / m
    alpha_dot = q + (-sa * f_axial + ca * f_normal) / (m * V)
    q_dot = (qS * params.cbar / Jyy) * (cm + ((params.xcg_ref - xcg) / params.cbar) * cz)
    return np.stack(np.broadcast_arrays(q, V_dot, alpha_dot, q_dot), axis=-1)


@pytest.mark.parametrize("case", ["0-d", "rows", "parameter block",
                                  "one state, many parameters"])
def test_rhs_output_matches_stacked_columns(params, tables, nominal_trim, rng, case):
    n = 7
    x = _states(nominal_trim, n, rng)
    u = nominal_trim.u_trim.as_array() + np.array([500.0, 0.05]) * rng.uniform(-1, 1, (n, 2))
    p = np.array([params.m, params.xcg, params.Jyy]) * rng.uniform(0.9, 1.1, (n, 3))
    m, xcg, Jyy = params.m, params.xcg, params.Jyy
    if case == "0-d":
        x, u = x[0], u[0]
    if case in ("parameter block", "one state, many parameters"):
        m, xcg, Jyy = p[:, 0], p[:, 1], p[:, 2]
    if case == "one state, many parameters":
        x, u = x[0], u[0]
    got = _rhs(x, u, m, xcg, Jyy, params, tables)
    ref = _ref_rhs(x, u, m, xcg, Jyy, params, tables)
    assert got.shape == ref.shape == ((4,) if case == "0-d" else (n, 4))
    assert np.array_equal(got, ref)


class CountingField:
    def __init__(self, M):
        self.M = M
        self.rows = []

    def __call__(self, t, x, p):
        self.rows.append(x.shape[0])
        return x @ self.M.T


@pytest.mark.parametrize("n", [1, 200, 4096])
def test_divergence_call_count(rng, n):
    # every +/- copy of every sample in one field call, however many samples
    M = rng.standard_normal((4, 4))
    rhs = CountingField(M)
    div = divergence(rhs, rng.standard_normal((n, 4)), None, 0.0)
    assert rhs.rows == [8 * n]
    assert div == pytest.approx(np.full(n, np.trace(M)), rel=1e-7)


def test_propagation_step_makes_five_calls_at_desk_scale(rng):
    rhs = CountingField(-np.eye(4))
    cloud = liouville.EnsembleSnapshot.from_cloud(
        rng.standard_normal((200, 4)), np.ones(200), np.full(200, 1 / 200))
    liouville.propagate(cloud, rhs, 0.03, 0.01)
    assert len(rhs.rows) == 3 * 5


def _kink_loop(law_kind, disturbed, params, tables, nominal_trim, nominal_gain, schedule):
    law = (LqrLaw(K=nominal_gain, trim=nominal_trim) if law_kind == "lqr"
           else ScheduledLaw(schedule))
    return ClosedLoop(law=law, params=params, tables=tables,
                      disturbance=SineDisturbance(6.5 * DEG, 2.0) if disturbed else None)


def _kink_dense_states(loop, schedule, x_trim, t, rng, per_kink=4):
    """States whose +/- h stencil in V, alpha or q lies 0-3 h from a kink:
    thrust and elevator limits, delta_e breakpoints (commands), alpha
    breakpoints and table edges, schedule node lines and the hull."""
    spread = np.array([0.05, 30.0, 0.05, 0.2])
    w = 0.0 if loop.disturbance is None else loop.disturbance(t)
    rows = []

    def command_at(c, value):
        # theta moves either law's command linearly: put the command (plus
        # w on the elevator) s h_k J_k away from the kink, direction k random
        x = x_trim + spread * rng.uniform(-1.0, 1.0, 4)
        h = H_REL * np.maximum(1.0, np.abs(x))
        u, J, _, _ = loop.law.jacobian(x[None], h[None])
        u, J = u[0], np.broadcast_to(J, (2, 4, 1))[..., 0]
        k = rng.integers(1, 4)
        target = value + rng.uniform(-3.0, 3.0) * h[k] * J[c, k]
        x[0] += (target - u[c] - (w if c == 1 else 0.0)) / J[c, 0]
        return x

    def state_at(k, value):
        x = x_trim + spread * rng.uniform(-1.0, 1.0, 4)
        x[k] = value + rng.uniform(-3.0, 3.0) * H_REL * max(1.0, abs(value))
        return x

    tab = loop.tables
    for _ in range(per_kink):
        rows += [command_at(0, THRUST_MIN), command_at(0, THRUST_MAX)]
        rows += [command_at(1, v) for v in (-ELEVATOR_LIMIT, ELEVATOR_LIMIT)]
        rows += [command_at(1, b * DEG) for b in tab.deltae_breakpoints_deg]
        rows += [state_at(2, b * DEG) for b in tab.alpha_breakpoints_deg]
        rows += [state_at(2, a) for a in schedule.alpha_nodes]
        rows += [state_at(1, v) for v in schedule.V_nodes]
    return np.array(rows)


def _kink_case(law_kind, with_params, disturbed, params, tables, nominal_trim, nominal_gain,
               schedule, rng, t):
    loop = _kink_loop(law_kind, disturbed, params, tables, nominal_trim, nominal_gain, schedule)
    X = _kink_dense_states(loop, schedule, nominal_trim.x_trim.as_array(), t, rng)
    P = None
    if with_params:
        P = np.array([params.m, params.xcg, params.Jyy]) * rng.uniform(0.9, 1.1, (len(X), 3))
    return loop, X, P


KINK_CASES = [(law, p, d) for law in ("lqr", "scheduled") for p in (False, True)
              for d in (False, True)]


@pytest.mark.parametrize("law_kind, with_params, disturbed", KINK_CASES)
def test_kink_dense_step_divergence_matches_finite_differences(
        params, tables, nominal_trim, nominal_gain, schedule, rng, monkeypatch,
        law_kind, with_params, disturbed):
    t, dt = 0.4, 1e-9  # a tiny step keeps the midpoint X2 on the placed kinks
    loop, X, P = _kink_case(law_kind, with_params, disturbed, params, tables, nominal_trim,
                            nominal_gain, schedule, rng, t + 0.5 * dt)
    seen = []
    real = liouville._density_multiplier
    monkeypatch.setattr(liouville, "_density_multiplier", lambda z: seen.append(z) or real(z))
    liouville._step(loop.state_rhs, loop.state_rhs_div, t, X, P, np.ones(len(X)), dt, False,
                    np.empty((3,) + X.shape))
    X2 = X + 0.5 * dt * loop.state_rhs(t, X, P)
    ref = divergence(loop.state_rhs, X2, P, t + 0.5 * dt)
    xdot, _, kink = loop.state_rhs_div(t + 0.5 * dt, X2, P)
    assert np.array_equal(xdot, loop.state_rhs(t + 0.5 * dt, X2, P))
    assert 0 < np.count_nonzero(kink) < len(X)
    got = seen[0] / dt
    # Unflagged rows differ by the finite differences' own O(h^2) truncation:
    # up to 1.2e-9 here (alpha near 39 deg, scheduled law), where the (h, h/2)
    # Richardson extrapolation agrees with the closed form to 1e-11.
    assert np.all(np.abs(got - ref) <= 2e-9 * np.maximum(1.0, np.abs(ref)))
    # flagged rows carry the finite-difference value itself
    assert np.array_equal(seen[0][kink], dt * ref[kink])


@pytest.mark.parametrize("law_kind, with_params, disturbed", KINK_CASES)
@pytest.mark.parametrize("strict_rk4, states_only", [
    pytest.param(False, False, id="False"), pytest.param(True, False, id="True"),
    pytest.param(False, True, id="states-only")])
def test_kink_dense_propagation_matches_finite_difference_path(
        params, tables, nominal_trim, nominal_gain, schedule, rng,
        law_kind, with_params, disturbed, strict_rk4, states_only):
    loop, X, P = _kink_case(law_kind, with_params, disturbed, params, tables, nominal_trim,
                            nominal_gain, schedule, rng, 0.0)
    # the first step's midpoint already has rows for the finite-difference fallback
    X2 = X + 0.005 * loop.state_rhs(0.0, X, P)
    assert np.any(loop.state_rhs_div(0.005, X2, P)[2])
    cloud = EnsembleSnapshot.from_cloud(X, np.ones(len(X)), np.full(len(X), 1 / len(X)),
                                        params=P)
    fused = propagate(cloud, loop, 0.05, 0.01, strict_rk4=strict_rk4)
    if states_only:
        # the density run's states against plain RK4 of the states alone
        Y = X
        for k, a in enumerate(fused):
            assert np.array_equal(a.states, Y)
            assert not a.diverged.any()
            Y = rk4_states(loop.state_rhs, k * 0.01, Y, P, 0.01)
        return
    fd = propagate(cloud, loop.state_rhs, 0.05, 0.01, strict_rk4=strict_rk4)
    for a, b in zip(fused, fd):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.diverged, b.diverged)
        assert a.phi == pytest.approx(b.phi, rel=1e-9)


def _two_law_kink_stack(params, tables, nominal_trim, nominal_gain, schedule, rng, t):
    """A law-sorted stacked ensemble of two laws and two disturbances on
    kink-dense states: (loop, X, P)."""
    lqr = _kink_loop("lqr", True, params, tables, nominal_trim, nominal_gain, schedule)
    gs = _kink_loop("scheduled", True, params, tables, nominal_trim, nominal_gain, schedule)
    x_trim = nominal_trim.x_trim.as_array()
    blocks = [_kink_dense_states(loop, schedule, x_trim, t, rng) for loop in (lqr, gs)]
    X = np.vstack(blocks)
    P = np.column_stack([np.array([params.m, params.xcg, params.Jyy])
                         * rng.uniform(0.9, 1.1, (len(X), 3)),
                         np.repeat([0.0, 1.0], [len(b) for b in blocks]),
                         rng.integers(0, 2, len(X))])
    loop = ClosedLoop(law=(lqr.law, gs.law), params=params, tables=tables,
                      disturbance=(SineDisturbance(6.5 * DEG, 2.0),
                                   SineDisturbance(6.5 * DEG, 100.0)))
    return loop, X, P


def test_shuffled_stacked_rows_give_the_permuted_field(params, tables, nominal_trim,
                                                       nominal_gain, schedule, rng):
    # law-sorted (each law on a slice) and shuffled (each law on an index
    # array): xdot, the divergence and the kink flags are the same values,
    # permuted, bit for bit
    t = 0.4
    loop, X, P = _two_law_kink_stack(params, tables, nominal_trim, nominal_gain, schedule,
                                     rng, t)
    xdot, div, kink = loop.state_rhs_div(t, X, P)
    assert 0 < np.count_nonzero(kink) < len(X)
    perm = rng.permutation(len(X))
    assert not np.all(np.diff(P[perm, 3]) >= 0)
    xdot_p, div_p, kink_p = loop.state_rhs_div(t, X[perm], P[perm])
    assert np.array_equal(xdot_p, xdot[perm])
    assert np.array_equal(div_p, div[perm])
    assert np.array_equal(kink_p, kink[perm])
    assert np.array_equal(loop.state_rhs(t, X[perm], P[perm]), loop.state_rhs(t, X, P)[perm])


STACKS = {
    "ic": dict(kind="ic", samples=30),
    "param": dict(kind="param", samples=12, param_delta_percent=[0.0, 15.0]),
    "disturbance": dict(kind="disturbance", samples=12, omega_rad_s=[2.0, 100.0]),
}


def _stack(setup, kind):
    """The stacked ensemble and loop of a small scenario of both controllers."""
    cfg = harness.ScenarioConfig(**STACKS[kind], t_f=0.1, dt=0.01, seed=1)
    ensemble, loop, _ = harness._cases(cfg, setup)
    return loop, ensemble.states, ensemble.params


def _assert_same_bits(a, b):
    for u, v in zip(a, b) if isinstance(a, tuple) else [(a, b)]:
        assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("kind", list(STACKS))
def test_a_bound_block_gives_the_bits_of_its_raw_rows(setup, rng, kind):
    # one block serves several calls in a row, as the stages of a step do;
    # a permuted block runs each law on index arrays, a one-row block on one
    loop, X, P = _stack(setup, kind)
    perm = rng.permutation(len(X))
    cases = [(X, P), (X[perm], P[perm])] + [(X[i:i + 1], P[i:i + 1]) for i in (0, len(X) - 1)]
    for x, p in cases:
        block = loop.bind(p)
        assert loop.bind(block) is block
        x2 = x * (1.0 + 1e-3 * rng.standard_normal(x.shape))
        for t, y in [(0.0, x), (0.3, x2), (0.0, x)]:
            _assert_same_bits(loop.state_rhs(t, y, block), loop.state_rhs(t, y, p))
            _assert_same_bits(loop.state_rhs_div(t, y, block), loop.state_rhs_div(t, y, p))


def test_a_bound_kink_subset_gives_the_bits_of_its_raw_rows(params, tables, nominal_trim,
                                                              nominal_gain, schedule, rng):
    # shuffled two-law kink-dense rows: the step's divergence takes the
    # finite-difference fallback on the flagged rows, whose field calls bind
    # the subset afresh
    t = 0.4
    loop, X, P = _two_law_kink_stack(params, tables, nominal_trim, nominal_gain, schedule,
                                     rng, t)
    perm = rng.permutation(len(X))
    X, P = X[perm], P[perm]
    block = loop.bind(P)
    kink = loop.state_rhs_div(t, X, block)[2]
    assert 0 < np.count_nonzero(kink) < len(X)
    assert np.array_equal(block[kink], P[kink])
    _assert_same_bits(loop.state_rhs(t, X[kink], loop.bind(P[kink])),
                      loop.state_rhs(t, X[kink], P[kink]))
    fields = (loop.state_rhs, loop.state_rhs_div)
    _assert_same_bits(liouville._rhs_div(*fields, t, X, block),
                      liouville._rhs_div(*fields, t, X, P))


def test_results_of_a_bound_call_survive_the_next_call(setup, rng):
    # the block's scratch is overwritten by every call; what a call returns
    # is not scratch
    loop, X, P = _stack(setup, "disturbance")
    block = loop.bind(P)
    X2 = X * (1.0 + 1e-2 * rng.standard_normal(X.shape))
    first = (*loop.state_rhs_div(0.0, X, block), loop.state_rhs(0.0, X, block),
             loop.control(X, 0.0, block))
    kept = [a.copy() for a in first]
    loop.state_rhs_div(0.5, X2, block)
    loop.state_rhs(0.5, X2, block)
    loop.control(X2, 0.5, block)
    for a, b in zip(first, kept):
        _assert_same_bits(a, b)


def test_ic_wide_propagation_is_the_same_with_two_workers(setup, monkeypatch):
    # each worker binds and fills its own block's scratch
    monkeypatch.delenv("OTROBUST_WORKERS", raising=False)
    cfg = harness.ScenarioConfig(kind="ic", samples=2000, t_f=0.03, dt=0.01)
    ensemble, loop, _ = harness._cases(cfg, setup)
    assert ensemble.n == 4000
    one = propagate(ensemble, loop, cfg.t_f, cfg.dt, workers=1)
    two = propagate(ensemble, loop, cfg.t_f, cfg.dt, workers=2)
    assert [s.t for s in one] == [s.t for s in two] and len(one) == 4
    for a, b in zip(one, two):
        _assert_same_bits((a.states, a.phi, a.diverged), (b.states, b.phi, b.diverged))


def test_a_propagation_splits_its_rows_once_per_block(setup, monkeypatch):
    # a 10-step propagation of the two-law ic stack: its 40 stage calls share
    # one split of the rows, and each kink subset's finite-difference field
    # call (one per subset at this size) makes its own
    cfg = harness.ScenarioConfig(kind="ic", samples=100, t_f=0.1, dt=0.01)
    ensemble, loop, _ = harness._cases(cfg, setup)
    splits, kinks = [], []
    split, fused = ClosedLoop._blocks, ClosedLoop.state_rhs_div

    def counting_split(self, ids):
        splits.append(np.size(ids))
        return split(self, ids)

    def counting_fused(self, *args, **kwargs):
        result = fused(self, *args, **kwargs)
        kinks.append(int(np.count_nonzero(result[2])))
        return result

    monkeypatch.setattr(ClosedLoop, "_blocks", counting_split)
    monkeypatch.setattr(ClosedLoop, "state_rhs_div", counting_fused)
    propagate(ensemble, loop, cfg.t_f, cfg.dt, workers=1)
    assert len(kinks) == 10
    subsets = [k for k in kinks if k]
    assert subsets
    assert splits == [ensemble.n] + [8 * k for k in subsets]
