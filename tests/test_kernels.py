"""Bit-identity of the fused aero lookup, the plant output and the stacked
divergence against straightforward per-coefficient / per-direction
reference formulas."""

import numpy as np
import pytest

from otrobust import liouville
from otrobust.controller import LqrLaw, ScheduledLaw
from otrobust.f16 import DEG, AeroTables, ClosedLoop, _aero, _rhs, lookup_coefficient
from otrobust.liouville import DIVERGENCE_ROW_BUDGET, divergence


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
@pytest.mark.parametrize("n", [1, 200, DIVERGENCE_ROW_BUDGET // 2 + 100])
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
    coef = static + np.asarray(params.cbar * q / (2.0 * V))[..., None] * damping
    cx, cz, cm = coef[..., 0], coef[..., 1], coef[..., 2]
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


@pytest.mark.parametrize("n, calls", [(200, 1), (DIVERGENCE_ROW_BUDGET // 4, 2),
                                      (DIVERGENCE_ROW_BUDGET // 2, 4),
                                      (DIVERGENCE_ROW_BUDGET, 4)])
def test_divergence_call_count(rng, n, calls):
    M = rng.standard_normal((4, 4))
    rhs = CountingField(M)
    div = divergence(rhs, rng.standard_normal((n, 4)), None, 0.0)
    assert len(rhs.rows) == calls
    assert max(rhs.rows) <= max(DIVERGENCE_ROW_BUDGET, 2 * n)
    assert sum(rhs.rows) == 8 * n
    assert div == pytest.approx(np.full(n, np.trace(M)), rel=1e-7)


def test_propagation_step_makes_five_calls_at_desk_scale(rng):
    rhs = CountingField(-np.eye(4))
    cloud = liouville.EnsembleSnapshot.from_cloud(
        rng.standard_normal((200, 4)), np.ones(200), np.full(200, 1 / 200))
    liouville.propagate(cloud, rhs, 0.03, 0.01)
    assert len(rhs.rows) == 3 * 5
