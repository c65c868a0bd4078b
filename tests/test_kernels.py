"""Bit-identity of the fused aero lookup and the stacked divergence against
straightforward per-coefficient / per-direction reference formulas."""

import numpy as np
import pytest

from otrobust import liouville
from otrobust.controller import LqrLaw, ScheduledLaw
from otrobust.f16 import DEG, AeroTables, ClosedLoop, lookup_coefficient
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
    if n == 1 and law_kind == "lqr":
        # OpenBLAS evaluates a one-row dx @ K.T with gemv and a multi-row one
        # with gemm, which round differently in the last bit. The stacked
        # call is multi-row, so the bitwise reference is the loop over a
        # two-row copy of the sample.
        assert got == pytest.approx(ref, rel=1e-12)
        ref = _ref_divergence(loop.state_rhs, np.repeat(X, 2, axis=0),
                              None if P is None else np.repeat(P, 2, axis=0), 0.3)[:1]
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
