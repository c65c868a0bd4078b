import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import lookup_coefficient
from otrobust.f16 import (
    DEG,
    ELEVATOR_LIMIT,
    THRUST_MAX,
    THRUST_MIN,
    AeroTables,
    AircraftParams,
    ClosedLoop,
    LongitudinalState,
    SineDisturbance,
    SingularStateError,
    dynamics,
    saturate_array,
)


def test_density_at_altitude(params):
    # formula value; the reference rounds it to 1.8e-3 slug/ft^3
    assert params.density() == pytest.approx(1.8e-3, abs=5e-5)


def test_altitude_past_density_zero_rejected():
    # (1 - 0.703e-5 h)^4.14 turns complex past 142248 ft.
    with pytest.raises(ValueError, match="h must be below 142248 ft"):
        AircraftParams(h=150000.0)
    assert AircraftParams(h=142000.0).density() > 0.0


def test_dynamic_pressure_zero_limit(params, tables):
    # as V -> 0 the dynamic pressure, and with it every aerodynamic force,
    # vanishes: V_dot is thrust and gravity along the velocity alone
    theta, alpha, T = 0.1, 0.2, 5000.0
    xdot = dynamics([theta, 1e-12, alpha, 0.0], [T, 0.0], params, tables)
    g_axial = T - params.m * params.g * math.sin(theta)
    g_normal = params.m * params.g * math.cos(theta)
    expect = (math.cos(alpha) * g_axial + math.sin(alpha) * g_normal) / params.m
    assert xdot[1] == pytest.approx(expect, rel=1e-12)


def test_dynamic_pressure_nominal(params):
    # frozen from direct evaluation of 0.5 rho(10000 ft) V^2, the dynamic
    # pressure the plant forms from params.density()
    assert 0.5 * params.density() * 407.8942 ** 2 == pytest.approx(146.229019, rel=1e-8)


def test_dynamic_pressure_rejects_nonfinite(params, tables):
    with pytest.raises(SingularStateError):
        dynamics([0.0, float("nan"), 0.1, 0.0], [5000.0, 0.0], params, tables)


def test_state_validation():
    with pytest.raises(SingularStateError):
        LongitudinalState(0.0, -1.0, 0.0, 0.0)
    with pytest.raises(SingularStateError):
        LongitudinalState(float("inf"), 100.0, 0.0, 0.0)


def test_lookup_breakpoint_identity(tables):
    # stored grid value exactly at a stored breakpoint pair
    a = tables.alpha_breakpoints_deg[3] * DEG
    d = tables.deltae_breakpoints_deg[1] * DEG
    assert lookup_coefficient(tables, "CX", a, d) == tables.CX[3, 1]
    assert lookup_coefficient(tables, "Cmq", a) == tables.Cmq[3]


def test_lookup_midpoint_mean(tables):
    a_mid = 0.5 * (tables.alpha_breakpoints_deg[2] + tables.alpha_breakpoints_deg[3]) * DEG
    expect = 0.5 * (tables.CZq[2] + tables.CZq[3])
    assert lookup_coefficient(tables, "CZq", a_mid) == pytest.approx(expect, rel=1e-12)


def test_lookup_clamps_beyond_range(tables):
    hi = tables.alpha_breakpoints_deg[-1]
    v_edge = lookup_coefficient(tables, "CXq", hi * DEG)
    assert lookup_coefficient(tables, "CXq", (hi + 30.0) * DEG) == v_edge
    lo = tables.alpha_breakpoints_deg[0]
    assert (lookup_coefficient(tables, "CZ", (lo - 15.0) * DEG, 0.0)
            == lookup_coefficient(tables, "CZ", lo * DEG, 0.0))


def test_lookup_unknown_id(tables):
    with pytest.raises(KeyError):
        lookup_coefficient(tables, "CY", 0.0, 0.0)


def test_lookup_single_column_grid(tables):
    # degenerate delta_e grid means alpha-only dependence
    degen = AeroTables(
        alpha_breakpoints_deg=tables.alpha_breakpoints_deg,
        deltae_breakpoints_deg=[0.0],
        CX=tables.CX[:, :1], CZ=tables.CZ[:, :1], Cm=tables.Cm[:, :1],
        CXq=tables.CXq, CZq=tables.CZq, Cmq=tables.Cmq)
    v1 = lookup_coefficient(degen, "CZ", 5 * DEG, -20 * DEG)
    v2 = lookup_coefficient(degen, "CZ", 5 * DEG, +20 * DEG)
    assert v1 == v2


def test_tables_json_roundtrip(tables, tmp_path):
    path = tmp_path / "tables.json"
    doc = {
        "alpha_breakpoints_deg": tables.alpha_breakpoints_deg.tolist(),
        "deltae_breakpoints_deg": tables.deltae_breakpoints_deg.tolist(),
        "CX": tables.CX.tolist(), "CZ": tables.CZ.tolist(), "Cm": tables.Cm.tolist(),
        "CXq": tables.CXq.tolist(), "CZq": tables.CZq.tolist(), "Cmq": tables.Cmq.tolist(),
    }
    path.write_text(json.dumps(doc))
    again = AeroTables.from_json(path)
    assert np.array_equal(again.CX, tables.CX)
    assert np.array_equal(again.Cmq, tables.Cmq)


def test_tables_validation():
    with pytest.raises(ValueError):
        AeroTables(alpha_breakpoints_deg=[0.0, -1.0], deltae_breakpoints_deg=[0.0],
                   CX=[[0.0], [0.0]], CZ=[[0.0], [0.0]], Cm=[[0.0], [0.0]],
                   CXq=[0.0, 0.0], CZq=[0.0, 0.0], Cmq=[0.0, 0.0])


def test_saturate_examples():
    assert saturate_array([500.0, 0.0]).tolist() == [1000.0, 0.0]
    hi = saturate_array([28500.0, 30.0 * DEG])
    assert hi[0] == 28000.0 and hi[1] == pytest.approx(25.0 * DEG)
    mid = np.array([5000.0, -10.0 * DEG])
    assert np.array_equal(saturate_array(mid), mid)


@given(T=st.floats(-1e6, 1e6, allow_nan=False),
       de=st.floats(-3.0, 3.0, allow_nan=False))
def test_saturate_idempotent(T, de):
    once = saturate_array([T, de])
    assert np.array_equal(saturate_array(once), once)
    assert THRUST_MIN <= once[0] <= THRUST_MAX
    assert abs(once[1]) <= ELEVATOR_LIMIT


def test_theta_dot_equals_q(params, tables, rng):
    for _ in range(20):
        x = np.array([rng.uniform(-0.5, 0.5), rng.uniform(150, 900),
                      rng.uniform(-0.15, 0.7), rng.uniform(-1, 1)])
        u = np.array([rng.uniform(1000, 28000), rng.uniform(-0.4, 0.4)])
        assert dynamics(x, u, params, tables)[0] == x[3]


def test_dynamics_at_trim_is_small(params, tables, nominal_trim):
    xdot = dynamics(nominal_trim.x_trim.as_array(), nominal_trim.u_trim.as_array(),
                    params, tables)
    # scaled residual norm matches the trim solve's report
    scaled = np.array([xdot[1] / 100.0, xdot[2], xdot[3]])
    assert np.linalg.norm(scaled) == pytest.approx(nominal_trim.residual, rel=1e-6)


def test_dynamics_rejects_singular_state(params, tables):
    with pytest.raises(SingularStateError):
        dynamics(np.array([0.0, -5.0, 0.0, 0.0]), np.array([2000.0, 0.0]),
                 params, tables)


def test_pitch_acceleration_linear_in_cm(params, tables):
    # negating the pitching-moment grid negates q_dot when the c.g. coupling
    # and damping terms are silenced
    zeros2 = np.zeros_like(tables.Cm)
    zeros1 = np.zeros_like(tables.Cmq)
    base = dict(alpha_breakpoints_deg=tables.alpha_breakpoints_deg,
                deltae_breakpoints_deg=tables.deltae_breakpoints_deg,
                CX=tables.CX, CZ=zeros2, CXq=tables.CXq, CZq=zeros1, Cmq=zeros1)
    t_plus = AeroTables(Cm=tables.Cm, **base)
    t_minus = AeroTables(Cm=-tables.Cm, **base)
    x = np.array([0.05, 400.0, 0.1, 0.02])
    u = np.array([3000.0, -0.1])
    qd_plus = dynamics(x, u, params, t_plus)[3]
    qd_minus = dynamics(x, u, params, t_minus)[3]
    assert qd_plus == pytest.approx(-qd_minus, rel=1e-12)


def test_zero_aero_force_balance(params, tables):
    # with all coefficients zeroed, T = m g sin(theta)/cos(alpha) kills V_dot
    z2, z1 = np.zeros_like(tables.CX), np.zeros_like(tables.CXq)
    zt = AeroTables(alpha_breakpoints_deg=tables.alpha_breakpoints_deg,
                    deltae_breakpoints_deg=tables.deltae_breakpoints_deg,
                    CX=z2, CZ=z2, Cm=z2, CXq=z1, CZq=z1, Cmq=z1)
    x = np.array([0.0, 400.0, 0.0, 0.0])
    assert dynamics(x, np.array([0.0, 0.0]), params, zt)[1] == pytest.approx(0.0, abs=1e-12)
    # general attitude: thrust balancing both gravity projections kills V_dot
    theta, alpha = 10 * DEG, 5 * DEG
    mg = params.m * params.g
    T = mg * (math.sin(theta) - math.cos(theta) * math.tan(alpha))
    x2 = np.array([theta, 400.0, alpha, 0.0])
    vdot = dynamics(x2, np.array([T, 0.0]), params, zt)[1]
    assert vdot == pytest.approx(0.0, abs=1e-9)


def test_dynamics_batched_matches_scalar(params, tables, rng):
    X = np.column_stack([rng.uniform(-0.3, 0.3, 8), rng.uniform(200, 800, 8),
                         rng.uniform(-0.1, 0.6, 8), rng.uniform(-0.5, 0.5, 8)])
    U = np.column_stack([rng.uniform(1000, 28000, 8), rng.uniform(-0.4, 0.4, 8)])
    batch = dynamics(X, U, params, tables)
    for i in range(8):
        assert np.array_equal(batch[i], dynamics(X[i], U[i], params, tables))


def hold(u):
    """Open-loop law: the command u whatever the state."""
    u = np.asarray(u, dtype=float)
    return lambda x: np.broadcast_to(u, np.shape(x)[:-1] + (2,))


def test_closed_loop_trim_fixed_point(params, tables, nominal_trim):
    loop = ClosedLoop(law=hold(nominal_trim.u_trim.as_array()), params=params, tables=tables)
    xdot = loop.state_rhs(0.0, nominal_trim.x_trim.as_array())
    scaled = np.array([xdot[1] / 100.0, xdot[2], xdot[3]])
    assert np.linalg.norm(scaled) <= nominal_trim.residual * (1 + 1e-9)


def test_closed_loop_parameter_block_zero(params, tables, nominal_trim):
    loop = ClosedLoop(law=hold(nominal_trim.u_trim.as_array()), params=params, tables=tables)
    p = np.array([[640.0, 3.4, 56000.0], [600.0, 3.5, 55000.0]])
    x = np.tile(nominal_trim.x_trim.as_array(), (2, 1))
    out = loop.state_rhs(0.3, x, p)
    # the state block only: the frozen parameters have no derivative to return
    assert out.shape == (2, 4)
    for i in range(2):
        assert np.array_equal(out[i], loop.state_rhs(0.3, x[i], p[i]))
    assert not np.array_equal(out[0], out[1])


def test_disturbance_enters_elevator_before_saturation(params, tables, nominal_trim):
    amp = 6.5 * DEG
    w = SineDisturbance(amp, 2.0)
    loop = ClosedLoop(law=hold(nominal_trim.u_trim.as_array()), params=params,
                      tables=tables, disturbance=w)
    # peak of sin(2t) at t = pi/4: elevator command offset +6.5 deg
    t_peak = math.pi / 4.0
    u = loop.control(nominal_trim.x_trim.as_array(), t_peak)
    assert u[1] == pytest.approx(nominal_trim.u_trim.delta_e + amp, rel=1e-12)
    # and zero offset at t = pi/2 where sin(2t) vanishes
    u0 = loop.control(nominal_trim.x_trim.as_array(), math.pi / 2.0)
    assert u0[1] == pytest.approx(nominal_trim.u_trim.delta_e, abs=1e-12)


def test_closed_loop_saturates(params, tables, nominal_trim):
    loop = ClosedLoop(law=hold([50000.0, 1.0]), params=params, tables=tables)
    u = loop.control(nominal_trim.x_trim.as_array(), 0.0)
    assert u[0] == THRUST_MAX and u[1] == pytest.approx(ELEVATOR_LIMIT)


@pytest.mark.parametrize("h", [-1e308, -math.inf])
def test_altitude_with_overflowing_density_rejected(h):
    # (1 - 0.703e-5 h)^4.14 overflows a float far below sea level; the
    # Python power raises OverflowError there, not ValueError.
    with pytest.raises(ValueError, match="density at h = .* is not finite"):
        AircraftParams(h=h)
