import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg

from otrobust import controller
from otrobust.controller import (
    LinearModel,
    LqrLaw,
    LqrWeights,
    ScheduledLaw,
    SynthesisError,
    build_schedule,
    care_residual,
    linearize,
    linearize_plant,
    lqr_gain,
    solve_care,
    spectral_abscissa,
)
from otrobust.f16 import CONTROL_UNITS, DEG, H_REL, STATE_UNITS, _cell, dynamics
from otrobust.harness import NOMINAL_ALPHA_DEG, NOMINAL_V
from otrobust.trim import default_grid, find_trim, trim_grid

# Published gain for this plant and weights, printed there for the opposite
# feedback-sign convention (u = u_trim + K dx); ours is u = u_trim - K dx,
# so the stabilizing gain is the negative of the printed matrix.
K_PUBLISHED = np.array([[7144.9, -400.58, -1355.8, 2002.8],
                        [0.7419, -0.0113, -0.2053, 0.3221]])


def test_linearize_exact_on_linear_map(rng):
    M = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    model = linearize(lambda x, u: x @ M.T + u @ B.T, np.zeros(4), np.zeros(2))
    assert np.max(np.abs(model.A - M)) <= 1e-8 * max(1.0, np.max(np.abs(M)))
    assert np.max(np.abs(model.B - B)) <= 1e-8 * max(1.0, np.max(np.abs(B)))


def test_linearize_constant_rhs_is_zero():
    model = linearize(lambda x, u: np.broadcast_to([1.0, -2.0, 3.0, 0.5], x.shape),
                      np.zeros(4), np.zeros(2))
    assert np.allclose(model.A, 0.0, atol=1e-9)
    assert np.allclose(model.B, 0.0, atol=1e-9)


def _loop_linearize(x0, u0, params, tables):
    """One plant call per +/- direction: the reference the stacked call meets."""
    def column(z0, j, f):
        h = 1e-6 * max(1.0, abs(z0[j]))
        zp, zm = z0.copy(), z0.copy()
        zp[j] += h
        zm[j] -= h
        return (f(zp) - f(zm)) / (2 * h)
    A = np.stack([column(x0, j, lambda x: dynamics(x, u0, params, tables))
                  for j in range(4)], axis=1)
    B = np.stack([column(u0, j, lambda u: dynamics(x0, u, params, tables))
                  for j in range(2)], axis=1)
    return A, B


@pytest.mark.parametrize("node", [0, 37, 99])
def test_linearize_plant_matches_per_direction_loop(params, tables, nominal_trim,
                                                    grid_trims, node):
    for tp in (nominal_trim, grid_trims[node]):
        x0, u0 = tp.x_trim.as_array(), tp.u_trim.as_array()
        model = linearize_plant(x0, u0, params, tables)
        A, B = _loop_linearize(x0, u0, params, tables)
        assert np.array_equal(model.A, A) and np.array_equal(model.B, B)
        assert model.A.flags.c_contiguous and model.B.flags.c_contiguous


def test_open_loop_eigenvalues_stable_at_trim(params, tables, nominal_trim):
    model = linearize_plant(nominal_trim.x_trim.as_array(),
                            nominal_trim.u_trim.as_array(), params, tables)
    eigs = np.linalg.eigvals(model.A)
    assert np.all(eigs.real < 0.0)
    # classic short-period / phugoid pair structure
    assert np.sum(np.abs(eigs.imag) > 1e-6) == 4


def test_care_scalar_integrator():
    P = solve_care(np.array([[0.0]]), np.array([[1.0]]),
                   np.array([[1.0]]), np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_care_scalar_stable():
    # -2P - P^2 + 1 = 0 -> P = sqrt(2) - 1
    P = solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                   np.array([[1.0]]), np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)


def test_care_zero_q_hurwitz_a():
    A = np.array([[-1.0, 0.3], [0.0, -2.0]])
    B = np.eye(2)
    P = solve_care(A, B, np.zeros((2, 2)), np.eye(2))
    assert np.allclose(P, 0.0, atol=1e-10)


def test_care_matches_scipy_on_random_instances(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, max(1, n - 1)))
        Qh = rng.standard_normal((n, n))
        Q = Qh @ Qh.T
        R = np.diag(rng.uniform(0.1, 3.0, B.shape[1]))
        P = solve_care(A, B, Q, R)
        P_ref = scipy.linalg.solve_continuous_are(A, B, Q, R)
        assert np.max(np.abs(P - P_ref)) <= 1e-6 * max(1.0, np.max(np.abs(P_ref)))
        assert care_residual(A, B, Q, R, P) < 1e-8 * max(np.linalg.norm(Q, "fro"), 1e-12)


def test_care_rejects_unstabilizable():
    # unreachable unstable mode
    A = np.array([[1.0, 0.0], [0.0, -1.0]])
    B = np.array([[0.0], [1.0]])
    with pytest.raises(SynthesisError):
        solve_care(A, B, np.eye(2), np.eye(1))


def test_lqr_gain_matches_published_values(setup):
    K = setup.K
    ref = -K_PUBLISHED
    assert np.all(np.sign(K) == np.sign(ref))
    assert np.max(np.abs((K - ref) / ref)) < 0.25
    assert spectral_abscissa(setup.model.A - setup.model.B @ K) < 0.0


def test_lqr_control_at_trim(nominal_trim, nominal_gain):
    u = LqrLaw(nominal_gain, nominal_trim)(nominal_trim.x_trim.as_array())
    assert np.allclose(u, nominal_trim.u_trim.as_array(), rtol=0, atol=1e-12)


def test_lqr_control_linearity(nominal_trim, nominal_gain, rng):
    law = LqrLaw(nominal_gain, nominal_trim)
    dx = rng.standard_normal(4) * 0.01
    x0 = nominal_trim.x_trim.as_array()
    u1 = law(x0 + dx)
    u2 = law(x0 + 2 * dx)
    u0 = nominal_trim.u_trim.as_array()
    assert np.allclose(u2 - u0, 2 * (u1 - u0), rtol=1e-9)


def test_lqr_control_pitch_offset_thrust_response(nominal_trim, nominal_gain):
    # one degree of pitch error; frozen from K(0,0) ~ -7142.8 lb/rad
    x = nominal_trim.x_trim.as_array() + np.array([1.0 * DEG, 0, 0, 0])
    u = LqrLaw(nominal_gain, nominal_trim)(x)
    dT = u[0] - nominal_trim.u_trim.T
    assert dT == pytest.approx(-nominal_gain[0, 0] * DEG, rel=1e-9)
    assert dT == pytest.approx(124.66, abs=0.5)


def test_schedule_all_nodes_stable(schedule):
    assert schedule.n_nodes == 100
    assert np.all(schedule.abscissa_closed < 0.0)
    assert np.any(schedule.abscissa_open > 0.0)


@pytest.mark.parametrize("plant", ["nominal", "forward_cg"])
def test_schedule_file_holds_each_node_trim_record(params, tables, schedule, forward_cg_params,
                                                  forward_cg_grid_trims, plant):
    # the schedule JSON and `otrobust trim` at a node write the same numbers
    nominal = (NOMINAL_V, NOMINAL_ALPHA_DEG * DEG)
    if plant == "forward_cg":
        params = forward_cg_params
        schedule = build_schedule(forward_cg_grid_trims, LqrWeights(), params, tables,
                                  reference=find_trim(*nominal, params, tables))
    d = schedule.to_dict()
    x_deg = [x for row in d["x_trims_deg"] for x in row]
    u_deg = [u for row in d["u_trims_deg"] for u in row]
    for k, ((V, alpha), x, u) in enumerate(zip(default_grid(), x_deg, u_deg)):
        rec = find_trim(V, alpha, params, tables).to_dict()
        assert x == [rec["theta_deg"], rec["V"], rec["alpha_deg"], rec["q_dps"]], k
        assert u == [rec["T"], rec["delta_e_deg"]], k
        assert d["alpha_nodes_deg"][k % 10] == rec["alpha_deg"], k
    rec = find_trim(*nominal, params, tables).to_dict()
    assert d["x_ref_deg"] == [rec["theta_deg"], rec["V"], rec["alpha_deg"], rec["q_dps"]]
    assert d["u_ref_deg"] == [rec["T"], rec["delta_e_deg"]]


def test_stacked_linearization_is_each_node_bitwise(params, tables, grid_trims):
    X = np.array([tp.x_trim.as_array() for tp in grid_trims])
    U = np.array([tp.u_trim.as_array() for tp in grid_trims])
    stacked = linearize_plant(X, U, params, tables)
    assert stacked.A.shape == (100, 4, 4) and stacked.B.shape == (100, 4, 2)
    for x, u, A, B in zip(X, U, stacked.A, stacked.B):
        single = linearize_plant(x, u, params, tables)
        assert np.array_equal(A, single.A) and np.array_equal(B, single.B)


def test_schedule_names_the_node_whose_riccati_solve_fails(params, tables, grid_trims,
                                                           nominal_trim, monkeypatch):
    # nodes 0 and 1 are (100 ft/s, -10 deg) and (100 ft/s, -3.89 deg)
    failing = linearize_plant(grid_trims[1].x_trim.as_array(),
                              grid_trims[1].u_trim.as_array(), params, tables).A
    solve = controller.solve_care

    def care(A, B, Q, R):
        if np.array_equal(A, failing):
            raise SynthesisError("closed loop not Hurwitz after Riccati solve")
        return solve(A, B, Q, R)

    monkeypatch.setattr(controller, "solve_care", care)
    with pytest.raises(SynthesisError, match=r"^node \(V=100\.0, alpha=-3\.89 deg\): closed loop "
                                             r"not Hurwitz after Riccati solve$") as err:
        build_schedule(grid_trims[:2], LqrWeights(), params, tables, nominal_trim)
    assert isinstance(err.value.__cause__, SynthesisError)


def test_schedule_rejects_partial_grid(grid_trims, params, tables, nominal_trim):
    with pytest.raises(ValueError, match="37 trim points do not form a 4x10 rectangular grid"):
        build_schedule(grid_trims[:37], LqrWeights(), params, tables, nominal_trim)


def test_schedule_rejects_a_repeated_node(params, tables, nominal_trim):
    with pytest.raises(ValueError, match="2 trim points do not form a 1x1 rectangular grid"):
        build_schedule([nominal_trim, nominal_trim], LqrWeights(), params, tables, nominal_trim)


def test_schedule_takes_only_a_complete_v_major_lattice(params, tables, grid_trims,
                                                        nominal_trim):
    # a repeated node standing in for a missing one gives the lattice's
    # count but not its shape; no node may go without a synthesized gain
    t = trim_grid([(300.0, 0.0), (300.0, 5.0 * DEG), (400.0, 0.0), (400.0, 5.0 * DEG)],
                  params, tables)
    sched = build_schedule(t, LqrWeights(), params, tables, nominal_trim)
    assert sched.K.shape == (2, 2, 2, 4) and np.all(sched.abscissa_closed < 0.0)
    with pytest.raises(ValueError, match="4 trim points do not form a 2x2 rectangular grid"):
        build_schedule([t[0], t[0], t[2], t[3]], LqrWeights(), params, tables, nominal_trim)
    with pytest.raises(ValueError, match="100 trim points do not form a 10x10 rectangular grid"):
        build_schedule(grid_trims[::-1], LqrWeights(), params, tables, nominal_trim)


def test_schedule_rejects_empty_trim_list(params, tables, nominal_trim):
    with pytest.raises(ValueError, match="at least one trim point"):
        build_schedule([], LqrWeights(), params, tables, nominal_trim)


def test_gs_control_at_reference(schedule, nominal_trim):
    u = ScheduledLaw(schedule)(nominal_trim.x_trim.as_array())
    assert np.allclose(u, nominal_trim.u_trim.as_array(), rtol=0, atol=1e-9)


# A deviation whose components are dyadic: with the reference at x - DX the
# law's own x - x_ref is DX exactly at the states below, so two commands
# differ only through the scheduled gain.
DX = np.array([-0.25, 2.0, 0.125, -0.5])


def _at_deviation(schedule, x):
    """ScheduledLaw's command u_ref - K~(V, alpha) DX at the state x."""
    return ScheduledLaw(dataclasses.replace(schedule, x_ref=x - DX))(x)


def test_gain_interpolation_midpoint_mean(schedule):
    i, j = 4, 5
    V_mid = 0.5 * (schedule.V_nodes[i] + schedule.V_nodes[i + 1])
    alpha = schedule.alpha_nodes[j]
    x = np.array([0.0, V_mid, alpha, 0.0])
    expect = schedule.u_ref - 0.5 * (schedule.K[i, j] + schedule.K[i + 1, j]) @ DX
    assert np.allclose(_at_deviation(schedule, x), expect, rtol=1e-12)


def test_gain_interpolation_clamps_to_hull(schedule):
    x_lo = np.array([0.0, 50.0, 0.0, 0.0])
    x_edge = np.array([0.0, 100.0, 0.0, 0.0])
    assert np.array_equal(_at_deviation(schedule, x_lo), _at_deviation(schedule, x_edge))
    x_hi = np.array([0.0, 400.0, 80.0 * DEG, 0.0])
    x_hi_edge = np.array([0.0, 400.0, 45.0 * DEG, 0.0])
    assert np.array_equal(_at_deviation(schedule, x_hi), _at_deviation(schedule, x_hi_edge))


@pytest.mark.parametrize("nv, na", [(10, 10), (1, 10), (10, 1), (1, 1)])
def test_gain_gather_matches_corner_indexing(schedule, rng, nv, na):
    # ScheduledLaw's one-take corner gather against K[i, j] ... K[i+1, j+1]
    # indexed one corner at a time, on sub-lattices with a one-node axis too.
    sub = dataclasses.replace(
        schedule, V_nodes=schedule.V_nodes[:nv], alpha_nodes=schedule.alpha_nodes[:na],
        x_trims=schedule.x_trims[:nv, :na], u_trims=schedule.u_trims[:nv, :na],
        K=schedule.K[:nv, :na], abscissa_open=schedule.abscissa_open[:nv, :na],
        abscissa_closed=schedule.abscissa_closed[:nv, :na])
    x = rng.uniform([-0.5, 50.0, -20 * DEG, -1.0], [0.5, 1100.0, 60 * DEG, 1.0], (300, 4))
    i, wv = _cell(sub.V_nodes, x[:, 1])
    j, wa = _cell(sub.alpha_nodes, x[:, 2])
    i1, j1 = np.minimum(i + 1, nv - 1), np.minimum(j + 1, na - 1)
    wv, wa = wv[:, None, None], wa[:, None, None]
    Kt = ((1 - wv) * (1 - wa) * sub.K[i, j] + wv * (1 - wa) * sub.K[i1, j]
          + (1 - wv) * wa * sub.K[i, j1] + wv * wa * sub.K[i1, j1])
    expect = sub.u_ref - np.einsum("...ij,...j->...i", Kt, x - sub.x_ref)
    law = ScheduledLaw(sub)
    assert np.array_equal(law(x), expect)
    assert np.array_equal(law(x[7]), expect[7])


@pytest.mark.parametrize("nv, na", [(10, 10), (1, 10), (10, 1), (1, 1)])
def test_scheduled_jacobian_matches_corner_formulas(schedule, nominal_trim, nominal_gain,
                                                    rng, nv, na):
    # ScheduledLaw.jacobian's command, Jacobian, curvature and kink flags
    # against the four corner gains K[i, j] ... K[i+1, j+1] indexed one at a
    # time, on sub-lattices with a one-node axis too
    sub = dataclasses.replace(
        schedule, V_nodes=schedule.V_nodes[:nv], alpha_nodes=schedule.alpha_nodes[:na],
        x_trims=schedule.x_trims[:nv, :na], u_trims=schedule.u_trims[:nv, :na],
        K=schedule.K[:nv, :na], abscissa_open=schedule.abscissa_open[:nv, :na],
        abscissa_closed=schedule.abscissa_closed[:nv, :na])
    x = rng.uniform([-0.5, 50.0, -20 * DEG, -1.0], [0.5, 1100.0, 60 * DEG, 1.0], (300, 4))
    # rows on and next to every node line, where the stencil crosses it
    x[:40, 1] = np.resize(sub.V_nodes, 40) + np.resize([0.0, 1e-3, -1e-3, 0.5], 40)
    x[40:80, 2] = np.resize(sub.alpha_nodes, 40) + np.resize([0.0, 1e-7, -1e-7, 0.01], 40)
    h = H_REL * np.maximum(1.0, np.abs(x))
    u, J, C, kink = ScheduledLaw(sub).jacobian(x, h)
    J, C = J.transpose(2, 0, 1), C.transpose(2, 0, 1)  # value-major (2, 4, n) to (n, 2, 4)
    # the command of both laws' jacobian is bitwise the law's own, inside
    # cells, on node lines and beyond the hull: state_rhs_div relies on it
    assert np.array_equal(u, ScheduledLaw(sub)(x))
    lqr = LqrLaw(K=nominal_gain, trim=nominal_trim)
    assert np.array_equal(lqr.jacobian(x, h)[0], lqr(x))

    def cell(nodes, v, hv):
        crosses = (np.searchsorted(nodes, v + hv, side="right")
                   != np.searchsorted(nodes, v - hv, side="right"))
        if nodes.size == 1:
            zero = np.zeros(v.shape, dtype=int)
            return zero, zero, np.zeros(v.shape), np.zeros(v.shape), crosses
        vc = np.clip(v, nodes[0], nodes[-1])
        i = np.clip(np.searchsorted(nodes, vc, side="right") - 1, 0, nodes.size - 2)
        width = nodes[i + 1] - nodes[i]
        inside = (v > nodes[0]) & (v < nodes[-1])
        return i, i + 1, (vc - nodes[i]) / width, inside / width, crosses

    i, i1, wv, sv, kink_v = cell(sub.V_nodes, x[:, 1], h[:, 1])
    j, j1, wa, sa, kink_a = cell(sub.alpha_nodes, x[:, 2], h[:, 2])
    wv, sv, wa, sa = (w[:, None, None] for w in (wv, sv, wa, sa))
    K00, K10, K01, K11 = sub.K[i, j], sub.K[i1, j], sub.K[i, j1], sub.K[i1, j1]
    Kt = (1 - wv) * (1 - wa) * K00 + wv * (1 - wa) * K10 + (1 - wv) * wa * K01 + wv * wa * K11
    dK_dV = ((1 - wa) * (K10 - K00) + wa * (K11 - K01)) * sv
    dK_da = ((1 - wv) * (K01 - K00) + wv * (K11 - K10)) * sa
    dx = x - sub.x_ref
    J_ref = -Kt
    J_ref[:, :, 1] -= np.einsum("...ij,...j->...i", dK_dV, dx)
    J_ref[:, :, 2] -= np.einsum("...ij,...j->...i", dK_da, dx)
    C_ref = np.zeros_like(J_ref)
    C_ref[:, :, 1], C_ref[:, :, 2] = -dK_dV[:, :, 1], -dK_da[:, :, 2]
    assert np.array_equal(u, sub.u_ref - np.einsum("...ij,...j->...i", Kt, dx))
    assert np.array_equal(J, J_ref)
    assert np.array_equal(C, C_ref)
    assert np.array_equal(kink, kink_v | kink_a)
    assert kink.any() and not kink.all()
    assert (nv == 1 and na == 1) != C.any()


def test_single_node_schedule_degenerates_to_lqr(params, tables, nominal_trim,
                                                 nominal_gain):
    sched = build_schedule([nominal_trim], LqrWeights(), params, tables, nominal_trim)
    x = nominal_trim.x_trim.as_array() + np.array([0.02, -5.0, 0.01, 0.03])
    u_sched = ScheduledLaw(sched)(x)
    u_lqr = LqrLaw(sched.K[0, 0], nominal_trim)(x)
    assert np.allclose(u_sched, u_lqr, rtol=0, atol=1e-12)
    assert np.allclose(sched.K[0, 0], nominal_gain, rtol=1e-8)


def test_gs_control_affine_within_cell(schedule, rng):
    # for fixed deviation, the scheduled control is affine in the
    # scheduling coordinates inside one lattice cell
    i, j = 3, 4
    V0, V1 = schedule.V_nodes[i], schedule.V_nodes[i + 1]
    a0, a1 = schedule.alpha_nodes[j], schedule.alpha_nodes[j + 1]

    def u_at(fv, fa):
        x = np.array([0.0, V0 + fv * (V1 - V0), a0 + fa * (a1 - a0), 0.0])
        return _at_deviation(schedule, x)

    # along V at fixed alpha fraction: midpoint equals the mean of the ends
    u_left, u_mid, u_right = u_at(0.2, 0.3), u_at(0.5, 0.3), u_at(0.8, 0.3)
    assert np.allclose(u_mid, 0.5 * (u_left + u_right), rtol=1e-10)


def test_schedule_serialization_roundtrip(schedule):
    d = json.loads(json.dumps(schedule.to_dict()))
    assert np.allclose(d["K"], schedule.K, rtol=1e-15)
    assert np.array_equal(d["V_nodes"], schedule.V_nodes)
    assert np.allclose(np.asarray(d["alpha_nodes_deg"]) * STATE_UNITS[2], schedule.alpha_nodes,
                       rtol=0, atol=1e-12)
    for key, arr, units in (("x_trims_deg", schedule.x_trims, STATE_UNITS),
                            ("x_ref_deg", schedule.x_ref, STATE_UNITS),
                            ("u_trims_deg", schedule.u_trims, CONTROL_UNITS),
                            ("u_ref_deg", schedule.u_ref, CONTROL_UNITS)):
        assert np.allclose(np.asarray(d[key]) * units, arr, rtol=0, atol=1e-12), key
    assert np.array_equal(d["abscissa_open"], schedule.abscissa_open)
    assert np.array_equal(d["abscissa_closed"], schedule.abscissa_closed)


def test_care_residual_invariant_on_f16_nodes(schedule, params, tables,
                                              grid_trims):
    # spot-check a few synthesized nodes against the Riccati residual bound
    weights = LqrWeights()
    for tp in grid_trims[::23]:
        model = linearize_plant(tp.x_trim.as_array(), tp.u_trim.as_array(), params, tables)
        P = solve_care(model.A, model.B, weights.Q, weights.R)
        assert care_residual(model.A, model.B, weights.Q, weights.R, P) \
            < 1e-8 * np.linalg.norm(weights.Q, "fro")


def test_lone_sample_gets_the_ensemble_gain_product(nominal_trim, nominal_gain, rng):
    # A one-row dx @ K.T would go through gemv and round differently from
    # the gemm that serves the same row inside an ensemble.
    law = LqrLaw(K=nominal_gain, trim=nominal_trim)
    spread = np.array([0.05, 40.0, 0.08, 0.2])
    for _ in range(50):
        x, y = nominal_trim.x_trim.as_array() + spread * rng.uniform(-1.0, 1.0, (2, 4))
        in_ensemble = law(np.vstack([x, y]))[0]
        assert np.array_equal(law(x[None])[0], in_ensemble)
        assert np.array_equal(law(x), in_ensemble)
    assert law(x).shape == (2,) and law(x[None]).shape == (1, 2)
