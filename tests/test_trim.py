import numpy as np
import pytest

from oracles import trf_trim
from otrobust.f16 import DEG, AircraftParams, central_difference, dynamics, saturate_array
from otrobust import trim as trim_module
from otrobust.harness import NOMINAL_ALPHA_DEG, NOMINAL_V
from otrobust.trim import TrimPoint, default_grid, find_trim, trim_grid, _residual

NOMINAL = (NOMINAL_V, NOMINAL_ALPHA_DEG * DEG)


def test_nominal_trim_matches_reference(nominal_trim):
    tp = nominal_trim
    assert tp.converged
    assert tp.x_trim.theta / DEG == pytest.approx(2.8190, abs=0.3)
    assert tp.u_trim.delta_e / DEG == pytest.approx(-2.9737, abs=0.5)
    assert tp.u_trim.T == pytest.approx(1000.0, rel=0.05)
    assert tp.optimality < 1e-8


def test_trim_q_is_zero(nominal_trim):
    assert nominal_trim.x_trim.q == 0.0


def test_residual_definition(params, tables, nominal_trim):
    z = np.array([nominal_trim.x_trim.theta, nominal_trim.u_trim.T,
                  nominal_trim.u_trim.delta_e])
    r = _residual(z, nominal_trim.x_trim.V, nominal_trim.x_trim.alpha, params, tables)
    assert np.linalg.norm(r) == pytest.approx(nominal_trim.residual, rel=1e-12)


def test_residual_not_worse_than_initial_guess(params, tables):
    V, alpha = 600.0, 10.0 * DEG
    z0 = np.array([alpha, 5000.0, 0.0])
    r0 = float(np.linalg.norm(_residual(z0, V, alpha, params, tables)))
    tp = find_trim(V, alpha, params, tables)
    assert tp.residual <= r0 * (1 + 1e-12)


def test_bound_feasibility(grid_trims):
    for tp in grid_trims:
        u = tp.u_trim.as_array()
        assert np.array_equal(saturate_array(u), u)


def test_determinism(params, tables):
    a = find_trim(300.0, 5.0 * DEG, params, tables)
    b = find_trim(300.0, 5.0 * DEG, params, tables)
    assert a == b


def test_invalid_condition_rejected(params, tables):
    with pytest.raises(ValueError):
        find_trim(-10.0, 0.0, params, tables)
    with pytest.raises(ValueError):
        find_trim(float("nan"), 0.0, params, tables)


def test_overflowing_residual_is_not_converged(params, tables):
    # at V = 1e-300 the residual's square overflows: its norm is inf, and a
    # relative stationarity test against an infinite norm passes vacuously
    tp = find_trim(1e-300, 0.0, params, tables)
    assert tp.residual == float("inf")
    assert not tp.converged


def test_trim_without_equilibrium_ends_stationary(params, tables):
    # at 1.5 ft/s no equilibrium exists; the solve ends at a constrained
    # stationary point that the converged flag accepts
    tp = find_trim(1.5, 0.0, params, tables)
    assert tp.converged
    assert np.isfinite(tp.residual) and tp.residual > trim_module._RTOL


def test_default_grid_is_100_nodes():
    grid = default_grid()
    assert len(grid) == 100
    vs = sorted({v for v, _ in grid})
    als = sorted({a for _, a in grid})
    assert vs[0] == 100.0 and vs[-1] == 1000.0
    assert als[0] == pytest.approx(-10 * DEG) and als[-1] == pytest.approx(45 * DEG)


def test_grid_order_preserved_and_full(grid_trims):
    grid = default_grid()
    assert len(grid_trims) == 100
    for (V, alpha), tp in zip(grid, grid_trims):
        assert tp.x_trim.V == V
        assert tp.x_trim.alpha == alpha


def test_all_grid_nodes_converged(grid_trims):
    # every node reaches a constrained stationary point; with the attitude
    # bound in force, much of this envelope has no exact equilibrium and
    # the leftover residuals span several orders of magnitude
    assert all(tp.converged for tp in grid_trims)
    res = np.array([tp.residual for tp in grid_trims])
    assert np.all(np.isfinite(res))
    assert res.min() < 1e-2
    assert res.max() > 0.1
    assert res.max() < 10.0


def _z(tp):
    return np.array([tp.x_trim.theta, tp.u_trim.T, tp.u_trim.delta_e])


def _assert_on_trf_points(points, params, tables):
    """scipy's TRF with restarts (oracles.trf_trim) as the oracle of each
    node: the same converged flag, the same point to 1e-6 per component in
    _X_SCALE units, and a residual no larger (the same stationary point,
    reached by other arithmetic) or an equilibrium."""
    for tp in points:
        ref = trf_trim(tp.x_trim.V, tp.x_trim.alpha, params, tables)
        node = (tp.x_trim.V, tp.x_trim.alpha / DEG)
        assert tp.converged == ref.converged, node
        assert np.all(np.abs(_z(tp) - _z(ref)) / trim_module._X_SCALE <= 1e-6), node
        assert (tp.residual <= ref.residual * (1 + 1e-12)
                or tp.residual < trim_module._RTOL), node


def test_grid_lands_on_the_find_trim_points(params, tables, grid_trims, nominal_trim):
    _assert_on_trf_points(grid_trims + [nominal_trim], params, tables)


@pytest.mark.parametrize("plant", [{"m": 636.94 * 1.15}, {"h": 20000.0}])
def test_grid_lands_on_the_find_trim_points_of_a_perturbed_plant(tables, plant):
    params = AircraftParams(**plant)
    points = trim_grid(default_grid(), params, tables) + [find_trim(*NOMINAL, params, tables)]
    _assert_on_trf_points(points, params, tables)


# Lattice nodes 0 (theta at +30 deg), 10 (T at its floor), 27 and 44 (no
# bound active), 85 (800 ft/s, 20.6 deg) and 99 (theta and T at bounds).
BATCH_NODES = [0, 10, 27, 44, 85, 99]


def test_grid_node_does_not_depend_on_its_batch(params, tables, grid_trims):
    grid = default_grid()
    at_bound = set()
    for i in BATCH_NODES:
        assert trim_grid([grid[i]], params, tables) == [grid_trims[i]], i
        at_bound.add(bool(np.any(trim_module._at_bounds(_z(grid_trims[i])))))
    assert at_bound == {True, False}


def test_overflowing_node_leaves_its_neighbour_alone(params, tables, nominal_trim):
    edge, tp = trim_grid([(1e-300, 0.0), NOMINAL], params, tables)
    assert edge.residual == float("inf")
    assert not edge.converged
    assert tp == nominal_trim
    assert tp.converged


def test_singular_polish_step_is_not_converged(params, tables, monkeypatch):
    monkeypatch.setattr(trim_module, "_solve3", lambda M, y: np.full_like(y, np.nan))
    points = trim_grid(default_grid()[:3], params, tables)
    assert not any(tp.converged for tp in points)


@pytest.mark.parametrize("plant", ["nominal", "forward_cg"])
def test_find_trim_is_the_one_node_grid(params, tables, grid_trims, forward_cg_params,
                                        forward_cg_grid_trims, plant):
    # `otrobust trim` and the fixed gain's trim are the schedule's at every
    # node, on the forward-c.g. plant's flat delta_e range too (node 99)
    if plant == "forward_cg":
        params, grid_trims = forward_cg_params, forward_cg_grid_trims
    grid = default_grid()
    for i in (0, 58, 99):
        assert find_trim(*grid[i], params, tables) == grid_trims[i], i


def test_empty_grid_rejected(params, tables):
    with pytest.raises(ValueError):
        trim_grid([], params, tables)


def test_corner_node_converges_or_flags(params, tables):
    tp = find_trim(100.0, 45.0 * DEG, params, tables)
    assert isinstance(tp.converged, bool)
    assert np.isfinite(tp.residual)


def test_trim_point_json_roundtrip(nominal_trim):
    again = TrimPoint.from_dict(nominal_trim.to_dict())
    assert again.x_trim.theta == pytest.approx(nominal_trim.x_trim.theta, rel=1e-15)
    assert again.u_trim.T == nominal_trim.u_trim.T
    assert again.converged == nominal_trim.converged


def _loop_jacobian(f, z):
    """Central differences one point, one column and one call of f at a
    time. For points z (n, 3), f takes the 6 n rows of a stacked call, row
    j at point j % n (as trim._stacked's f does): a value at point i is
    read from row i of a stack of the unperturbed points."""
    if z.ndim == 2:
        def at(i):
            def g(zi):
                rows = np.tile(z, (6, 1))
                rows[i] = zi
                return f(rows)[i]
            return g
        return np.array([_loop_jacobian(at(i), zi) for i, zi in enumerate(z)])
    J = np.empty((3, 3))
    for k in range(3):
        h = 1e-6 * max(1.0, abs(z[k]))
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        J[:, k] = (f(zp) - f(zm)) / (2.0 * h)
    return J


def test_residual_broadcasts_over_leading_axes(params, tables, rng):
    V, alpha = 500.0, 4.0 * DEG
    Z = np.array([0.1, 3000.0, -0.05]) + rng.uniform(-0.05, 0.05, (2, 3, 3))
    R = _residual(Z, V, alpha, params, tables)
    assert R.shape == (2, 3, 3)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(R[idx], _residual(Z[idx], V, alpha, params, tables))


@pytest.mark.parametrize("node", ["nominal", 0, 99])
def test_stacked_jacobian_matches_column_loop(params, tables, nominal_trim,
                                              grid_trims, node):
    # Nodes 0 and 99 are the lattice corners (100 ft/s, -10 deg) and
    # (1000 ft/s, 45 deg).
    tp = nominal_trim if node == "nominal" else grid_trims[node]
    V, alpha = tp.x_trim.V, tp.x_trim.alpha
    z0 = np.array([tp.x_trim.theta, tp.u_trim.T, tp.u_trim.delta_e])
    def residual(z):
        return _residual(z, V, alpha, params, tables)

    for z in (z0, np.clip(np.array([alpha, 5000.0, 0.0]), trim_module._LOWER,
                          trim_module._UPPER)):
        J = central_difference(residual, z)
        assert np.array_equal(J, _loop_jacobian(residual, z))
        assert J.flags.c_contiguous


@pytest.mark.parametrize("field", ["trim residual", "plant"])
def test_jacobians_at_points_match_single_point_calls(params, tables, nominal_trim, rng, field):
    # (n, m, k) for n points holds the n single-point Jacobians bit for bit,
    # square (the trim residual, against the column loop) or not (the plant
    # over stacked (x, u))
    if field == "trim residual":
        def f(z):
            return _residual(z, 500.0, 4.0 * DEG, params, tables)
        z0 = np.array([0.1, 3000.0, -0.05])
    else:
        def f(xu):
            return dynamics(xu[..., :4], xu[..., 4:], params, tables)
        z0 = np.concatenate([nominal_trim.x_trim.as_array(), nominal_trim.u_trim.as_array()])
    Z = z0 * rng.uniform(0.95, 1.05, (5, z0.size))
    J = central_difference(f, Z)
    assert J.shape == (5, 4 if field == "plant" else 3, z0.size)
    for z, Jz in zip(Z, J):
        single = central_difference(f, z)
        assert single.flags.c_contiguous
        assert np.array_equal(Jz, single)
        if field == "trim residual":
            assert np.array_equal(single, _loop_jacobian(f, z))


def test_find_trim_independent_of_jacobian_evaluation(params, tables, nominal_trim,
                                                      grid_trims, monkeypatch):
    # The stacked and the looped Jacobian hold the same numbers; neither
    # the TRF phase nor the polish may see a difference in their memory
    # layout either.
    monkeypatch.setattr(trim_module, "central_difference", _loop_jacobian)
    assert find_trim(*NOMINAL, params, tables) == nominal_trim
    assert trim_grid(default_grid()[:3], params, tables) == grid_trims[:3]


@pytest.mark.parametrize("node", ["nominal", 0, 37, 99])
def test_reported_residual_and_optimality_are_those_at_the_trim(params, tables, nominal_trim,
                                                                 grid_trims, node):
    # The polish judges each trim once, in fixed-order sums; the record
    # reports that judgement bitwise: a fresh residual and Jacobian at the
    # returned point, through the polish's own helpers.
    tp = nominal_trim if node == "nominal" else grid_trims[node]
    V, alpha = tp.x_trim.V, tp.x_trim.alpha
    z = np.array([tp.x_trim.theta, tp.u_trim.T, tp.u_trim.delta_e])
    r = _residual(z, V, alpha, params, tables)
    J = central_difference(lambda zs: _residual(zs, V, alpha, params, tables), z)
    assert tp.residual == float(np.sqrt(trim_module._dot3(r, r)))
    assert tp.optimality == float(trim_module._optimality(z[None], r[None], J[None])[0])
    assert tp.converged == trim_module._converged(tp.residual, tp.optimality)
