import numpy as np
import pytest

from otrobust.f16 import DEG, central_difference, dynamics, saturate_array
from otrobust import trim as trim_module
from otrobust.trim import TrimPoint, default_grid, find_trim, trim_grid, _residual


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


def test_stationary_trim_stops_restarting(params, tables):
    # at 1.5 ft/s no equilibrium exists; the first solve already ends at a
    # point the converged flag accepts, so no restart follows it
    tp = find_trim(1.5, 0.0, params, tables)
    assert tp.converged
    assert tp.iterations == 600


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


def test_singleton_batch_matches_find_trim(params, tables):
    node = (407.8942, 6.1650 * DEG)
    batch = trim_grid([node], params, tables)
    single = find_trim(*node, params, tables)
    assert batch == [single]


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
    """Central differences one column and one call of f at a time."""
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


def test_find_trim_independent_of_jacobian_evaluation(params, tables, monkeypatch):
    # The stacked and the looped Jacobian hold the same numbers; the solve
    # must not see a difference in their memory layout either.
    V, alpha = 100.0, -10.0 * DEG
    stacked = find_trim(V, alpha, params, tables)
    monkeypatch.setattr(trim_module, "central_difference", _loop_jacobian)
    assert find_trim(V, alpha, params, tables) == stacked


@pytest.mark.parametrize("node", ["nominal", 0, 37, 99])
def test_reported_residual_and_optimality_are_those_at_the_trim(params, tables, nominal_trim,
                                                                 grid_trims, node):
    # find_trim reads them from the solver's last evaluations; they must be
    # bitwise what a fresh residual and Jacobian at the returned point give.
    tp = nominal_trim if node == "nominal" else grid_trims[node]
    V, alpha = tp.x_trim.V, tp.x_trim.alpha
    z = np.array([tp.x_trim.theta, tp.u_trim.T, tp.u_trim.delta_e])
    r = _residual(z, V, alpha, params, tables)
    g = central_difference(lambda zs: _residual(zs, V, alpha, params, tables), z).T @ r
    assert tp.residual == float(np.linalg.norm(r))
    assert tp.optimality == float(np.max(np.abs(trim_module._projected_gradient(z, g))))
