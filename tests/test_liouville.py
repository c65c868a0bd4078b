import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import cubic_decay_moments, query_density
from otrobust.harness import _W_dirac_series, _extremes_records
from otrobust.liouville import (
    EnsembleSnapshot,
    _density_multiplier,
    divergence,
    propagate,
    resolve_workers,
)
from otrobust.sampling import BoxDomain, halton, weighted_cloud


class LinearField:
    """Picklable linear vector field x' = M x (worker-pool tests)."""

    def __init__(self, M):
        self.M = np.asarray(M)

    def __call__(self, t, x, p):
        return x @ self.M.T


def linear_rhs(M):
    return LinearField(M)


def uniform_density(box):
    """The uniform density on box as a function, zero off the box."""
    return lambda x: np.where(box.contains(x), 1.0 / box.volume(), 0.0)


@pytest.fixture()
def stable_M(rng):
    M = rng.standard_normal((4, 4))
    return M - (np.max(np.linalg.eigvals(M).real) + 1.5) * np.eye(4)


def make_cloud(rng, n=12, d=4, phi0=2.0):
    X0 = rng.standard_normal((n, d))
    return EnsembleSnapshot.from_cloud(X0, np.full(n, phi0), np.full(n, 1.0 / n))


def test_divergence_linear_field(stable_M, rng):
    rhs = linear_rhs(stable_M)
    x = rng.standard_normal(4)
    assert divergence(rhs, x, None, 0.0) == pytest.approx(np.trace(stable_M), rel=1e-7)


def test_divergence_contracting_pair():
    rhs = lambda t, x, p: -x
    assert divergence(rhs, np.zeros((3, 2)), None, 0.0) == pytest.approx([-2.0] * 3)


def test_divergence_free_field():
    def rhs(t, x, p):
        return np.stack([x[..., 1], np.sin(x[..., 0])], axis=-1)
    assert divergence(rhs, np.array([0.3, -0.7]), None, 0.0) == pytest.approx(0.0, abs=1e-8)


def test_density_growth_1d_contraction():
    # d(phi)/dt = +phi along x' = -x: phi(t) = c e^t
    rhs = lambda t, x, p: -x
    cloud = EnsembleSnapshot.from_cloud(np.array([[1.0], [0.5]]),
                                        np.array([3.0, 3.0]), np.array([0.5, 0.5]))
    snaps = propagate(cloud, rhs, 1.0, 1e-3, emit_every=10 ** 9)
    assert snaps[-1].phi == pytest.approx(3.0 * math.e, rel=1e-9)


def test_density_multiplier_is_within_two_ulp_of_the_exact_polynomial(rng):
    # 1 - z + z^2/2 - z^3/6 + z^4/24 in exact rational arithmetic at each
    # double z; both the pow and the product forms reach 1.88 ulp on these draws
    mag = np.geomspace(1e-12, 0.5, 1000)
    z = np.concatenate([mag, -mag, rng.uniform(-0.5, 0.5, 2000)])
    got = _density_multiplier(z)
    worst = 0.0
    for zi, gi in zip(z.tolist(), got.tolist()):
        q = Fraction(zi)
        exact = 1 - q + q ** 2 / 2 - q ** 3 / 6 + q ** 4 / 24
        worst = max(worst, float(abs(Fraction(gi) - exact)) / math.ulp(float(exact)))
    assert worst <= 2.0


def test_density_multiplier_is_positive_and_degenerates_as_the_textbook_form():
    assert np.all(_density_multiplier(np.linspace(-50.0, 50.0, 200_001)) > 0.0)
    # the density-only freeze of _propagate_arrays keys on these inf/NaN values
    z = np.array([1e80, -1e80, 1e100, -1e100, 1e160, -1e160, np.inf, -np.inf, np.nan])
    with np.errstate(over="ignore", invalid="ignore"):
        got = _density_multiplier(z)
        textbook = 1.0 - z + z * z / 2.0 - z ** 3 / 6.0 + z ** 4 / 24.0
    assert np.array_equal(got, textbook, equal_nan=True)
    assert np.array_equal(got, [np.inf] * 4 + [np.nan, np.inf, np.nan, np.inf, np.nan],
                          equal_nan=True)


def test_density_matches_trace_oracle(stable_M, rng):
    rhs = linear_rhs(stable_M)
    cloud = make_cloud(rng)
    exact = 2.0 * math.exp(-np.trace(stable_M))
    snaps = propagate(cloud, rhs, 1.0, 1e-3, emit_every=10 ** 9)
    assert np.max(np.abs(snaps[-1].phi - exact)) / exact < 1e-6


def test_density_error_shrinks_with_dt(stable_M, rng):
    rhs = linear_rhs(stable_M)
    cloud = make_cloud(rng)
    exact = 2.0 * math.exp(-np.trace(stable_M))
    errs = []
    for dt in (1e-3, 5e-4):
        snaps = propagate(cloud, rhs, 1.0, dt, emit_every=10 ** 9)
        errs.append(np.max(np.abs(snaps[-1].phi - exact)) / exact)
    assert errs[0] / errs[1] >= 8.0


def test_strict_rk4_mode_agrees_on_linear_plant(stable_M, rng):
    rhs = linear_rhs(stable_M)
    cloud = make_cloud(rng)
    a = propagate(cloud, rhs, 0.5, 1e-3, emit_every=10 ** 9, strict_rk4=False)
    b = propagate(cloud, rhs, 0.5, 1e-3, emit_every=10 ** 9, strict_rk4=True)
    # identical divergences along the way: same density up to roundoff
    assert np.allclose(a[-1].phi, b[-1].phi, rtol=1e-9)
    assert np.array_equal(a[-1].states, b[-1].states)


def test_rotation_keeps_density_constant():
    def rhs(t, x, p):
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)
    cloud = EnsembleSnapshot.from_cloud(np.array([[1.0, 0.0], [0.0, 2.0]]),
                                        np.array([5.0, 7.0]), np.array([0.5, 0.5]))
    snaps = propagate(cloud, rhs, 2.0, 1e-3, emit_every=10 ** 9)
    assert snaps[-1].phi == pytest.approx([5.0, 7.0], rel=1e-10)


def test_masses_conserved_and_emit_schedule(stable_M, rng):
    rhs = linear_rhs(stable_M)
    cloud = make_cloud(rng)
    snaps = propagate(cloud, rhs, 1.0, 0.01, emit_every=25)
    times = [s.t for s in snaps]
    assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
    assert len(times) == 5
    for s in snaps:
        assert np.array_equal(s.gamma, cloud.gamma)
        assert math.fsum(s.gamma.tolist()) == 1.0


def test_a_long_horizon_allocates_no_emit_schedule_up_front():
    # 10^8 steps: a precomputed set of emit steps would take about 70 MB
    # before the field is first called
    class FirstCall(Exception):
        pass

    def rhs(t, x, p):
        raise FirstCall

    cloud = EnsembleSnapshot.from_cloud(np.zeros((1, 2)), [1.0], [1.0])
    tracemalloc.start()
    try:
        with pytest.raises(FirstCall):
            propagate(cloud, rhs, 1e6, 0.01, emit_every=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_sample_permutation_equivariance(stable_M, rng):
    rhs = linear_rhs(stable_M)
    X0 = rng.standard_normal((9, 4))
    phi0 = rng.uniform(1.0, 3.0, 9)
    perm = rng.permutation(9)
    a = propagate(EnsembleSnapshot.from_cloud(X0, phi0, np.full(9, 1 / 9)),
                  rhs, 0.5, 0.01, emit_every=10 ** 9)[-1]
    b = propagate(EnsembleSnapshot.from_cloud(X0[perm], phi0[perm], np.full(9, 1 / 9)),
                  rhs, 0.5, 0.01, emit_every=10 ** 9)[-1]
    assert np.array_equal(a.states[perm], b.states)
    assert np.array_equal(a.phi[perm], b.phi)


def test_diverged_samples_frozen_and_retained():
    # x' = x^2 blows up at t = 1/x0; the hot sample freezes, others continue
    def rhs(t, x, p):
        return x * x
    cloud = EnsembleSnapshot.from_cloud(np.array([[10.0], [0.1]]),
                                        np.array([1.0, 1.0]), np.array([0.5, 0.5]))
    snaps = propagate(cloud, rhs, 0.5, 0.01, emit_every=10 ** 9)
    final = snaps[-1]
    assert final.n == 2
    assert final.diverged[0] and not final.diverged[1]
    assert np.isfinite(final.states[0, 0])  # frozen at last finite value
    assert final.states[1, 0] == pytest.approx(0.1 / (1 - 0.5 * 0.1), rel=1e-6)
    assert math.fsum(final.gamma.tolist()) == 1.0


def test_worker_pool_matches_single_process(stable_M, rng, monkeypatch):
    rhs = linear_rhs(stable_M)
    cloud = make_cloud(rng, n=16)
    ref = propagate(cloud, rhs, 0.3, 0.01, emit_every=10, workers=1)
    par = propagate(cloud, rhs, 0.3, 0.01, emit_every=10, workers=3)
    for sa, sb in zip(ref, par):
        assert np.array_equal(sa.states, sb.states)
        assert np.array_equal(sa.phi, sb.phi)


def test_workers_env_cap(monkeypatch):
    monkeypatch.setenv("OTROBUST_WORKERS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(8) == 2
    monkeypatch.delenv("OTROBUST_WORKERS")
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4


@pytest.mark.parametrize("value", ["0", "-3"])
def test_workers_env_cap_below_one_is_rejected(monkeypatch, value):
    monkeypatch.setenv("OTROBUST_WORKERS", value)
    for workers in (None, 4):
        with pytest.raises(ValueError, match=f"OTROBUST_WORKERS must be at least 1, got '{value}'"):
            resolve_workers(workers)


def test_query_density_at_time_zero():
    box = BoxDomain(-np.ones(2), np.ones(2))
    pdf = uniform_density(box)
    rhs = lambda t, x, p: -x
    assert query_density(np.array([0.2, 0.2]), 0.0, rhs, pdf, 0.01) == pytest.approx(0.25)


def test_query_density_matches_propagated_sample(stable_M, rng):
    box = BoxDomain(-2 * np.ones(4), 2 * np.ones(4))
    pdf = uniform_density(box)
    rhs = linear_rhs(stable_M)
    x0 = np.array([0.5, -0.3, 0.8, -1.0])
    cloud = EnsembleSnapshot.from_cloud(x0[None, :], [float(pdf(x0))], [1.0])
    snaps = propagate(cloud, rhs, 1.0, 1e-3, emit_every=10 ** 9)
    phi_query = query_density(snaps[-1].states[0], 1.0, rhs, pdf, 1e-3)
    assert phi_query == pytest.approx(snaps[-1].phi[0], rel=1e-9)


def test_query_density_outside_support_is_zero(stable_M):
    box = BoxDomain(-np.ones(4), np.ones(4))
    pdf = uniform_density(box)
    rhs = linear_rhs(stable_M)
    # far away: back-propagates outside the box
    assert query_density(np.array([50.0, 0, 0, 0]), 1.0, rhs, pdf, 1e-3) == 0.0


def test_density_and_mass_weightings_agree_on_a_linear_field(stable_M):
    # A linear field has one divergence everywhere, so a uniform box stays
    # uniform: the density weights equal the transport masses, and W (an
    # estimate of W(rho_t^2 / Z, delta)) equals W_mass (W(rho_t, delta)).
    box = BoxDomain(-np.ones(4), np.ones(4))
    cloud = EnsembleSnapshot.from_cloud(*weighted_cloud(halton(200, box), box))
    snaps = propagate(cloud, linear_rhs(stable_M), 5.0, 0.01, emit_every=50)
    assert len(snaps) == 11
    W = _W_dirac_series(snaps, np.zeros(4), "density")
    W_mass = _W_dirac_series(snaps, np.zeros(4), "mass")
    assert W == pytest.approx(W_mass, rel=1e-11, abs=0.0)


def test_each_weighting_estimates_its_own_distribution_on_a_nonlinear_field():
    # On x' = -x - x^3 the divergence -1 - 3x^2 varies over the cloud, so the
    # two weightings part: W_mass^2 estimates E_rho_t[x^2], the squared W of
    # rho_t to the Dirac at 0, and W^2 estimates the same moment of the
    # tilted density rho_t^2 / Z. The exact targets are 30 % apart.
    box = BoxDomain(np.array([0.2]), np.array([3.0]))
    cloud = EnsembleSnapshot.from_cloud(*weighted_cloud(halton(200, box), box))
    snaps = propagate(cloud, lambda t, x, p: -x - x ** 3, 1.0, 0.01, emit_every=100)
    assert [s.t for s in snaps] == [0.0, 1.0]
    W_mass = _W_dirac_series(snaps[-1:], np.zeros(1), "mass")[0]
    W = _W_dirac_series(snaps[-1:], np.zeros(1), "density")[0]
    mass_target, tilted_target = cubic_decay_moments(1.0, 0.2, 3.0)
    assert W_mass ** 2 == pytest.approx(mass_target, rel=5e-3)
    assert W ** 2 == pytest.approx(tilted_target, rel=5e-3)
    assert abs(W_mass ** 2 / tilted_target - 1.0) >= 0.2
    assert abs(W ** 2 / mass_target - 1.0) >= 0.2


def test_likelihood_extremes_tiebreak():
    snaps = [EnsembleSnapshot.from_cloud(np.zeros((4, 2)), np.full(4, 0.3),
                                         np.full(4, 0.25), t=float(k))
             for k in range(3)]
    for rec in _extremes_records(snaps):
        hi, lo = rec["most_likely"], rec["least_likely"]
        assert hi == 0 and lo == 0  # exact ties break to the lowest index


def test_likelihood_extreme_value_growth(stable_M, rng):
    rhs = linear_rhs(stable_M)
    cloud = make_cloud(rng, n=5, phi0=1.0)
    snaps = propagate(cloud, rhs, 0.5, 1e-3, emit_every=250)
    ext = _extremes_records(snaps)
    assert len(ext) == len(snaps)
    # constant divergence: every sample (hence the max) shares the factor
    # e^{-trace t}, so the argmax value grows by exactly that ratio
    hi0 = ext[0]["most_likely"]
    growth = snaps[-1].phi[hi0] / snaps[0].phi[hi0]
    assert growth == pytest.approx(math.exp(-np.trace(stable_M) * 0.5), rel=1e-6)


def test_likelihood_extremes_single_sample():
    snap = EnsembleSnapshot.from_cloud(np.zeros((1, 2)), [0.7], [1.0])
    assert _extremes_records([snap]) == [{"t": 0.0, "most_likely": 0, "least_likely": 0}]


def test_snapshot_mass_validation():
    with pytest.raises(ValueError):
        EnsembleSnapshot.from_cloud(np.zeros((2, 2)), [1.0, 1.0], [0.3, 0.3])


def test_worker_pool_keeps_preflagged_samples_frozen(stable_M, rng, monkeypatch):
    monkeypatch.delenv("OTROBUST_WORKERS", raising=False)
    rhs = linear_rhs(stable_M)
    X0 = rng.standard_normal((6, 4))
    flags = np.zeros(6, dtype=bool)
    flags[[1, 4]] = True
    cloud = EnsembleSnapshot(t=0.0, states=X0, params=None, phi=np.full(6, 2.0),
                             gamma=np.full(6, 1 / 6), diverged=flags)
    ref = propagate(cloud, rhs, 0.05, 0.01, workers=1)
    par = propagate(cloud, rhs, 0.05, 0.01, workers=2)
    for sa, sb in zip(ref, par):
        assert np.array_equal(sa.states, sb.states)
        assert np.array_equal(sa.phi, sb.phi)
        assert np.array_equal(sa.diverged, sb.diverged)
    assert np.array_equal(par[-1].states[flags], X0[flags])
    assert np.all(par[-1].diverged[flags])


def test_query_density_below_half_step(stable_M):
    box = BoxDomain(-2 * np.ones(4), 2 * np.ones(4))
    pdf = uniform_density(box)
    rhs = linear_rhs(stable_M)
    x = np.array([0.1, -0.2, 0.3, 0.05])
    # t < dt/2 rounds to zero steps; one step of length t is taken instead
    phi = query_density(x, 0.004, rhs, pdf, 0.01)
    assert phi == query_density(x, 0.004, rhs, pdf, 0.004)
    # the one-step density factor is the degree-4 Taylor factor of exp(-div t)
    assert phi == pytest.approx(float(pdf(x)) * math.exp(-np.trace(stable_M) * 0.004),
                                rel=1e-6)
