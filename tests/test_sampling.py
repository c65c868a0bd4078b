import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otrobust.sampling import BoxDomain, halton, mcmc_sample, weighted_cloud


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain([0.0, 1.0], [1.0, 1.0])
    box = BoxDomain([-1.0, 0.0], [1.0, 2.0])
    assert box.dim == 2
    assert box.volume() == pytest.approx(4.0)


@pytest.mark.parametrize("lower, upper, volume", [
    ([-1e300, -1e300], [1e300, 1e300], "inf"),             # the volume overflows
    ([0.0, 0.0, 0.0], [1e-14, 1e-300, 1e-14], "0.0"),      # it underflows to zero
    ([0.0, 0.0], [1e-160, 1e-160], "1e-320"),              # 1/volume overflows
])
def test_box_rejects_a_volume_that_is_not_finite_and_positive(lower, upper, volume):
    with pytest.raises(ValueError, match=f"box volume {volume} "):
        BoxDomain(lower, upper)


def test_halton_base2_prefix():
    box = BoxDomain([0.0], [1.0])
    pts = halton(4, box, skip=0)[:, 0]
    assert pts.tolist() == [0.5, 0.25, 0.75, 0.125]


def test_halton_first_2d_point():
    box = BoxDomain([0.0, 0.0], [1.0, 1.0])
    p = halton(1, box, skip=0)[0]
    assert p[0] == pytest.approx(0.5)
    assert p[1] == pytest.approx(1.0 / 3.0)


def test_halton_affine_map():
    box = BoxDomain([0.0], [10.0])
    assert halton(1, box, skip=0)[0, 0] == pytest.approx(5.0)


def test_halton_skip_drops_prefix():
    box = BoxDomain([0.0], [1.0])
    full = halton(10, box, skip=0)
    shifted = halton(7, box, skip=3)
    assert np.array_equal(full[3:], shifted)


def test_halton_deterministic():
    box = BoxDomain([-2.0, 0.0, 5.0], [3.0, 1.0, 6.0])
    assert np.array_equal(halton(50, box), halton(50, box))


def test_halton_dimension_limit():
    box = BoxDomain(np.zeros(17), np.ones(17))
    with pytest.raises(ValueError):
        halton(5, box)


@given(n=st.integers(1, 200))
@settings(max_examples=20, deadline=None)
def test_halton_stays_in_box(n):
    box = BoxDomain([-1.0, 2.0], [1.0, 4.0])
    pts = halton(n, box)
    assert np.all(pts >= box.lower) and np.all(pts <= box.upper)


def test_uniform_pdf_values():
    box = BoxDomain([0.0, 0.0], [2.0, 5.0])
    _, phi, _ = weighted_cloud(np.array([1.0, 1.0]), box)
    assert phi.tolist() == [pytest.approx(0.1)]
    assert not box.contains(np.array([3.0, 1.0]))


def test_mcmc_uniform_box_mean(rng):
    box = BoxDomain([0.0, -2.0], [4.0, 2.0])
    n = 4000
    samples = mcmc_sample(box, n, seed=7)
    center = 0.5 * (box.lower + box.upper)
    # CLT bound with 4 sigma margin; correlated chain inflates the spread,
    # so allow an effective-sample-size factor
    sigma = box.widths / math.sqrt(12.0)
    bound = 4.0 * sigma / math.sqrt(n / 20.0)
    assert np.all(np.abs(samples.mean(axis=0) - center) < bound)
    assert np.all(box.contains(samples))


def test_mcmc_deterministic():
    box = BoxDomain([0.0], [1.0])
    assert np.array_equal(mcmc_sample(box, 100, seed=11), mcmc_sample(box, 100, seed=11))


# The walk's first five states for seed 7, as the general Metropolis sampler
# drew them: a candidate outside the box repeats the state.
PINNED_WALK = [["0x1.9eac5db69e968p-3", "-0x1.f86111a6ba35fp+0"],
               ["0x1.9eac5db69e968p-3", "-0x1.f86111a6ba35fp+0"],
               ["0x1.4de2ea984563cp-5", "-0x1.18f5d634bf8e0p+0"],
               ["0x1.4de2ea984563cp-5", "-0x1.18f5d634bf8e0p+0"],
               ["0x1.4de2ea984563cp-5", "-0x1.18f5d634bf8e0p+0"]]


def test_mcmc_stream_is_pinned():
    walk = mcmc_sample(BoxDomain([0.0, -2.0], [4.0, 2.0]), 5, seed=7)
    assert walk.tolist() == [[float.fromhex(v) for v in row] for row in PINNED_WALK]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mcmc_small_clouds_stay_in_the_box(n):
    box = BoxDomain([-1.0, 0.0, 2.0], [1.0, 3.0, 2.5])
    for seed in range(10):
        assert np.all(box.contains(mcmc_sample(box, n, seed)))


def test_weighted_cloud_uniform_density():
    box = BoxDomain([0.0, 0.0], [2.0, 2.0])
    samples = halton(100, box)
    pts, phi, gamma = weighted_cloud(samples, box)
    assert np.all(phi == pytest.approx(0.25))
    assert math.fsum(gamma.tolist()) == 1.0


@pytest.mark.parametrize("n", [1, 2, 7, 200, 2000])
def test_mass_normalization_exact(n):
    box = BoxDomain([0.0], [1.0])
    _, _, gamma = weighted_cloud(halton(n, box), box)
    assert math.fsum(gamma.tolist()) == 1.0
