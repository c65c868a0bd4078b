"""Scattered sampling of initial joint densities.

Uniform box densities are sampled with deterministic Halton sequences;
general densities with seeded random-walk Metropolis. Samples are then
tagged with their initial density value and a uniform transport mass
1/n, which together form the point cloud the propagation engine carries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

DEFAULT_HALTON_SKIP = 20
# Metropolis steps that adapt the proposal scale before any sample is kept.
_BURN_IN = 1000


class DegenerateProposalError(RuntimeError):
    """Metropolis chain acceptance collapsed below 1% after adaptation."""


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box with per-dimension bounds (inclusive)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower/upper must be 1-D of equal length")
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper in every dimension")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def volume(self) -> float:
        return float(np.prod(self.widths))

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lower) & (x <= self.upper), axis=-1)


@dataclass(frozen=True, eq=False)
class InitialPdf:
    """Initial joint density over the (extended) state space.

    density evaluates pointwise (batched over leading axes) and must return
    0 off support, the box the Metropolis chain starts in and scales its
    proposal to.
    """

    density: Callable[[np.ndarray], np.ndarray]
    support: BoxDomain

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.density(np.asarray(x, dtype=float)))

    @classmethod
    def uniform_box(cls, box: BoxDomain) -> "InitialPdf":
        """Uniform density 1/volume on the box, zero outside."""
        inv_vol = 1.0 / box.volume()

        def density(x: np.ndarray) -> np.ndarray:
            return np.where(box.contains(x), inv_vol, 0.0)

        return cls(density=density, support=box)


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of integer indices in the given base."""
    out = np.zeros(indices.shape, dtype=float)
    f = 1.0
    i = indices.astype(np.int64).copy()
    while np.any(i > 0):
        f /= base
        out += f * (i % base)
        i //= base
    return out


def halton(n: int, box: BoxDomain, skip: int = DEFAULT_HALTON_SKIP) -> np.ndarray:
    """First n Halton points after `skip`, mapped affinely into the box.

    Dimension d uses the first d primes as bases; the sequence starts at
    index 1 (0.5, 0.25, 0.75, ... in base 2), so skip drops the correlated
    low-index prefix. Deterministic for fixed (n, d, skip).
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    if skip < 0:
        raise ValueError("skip must be nonnegative")
    d = box.dim
    if d > len(_PRIMES):
        raise ValueError(f"dimension {d} exceeds supported maximum {len(_PRIMES)}")
    idx = np.arange(skip + 1, skip + n + 1)
    unit = np.stack([_radical_inverse(idx, _PRIMES[k]) for k in range(d)], axis=-1)
    return box.lower + unit * box.widths


def mcmc_sample(pdf: InitialPdf, n: int, seed: int) -> np.ndarray:
    """Random-walk Metropolis samples from pdf, seeded and reproducible.

    The chain starts at the centre of pdf.support. The proposal is an
    isotropic-per-axis Gaussian initialised at 10% of each support
    dimension, with log-scale adaptation toward 30% acceptance during the
    _BURN_IN burn-in steps only. Raises DegenerateProposalError if
    fewer than 1% of post-adaptation proposals are accepted.
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    box = pdf.support
    scale = 0.1 * box.widths
    x = 0.5 * (box.lower + box.upper)

    rng = np.random.default_rng(seed)
    fx = float(pdf(x))
    if fx <= 0:
        raise ValueError("chain must start inside the support")

    accepted = 0
    window = 0
    for step in range(_BURN_IN):
        cand = x + scale * rng.standard_normal(x.size)
        fc = float(pdf(cand))
        if fc > 0 and rng.uniform() < fc / fx:
            x, fx = cand, fc
            window += 1
        if (step + 1) % 100 == 0:
            rate = window / 100.0
            scale *= math.exp(rate - 0.30)
            window = 0

    out = np.empty((n, x.size))
    for k in range(n):
        cand = x + scale * rng.standard_normal(x.size)
        fc = float(pdf(cand))
        if fc > 0 and rng.uniform() < fc / fx:
            x, fx = cand, fc
            accepted += 1
        out[k] = x
    if accepted < 0.01 * n:
        raise DegenerateProposalError(
            f"acceptance rate {accepted / n:.4f} below 1% after adaptation")
    return out


def weighted_cloud(samples: np.ndarray, pdf: InitialPdf):
    """Attach initial density values and uniform transport masses.

    Samples with zero density (off support) are rejected with a warning;
    the remaining n samples carry gamma = 1/n each, so the masses sum to
    one exactly under compensated summation.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    phi = np.asarray(pdf(samples), dtype=float)
    keep = phi > 0.0
    n_bad = int(np.count_nonzero(~keep))
    if n_bad:
        warnings.warn(f"rejected {n_bad} off-support sample(s) with zero density",
                      stacklevel=2)
        samples, phi = samples[keep], phi[keep]
    if samples.shape[0] == 0:
        raise ValueError("no samples left inside the support")
    gamma = np.full(samples.shape[0], 1.0 / samples.shape[0])
    return samples, phi, gamma
