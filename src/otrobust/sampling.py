"""Scattered sampling of the uniform initial density on a box.

Every initial density is uniform on an axis-aligned box (the
initial-condition box, or the +/- delta percent parameter box). A cloud
is drawn with a deterministic Halton sequence or a seeded random walk
confined to the box; each sample is then tagged with the density value
1/volume and a uniform transport mass 1/n, which together form the point
cloud the propagation engine carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

DEFAULT_HALTON_SKIP = 20
# Random-walk steps that adapt the proposal scale before any sample is kept.
_BURN_IN = 1000


@dataclass(frozen=True, eq=False)
class BoxDomain:
    """Axis-aligned box with per-dimension bounds (inclusive), the support of
    a uniform density; its volume and that density 1/volume must be finite
    and positive."""

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
        with np.errstate(over="ignore", under="ignore"):
            vol = self.volume()
        if not 0.0 < vol < math.inf or 1.0 / vol == math.inf:
            raise ValueError(f"box volume {vol!r} must be finite and positive, "
                             "with a finite density 1/volume")

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


def mcmc_sample(box: BoxDomain, n: int, seed: int) -> np.ndarray:
    """n states of a seeded random walk on the box, reproducible per seed.

    This is random-walk Metropolis on the uniform density of the box: the
    Metropolis ratio is 1, so a candidate is accepted exactly when it lies
    in the box, and otherwise the chain repeats its state. It starts at the
    box centre. The per-axis Gaussian proposal starts at 10% of each box
    width and adapts its log scale toward 30% acceptance during the
    _BURN_IN burn-in steps only.
    """
    if n <= 0:
        raise ValueError("sample count must be positive")
    scale = 0.1 * box.widths
    x = 0.5 * (box.lower + box.upper)
    rng = np.random.default_rng(seed)
    out = np.empty((n, x.size))
    window = 0
    for k in range(_BURN_IN + n):
        cand = x + scale * rng.standard_normal(x.size)
        if box.contains(cand):
            rng.uniform()  # the acceptance draw, kept so every seed keeps its stream
            x = cand
            window += 1
        if k >= _BURN_IN:
            out[k - _BURN_IN] = x
        elif (k + 1) % 100 == 0:
            scale *= math.exp(window / 100.0 - 0.30)
            window = 0
    return out


def weighted_cloud(samples: np.ndarray, box: BoxDomain):
    """Attach the uniform density 1/box.volume() and transport masses 1/n.

    The samples are Halton points or random-walk states of the box, so
    every one lies inside it. Each carries gamma = 1/n, so the masses sum
    to one exactly under compensated summation.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    return samples, np.full(n, 1.0 / box.volume()), np.full(n, 1.0 / n)
