"""Empirical distance estimators between sampler output and analytic laws.

Exact high-dimensional total variation is intractable, so the primary
surrogate is sliced: project onto random unit directions and take the
Kolmogorov sup-distance between the empirical CDF of the projections and
the analytic projected CDF.  Each 1-D distance lower-bounds the total
variation of the projected pair, so the surrogate can only under-report.

The secondary metric fits a Gaussian to the batch by moment matching and
takes the closed-form divergence against the (moment-matched) analytic
law.
"""

from __future__ import annotations

import numpy as np

from . import targets
from .analytic import gaussian_kl
from .errors import InvalidParams
from .targets import GaussianMixture

_MIN_SAMPLES = 1000


def random_directions(d: int, n_dirs: int, stream: np.random.Generator) -> np.ndarray:
    """Uniform unit vectors via normalized Gaussian draws."""
    raw = stream.standard_normal((n_dirs, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def sliced_tv(y: np.ndarray, law: GaussianMixture, n_dirs: int = 32,
              stream: np.random.Generator | None = None,
              directions: np.ndarray | None = None) -> float:
    """Mean 1-D Kolmogorov distance over random projections of a batch y (n, d).

    For each direction u, computes the sup over sorted sample points of the
    gap between the empirical CDF of u'Y and the analytic projected CDF.
    """
    n = y.shape[0]
    if n < _MIN_SAMPLES:
        raise InvalidParams(f"sliced distance needs >= {_MIN_SAMPLES} samples, got {n}")
    if directions is None:
        if stream is None:
            raise InvalidParams("provide either a stream or explicit directions")
        directions = random_directions(y.shape[1], n_dirs, stream)
    grid_lo = np.arange(n) / n
    grid_hi = np.arange(1, n + 1) / n
    distances = []
    for u in directions:
        cdf = targets.projected_cdf(law, u, np.sort(y @ u))
        distances.append(float(np.max(np.maximum(cdf - grid_lo, grid_hi - cdf))))
    return float(np.mean(distances))


def fit_gaussian(y: np.ndarray) -> GaussianMixture:
    """Moment-matched Gaussian of a batch y (n, d): sample mean, sample covariance."""
    n, d = y.shape
    if n <= d + 1:
        raise InvalidParams(f"need more than d + 1 = {d + 1} samples, got {n}")
    mean = y.mean(axis=0)
    cov = np.cov(y, rowvar=False, ddof=1).reshape(d, d)
    return targets.gaussian_target(mean, 0.5 * (cov + cov.T))


def moment_kl(y: np.ndarray, law: GaussianMixture) -> float:
    """Divergence from the analytic law to the fitted Gaussian of a batch y (n, d).

    For a Gaussian law this is exact up to the moment estimation error;
    a mixture law enters by its overall mean and covariance.
    """
    return gaussian_kl(law, fit_gaussian(y))
