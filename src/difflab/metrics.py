"""Empirical distance estimators between sampler output and analytic laws.

Exact high-dimensional total variation is intractable, so the primary
surrogate is sliced: project onto random unit directions and take the
Kolmogorov sup-distance between the empirical CDF of the projections and
the analytic projected CDF.  Each 1-D distance lower-bounds the total
variation of the projected pair, so the surrogate can only under-report.

The sup is found by a bracketed scan: both CDFs rise, so the analytic CDF
at every eighth sorted point bounds every gap between them, and only the
blocks whose bound reaches the best gap seen are scanned in full.  The
result is the float of a scan at every point.

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
_STRIDE = 8  # anchors: every eighth sorted point, and the last
_MARGIN = 1e-9  # far above the rounding of a CDF value or a gap


def random_directions(d: int, n_dirs: int, stream: np.random.Generator) -> np.ndarray:
    """Uniform unit vectors via normalized Gaussian draws."""
    raw = stream.standard_normal((n_dirs, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def sliced_tv(y: np.ndarray, law: GaussianMixture, n_dirs: int = 32,
              stream: np.random.Generator | None = None,
              directions: np.ndarray | None = None) -> float:
    """Mean 1-D Kolmogorov distance over projections of a finite batch y (n, d),
    n >= 1000, onto ``directions`` (m, d) or ``n_dirs`` drawn from the stream;
    InvalidParams for any other input, before any sorting.

    Per direction, the distance is the max over sorted projections q_k of the
    gaps F(q_k) - k/n and (k+1)/n - F(q_k), F the analytic projected CDF.  F
    is evaluated at every eighth q_k and the last (the anchors).  For anchors
    i < j and any k between, F(q_i) <= F(q_k) <= F(q_j), so its gaps are at
    most max(F(q_j) - (i+1)/n, j/n - F(q_i)).  Only blocks whose bound reaches
    the best anchor gap less 1e-9, a margin far above the rounding of F and
    of a gap, are evaluated in full; the max, and so the mean, is the float
    of a full scan.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != law.d:
        raise InvalidParams(f"samples must be an (n, {law.d}) batch, got shape {y.shape}")
    n = len(y)
    if n < _MIN_SAMPLES:
        raise InvalidParams(f"sliced distance needs >= {_MIN_SAMPLES} samples, got {n}")
    if not np.isfinite(y).all():
        raise InvalidParams("sliced distance needs finite samples")
    if directions is None:
        if stream is None:
            raise InvalidParams("provide either a stream or explicit directions")
        directions = random_directions(law.d, n_dirs, stream)
    u = targets.unit_directions(directions, law.d)
    q = np.array([y @ v for v in u])  # one product per direction, as y @ u.T rounds otherwise
    q.sort(axis=1)
    lo = np.arange(n) / n  # the empirical CDF just below and at each sorted point
    hi = np.arange(1, n + 1) / n
    anchors = np.arange(0, n - 1 + _STRIDE, _STRIDE)
    anchors[-1] = n - 1
    cdf = targets.projected_cdf(law, u, q[:, anchors])
    best = np.maximum(cdf - lo[anchors], hi[anchors] - cdf).max(axis=1)
    bound = np.maximum(cdf[:, 1:] - hi[anchors[:-1]], lo[anchors[1:]] - cdf[:, :-1])
    # a block whose bound reaches the best gap less the margin may hold the sup;
    # each direction's k highest-bound blocks hold all of its such blocks
    k = max(1, int((bound >= best[:, None] - _MARGIN).sum(axis=1).max()))
    blocks = np.argpartition(bound, -k, axis=1)[:, -k:]
    inner = np.minimum(anchors[blocks][:, :, None] + np.arange(1, _STRIDE), n - 1)
    inner = inner.reshape(len(u), -1)  # inside each block; the last one padded with n - 1
    cdf = targets.projected_cdf(law, u, np.take_along_axis(q, inner, axis=1))
    gaps = np.maximum(cdf - lo[inner], hi[inner] - cdf).max(axis=1)
    return float(np.mean(np.maximum(best, gaps)))


def fit_gaussian(y: np.ndarray) -> GaussianMixture:
    """Moment-matched Gaussian of a batch y (n, d): sample mean, sample covariance.
    InvalidParams, naming the batch's sample moments, where they are not those
    of a Gaussian: overflowed, or a covariance that is not positive-definite."""
    n, d = y.shape
    if n <= d + 1:
        raise InvalidParams(f"need more than d + 1 = {d + 1} samples, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # the mixture refuses an overflow
        mean = y.mean(axis=0)
        cov = np.cov(y, rowvar=False, ddof=1).reshape(d, d)
        cov = 0.5 * (cov + cov.T)
    try:
        return targets.gaussian_target(mean, cov)
    except InvalidParams as exc:
        raise InvalidParams(f"no Gaussian fits the batch's sample mean and covariance: "
                            f"{exc}") from exc


def moment_kl(y: np.ndarray, law: GaussianMixture) -> float:
    """Divergence from the analytic law to the fitted Gaussian of a batch y (n, d).

    For a Gaussian law this is exact up to the moment estimation error;
    a mixture law enters by its overall mean and covariance.
    """
    return gaussian_kl(law, fit_gaussian(y))
