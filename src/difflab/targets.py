"""Gaussian-mixture targets, their noised marginals, densities, and scores.

A mixture target is the one family for which every noised marginal stays in
closed form: scaling the data by sqrt(abar_t) and adding (1 - abar_t) units
of isotropic noise maps component (w, mu, Sigma) to

    (w, sqrt(abar_t) * mu, abar_t * Sigma + (1 - abar_t) * I).

That gives exact log-densities, exact scores (the gradient of the log
density), and exact 1-D projected CDFs, which is what makes oracle-grade
verification of the samplers possible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky
from scipy.special import ndtr

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParams,
    TargetLoadFailed,
)
from .schedule import Schedule, _as_batch

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GaussianMixture:
    """Weights (K,), means (K, d) and covariances (K, d, d) of a Gaussian mixture.

    Weights must be positive and sum to 1 within 1e-12; every covariance
    must admit a Cholesky factorization.  Factors, precisions and
    log-coefficients are cached on construction so score evaluation is
    O(K * d^2) per point.
    """

    weights: np.ndarray   # (K,)
    means: np.ndarray     # (K, d)
    covariances: np.ndarray  # (K, d, d)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        c = np.asarray(self.covariances, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covariances", c)

        if m.ndim != 2 or w.shape != m.shape[:1] or c.shape != m.shape + m.shape[1:]:
            raise InvalidParams(
                f"inconsistent mixture shapes: weights {w.shape}, means {m.shape}, covs {c.shape}"
            )
        k, d = m.shape
        if np.any(w <= 0):
            raise InvalidParams("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidParams(f"mixture weights sum to {w.sum()!r}, not 1")
        if np.max(np.abs(c - np.transpose(c, (0, 2, 1)))) > 1e-12:
            raise InvalidParams("covariances must be symmetric")
        try:
            chols = np.stack([cholesky(c[i], lower=True) for i in range(k)])
        except np.linalg.LinAlgError as exc:
            raise InvalidParams(f"covariance not positive-definite: {exc}") from exc
        # P = C^-1 = L^-T L^-1, symmetrized: the kernel's row form diff @ P
        # stands for P @ diff
        chol_invs = np.linalg.inv(chols)
        precisions = np.matmul(np.transpose(chol_invs, (0, 2, 1)), chol_invs)
        precisions = 0.5 * (precisions + np.transpose(precisions, (0, 2, 1)))
        # log w + log of the N(x; m, C) normalizer, per component
        log_dets = 2.0 * np.log(np.abs(np.diagonal(chols, axis1=1, axis2=2))).sum(axis=1)
        log_coefs = np.log(w) - 0.5 * (d * _LOG_2PI + log_dets)
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_precisions", precisions)
        object.__setattr__(self, "_log_coefs", log_coefs)
        for a in (w, m, c, chols, precisions, log_coefs):
            a.setflags(write=False)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def K(self) -> int:
        return self.means.shape[0]

    def second_moment(self) -> float:
        """E||X||^2 = sum_i w_i (tr Sigma_i + ||mu_i||^2)."""
        traces = np.trace(self.covariances, axis1=1, axis2=2)
        return float(np.sum(self.weights * (traces + np.sum(self.means**2, axis=1))))

    @property
    def mean(self) -> np.ndarray:
        """Overall mean vector of the mixture."""
        return self.weights @ self.means

    @property
    def cov(self) -> np.ndarray:
        """Overall covariance matrix of the mixture (the component's own
        covariance when K = 1)."""
        centered = self.means - self.mean
        cov = np.einsum("k,kij->ij", self.weights, self.covariances)
        return cov + np.einsum("k,ki,kj->ij", self.weights, centered, centered)


def gaussian_target(mean, cov) -> GaussianMixture:
    """Single-component mixture N(mean, cov)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return GaussianMixture(np.array([1.0]), mean[None, :], cov[None, :, :])


def standard_normal_target(d: int) -> GaussianMixture:
    return gaussian_target(np.zeros(d), np.eye(d))


def check_second_moment(target: GaussianMixture, T: int) -> bool:
    """Sanity bound on the target's second moment: below T**10 (in logs, for any T)."""
    return math.log(target.second_moment()) < 10.0 * math.log(T)


def forward_marginal(target: GaussianMixture, s: Schedule, t: int) -> GaussianMixture:
    """Law of the noised data at step t (t = 0 returns the target itself)."""
    if not (0 <= t <= s.T):
        raise IndexOutOfRange(f"marginal step {t} outside [0, {s.T}]")
    if t == 0:
        return target
    abar = s.alpha_bar_at(t)
    eye = np.eye(target.d)
    return GaussianMixture(
        weights=target.weights.copy(),
        means=np.sqrt(abar) * target.means,
        covariances=abar * target.covariances + (1.0 - abar) * eye,
    )


def _component_terms(mix: GaussianMixture, x: np.ndarray):
    """All components of a batch in one pass.

    Returns (top, scaled, pdiff): the per-point max over components of
    log w_k + log N(x; m_k, C_k), shape (n,); exp of those log-pdfs minus
    top, shape (K, n); and P_k (x - m_k), shape (K, n, d).
    """
    diff = x[None, :, :] - mix.means[:, None, :]
    pdiff = np.matmul(diff, mix._precisions)
    log_pdfs = mix._log_coefs[:, None] - 0.5 * np.einsum("knd,knd->kn", diff, pdiff)
    # clamped so that a point where every log-pdf is -inf (its Mahalanobis
    # terms overflow) gets log-density -inf rather than nan
    top = np.maximum(log_pdfs.max(axis=0), -np.finfo(float).max)
    return top, np.exp(log_pdfs - top), pdiff


def log_density(mix: GaussianMixture, x) -> np.ndarray:
    """Mixture log-density (n,) at the rows of a batch x (n, d), via a
    max-shifted log-sum-exp; finite for all finite x."""
    top, scaled, _ = _component_terms(mix, _as_batch(x, mix.d))
    return top + np.log(scaled.sum(axis=0))


def score(mix: GaussianMixture, x) -> np.ndarray:
    """Gradient (n, d) of the mixture log-density at the rows of a batch x
    (n, d), as a new array: -sum_k r_k P_k (x - m_k).

    Posterior responsibilities r_k are a max-shifted softmax over the
    components' log-pdfs; components that underflow contribute exactly
    zero weight.  A one-component mixture takes the closed form -P (x - m).
    """
    x = _as_batch(x, mix.d)
    if mix.K == 1:  # the general value bit for bit: its one responsibility is 1.0
        return -np.matmul(x[None] - mix.means[:, None], mix._precisions)[0]
    _, scaled, pdiff = _component_terms(mix, x)
    resp = scaled / scaled.sum(axis=0)
    return -np.einsum("kn,knd->nd", resp, pdiff)


def sample(mix: GaussianMixture, n: int, stream: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the mixture; reproducible given the stream."""
    comp = stream.choice(mix.K, size=n, p=mix.weights)
    z = stream.standard_normal((n, mix.d))
    out = mix.means[comp] + np.einsum("nij,nj->ni", mix._chols[comp], z)
    return out


def projected_cdf(mix: GaussianMixture, direction: np.ndarray, q: np.ndarray) -> np.ndarray:
    """CDF at each point of q (m,) of the 1-D law of <direction, X> for X
    from the mixture.

    The projection of a mixture is the 1-D mixture of N(u'm_i, u'C_i u);
    its CDF is a weighted sum of Gaussian error functions.
    """
    u = np.asarray(direction, dtype=float)
    if u.shape != (mix.d,):
        raise DimensionMismatch(f"direction must have dimension {mix.d}, got shape {u.shape}")
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise InvalidParams(f"direction norm {np.linalg.norm(u)!r} != 1")
    proj_means = mix.means @ u
    proj_sds = np.sqrt(np.einsum("i,kij,j->k", u, mix.covariances, u))
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise DimensionMismatch(f"q must be one axis of points, got shape {q.shape}")
    z = (q[:, None] - proj_means) / proj_sds
    return ndtr(z) @ mix.weights


def load_target(path: str) -> GaussianMixture:
    """Load a mixture from a JSON target file.

    Schema: {"d": int, "components": [{"weight": f, "mean": [f...],
    "cov": [[f...]...]}]}; "cov_scale": f is shorthand for scale * I.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise TargetLoadFailed(f"cannot read target file {path!r}: {exc}") from exc
    try:
        d = int(raw["d"])
        comps = raw["components"]
        weights = np.array([c["weight"] for c in comps], dtype=float)
        means = np.array([c["mean"] for c in comps], dtype=float).reshape(len(comps), d)
        covs = [float(c["cov_scale"]) * np.eye(d) if "cov_scale" in c
                else np.asarray(c["cov"], dtype=float).reshape(d, d) for c in comps]
        return GaussianMixture(weights, means, np.stack(covs))
    except (KeyError, TypeError, ValueError, InvalidParams) as exc:
        raise TargetLoadFailed(f"malformed target file {path!r}: {exc}") from exc
