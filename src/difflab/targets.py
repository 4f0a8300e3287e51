"""Gaussian-mixture targets, their noised marginals, and scores.

A mixture target is the one family for which every noised marginal stays in
closed form: scaling the data by sqrt(abar_t) and adding (1 - abar_t) units
of isotropic noise maps component (w, mu, Sigma) to

    (w, sqrt(abar_t) * mu, abar_t * Sigma + (1 - abar_t) * I).

That gives exact scores (the gradient of the log density) and exact 1-D
projected CDFs, which is what makes oracle-grade verification of the
samplers possible.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParams, TargetLoadFailed
from .schedule import Schedule, _as_batch, as_integer

_LOG_2PI = float(np.log(2.0 * np.pi))


def factor(weights, covariances: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cholesky factors L, precisions P = C^-1 = L^-T L^-1 and log-coefficients
    log w + log of the N(x; m, C) normalizer of float covariances C (..., d, d)
    with weights w, over any leading axes: the one factorization behind every
    mixture, score stack and Gaussian divergence.  InvalidParams if C is not
    positive-definite.

    A stack whose every off-diagonal entry is +0 is factored elementwise, as
    L = diag sqrt(c) and L^-1 = diag 1 / sqrt(c), the bits LAPACK gives it."""
    c = np.diagonal(covariances, axis1=-2, axis2=-1)
    # the nonzero bit patterns all on the diagonal (-0 and NaN are nonzero), with
    # no temporary the size of the stack
    if np.count_nonzero(covariances.view(np.int64)) == np.count_nonzero(c.view(np.int64)):
        if not np.all(c > 0.0):
            raise InvalidParams("covariance not positive-definite: Matrix is not positive definite")
        roots, shape = np.sqrt(c), covariances.shape
        del c, covariances  # a caller's stacked temporary is freed before the factors grow
        chols, chol_invs = np.zeros(shape), np.zeros(shape)
        np.einsum("...ii->...i", chols)[...] = roots  # writable views of the diagonals
        np.einsum("...ii->...i", chol_invs)[...] = 1.0 / roots
    else:
        try:
            chols = np.linalg.cholesky(covariances)
        except np.linalg.LinAlgError as exc:
            raise InvalidParams(f"covariance not positive-definite: {exc}") from exc
        del c, covariances  # likewise
        chol_invs = np.linalg.inv(chols)
    # symmetrized: the K = 1 score's (x - m) @ P is P (x - m)
    precisions = np.matmul(np.swapaxes(chol_invs, -1, -2), chol_invs)
    precisions = 0.5 * (precisions + np.swapaxes(precisions, -1, -2))
    log_dets = 2.0 * np.log(np.abs(np.diagonal(chols, axis1=-2, axis2=-1))).sum(axis=-1)
    log_coefs = np.log(weights) - 0.5 * (chols.shape[-1] * _LOG_2PI + log_dets)
    return chols, precisions, log_coefs


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Weights (K,), means (K, d) and covariances (K, d, d) of a Gaussian mixture.

    Every entry must be finite, weights must be positive and sum to 1 within
    1e-12, and every covariance must admit a Cholesky factorization and have
    positive ``eigh`` eigenvalues, so a single Gaussian has ``principal``
    axes.  The ``factor`` of the weights and covariances is cached on
    construction so score evaluation is O(K * d^2) per point.
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
        if not all(np.isfinite(a).all() for a in (w, m, c)):
            raise InvalidParams("mixture weights, means and covariances must be finite")
        if np.any(w <= 0):
            raise InvalidParams("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidParams(f"mixture weights sum to {w.sum()!r}, not 1")
        if np.max(np.abs(c - np.transpose(c, (0, 2, 1)))) > 1e-12:
            raise InvalidParams("covariances must be symmetric")
        chols, precisions, log_coefs = factor(w, c)
        if np.any(np.linalg.eigh(c)[0] <= 0.0):  # principal's call, so they agree
            raise InvalidParams("covariance not positive-definite: an eigenvalue is <= 0")
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
        with np.errstate(over="ignore"):  # inf is an answer: check_second_moment refuses it
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

    @cached_property
    def principal(self) -> tuple[np.ndarray, GaussianMixture]:
        """(U, N(U'm, diag(lam))) for a single Gaussian N(m, U diag(lam) U'): the
        principal axes as columns of U, and the target in their frame.  Built
        once per target, so every user shares the one diagonal target."""
        lam, axes = np.linalg.eigh(self.covariances)  # construction's call: lam > 0
        return axes[0], gaussian_target(axes[0].T @ self.means[0], np.diag(lam[0]))


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
    s._check_t(t, lo=0)
    if t == 0:
        return target
    abar = s.alpha_bar[t]
    return GaussianMixture(
        weights=target.weights.copy(),
        means=np.sqrt(abar) * target.means,
        covariances=abar * target.covariances + (1.0 - abar) * np.eye(target.d),
    )


def mixture_score(means, precisions, log_coefs, x: np.ndarray) -> np.ndarray:
    """Gradient (n, d), as a new F-ordered array, of the log-density of the
    mixture with component means (K, d), precisions (K, d, d) and
    log-coefficients (K,) at the rows of a batch x (n, d): the one exact score.
    For K = 1 it is -(x - m) P; otherwise -sum_k r_k P_k (x - m_k), r_k a
    max-shifted softmax of the log-pdfs, exactly 0 where one underflows.  For
    K > 1, where every Mahalanobis term overflows (|x - m| past about 1e154)
    every r_k is 0/0 and the score is NaN."""
    # numpy multiplies one row with a matrix-vector kernel that rounds
    # otherwise, so a single row is multiplied as two, like a row of any batch
    if len(x) == 1:
        return np.asfortranarray(mixture_score(means, precisions, log_coefs,
                                               np.repeat(x, 2, axis=0))[:1])
    if len(means) == 1:
        return -np.matmul(x - means[0], precisions[0], order="F")
    diff = x.T[None] - means[:, :, None]  # x.T is contiguous for F-ordered x
    pdiff = np.matmul(precisions, diff)
    # in place, with the bits of log_coefs - 0.5 * maha: c + (-0.5 m) is c - 0.5 m
    resp = np.einsum("kdn,kdn->kn", diff, pdiff)
    resp *= -0.5
    resp += log_coefs[:, None]
    with np.errstate(invalid="ignore"):  # the NaN is the caller's to refuse
        resp -= resp.max(axis=0)
        np.exp(resp, out=resp)
        resp /= resp.sum(axis=0)
    out = np.einsum("kn,kdn->nd", resp, pdiff, order="F")
    return np.negative(out, out=out)


def score(mix: GaussianMixture, x) -> np.ndarray:
    """``mixture_score`` of a mixture at the rows of a batch x (n, d)."""
    return mixture_score(mix.means, mix._precisions, mix._log_coefs, _as_batch(x, mix.d))


def sample(mix: GaussianMixture, n: int, stream: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the mixture; reproducible given the stream."""
    comp = stream.choice(mix.K, size=n, p=mix.weights)
    z = stream.standard_normal((n, mix.d))
    out = mix.means[comp] + np.einsum("nij,nj->ni", mix._chols[comp], z)
    return out


def unit_directions(directions, d: int) -> np.ndarray:
    """directions as a float stack (m, d) of m >= 1 unit rows; InvalidParams
    for any other shape, or a row whose norm is not 1 within 1e-9 (so a
    NaN or infinite row too)."""
    u = np.asarray(directions, dtype=float)
    if u.ndim != 2 or len(u) < 1 or u.shape[1] != d:
        raise InvalidParams(f"directions must be a nonempty (m, {d}) stack, got shape {u.shape}")
    norms = np.linalg.norm(u, axis=1)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise InvalidParams(f"direction norms must be 1, got {norms!r}")
    return u


@functools.lru_cache(maxsize=1)  # sliced_tv's two calls share one direction stack
def _projections(mix: GaussianMixture, directions: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Means and sds (m, K) of the components' 1-D laws N(u'm_k, u'C_k u)
    along each unit row u of the float stack (m, d) whose bytes are given."""
    u = np.frombuffer(directions).reshape(-1, mix.d)
    # one direction at a time: a stacked u @ means.T rounds otherwise
    return (np.array([mix.means @ v for v in u]),
            np.sqrt([np.einsum("i,kij,j->k", v, mix.covariances, v) for v in u]))


def projected_cdf(mix: GaussianMixture, directions, q) -> np.ndarray:
    """CDF (m, p) at each point q[i, j] of q (m, p) of the 1-D law of
    <directions[i], X> for X from the mixture, given ``unit_directions`` (m, d).

    The projection of a mixture is the 1-D mixture of N(u'm_i, u'C_i u);
    its CDF is a weighted sum of Gaussian error functions.
    """
    from scipy.special import ndtr  # loaded by a first use, as in samplers._draws

    u = unit_directions(directions, mix.d)
    q = np.ascontiguousarray(q, dtype=float)  # so z and its ndtr are point-major
    if q.ndim != 2 or len(q) != len(u):
        raise InvalidParams(f"q must hold one row of points per direction, got shape {q.shape}")
    proj_means, proj_sds = _projections(mix, u.tobytes())
    # point-major (m, p, K), so each point sums its components in a row: weights
    # @ ndtr(z) would round some K >= 3 sums differently; one point is summed
    # as two, as a one-row product rounds otherwise
    z = (q[:, :, None] - proj_means[:, None]) / proj_sds[:, None]
    probs = ndtr(np.repeat(z, 2, axis=1) if q.size == 1 else z).reshape(-1, mix.K)
    return (probs @ mix.weights)[:q.size].reshape(q.shape)


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
        d = as_integer(raw["d"], "d", 1)
        comps = raw["components"]
        weights = np.array([c["weight"] for c in comps], dtype=float)
        means = np.array([c["mean"] for c in comps], dtype=float).reshape(len(comps), d)
        covs = [float(c["cov_scale"]) * np.eye(d) if "cov_scale" in c
                else np.asarray(c["cov"], dtype=float).reshape(d, d) for c in comps]
        return GaussianMixture(weights, means, np.stack(covs))
    except (KeyError, TypeError, ValueError, InvalidParams) as exc:
        raise TargetLoadFailed(f"malformed target file {path!r}: {exc}") from exc
