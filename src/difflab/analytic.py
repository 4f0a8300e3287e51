"""Exact distribution propagation for pure-Gaussian targets.

When the target is a single Gaussian, every score function is affine, so
each sampler step is an affine map Y_{t-1} = A Y_t + B Z_mid + D Z + b of
(current point, fresh draws) and the law of every iterate is Gaussian.
This module reads the maps off the sampler step itself, run with the
sampler's own exact ``ScoreModel``, and composes them, yielding the exact
law of the final iterate with no Monte Carlo noise; it is the oracle behind
the convergence-rate checks.

The horizon is walked in blocks of ``_PROBE_STEPS`` steps: one
``samplers.step`` call, given one step index per row, reads off all of a
block's maps on at most 3d + 1 probe rows per step, and a pairwise tree
composes them into one map that is folded into the running mean and covariance.

Every law here is a one-component ``GaussianMixture``.  Closed-form
divergences between Gaussian laws live here too, with the total-variation
surrogate min(1, sqrt(KL / 2)).

The clip-enabled accelerated variant is nonlinear and unsupported; the
accompanying measurement of how rarely clip fires (see the test suite)
justifies using the no-clip law in its place at these scales.
"""

from __future__ import annotations

import math

import numpy as np

from . import samplers, targets
from .errors import InvalidParams, UnsupportedKind
from .schedule import Schedule
from .score_oracle import ScoreModel
from .targets import GaussianMixture, gaussian_target

AFFINE_KINDS = ("accelerated_noclip", "ddpm", "ode")

# Steps probed per samplers.step call; bounds the probe stack at
# _PROBE_STEPS * (3d + 1) rows independently of the horizon T.
_PROBE_STEPS = 1024


def affine_kind(kind: str) -> str:
    """The affine kind whose exact law stands in for sampler ``kind``.

    Clip-enabled accelerated maps to its no-clip variant (see the module
    docstring); every other kind maps to itself.
    """
    return "accelerated_noclip" if kind == "accelerated" else kind


def target_law(target: GaussianMixture) -> GaussianMixture:
    """The target itself, once it is checked to be a single Gaussian."""
    if target.K != 1:
        raise UnsupportedKind("exact propagation requires a single-Gaussian target")
    return target


def _step_maps(s: Schedule, model: ScoreModel, kind: str, steps: np.ndarray):
    """The affine maps of the steps in ``steps``, stacked as (A, B, D, b).

    One ``samplers.step`` call runs each step on probe rows of (y, z_mid, z)
    for the inputs it reads (y and the draws in ``samplers.READS``): the zero
    row gives b, each unit row minus it one column of [A B D], and an unread
    input's column is 0.  The no-clip steps are affine, so this is exact.
    """
    d, m = s.d, len(steps)
    read = np.flatnonzero(np.repeat([True, *(j in samplers.READS[kind] for j in (0, 1))], d))
    # F-ordered, so y, z_mid and z are coordinate-major (rows, d) batches, as in a chunk
    rows = np.asfortranarray(np.tile(np.vstack([np.zeros(3 * d), np.eye(3 * d)[read]]), (m, 1)))
    t = np.repeat(steps, len(read) + 1)
    out, _ = samplers.step(kind, s, model, t, rows[:, :d], rows[:, d:2 * d], rows[:, 2 * d:])
    out = out.reshape(m, len(read) + 1, d)
    full = np.repeat(out[:, :1], 3 * d + 1, axis=1)  # (m, 3d + 1, d), every input unread
    full[:, 1 + read] = out[:, 1:]
    cols = np.swapaxes(full[:, 1:] - full[:, :1], 1, 2)
    return cols[:, :, :d], cols[:, :, d:2 * d], cols[:, :, 2 * d:], full[:, 0]


def _compose(A: np.ndarray, b: np.ndarray, Q: np.ndarray):
    """The stacked maps, applied in index order, composed by a pairwise tree:
    (A2, b2, Q2) after (A1, b1, Q1) is (A2 A1, A2 b1 + b2, A2 Q1 A2' + Q2)."""
    while len(A) > 1:
        n = len(A) - len(A) % 2
        A1, A2 = A[0:n:2], A[1:n:2]
        Q21 = A2 @ Q[0:n:2] @ np.swapaxes(A2, 1, 2) + Q[1:n:2]
        A = np.concatenate([A2 @ A1, A[n:]])
        b = np.concatenate([(A2 @ b[0:n:2, :, None])[:, :, 0] + b[1:n:2], b[n:]])
        Q = np.concatenate([0.5 * (Q21 + np.swapaxes(Q21, 1, 2)), Q[n:]])
    return A[0], b[0], Q[0]


def propagate(s: Schedule, target: GaussianMixture, kind: str) -> GaussianMixture:
    """Exact law of the final iterate Y_1, starting from Y_T ~ N(0, I).

    Each block of steps, t = T..2, composes to one map (A, b, Q = B B' + D D')
    folded in as mean <- A mean + b, cov <- A cov A' + Q; every composed Q
    and cov is symmetrized to suppress drift.
    """
    if kind not in AFFINE_KINDS:
        raise UnsupportedKind(f"kind {kind!r} has no affine form (supported: {AFFINE_KINDS})")
    model = ScoreModel("exact", target_law(target), s)
    mean = np.zeros(target.d)
    cov = np.eye(target.d)
    for hi in range(s.T, 1, -_PROBE_STEPS):
        A, B, D, b = _step_maps(s, model, kind, np.arange(hi, max(hi - _PROBE_STEPS, 1), -1))
        A, b, Q = _compose(A, b, B @ np.swapaxes(B, 1, 2) + D @ np.swapaxes(D, 1, 2))
        mean = A @ mean + b
        cov = A @ cov @ A.T + Q
        cov = 0.5 * (cov + cov.T)
    return gaussian_target(mean, cov)


def gaussian_kl(p: GaussianMixture, q: GaussianMixture) -> float:
    """KL(p || q) between Gaussian laws; a mixture enters by its overall
    mean and covariance, which is positive-definite because each component's
    covariance passed a Cholesky factorization when the mixture was built.

    0.5 * [tr(Cq^-1 Cp) + (mq - mp)' Cq^-1 (mq - mp) - d
           + log det Cq - log det Cp]
    """
    if p.d != q.d:
        raise InvalidParams("laws must share a dimension")
    chol_q, prec_q, _ = targets.factor(1.0, q.cov)
    logdet_p = np.linalg.slogdet(p.cov)[1]
    logdet_q = 2.0 * float(np.sum(np.log(np.abs(np.diag(chol_q)))))
    diff = q.mean - p.mean
    trace = float(np.trace(prec_q @ p.cov))
    maha = float(diff @ prec_q @ diff)
    return 0.5 * (trace + maha - p.d + logdet_q - float(logdet_p))


def tv_bound(kl: float) -> float:
    """Total-variation surrogate min(1, sqrt(KL / 2)) of a computed KL."""
    return min(1.0, math.sqrt(max(kl, 0.0) / 2.0))


# --------------------------------------------------------------------------
# Independent scalar twin (d = 1).
#
# A separate code path with no shared matrix machinery: the per-step affine
# coefficients are recovered by probing literal scalar step formulas at
# basis inputs (the maps are exactly affine, so four probes determine them
# exactly), and the schedule recursion is recomputed with plain floats.
# --------------------------------------------------------------------------


def _scalar_schedule(T: int, c0: float, c1: float) -> tuple[list, list]:
    abar = [0.0] * (T + 1)
    abar[T] = float(T) ** (-c0)
    rate = c1 * math.log(T) / T
    for t in range(T, 1, -1):
        abar[t - 1] = abar[t] + rate * abar[t] * (1.0 - abar[t])
    alpha = [0.0] * (T + 1)
    alpha[1] = abar[1]
    for t in range(2, T + 1):
        alpha[t] = abar[t] / abar[t - 1]
    return abar, alpha


def scalar_propagate(T: int, c0: float, c1: float, target_mean: float,
                     target_var: float, kind: str) -> tuple[float, float]:
    """Mean and variance of Y_1 for a 1-D Gaussian target, brute force.

    Returns the exact law propagated step by step through literal scalar
    step formulas.  Serves as the independent cross-check for
    ``propagate`` in dimension one.
    """
    if kind not in AFFINE_KINDS:
        raise UnsupportedKind(f"kind {kind!r} has no affine form")
    abar, alpha = _scalar_schedule(T, c0, c1)

    def score_at(t: int, x: float) -> float:
        m = math.sqrt(abar[t]) * target_mean
        v = abar[t] * target_var + (1.0 - abar[t])
        return -(x - m) / v

    def step(t: int, y: float, z_mid: float, z: float) -> float:
        a = alpha[t]
        om = 1.0 - a
        if kind == "ode":
            return (y + 0.5 * om * score_at(t, y)) / math.sqrt(a)
        if kind == "ddpm":
            return (y + om * score_at(t, y) + math.sqrt(om) * z) / math.sqrt(a)
        y_mid = (y + om / (2.0 * a) * score_at(t, y)) / math.sqrt(a) + om * z_mid
        g = a**1.5 * score_at(t - 1, y_mid) - score_at(t, y + om * z_mid)
        sigma = math.sqrt(a - 1.0 / (3.0 - 2.0 * a))
        return (y + om * (score_at(t, y) + a * g) + sigma * z) / math.sqrt(a)

    mean, var = 0.0, 1.0
    for t in range(T, 1, -1):
        base = step(t, 0.0, 0.0, 0.0)
        coef_y = step(t, 1.0, 0.0, 0.0) - base
        coef_zm = step(t, 0.0, 1.0, 0.0) - base
        coef_z = step(t, 0.0, 0.0, 1.0) - base
        mean = coef_y * mean + base
        var = coef_y**2 * var + coef_zm**2 + coef_z**2
    return mean, var
