"""Exact distribution propagation for pure-Gaussian targets.

When the target is a single Gaussian, every score function is affine, so
each sampler step is an affine map of (current point, fresh draws) and the
law of every iterate is Gaussian.  This module composes those maps symbol-
ically, yielding the exact law of the final iterate with no Monte Carlo
noise; it is the oracle behind the convergence-rate checks.

Every law here is a one-component ``GaussianMixture``.  Closed-form
divergences between Gaussian laws live here too, with the total-variation
surrogate min(1, sqrt(KL / 2)).

The clip-enabled accelerated variant is nonlinear and unsupported; the
accompanying measurement of how rarely clip fires (see the test suite)
justifies using the no-clip law in its place at these scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InvalidParams, SingularCovariance, UnsupportedKind
from .schedule import Schedule
from .targets import GaussianMixture, gaussian_target

AFFINE_KINDS = ("accelerated_noclip", "ddpm", "ode")


@dataclass(frozen=True)
class StepCoefficients:
    """One step as the affine map  Y_{t-1} = A Y_t + B Z_mid + D Z + b."""

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    b: np.ndarray


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


def _score_coefficients(target: GaussianMixture, s: Schedule, t: int):
    """(S, c) with exact score s_t(x) = S x + c at step t >= 1."""
    abar = s.alpha_bar_at(t)
    cov = abar * target.covariances[0] + (1.0 - abar) * np.eye(target.d)
    cov_inv = np.linalg.inv(cov)
    return -cov_inv, cov_inv @ (np.sqrt(abar) * target.means[0])


def affine_step_coefficients(s: Schedule, target: GaussianMixture, t: int,
                             kind: str) -> StepCoefficients:
    """Exact affine form of one sampler step under exact linear scores.

    Only the no-clip variants are affine, and only for a single-Gaussian
    target; anything else raises UnsupportedKind.
    """
    target_law(target)
    if kind not in AFFINE_KINDS:
        raise UnsupportedKind(
            f"kind {kind!r} has no affine form (supported: {AFFINE_KINDS})"
        )
    if not (2 <= t <= s.T):
        raise InvalidParams(f"step index {t} outside [2, {s.T}]")
    d = target.d
    eye = np.eye(d)
    a = s.alpha_at(t)
    om = 1.0 - a
    sqrt_a = math.sqrt(a)
    S_t, c_t = _score_coefficients(target, s, t)

    if kind == "ode":
        A = (eye + 0.5 * om * S_t) / sqrt_a
        b = 0.5 * om * c_t / sqrt_a
        return StepCoefficients(A=A, B=np.zeros((d, d)), D=np.zeros((d, d)), b=b)
    if kind == "ddpm":
        A = (eye + om * S_t) / sqrt_a
        b = om * c_t / sqrt_a
        D = math.sqrt(om / a) * eye
        return StepCoefficients(A=A, B=np.zeros((d, d)), D=D, b=b)

    S_prev, c_prev = _score_coefficients(target, s, t - 1)
    k = om / (2.0 * a)
    M1 = (eye + k * S_t) / sqrt_a          # y_mid = M1 y + m1 + om * z_mid
    m1 = k * c_t / sqrt_a
    G_y = a**1.5 * S_prev @ M1 - S_t
    G_z = om * (a**1.5 * S_prev - S_t)
    g0 = a**1.5 * (S_prev @ m1 + c_prev) - c_t
    A = (eye + om * S_t + om * a * G_y) / sqrt_a
    B = om * a * G_z / sqrt_a
    D = (s.sigma_at(t) / sqrt_a) * eye
    b = om * (c_t + a * g0) / sqrt_a
    return StepCoefficients(A=A, B=B, D=D, b=b)


def propagate(s: Schedule, target: GaussianMixture, kind: str) -> GaussianMixture:
    """Exact law of the final iterate Y_1, starting from Y_T ~ N(0, I).

    Applies mean <- A mean + b and cov <- A cov A' + B B' + D D' for
    t = T..2, symmetrizing the covariance each step to suppress drift.
    """
    d = target.d
    mean = np.zeros(d)
    cov = np.eye(d)
    for t in range(s.T, 1, -1):
        c = affine_step_coefficients(s, target, t, kind)
        mean = c.A @ mean + c.b
        cov = c.A @ cov @ c.A.T + c.B @ c.B.T + c.D @ c.D.T
        cov = 0.5 * (cov + cov.T)
    return gaussian_target(mean, cov)


def gaussian_kl(p: GaussianMixture, q: GaussianMixture) -> float:
    """KL(p || q) between Gaussian laws; a mixture enters by its overall
    mean and covariance, and q must be positive-definite.

    0.5 * [tr(Cq^-1 Cp) + (mq - mp)' Cq^-1 (mq - mp) - d
           + log det Cq - log det Cp]
    """
    if p.d != q.d:
        raise InvalidParams("laws must share a dimension")
    try:
        cq = cho_factor(q.cov, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"second argument covariance is singular: {exc}") from exc
    sign_p, logdet_p = np.linalg.slogdet(p.cov)
    if sign_p <= 0:
        raise SingularCovariance("first argument covariance is singular")
    logdet_q = 2.0 * float(np.sum(np.log(np.abs(np.diag(cq[0])))))
    diff = q.mean - p.mean
    trace = float(np.trace(cho_solve(cq, p.cov)))
    maha = float(diff @ cho_solve(cq, diff))
    return 0.5 * (trace + maha - p.d + logdet_q - float(logdet_p))


def gaussian_tv_bound(p: GaussianMixture, q: GaussianMixture) -> float:
    """Total-variation surrogate min(1, sqrt(KL(p || q) / 2))."""
    kl = max(gaussian_kl(p, q), 0.0)
    return min(1.0, math.sqrt(kl / 2.0))


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
