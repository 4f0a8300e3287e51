"""Exact distribution propagation for pure-Gaussian targets.

When the target is a single Gaussian, every score function is affine, so
each sampler step is an affine map Y_{t-1} = A Y_t + B Z_mid + D Z + b of
(current point, fresh draws) and the law of every iterate is Gaussian.
This module reads the maps off the sampler step itself, run with an exact
``ScoreModel``, and composes them, yielding the exact law of the final
iterate with no Monte Carlo noise; it is the oracle behind the
convergence-rate checks.

The noise is isotropic, so in the principal axes of the target covariance
C = U diag(lam) U' every map is diagonal and the law is d independent 1-D
laws.  ``propagate`` therefore runs the steps on the diagonal target
N(U'm, diag(lam)), which each target builds once (``principal``), and
rotates only the final law back by U.  The horizon is walked in blocks of
``_PROBE_STEPS`` steps: one ``samplers.step`` call, given one step index
per row, reads off all of a block's per-coordinate maps on at most 4 probe
rows per step whatever d, and a pairwise tree composes them elementwise
into one map per coordinate that is folded into the running mean and
variance.

Every law here is a one-component ``GaussianMixture``.  The one closed-form
Gaussian KL lives here too, formed from terms that are each small when the
laws are close, with the total-variation surrogate min(1, sqrt(KL / 2));
``final_kl`` is the exact KL of a sampler's final law, the value of an
exact sweep cell.

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
# _PROBE_STEPS * 4 rows independently of the horizon T.
_PROBE_STEPS = 1024


def target_law(target: GaussianMixture) -> GaussianMixture:
    """The target itself, once it is checked to be a single Gaussian."""
    if target.K != 1:
        raise UnsupportedKind("exact propagation requires a single-Gaussian target")
    return target


def _step_laws(s: Schedule, model: ScoreModel, kind: str, steps: np.ndarray):
    """Per-coordinate maps (a, b, q) (m, d) of the steps in ``steps`` on a
    target with diagonal covariance: coordinate i of a step maps y to
    a_i y_i + b_i plus noise of variance q_i.

    One ``samplers.step`` call runs each step on the zero row, an all-ones y
    row and an all-ones row per draw in ``samplers.READS``: the zero row gives
    b, the others minus it a and the draws' coefficients, whose squares sum to
    q.  The model's precisions are exactly diagonal, so no coordinate reaches
    another and an all-ones row reads every coordinate's coefficient at once.
    """
    d, m, reads = s.d, len(steps), samplers.READS[kind]
    probe = np.zeros((2 + len(reads), 3, d))
    probe[1, 0] = 1.0
    for row, j in enumerate(reads, start=2):
        probe[row, 1 + j] = 1.0
    # F-ordered, so y, z_mid and z are coordinate-major (rows, d) batches, as in a chunk
    rows = np.asfortranarray(np.tile(probe.reshape(len(probe), 3 * d), (m, 1)))
    t = np.repeat(steps, len(probe))
    out, _ = samplers.step(kind, s, model, t, rows[:, :d], rows[:, d:2 * d], rows[:, 2 * d:])
    out = out.reshape(m, len(probe), d)
    coefs = out[:, 1:] - out[:, :1]
    return coefs[:, 0], out[:, 0], np.square(coefs[:, 1:]).sum(axis=1)


def _compose(a: np.ndarray, b: np.ndarray, q: np.ndarray):
    """The stacked per-coordinate maps, applied in index order, composed by a
    pairwise tree: (a2, b2, q2) after (a1, b1, q1) is (a2 a1, a2 b1 + b2,
    a2 q1 a2 + q2)."""
    while len(a) > 1:
        n = len(a) - len(a) % 2
        a2 = a[1:n:2]
        q = np.concatenate([a2 * q[0:n:2] * a2 + q[1:n:2], q[n:]])
        b = np.concatenate([a2 * b[0:n:2] + b[1:n:2], b[n:]])
        a = np.concatenate([a2 * a[0:n:2], a[n:]])
    return a[0], b[0], q[0]


def propagate(s: Schedule, target: GaussianMixture, kind: str) -> GaussianMixture:
    """Exact law of the final iterate Y_1, starting from Y_T ~ N(0, I).

    The law is propagated in the target's principal axes, where it is d
    independent 1-D laws.  Each block of steps, t = T..2, composes to one map
    per coordinate, folded in as mean <- a mean + b, var <- a var a + q; the
    final law is rotated back to the target's frame once.
    """
    if kind not in AFFINE_KINDS:
        raise UnsupportedKind(f"kind {kind!r} has no affine form (supported: {AFFINE_KINDS})")
    axes, diagonal = target_law(target).principal
    model = ScoreModel("exact", diagonal, s)
    mean = np.zeros(target.d)
    var = np.ones(target.d)
    for hi in range(s.T, 1, -_PROBE_STEPS):
        steps = np.arange(hi, max(hi - _PROBE_STEPS, 1), -1)
        a, b, q = _compose(*_step_laws(s, model, kind, steps))
        mean = a * mean + b
        var = a * var * a + q
    cov = (axes * var) @ axes.T
    return gaussian_target(axes @ mean, 0.5 * (cov + cov.T))


def gaussian_kl(p: GaussianMixture, q: GaussianMixture) -> float:
    """KL(p || q) between Gaussian laws; a mixture enters by its overall
    mean and covariance, which is positive-definite because each component's
    covariance passed a Cholesky factorization when the mixture was built.

    0.5 * [sum_i (mu_i - log1p(mu_i)) + (mq - mp)' Cq^-1 (mq - mp)], with mu
    the eigenvalues lam of L^-1 Cp L^-T minus 1 and Cq = L L'.  Each term is
    small when p is near q, so no O(1) traces or log-determinants cancel.
    A far eigenvalue, lam < 1e-3, takes log(lam) in place of log1p(mu): there
    lam - 1 rounds by up to 2**-54, which log1p magnifies by 1/lam, and below
    about 1e-16 to -1, so the KL stays finite however small Cp is against Cq.
    """
    if p.d != q.d:
        raise InvalidParams("laws must share a dimension")
    chol_q, prec_q, _ = targets.factor(1.0, q.cov)
    half = np.linalg.solve(chol_q, p.cov)  # L^-1 Cp, whose transpose is Cp L^-T
    lam = np.linalg.eigvalsh(np.linalg.solve(chol_q, half.T))
    mu, far = lam - 1.0, lam < 1e-3
    logs = np.log1p(np.where(far, 0.0, mu)) + np.log(np.where(far, lam, 1.0))
    diff = q.mean - p.mean
    return 0.5 * float(np.sum(mu - logs) + diff @ prec_q @ diff)


def final_kl(s: Schedule, target: GaussianMixture, kind: str) -> float:
    """KL(law of X_1 || law of Y_1) for sampler ``kind`` on a single-Gaussian
    target: the exact cell value.  Clip-enabled accelerated is read through
    its no-clip law (see the module docstring)."""
    law = propagate(s, target, "accelerated_noclip" if kind == "accelerated" else kind)
    return gaussian_kl(targets.forward_marginal(target, s, 1), law)


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
