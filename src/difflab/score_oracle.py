"""Sampler-facing score interface: exact scores and controlled perturbations.

A score model is one (mode, level) pair over a target and a schedule:

  exact     s_t(x) = grad log p_t(x) in closed form: targets.mixture_score of
            the noised marginal at step t, which is -(x - m_t) P_t on a
            single Gaussian, the one definition that the samplers and
            analytic.propagate both run; the level must be 0.
  offset    s_t(x) = exact + delta * e_1, with delta the level and e_1 the
            first coordinate axis.  The per-step root-mean-square error is
            |delta| exactly, since the perturbation does not depend on x.
  relative  s_t(x) = (1 + rho) * exact, with rho the level.  The per-step
            error is |rho| * sqrt(E||s_t(X_t)||^2), estimated by Monte Carlo.

The aggregate error is eps_score = sqrt(mean over t of eps_t^2).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import targets
from .errors import InvalidParams
from .schedule import Schedule, _as_batch, is_real
from .targets import GaussianMixture

MODES = ("exact", "offset", "relative")

# schedule -> {target: stacks}, shared by models; gone with the schedule
_SHARED_STACKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class EpsReport:
    """Aggregate score error and its Monte Carlo stderr."""

    eps_score: float
    stderr: float = 0.0


@dataclass(frozen=True)
class ScoreModel:
    """Immutable score evaluator over a fixed target and schedule.

    Every step's noised marginal is stacked on first use and indexed by t;
    the stacks are a cache, not part of the model's value.
    """

    mode: str
    target: GaussianMixture
    schedule: Schedule
    level: float = 0.0  # delta in offset mode, rho in relative mode

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParams(f"unknown score mode {self.mode!r}")
        level = self.level
        if not is_real(level) or (self.mode == "exact" and level):
            raise InvalidParams(f"{self.mode} score level must be one finite real number "
                                f"(0 in exact mode), got {level!r}")
        object.__setattr__(self, "level", float(level))
        if self.target.d != self.schedule.d:
            raise InvalidParams(
                f"target dimension {self.target.d} != schedule dimension {self.schedule.d}"
            )

    @cached_property
    def _stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Means (T+1, K, d), precisions (T+1, K, d, d) and log-coefficients
        (T+1, K) of the marginals t = 0..T, with the bits of ``forward_marginal``."""
        shared = _SHARED_STACKS.setdefault(self.schedule, {})
        if self.target not in shared:
            abar, d = self.schedule.alpha_bar, self.target.d
            _, precisions, log_coefs = targets.factor(
                self.target.weights, abar[:, None, None, None] * self.target.covariances
                + (1.0 - abar)[:, None, None, None] * np.eye(d))
            means = np.sqrt(abar)[:, None, None] * self.target.means
            shared[self.target] = means, precisions, log_coefs
        return shared[self.target]

    def _exact(self, t, x: np.ndarray) -> np.ndarray:
        """grad log p_t at the rows of a batch x (n, d), as a new array: the
        ``mixture_score`` of step t's marginal, or on a single-Gaussian target,
        with t an int array of one step per row, -(x - m_t) P_t row by row."""
        x = _as_batch(x, self.target.d)
        t = self.schedule._check_t(t, lo=1, rows=len(x) if self.target.K == 1 else None)
        means, precisions, log_coefs = self._stacks
        if isinstance(t, np.ndarray):
            return -np.matmul((x - np.take(means[:, 0], t, axis=0))[:, None],
                              np.take(precisions[:, 0], t, axis=0))[:, 0]
        return targets.mixture_score(means[t], precisions[t], log_coefs[t], x)

    def evaluate(self, t, x: np.ndarray) -> np.ndarray:
        """s_t at the rows of a batch x (n, d), as a batch (n, d).  t is one
        step, or on a single-Gaussian target an int array of one step per row."""
        base = self._exact(t, x)
        if self.mode == "offset":
            base[:, 0] += self.level
        elif self.mode == "relative":
            base *= 1.0 + self.level
        return base

    def eps_score(self, mc_samples: int = 0,
                  stream: np.random.Generator | None = None) -> EpsReport:
        """Root-mean-square per-step error aggregated over the horizon.

        Exact and offset modes report |level| exactly and ignore both
        arguments; relative mode estimates E||s_t(X_t)||^2 with
        ``mc_samples`` draws per step, reports the delta-method standard
        error of the aggregate, and raises InvalidParams if the aggregate
        is not finite.
        """
        T = self.schedule.T
        if self.mode != "relative":
            return EpsReport(abs(self.level))
        if mc_samples < 1:
            raise InvalidParams("relative mode needs mc_samples >= 1")
        if stream is None:
            raise InvalidParams("relative mode needs a random stream")
        mean_sq = np.empty(T)
        var_sq = np.empty(T)
        for t in range(1, T + 1):
            law = targets.forward_marginal(self.target, self.schedule, t)
            draws = targets.sample(law, mc_samples, stream)
            sq = np.sum(self._exact(t, draws) ** 2, axis=1)
            mean_sq[t - 1] = sq.mean()
            var_sq[t - 1] = sq.var(ddof=1) / mc_samples if mc_samples > 1 else 0.0
        level = np.float64(self.level)
        with np.errstate(over="ignore", invalid="ignore"):
            eps = float(np.sqrt(level**2 * np.mean(mean_sq)))
            # stderr of sqrt(mean of rho^2 * mean_sq): delta method
            var_mean = float(level**4 * np.sum(var_sq)) / T**2
        if not np.isfinite(eps):
            raise InvalidParams(f"relative score error is not finite at rho = {self.level!r}")
        stderr = 0.5 * np.sqrt(var_mean) / eps if eps > 0 else 0.0
        return EpsReport(eps, stderr)

