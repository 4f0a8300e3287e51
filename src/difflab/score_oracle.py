"""Sampler-facing score interface: exact scores and controlled perturbations.

A score model is one (mode, level) pair over a target and a schedule:

  exact     s_t(x) = grad log p_t(x), evaluated in closed form from the
            noised-marginal mixture at step t; the level must be 0.
  offset    s_t(x) = exact + delta * e_1, with delta the level and e_1 the
            first coordinate axis.  The per-step root-mean-square error is
            |delta| exactly, since the perturbation does not depend on x.
  relative  s_t(x) = (1 + rho) * exact, with rho the level.  The per-step
            error is |rho| * sqrt(E||s_t(X_t)||^2), estimated by Monte Carlo.

The aggregate error is eps_score = sqrt(mean over t of eps_t^2).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import targets
from .errors import InvalidParams
from .schedule import Schedule, is_real
from .targets import GaussianMixture

MODES = ("exact", "offset", "relative")


@dataclass(frozen=True)
class EpsReport:
    """Aggregate score error, per-step values, and Monte Carlo stderr."""

    eps_score: float
    per_step: np.ndarray  # (T,), t = 1..T
    stderr: float = 0.0


@dataclass(frozen=True)
class ScoreModel:
    """Immutable score evaluator over a fixed target and schedule.

    The noised marginal of step t is built on its first use and cached;
    the cache is not part of the model's value.
    """

    mode: str
    target: GaussianMixture
    schedule: Schedule
    level: float = 0.0  # delta in offset mode, rho in relative mode
    _marginals: dict[int, GaussianMixture] = field(default_factory=dict, init=False,
                                                   repr=False, compare=False)

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

    def marginal(self, t: int) -> GaussianMixture:
        try:
            t = operator.index(t)
        except TypeError:
            raise InvalidParams(f"score step must be one integer, got {t!r}") from None
        if not (1 <= t <= self.schedule.T):
            raise InvalidParams(f"score step {t} outside [1, {self.schedule.T}]")
        law = self._marginals.get(t)
        if law is None:
            law = targets.forward_marginal(self.target, self.schedule, t)
            self._marginals[t] = law
        return law

    def evaluate(self, t: int, x: np.ndarray) -> np.ndarray:
        """s_t at the rows of a batch x (n, d), as a batch (n, d)."""
        law = self.marginal(t)
        base = targets.score(law, x)
        if self.mode == "offset":
            base[:, 0] += self.level
        elif self.mode == "relative":
            base *= 1.0 + self.level
        return base

    def eps_score(self, mc_samples: int = 0,
                  stream: np.random.Generator | None = None) -> EpsReport:
        """Root-mean-square per-step error aggregated over the horizon.

        Exact and offset modes are computed in closed form and ignore both
        arguments; relative mode estimates E||s_t(X_t)||^2 with
        ``mc_samples`` draws per step and reports the delta-method standard
        error of the aggregate.
        """
        T = self.schedule.T
        if self.mode != "relative":
            per_step = np.full(T, abs(self.level))
            return EpsReport(float(np.sqrt(np.mean(per_step**2))), per_step)
        if mc_samples < 1:
            raise InvalidParams("relative mode needs mc_samples >= 1")
        if stream is None:
            raise InvalidParams("relative mode needs a random stream")
        mean_sq = np.empty(T)
        var_sq = np.empty(T)
        for t in range(1, T + 1):
            draws = targets.sample(self.marginal(t), mc_samples, stream)
            sq = np.sum(targets.score(self.marginal(t), draws) ** 2, axis=1)
            mean_sq[t - 1] = sq.mean()
            var_sq[t - 1] = sq.var(ddof=1) / mc_samples if mc_samples > 1 else 0.0
        per_step = abs(self.level) * np.sqrt(mean_sq)
        mean_eps_sq = float(self.level**2 * np.mean(mean_sq))
        eps = float(np.sqrt(mean_eps_sq))
        # stderr of sqrt(mean of rho^2 * mean_sq): delta method
        var_mean = float(self.level**4 * np.sum(var_sq)) / T**2
        stderr = 0.5 * np.sqrt(var_mean) / eps if eps > 0 else 0.0
        return EpsReport(eps, per_step, stderr)
