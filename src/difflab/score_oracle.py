"""Sampler-facing score interface: exact scores and controlled perturbations.

Three modes:

  exact     s_t(x) = grad log p_t(x), evaluated in closed form from the
            noised-marginal mixture at step t.
  offset    s_t(x) = exact + delta_t * u_t for a fixed unit vector u_t.
            The per-step root-mean-square error is delta_t exactly, since
            the perturbation does not depend on x.
  relative  s_t(x) = (1 + rho) * exact.  The per-step error is
            |rho| * sqrt(E||s_t(X_t)||^2), estimated by Monte Carlo.

The aggregate error is eps_score = sqrt(mean over t of eps_t^2).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import targets
from .errors import DimensionMismatch, IndexOutOfRange, InvalidParams
from .schedule import Schedule
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
    delta: np.ndarray | None = None       # (T,), offset mode
    rho: float = 0.0                      # relative mode
    directions: np.ndarray | None = None  # (T, d), offset mode
    _marginals: dict[int, GaussianMixture] = field(default_factory=dict, init=False,
                                                   repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParams(f"unknown score mode {self.mode!r}")
        if self.target.d != self.schedule.d:
            raise DimensionMismatch(
                f"target dimension {self.target.d} != schedule dimension {self.schedule.d}"
            )
        if self.mode == "offset":
            if self.delta is None or self.delta.shape != (self.schedule.T,):
                raise InvalidParams("offset mode needs a per-step delta array of length T")
            if self.directions is None:
                dirs = np.zeros((self.schedule.T, self.target.d))
                dirs[:, 0] = 1.0
                object.__setattr__(self, "directions", dirs)
            norms = np.linalg.norm(self.directions, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise InvalidParams("offset directions must be unit vectors")

    @classmethod
    def exact(cls, target: GaussianMixture, schedule: Schedule) -> "ScoreModel":
        return cls(mode="exact", target=target, schedule=schedule)

    @classmethod
    def offset(cls, target: GaussianMixture, schedule: Schedule, delta,
               directions: np.ndarray | None = None) -> "ScoreModel":
        delta = np.asarray(delta, dtype=float)
        if delta.ndim == 0:
            delta = np.full(schedule.T, float(delta))
        return cls(mode="offset", target=target, schedule=schedule,
                   delta=delta, directions=directions)

    @classmethod
    def relative(cls, target: GaussianMixture, schedule: Schedule, rho: float) -> "ScoreModel":
        return cls(mode="relative", target=target, schedule=schedule, rho=float(rho))

    @classmethod
    def from_config(cls, target: GaussianMixture, schedule: Schedule, cfg: dict) -> "ScoreModel":
        """Build from a config fragment {"mode": ..., "delta": ..., "rho": ...}."""
        mode = cfg.get("mode", "exact")
        if mode == "exact":
            return cls.exact(target, schedule)
        if mode == "offset":
            return cls.offset(target, schedule, cfg["delta"])
        if mode == "relative":
            return cls.relative(target, schedule, cfg["rho"])
        raise InvalidParams(f"unknown score mode {mode!r}")

    def marginal(self, t: int) -> GaussianMixture:
        try:
            t = operator.index(t)
        except TypeError:
            raise InvalidParams(f"score step must be one integer, got {t!r}") from None
        if not (1 <= t <= self.schedule.T):
            raise IndexOutOfRange(f"score step {t} outside [1, {self.schedule.T}]")
        law = self._marginals.get(t)
        if law is None:
            law = targets.forward_marginal(self.target, self.schedule, t)
            self._marginals[t] = law
        return law

    def evaluate(self, t: int, x: np.ndarray) -> np.ndarray:
        """s_t(x); accepts a single vector (d,) or a batch (n, d)."""
        law = self.marginal(t)
        base = targets.score(law, x)
        if self.mode == "exact":
            return base
        if self.mode == "offset":
            return base + self.delta[t - 1] * self.directions[t - 1]
        return (1.0 + self.rho) * base

    def eps_score(self, mc_samples: int = 0,
                  stream: np.random.Generator | None = None) -> EpsReport:
        """Root-mean-square per-step error aggregated over the horizon.

        Exact and offset modes are computed in closed form; relative mode
        estimates E||s_t(X_t)||^2 with ``mc_samples`` draws per step and
        reports the delta-method standard error of the aggregate.
        """
        T = self.schedule.T
        if self.mode == "exact":
            return EpsReport(0.0, np.zeros(T))
        if self.mode == "offset":
            per_step = np.abs(self.delta)
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
        per_step = np.abs(self.rho) * np.sqrt(mean_sq)
        mean_eps_sq = float(self.rho**2 * np.mean(mean_sq))
        eps = float(np.sqrt(mean_eps_sq))
        # stderr of sqrt(mean of rho^2 * mean_sq): delta method
        var_mean = float(self.rho**4 * np.sum(var_sq)) / T**2
        stderr = 0.5 * np.sqrt(var_mean) / eps if eps > 0 else 0.0
        return EpsReport(eps, per_step, stderr)
