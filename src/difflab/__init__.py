"""difflab: a desk-scale laboratory for score-based diffusion samplers.

Builds step-size schedules, Gaussian-mixture score oracles, three reverse
samplers (a three-evaluation accelerated stochastic step, a plain stochastic
baseline, and a deterministic flow step), exact Gaussian law propagation,
and empirical distance metrics, plus a sweep harness that fits log-log
convergence slopes.
"""

from . import analytic, harness, metrics, samplers, schedule, score_oracle, targets
from .schedule import ScheduleParams, build_schedule

__version__ = "0.1.0"
