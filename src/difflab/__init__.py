"""difflab: a desk-scale laboratory for score-based diffusion samplers.

Builds step-size schedules, Gaussian-mixture score oracles, three reverse
samplers (a two-evaluation accelerated stochastic step, a plain stochastic
baseline, and a deterministic flow step), exact Gaussian law propagation,
and empirical distance metrics, plus a sweep harness that fits log-log
convergence slopes.
"""

from .analytic import (
    gaussian_kl,
    gaussian_tv_bound,
    propagate,
    scalar_propagate,
    target_law,
)
from .harness import ExperimentConfig, SlopeFit, SweepReport, fit_slope, run_sweep
from .metrics import moment_kl, sliced_tv
from .samplers import (
    KINDS,
    TrajectoryBatch,
    accelerated_step,
    ddpm_step,
    ode_step,
    run_batch,
)
from .schedule import (
    CheckReport,
    Schedule,
    ScheduleParams,
    build_schedule,
    clip,
    schedule_lemma_checks,
)
from .score_oracle import EpsReport, ScoreModel
from .targets import (
    GaussianMixture,
    forward_marginal,
    gaussian_target,
    load_target,
    log_density,
    projected_cdf,
    score,
    standard_normal_target,
)

__version__ = "0.1.0"
