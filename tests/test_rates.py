"""Convergence-rate diagnostics for the exact-propagation oracle.

These validate that the measured rate behavior is the genuine article:
the fitted slopes approach -4 (accelerated) and -2 (baseline) as the
horizon grid moves past the log-factor-dominated regime, the accelerated
sampler is uniformly more accurate, and the oracle agrees with Monte
Carlo for every sampler kind.  The release gate itself lives in
test_acceptance.py.
"""

import numpy as np
import pytest

from difflab.analytic import final_kl, gaussian_kl, propagate, target_law
from difflab.harness import fit_slope
from difflab.samplers import run_batch
from difflab.schedule import ScheduleParams, build_schedule
from difflab.score_oracle import ScoreModel
from difflab.targets import forward_marginal, gaussian_target, standard_normal_target


def analytic_kls(kind, grid, c0=2.0, c1=2.5, d=2):
    target = target_law(standard_normal_target(d))
    out = []
    for T in grid:
        s = build_schedule(ScheduleParams(T=T, c0=c0, c1=c1, d=d))
        out.append((T, final_kl(s, target, kind)))
    return out


def test_rate_thresholds_hold_past_preasymptotic_regime():
    # two octaves up, the log-factor contamination (slope + k/log T) has
    # decayed enough for the small-grid thresholds to hold
    grid = (1024, 2048, 4096, 8192, 16384)
    acc = fit_slope(analytic_kls("accelerated_noclip", grid)).slope
    ddpm = fit_slope(analytic_kls("ddpm", grid)).slope
    assert acc <= -3.2
    assert -2.6 <= ddpm <= -1.6


def test_rate_separation_on_small_grid():
    grid = (16, 32, 64, 128, 256)
    acc = analytic_kls("accelerated_noclip", grid)
    ddpm = analytic_kls("ddpm", grid)
    acc_slope = fit_slope(acc).slope
    ddpm_slope = fit_slope(ddpm).slope
    # clear rate gap and uniformly smaller error from T = 32 on
    assert acc_slope < ddpm_slope - 0.8
    assert all(a[1] < d_[1] for a, d_ in zip(acc[1:], ddpm[1:]))


def test_slopes_steepen_toward_asymptotes():
    grids = [(16, 32, 64, 128, 256), (64, 128, 256, 512, 1024),
             (256, 512, 1024, 2048, 4096)]
    acc_slopes = [fit_slope(analytic_kls("accelerated_noclip", g)).slope
                  for g in grids]
    ddpm_slopes = [fit_slope(analytic_kls("ddpm", g)).slope for g in grids]
    assert acc_slopes[0] > acc_slopes[1] > acc_slopes[2] >= -4.0
    assert ddpm_slopes[0] > ddpm_slopes[1] > ddpm_slopes[2] >= -2.0


def test_kl_argument_orders_both_available():
    target = target_law(gaussian_target([0.5, 0.0], 0.9 * np.eye(2)))
    s = build_schedule(ScheduleParams(T=32, c0=2.0, c1=2.0, d=2))
    p_x1 = forward_marginal(target, s, 1)
    p_y1 = propagate(s, target, "ddpm")
    forward = gaussian_kl(p_x1, p_y1)
    reverse = gaussian_kl(p_y1, p_x1)
    assert forward > 0 and reverse > 0
    assert forward != reverse  # asymmetric in general


@pytest.mark.parametrize("kind,d,T", [
    ("ddpm", 1, 16),
    ("ddpm", 2, 256),
    ("ode", 1, 16),
    ("ode", 2, 64),
    ("accelerated_noclip", 1, 64),
    ("accelerated_noclip", 2, 128),
])
def test_oracle_agreement_every_kind(kind, d, T):
    target = standard_normal_target(d)
    s = build_schedule(ScheduleParams(T=T, c0=4.0, c1=4.0, d=d))
    model = ScoreModel("exact", target, s)
    n = 50_000
    batch = run_batch(kind, s, model, n, seed=909)
    law = propagate(s, target_law(target), kind)

    se_mean = np.sqrt(np.diag(law.cov) / n)
    assert np.all(np.abs(batch.y1.mean(axis=0) - law.mean) < 5 * se_mean)
    v = law.cov
    emp = np.cov(batch.y1, rowvar=False).reshape(d, d)
    se_cov = np.sqrt((np.outer(np.diag(v), np.diag(v)) + v**2) / n)
    assert np.all(np.abs(emp - v) < 6 * se_cov)
