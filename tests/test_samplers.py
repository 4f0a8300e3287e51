import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from difflab import samplers
from difflab.errors import InvalidParams, UnsupportedKind
from difflab.samplers import (
    KINDS,
    TrajectoryBatch,
    _draws,
    _row_words,
    accelerated_step,
    ddpm_step,
    ode_step,
    ordered_map,
    run_batch,
    step,
)
from difflab.schedule import Schedule, ScheduleParams, build_schedule, clip as schedule_clip
from difflab.score_oracle import ScoreModel
from difflab.targets import (
    GaussianMixture,
    gaussian_target,
    load_target,
    score,
    standard_normal_target,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def handcrafted_schedule(alpha_t=0.96, clip_radius=1.0, d=1):
    """Two-step schedule with a chosen rate at t=2 (marginals of a
    stationary target do not depend on the cumulative rates), in the
    t-indexed layout: entry t for t = 0, 1, 2."""
    params = ScheduleParams(T=2, c0=1.0, c1=0.5, c_clip=1.0, d=d)
    sigma = math.sqrt(alpha_t - 1.0 / (3.0 - 2.0 * alpha_t))
    return Schedule(
        params=params,
        alpha_bar=np.array([1.0, 0.5, 0.5 * alpha_t]),
        alpha=np.array([math.nan, 0.5, alpha_t]),
        sigma=np.array([math.nan, math.nan, sigma]),
        clip_radius=np.array([math.nan, math.nan, clip_radius]),
    )


class ZeroScore:
    """Duck-typed score model that is identically zero."""

    def evaluate(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class CountingScore:
    """Wraps a score model, recording evaluation arguments per step."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def evaluate(self, t, x):
        self.calls.append((t, np.array(x, copy=True)))
        return self.inner.evaluate(t, x)


def test_zero_score_step_reduces_to_rescaling():
    s = handcrafted_schedule()
    y = np.array([[1.7]])
    zero = np.zeros((1, 1))
    y_prev, clipped = accelerated_step(s, ZeroScore(), 2, y, zero, zero)
    assert not clipped[0]
    assert np.allclose(y_prev, y / math.sqrt(0.96), rtol=1e-14)
    assert np.allclose(ddpm_step(s, ZeroScore(), 2, y, zero), y / math.sqrt(0.96))
    assert np.allclose(ode_step(s, ZeroScore(), 2, y), y / math.sqrt(0.96))


def test_accelerated_step_hand_evaluation():
    # stationary N(0,1): s_t(x) = -x at every t; alpha = 0.96,
    # y = 1, z_mid = 0.5, z = -1
    a = 0.96
    s = handcrafted_schedule(alpha_t=a, clip_radius=1.0)
    model = ScoreModel("exact", standard_normal_target(1), s)

    y_mid = (1.0 + (0.04 / (2 * a)) * (-1.0)) / math.sqrt(a) + 0.04 * 0.5
    g_raw = a**1.5 * (-y_mid) - (-(1.0 + 0.04 * 0.5))
    sigma = math.sqrt(a - 1.0 / (3.0 - 2.0 * a))
    expected = (1.0 + 0.04 * (-1.0 + a * g_raw) + sigma * (-1.0)) / math.sqrt(a)

    assert abs(y_mid - 1.0193578) < 1e-7
    assert abs(g_raw - 0.0611880) < 1e-6
    assert abs(sigma - 0.1845918) < 5e-7
    assert abs(expected - 0.79379) < 1e-5

    y_prev, clipped = accelerated_step(
        s, model, 2, np.array([[1.0]]), np.array([[0.5]]), np.array([[-1.0]]))
    assert not clipped[0]
    assert np.allclose(y_prev, expected, rtol=1e-12)


def test_accelerated_step_clip_engages():
    a = 0.96
    s = handcrafted_schedule(alpha_t=a, clip_radius=0.01)
    model = ScoreModel("exact", standard_normal_target(1), s)
    sigma = math.sqrt(a - 1.0 / (3.0 - 2.0 * a))
    expected = (1.0 + 0.04 * (-1.0) + sigma * (-1.0)) / math.sqrt(a)
    y_prev, clipped = accelerated_step(
        s, model, 2, np.array([[1.0]]), np.array([[0.5]]), np.array([[-1.0]]))
    assert clipped[0]
    assert np.allclose(y_prev, expected, rtol=1e-12)

    # with use_clip=False the threshold is ignored
    y_prev, clipped = accelerated_step(
        s, model, 2, np.array([[1.0]]), np.array([[0.5]]), np.array([[-1.0]]),
        use_clip=False)
    assert not clipped[0]


def test_step_clip_matches_schedule_clip_operator():
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, c_clip=0.02, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    rng = np.random.default_rng(3)
    for t in [2, 5, 8]:
        y = rng.standard_normal((1, 2)) * 3
        z_mid = rng.standard_normal((1, 2))
        a = s.alpha[t]
        g_raw = (a**1.5 * model.evaluate(t - 1, (y + (1 - a) / (2 * a) * model.evaluate(t, y))
                                         / math.sqrt(a) + (1 - a) * z_mid)
                 - model.evaluate(t, y + (1 - a) * z_mid))
        _, clipped = accelerated_step(s, model, t, y, z_mid, np.zeros((1, 2)))
        assert clipped[0] == bool(np.all(schedule_clip(s, t, g_raw) == 0.0)
                                  and np.linalg.norm(g_raw) > 0)


def test_ddpm_step_hand_evaluation():
    s = handcrafted_schedule(alpha_t=0.96)
    model = ScoreModel("exact", standard_normal_target(1), s)
    y_prev = ddpm_step(s, model, 2, np.array([[1.0]]), np.array([[0.0]]))
    assert np.allclose(y_prev, 0.96 / math.sqrt(0.96), rtol=1e-14)
    assert abs(float(y_prev[0, 0]) - 0.9798) < 1e-4


def test_ode_step_hand_evaluation():
    s = handcrafted_schedule(alpha_t=0.96)
    model = ScoreModel("exact", standard_normal_target(1), s)
    y_prev = ode_step(s, model, 2, np.array([[1.0]]))
    assert np.allclose(y_prev, 0.98 / math.sqrt(0.96), rtol=1e-14)
    assert abs(float(y_prev[0, 0]) - 1.0002) < 1e-4


def test_shared_noise_contract():
    # one z_mid draw serves both the intermediate point and the second
    # score argument; per step the current-step score is evaluated exactly
    # twice and the previous-step score exactly once
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    counter = CountingScore(ScoreModel("exact", standard_normal_target(2), s))
    rng = np.random.default_rng(0)
    t = 5
    y = rng.standard_normal((1, 2))
    z_mid = rng.standard_normal((1, 2))
    accelerated_step(s, counter, t, y, z_mid, rng.standard_normal((1, 2)))

    steps = [t_ for t_, _ in counter.calls]
    assert steps.count(t) == 2
    assert steps.count(t - 1) == 1
    assert len(steps) == 3

    a = s.alpha[t]
    args_t = [x for t_, x in counter.calls if t_ == t]
    perturbed = [x for x in args_t if not np.allclose(x.ravel(), y)]
    assert len(perturbed) == 1
    assert np.allclose(perturbed[0].ravel(), y + (1 - a) * z_mid, rtol=1e-14)


def test_step_index_and_dimension_errors():
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    z = np.zeros((1, 2))
    for t in (1, 0, 9):  # no step is defined at t = 1 (early stopping)
        with pytest.raises(InvalidParams, match="outside"):
            accelerated_step(s, model, t, z, z, z)
        with pytest.raises(InvalidParams, match="outside"):
            ddpm_step(s, model, t, z, z)
        with pytest.raises(InvalidParams, match="outside"):
            ode_step(s, model, t, z)
    with pytest.raises(InvalidParams, match="expected a batch"):
        ddpm_step(s, model, 2, np.zeros((1, 3)), np.zeros((1, 3)))


def test_batch_rows_match_single_steps():
    # rows are independent: each row of a batch step is the step of that row
    # alone, as a one-row batch
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    rng = np.random.default_rng(8)
    y = rng.standard_normal((5, 2))
    z_mid = rng.standard_normal((5, 2))
    z = rng.standard_normal((5, 2))
    batch, _ = accelerated_step(s, model, 3, y, z_mid, z)
    for i in range(5):
        single, _ = accelerated_step(s, model, 3, y[i:i + 1], z_mid[i:i + 1], z[i:i + 1])
        assert np.allclose(batch[i], single[0], rtol=1e-14)


def test_vectors_are_not_batches():
    # every point-wise function takes (n, d) batches only; a bare (d,) vector
    # is refused rather than read as one point
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    target = standard_normal_target(2)
    model = ScoreModel("exact", target, s)
    v = np.zeros(2)
    calls = [lambda: score(target, v),
             lambda: accelerated_step(s, model, 3, v, v, v),
             lambda: accelerated_step(s, model, 3, v, v, v, use_clip=False),
             lambda: ddpm_step(s, model, 3, v, v), lambda: ode_step(s, model, 3, v),
             lambda: schedule_clip(s, 3, v), lambda: model.evaluate(3, v)]
    for call in calls:
        with pytest.raises(InvalidParams, match="expected a batch"):
            call()
    row = v[None]
    assert score(target, row).shape == (1, 2)
    assert ddpm_step(s, model, 3, row, row).shape == schedule_clip(s, 3, row).shape == (1, 2)


def gaussian_score(s, seed):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((s.d, s.d))
    return ScoreModel("exact", gaussian_target(rng.standard_normal(s.d),
                                               root @ root.T + 0.5 * np.eye(s.d)), s)


@pytest.mark.parametrize("kind", ["accelerated", "accelerated_noclip", "ddpm", "ode"])
def test_time_batched_step_matches_per_step_calls(kind):
    # an int array t of m steps runs step k over rows [k r, (k + 1) r): the
    # rows equal the per-t calls stacked back in row order, at d = 4 as at
    # d = 2 and for runs of one row as of three; with clip on, the threshold
    # acts row by row at each row's own radius
    for d, r in ((2, 1), (4, 1), (2, 3), (4, 3)):
        s = build_schedule(ScheduleParams(T=12, c0=2.0, c1=2.0, c_clip=0.4 / d, d=d))
        score = gaussian_score(s, 9)
        rng = np.random.default_rng(10)
        n = 132 * r if r > 1 else 400
        t = rng.integers(2, s.T + 1, size=n // r)
        y, z_mid, z = 2.0 * rng.standard_normal((3, n, d))
        batched, clipped = step(kind, s, score, t, y, z_mid, z)
        stacked = np.empty_like(batched)
        stacked_clipped = np.empty_like(clipped)
        for k in np.unique(t):
            rows = np.repeat(t, r) == k
            stacked[rows], stacked_clipped[rows] = step(kind, s, score, int(k), y[rows],
                                                        z_mid[rows], z[rows])
        assert np.array_equal(batched, stacked)
        assert np.array_equal(clipped, stacked_clipped)
        if kind == "accelerated":
            assert 0 < np.count_nonzero(clipped) < n
    # a step array whose length does not divide the rows is refused
    with pytest.raises(InvalidParams, match="whose length divides 6"):
        step(kind, s, score, np.array([2, 3, 4, 5]), *np.zeros((3, 6, s.d)))


@pytest.mark.parametrize("kind", ["accelerated", "accelerated_noclip", "ddpm", "ode"])
def test_time_batched_step_index_errors(kind):
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    score = gaussian_score(s, 1)
    zeros = np.zeros((3, 2))
    for t in ([2, 1, 5], [9, 2, 2], [0, 0, 0]):
        with pytest.raises(InvalidParams, match="outside"):
            step(kind, s, score, np.array(t), zeros, zeros, zeros)


def mixture_score_model(s, seed):
    rng = np.random.default_rng(seed)
    covs = rng.standard_normal((3, s.d, s.d))
    return ScoreModel("exact", GaussianMixture(np.array([0.2, 0.3, 0.5]),
                                               rng.uniform(-2.0, 2.0, (3, s.d)),
                                               covs @ np.swapaxes(covs, 1, 2) + 0.5 * np.eye(s.d)), s)


@pytest.mark.parametrize("kind", KINDS)
def test_step_ignores_memory_order(kind):
    # C-ordered and F-ordered copies of (y, z_mid, z) give the same bits and
    # clip decisions, on one Gaussian and on a mixture; F-ordered inputs give
    # an F-ordered y_prev, the layout the chunk loop keeps from step to step
    rng = np.random.default_rng(31)
    clips = 0
    for d in (1, 2, 3, 4):
        s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, c_clip=0.1, d=d))
        for model in (gaussian_score(s, d), mixture_score_model(s, d)):
            for n in (1, 2, 8193):
                draws = 2.0 * rng.standard_normal((3, n, d))
                c = step(kind, s, model, 5, *(np.ascontiguousarray(a) for a in draws))
                f = step(kind, s, model, 5, *(np.asfortranarray(a) for a in draws))
                assert c[0].tobytes() == f[0].tobytes()
                assert np.array_equal(c[1], f[1])
                assert f[0].flags.f_contiguous
                clips += int(np.count_nonzero(f[1]))
    assert (clips > 0) == (kind == "accelerated")


def test_noise_rows_are_chunk_invariant():
    # a row's words depend only on (seed, step, row): rows 7.. drawn alone are
    # the same rows of the whole batch, at every step, written word-major
    d, seed, p = 2, 4242, _row_words(2)
    for t in (0, 5, 8):
        whole = _draws(seed, t, 0, np.empty((20, p)), np.empty((2 * d, 20)), slice(None))
        part = _draws(seed, t, 7, np.empty((13, p)), np.empty((2 * d, 13)), slice(None))
        assert part.shape == (4, 13)
        assert np.array_equal(whole[:, 7:], part)
    assert [_row_words(d) for d in (1, 2, 3, 4, 5)] == [4, 4, 8, 8, 12]


@pytest.mark.parametrize("kind", KINDS)
def test_noise_layout_written_out(kind, monkeypatch):
    # the layout by hand: step t draws from Philox(seed + (t << 64)), t = 0
    # for Y_T; row i reads words [i p, i p + 2d), z_mid first, then z; Y_T
    # is the first d words of its row.  Stepping rows at odd offsets across
    # chunk boundaries gives run_batch's bits, clip decisions included
    target = load_target(str(CONFIGS / "mixture_2d_three.json"))
    s = build_schedule(ScheduleParams(T=6, c0=2.0, c1=2.0, c_clip=0.05, d=2))
    model = ScoreModel("exact", target, s)
    seed, d, p = 2**64 - 5, 2, 4
    monkeypatch.setattr(samplers, "_CHUNK_ROWS", 8)
    batch = run_batch(kind, s, model, 24, seed=seed)
    rows = np.array([3, 7, 9, 13, 17, 23])

    def normal_words(t):
        u = np.random.Generator(np.random.Philox(key=seed + (t << 64))).random(24 * p)
        return ndtri(np.maximum(u.reshape(24, p)[rows, :2 * d], 2.0**-54))

    y = normal_words(0)[:, :d]
    clips = 0
    for t in range(s.T, 1, -1):
        w = normal_words(t)
        y, clipped = step(kind, s, model, t, y, w[:, :d], w[:, d:])
        clips += int(np.count_nonzero(clipped))
    assert np.array_equal(y, batch.y1[rows])
    if kind == "accelerated":
        assert 0 < clips <= batch.clip_activations


def test_step_keys_never_collide():
    # (seed, t) keys Philox(seed + (t << 64)): every pair gives its own
    # stream, at the edges of the seed range too, where a key seed + t
    # would give (seed, t + 1) the stream of (seed + 1, t)
    seeds = [0, 1, 2, 2**63, 2**64 - 2, 2**64 - 1]
    steps = [0, 1, 2, 3, 1024]
    first = {(seed, t): _draws(seed, t, 0, np.empty((1, 4)), np.empty((4, 1)),
                               slice(None)).tobytes()
             for seed in seeds for t in steps}
    assert len(set(first.values())) == len(first)


def test_step_draws_are_uncorrelated(monkeypatch):
    # the draws one row receives (Y_T, then z_mid and z at every step) are
    # standard normal and pairwise uncorrelated over a large batch
    s = build_schedule(ScheduleParams(T=4, c0=2.0, c1=2.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    n = 20000
    seen = []
    real_step = samplers.step

    def recording_step(kind, s, model, t, y, z_mid, z):
        seen.extend([np.array(y)] * (t == s.T) + [np.array(z_mid), np.array(z)])
        return real_step(kind, s, model, t, y, z_mid, z)

    monkeypatch.setattr(samplers, "step", recording_step)
    monkeypatch.setattr(samplers, "_CHUNK_ROWS", n)
    run_batch("accelerated", s, model, n, seed=99)
    draws = np.hstack(seen)
    assert draws.shape == (n, 2 * (1 + 2 * (s.T - 1)))
    tol = 5.0 / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0)) < tol)
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < math.sqrt(2.0) * tol)
    corr = np.corrcoef(draws, rowvar=False)
    assert np.all(np.abs(corr[np.triu_indices_from(corr, k=1)]) < tol)


def test_run_batch_deterministic_across_jobs():
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    n = 2 * samplers._CHUNK_ROWS + 4465  # spans three chunks, the last one short
    one = run_batch("accelerated", s, model, n, seed=11, jobs=1)
    again = run_batch("accelerated", s, model, n, seed=11, jobs=1)
    parallel = run_batch("accelerated", s, model, n, seed=11, jobs=4)
    assert np.array_equal(one.y1, again.y1)
    assert np.array_equal(one.y1, parallel.y1)
    assert one.clip_activations == parallel.clip_activations
    assert one.clip_activations <= n * (s.T - 1)


def test_run_batch_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    # a row's draws depend only on (seed, step, row), so the clip decisions
    # and the outputs of every kind are the same for any chunking of the
    # batch, and for noise blocks that hold any number of steps
    target = load_target(str(CONFIGS / "mixture_2d_three.json"))
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=2.0, c_clip=0.05, d=2))
    model = ScoreModel("exact", target, s)
    n = 7000  # one default chunk, its 15 steps' noise in runs of 8 and 7
    default = {kind: run_batch(kind, s, model, n, seed=21) for kind in KINDS}
    assert [kind for kind in KINDS if default[kind].clip_activations > 0] == ["accelerated"]
    # chunks of 997 rows, the last one short, each with all 15 steps in one
    # run; then chunks of 3000 rows whose two halves hold 4 steps' (2d, rows)
    # slabs each, beside two (rows, p) scratches: runs of 4, 4, 4 and 3 steps;
    # then one step per half, so the next run is drawn at every step; then a
    # last chunk of one row, scored like a row of any batch
    slab = 4 * 3000 * 8  # 2d = p = 4 words of 3000 rows
    for rows, noise_bytes in ((997, samplers._NOISE_BYTES), (3000, (2 * 4 + 2) * slab),
                              (3000, (2 + 2) * slab), (n - 1, samplers._NOISE_BYTES)):
        monkeypatch.setattr(samplers, "_CHUNK_ROWS", rows)
        monkeypatch.setattr(samplers, "_NOISE_BYTES", noise_bytes)
        for kind in KINDS:
            chunked = run_batch(kind, s, model, n, seed=21)
            assert chunked.clip_activations == default[kind].clip_activations
            assert np.array_equal(chunked.y1, default[kind].y1)


def test_each_step_is_drawn_once_by_either_thread(monkeypatch):
    # the caller draws Y_T; every step of every run is drawn exactly once, into
    # the half-block the caller is not stepping through; within a run the
    # helper thread draws a prefix (possibly empty) and the caller the rest
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=2.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    rows, slab = 1000, 4 * 1000 * 8  # a step's (2d, rows) slab, in bytes
    events = []
    real_draws, real_step = samplers._draws, samplers.step

    def recording_draws(seed, t, lo, scratch, out, words):
        events.append((t, threading.get_ident(), out.ctypes.data))
        return real_draws(seed, t, lo, scratch, out, words)

    def recording_step(kind, s, model, t, y, z_mid, z):
        events.append((t, "step", None))
        return real_step(kind, s, model, t, y, z_mid, z)

    monkeypatch.setattr(samplers, "_draws", recording_draws)
    monkeypatch.setattr(samplers, "step", recording_step)
    # two halves of 4 slabs and two (rows, p) scratches: runs of 4, 4, 4 and 3
    monkeypatch.setattr(samplers, "_NOISE_BYTES", (2 * 4 + 2) * slab)
    run_batch("accelerated", s, model, rows, seed=3)
    caller = threading.get_ident()
    draws = [event for event in events if event[1] != "step"]
    assert [ident for t, ident, _ in draws if t == 0] == [caller]
    steps = [event for event in draws if event[0] != 0]
    assert sorted(t for t, _, _ in steps) == list(range(2, 17))
    drawn = {t: (ident, address) for t, ident, address in steps}
    when = {(t, ident == "step"): i for i, (t, ident, _) in enumerate(events)}
    runs = [[16, 15, 14, 13], [12, 11, 10, 9], [8, 7, 6, 5], [4, 3, 2]]
    slots = [[drawn[t][1] for t in run] for run in runs]
    assert all(np.diff(slot).tolist() == [slab] * (len(slot) - 1) for slot in slots)
    assert slots[0] == slots[2] and slots[1][:3] == slots[3]  # two halves, alternating
    assert abs(slots[1][0] - slots[0][0]) >= 4 * slab
    for j, run in enumerate(runs):
        by_caller = [drawn[t][0] == caller for t in run]
        assert by_caller == sorted(by_caller)  # helper's steps first, then the caller's
        # drawn after the caller left this half (run j - 2) and before it returns
        after = when[(runs[j - 2][-1], True)] if j >= 2 else -1
        assert all(after < when[(t, False)] < when[(run[0], True)] for t in run)


def test_the_caller_draws_what_a_slow_helper_has_not(monkeypatch):
    # with the helper thread's draws slowed to 20 ms a step, outputs and clip
    # counts are those of the default run, and the caller, free long before
    # the helper, draws most steps itself
    target = load_target(str(CONFIGS / "mixture_2d_three.json"))
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=2.0, c_clip=0.05, d=2))
    model = ScoreModel("exact", target, s)
    default = {kind: run_batch(kind, s, model, 1000, seed=8) for kind in KINDS}
    caller = threading.get_ident()
    by_caller = []
    real_draws = samplers._draws

    def slow_helper_draws(seed, t, lo, scratch, out, words):
        if t:
            by_caller.append(threading.get_ident() == caller)
        if threading.get_ident() != caller:
            time.sleep(0.02)
        return real_draws(seed, t, lo, scratch, out, words)

    monkeypatch.setattr(samplers, "_draws", slow_helper_draws)
    # two halves of 4 (2d, rows) slabs and two (rows, p) scratches: runs of 4, 4, 4 and 3
    monkeypatch.setattr(samplers, "_NOISE_BYTES", (2 * 4 + 2) * 4 * 1000 * 8)
    for kind in KINDS:
        by_caller.clear()
        slowed = run_batch(kind, s, model, 1000, seed=8)
        assert slowed.clip_activations == default[kind].clip_activations
        assert np.array_equal(slowed.y1, default[kind].y1)
        if samplers.READS[kind]:
            assert len(by_caller) == 15 and sum(by_caller) > 15 / 2
        else:
            assert by_caller == []


def test_draw_queue_holds_under_thread_switches(monkeypatch):
    # a step popped by neither thread would leave a stale slab, and one popped
    # by both would be drawn twice: with a 10 us switch interval and twelve
    # batches run four at a time (eight threads on fewer cores), every step of
    # every batch is drawn once and every output is that of a quiet run
    target = load_target(str(CONFIGS / "mixture_2d_three.json"))
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=2.0, c_clip=0.05, d=2))
    model = ScoreModel("exact", target, s)
    # two halves of 4 (2d, rows) slabs and two (rows, p) scratches: runs of 4, 4, 4 and 3
    monkeypatch.setattr(samplers, "_NOISE_BYTES", (2 * 4 + 2) * 4 * 500 * 8)
    calls = [(kind, 100 + i) for i, kind in enumerate(KINDS * 3)]
    quiet = [run_batch(kind, s, model, 500, seed=seed) for kind, seed in calls]
    drawn = []
    real_draws = samplers._draws

    def counting_draws(seed, t, lo, scratch, out, words):
        drawn.append((seed, t))
        return real_draws(seed, t, lo, scratch, out, words)

    monkeypatch.setattr(samplers, "_draws", counting_draws)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run_batch, kind, s, model, 500, seed) for kind, seed in calls]
            busy = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for (kind, seed), a, b in zip(calls, quiet, busy):
        assert np.array_equal(a.y1, b.y1) and a.clip_activations == b.clip_activations
        steps = sorted(t for seed_, t in drawn if seed_ == seed)
        assert steps == ([0] + list(range(2, 17)) if samplers.READS[kind] else [0])


def test_no_thread_outlives_a_chunk(monkeypatch):
    # the helper is gone when run_batch returns, and when a step raises
    # mid-chunk, whose own exception reaches the caller
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=2.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    before = threading.active_count()
    # two halves of one (2d, rows) slab and two (rows, p) scratches: one step per run
    monkeypatch.setattr(samplers, "_NOISE_BYTES", (2 + 2) * 4 * 2500 * 8)
    for kind in KINDS:
        run_batch(kind, s, model, 2500, seed=5)
        assert threading.active_count() == before

    class StepFailed(Exception):
        pass

    real_step = samplers.step

    def failing_step(kind, s, model, t, y, z_mid, z):
        if t == 9:
            raise StepFailed(t)
        return real_step(kind, s, model, t, y, z_mid, z)

    monkeypatch.setattr(samplers, "step", failing_step)
    for kind in KINDS:
        with pytest.raises(StepFailed):
            run_batch(kind, s, model, 2500, seed=5)
        assert threading.active_count() == before


@pytest.mark.parametrize("T, n", [(64, 32768), (1024, 1024)])
def test_sampling_memory_does_not_grow_with_T(T, n):
    # a chunk holds a fixed number of rows and draws its noise run by run
    # into two halves that, with the two threads' scratches, fill
    # _NOISE_BYTES, so the peak is that block and a few MiB of per-step
    # arrays, at any horizon
    s = build_schedule(ScheduleParams(T=T, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    tracemalloc.start()
    try:
        run_batch("accelerated", s, model, n, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * samplers._NOISE_BYTES + 4 * 2**20


def test_chunks_hold_chunk_rows_whatever_T(monkeypatch):
    # every chunk but the last holds _CHUNK_ROWS rows, at T = 1024 as at T = 8
    rows = samplers._CHUNK_ROWS
    for T in (8, 1024):
        s = build_schedule(ScheduleParams(T=T, c0=2.0, c1=2.0, d=2))
        model = ScoreModel("exact", standard_normal_target(2), s)
        spans = []

        def fake_chunk(kind, s, model, seed, lo, hi):
            spans.append((lo, hi))
            return np.zeros((hi - lo, s.d)), 0

        monkeypatch.setattr(samplers, "_simulate_chunk", fake_chunk)
        n = 3 * rows + 5
        assert run_batch("accelerated", s, model, n, seed=1).y1.shape == (n, 2)
        assert spans == [(0, rows), (rows, 2 * rows), (2 * rows, 3 * rows), (3 * rows, n)]


def test_pool_capped_at_the_work(pool_sizes):
    s = build_schedule(ScheduleParams(T=4, c0=2.0, c1=2.0, d=1))
    model = ScoreModel("exact", standard_normal_target(1), s)
    n = 2 * samplers._CHUNK_ROWS + 4465  # three chunks, the last one short
    pooled = run_batch("ddpm", s, model, n, seed=3, jobs=5000)
    assert pool_sizes == [3]
    assert np.array_equal(pooled.y1, run_batch("ddpm", s, model, n, seed=3).y1)
    # one call, or one job, never starts a pool
    assert list(ordered_map(divmod, [(7, 2)], jobs=8)) == [(3, 1)]
    assert list(ordered_map(divmod, [(7, 2), (9, 4)], jobs=1)) == [(3, 1), (2, 1)]
    assert list(ordered_map(divmod, [(7, 2), (9, 4)], jobs=2)) == [(3, 1), (2, 1)]
    assert pool_sizes == [3, 2]


def test_run_batch_ode_reproducible():
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    a = run_batch("ode", s, model, 1, seed=77)
    b = run_batch("ode", s, model, 1, seed=77)
    assert np.array_equal(a.y1, b.y1)


def test_noclip_variant_coincides_when_clip_inactive():
    s = build_schedule(ScheduleParams(T=16, c0=4.0, c1=4.0, c_clip=2.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    with_clip = run_batch("accelerated", s, model, 4096, seed=5)
    without = run_batch("accelerated_noclip", s, model, 4096, seed=5)
    assert with_clip.clip_activations == 0
    assert np.array_equal(with_clip.y1, without.y1)


def test_run_batch_unknown_kind():
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=1))
    model = ScoreModel("exact", standard_normal_target(1), s)
    with pytest.raises(UnsupportedKind):
        run_batch("euler", s, model, 10, seed=0)


def test_bad_batches_raise_difflab_errors():
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=1))
    model = ScoreModel("exact", standard_normal_target(1), s)
    with pytest.raises(InvalidParams):
        run_batch("ode", s, model, 0, seed=0)
    with pytest.raises(InvalidParams):
        TrajectoryBatch(y1=np.array([[0.0], [np.nan]]), clip_activations=0)
