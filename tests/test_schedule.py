import math
import warnings

import numpy as np
import pytest

from difflab.errors import InvalidParams, ScheduleDegenerate
from difflab.schedule import (
    LemmaCheck,
    Schedule,
    ScheduleParams,
    build_schedule,
    clip,
    schedule_lemma_checks,
)
from difflab.samplers import KINDS, step
from difflab.score_oracle import ScoreModel
from difflab.targets import standard_normal_target


def test_terminal_value_pinned():
    s = build_schedule(ScheduleParams(T=10, c0=2.0, c1=1.0, c_clip=1.0, d=1))
    assert s.alpha_bar[10] == 10.0 ** -2.0


def test_one_recursion_step_by_hand():
    s = build_schedule(ScheduleParams(T=10, c0=2.0, c1=1.0, c_clip=1.0, d=1))
    expected = 0.01 + (math.log(10.0) / 10.0) * 0.01 * 0.99
    assert abs(s.alpha_bar[9] - expected) < 1e-16
    assert abs(expected - 0.01227956) < 5e-9


def test_sigma_closed_forms_agree():
    # alpha = 0.99: (1-a)(2a-1)/(3-2a) = 0.01*0.98/1.02
    direct = 0.99 - 1.0 / (3.0 - 2.0 * 0.99)
    factored = 0.01 * 0.98 / 1.02
    assert abs(direct - factored) / factored < 1e-12
    assert abs(direct - 0.0096078) < 5e-8

    s = build_schedule(ScheduleParams(T=64, c0=4.0, c1=4.0, c_clip=2.0, d=2))
    a = s.alpha[2:]
    factored = (1.0 - a) * (2.0 * a - 1.0) / (3.0 - 2.0 * a)
    assert np.max(np.abs(s.sigma[2:]**2 - factored) / factored) < 1e-12


@pytest.mark.parametrize("T", [2, 16, 64, 256])
def test_monotone_and_consistent(T):
    s = build_schedule(ScheduleParams(T=T, c0=2.0, c1=1.0, c_clip=2.0, d=3))
    abar = s.alpha_bar[1:]
    assert np.all(abar > 0) and np.all(abar < 1)
    assert np.all(np.diff(abar) < 0)  # strictly decreasing in t
    assert np.all(s.alpha[2:] > 0.5) and np.all(s.alpha[2:] < 1)
    # product of per-step rates reproduces the cumulative rate
    prod = np.cumprod(s.alpha[1:])
    assert np.max(np.abs(prod - abar) / abar) < 1e-10
    assert np.all(s.sigma[2:] > 0)
    assert np.all(s.clip_radius[2:] > 0)


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        ScheduleParams(T=1, c0=1.0, c1=1.0, c_clip=1.0, d=1)
    with pytest.raises(InvalidParams):
        ScheduleParams(T=8, c0=0.0, c1=1.0, c_clip=1.0, d=1)
    with pytest.raises(InvalidParams):
        ScheduleParams(T=8, c0=1.0, c1=-2.0, c_clip=1.0, d=1)
    with pytest.raises(InvalidParams):
        ScheduleParams(T=8, c0=1.0, c1=1.0, c_clip=1.0, d=0)
    # T and d follow the sweep-config integer rule: 16.0 is stored as 16
    s = build_schedule(ScheduleParams(T=16.0, c0=2.0, c1=1.0, d=2.0))
    assert (s.T, s.d) == (16, 2)
    assert type(s.T) is int and type(s.d) is int
    for bad in (16.5, True, "16"):
        with pytest.raises(InvalidParams):
            ScheduleParams(T=bad)
        with pytest.raises(InvalidParams):
            ScheduleParams(T=16, d=bad)
    # the constants are finite reals within float range: NaN, +-inf and the
    # integer 10**400 are refused, as they are for T
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(InvalidParams, match="integer"):
            ScheduleParams(T=bad)
        for name in ("c0", "c1", "c_clip"):
            with pytest.raises(InvalidParams, match="positive finite real"):
                ScheduleParams(T=16, **{name: bad})


def test_degenerate_schedule_rejected():
    # c1 * log(8) / 8 > 1 drives per-step rates to 1/2 or below
    with pytest.raises(ScheduleDegenerate):
        build_schedule(ScheduleParams(T=8, c0=4.0, c1=4.0, c_clip=2.0, d=1))


@pytest.mark.parametrize("T, c0, c1, t", [(4, 0.5, 4.0, 2), (16, 2.0, 40.0, 13),
                                         (64, 2.0, 40.0, 57)])
def test_schedule_refused_where_alpha_bar_leaves_the_unit_interval(T, c0, c1, t):
    # alpha_bar overshoots 1 at step t (and at T = 16 runs on to -inf): refused
    # there by name, before any division can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScheduleDegenerate, match=f"alpha_bar_{t} = "):
            build_schedule(ScheduleParams(T=T, c0=c0, c1=c1))


def plain_schedule(p):
    """The module docstring's recursion and formulas written out, with no check."""
    abar = np.ones(p.T + 1)
    a, rate = float(p.T) ** (-p.c0), p.c1 * math.log(p.T) / p.T
    for t in range(p.T, 0, -1):
        abar[t] = a
        a += rate * a * (1.0 - a)
    with np.errstate(all="ignore"):
        alpha = np.concatenate([[np.nan], abar[1:] / abar[:-1]])
        a = alpha[2:]
        sigma = np.sqrt(a - 1.0 / (3.0 - 2.0 * a))
        radius = p.c_clip * (1.0 - a) * (p.d * math.log(p.T) / (1.0 - abar[2:])) ** 1.5
    return abar, alpha, sigma, radius


def test_a_schedule_builds_iff_its_plain_recursion_is_sound():
    # accepted schedules keep every bit of the plain recursion; refused ones
    # had some alpha_bar outside (0, 1) or some alpha_t <= 1/2
    refused = 0
    for T in (4, 6, 16, 64):
        for c0 in (0.25, 0.5, 2.0, 4.0):
            for c1 in (0.5, 2.5, 8.0, 40.0):
                p = ScheduleParams(T=T, c0=c0, c1=c1, d=2)
                abar, alpha, sigma, radius = plain_schedule(p)
                sound = (np.all((abar[1:] > 0.0) & (abar[1:] < 1.0))
                         and np.all(alpha[2:] > 0.5 + 1e-9))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if not sound:
                        refused += 1
                        with pytest.raises(ScheduleDegenerate):
                            build_schedule(p)
                        continue
                    s = build_schedule(p)
                for got, want in zip((s.alpha_bar, s.alpha, s.sigma[2:], s.clip_radius[2:]),
                                     (abar, alpha, sigma, radius)):
                    assert got.tobytes() == want.tobytes()
    assert 0 < refused < 64


def test_lemma_checks_pass_at_large_ratio():
    # all four inequalities hold when c1/c0 is comfortably large
    for T in [16, 64, 256, 512]:
        s = build_schedule(ScheduleParams(T=T, c0=1.0, c1=2.0, c_clip=2.0, d=1))
        rep = schedule_lemma_checks(s)
        assert all(c.passed for c in rep.values()), [(c.name, c.margin) for c in rep.values()]


def test_lemma_check_detects_violation():
    s = build_schedule(ScheduleParams(T=32, c0=1.0, c1=2.0, c_clip=2.0, d=1))
    rate = s.params.step_rate
    alpha = s.alpha.copy()
    alpha[2] = 1.0 - 2.0 * rate  # overwrite the t=2 rate
    broken = Schedule(params=s.params, alpha_bar=s.alpha_bar.copy(), alpha=alpha,
                      sigma=s.sigma.copy(), clip_radius=s.clip_radius.copy())
    rep = schedule_lemma_checks(broken)
    check = rep["one_minus_alpha_le_rate"]
    assert not check.passed
    assert abs(check.margin - rate) < 1e-12


def test_lemma_report_minimal_horizon():
    s = build_schedule(ScheduleParams(T=2, c0=1.0, c1=0.5, c_clip=1.0, d=1))
    rep = schedule_lemma_checks(s)
    for name in ("one_minus_alpha_le_rate", "relative_step_le_rate",
                 "tail_ratio_le_one_plus_2rate"):
        assert rep[name].per_step.shape == (1,)  # single t-indexed row (t=2)
    assert rep["first_step_rate_bound"].per_step.shape == (0,)
    assert isinstance(rep["first_step_rate_bound"], LemmaCheck)


def test_clip_semantics():
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, c_clip=1.0, d=3))
    t = 5
    r = s.clip_radius[t]
    zero = np.zeros((1, 3))
    assert np.array_equal(clip(s, t, zero), zero)

    x = np.array([[1.0, 1.0, 1.0]])
    over = x * (2.0 * r / np.linalg.norm(x))
    assert np.array_equal(clip(s, t, over), zero)

    under = x * (0.5 * r / np.linalg.norm(x))
    assert np.array_equal(clip(s, t, under), under)


def test_clip_idempotent_on_random_vectors():
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, c_clip=0.05, d=4))
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        t = int(rng.integers(2, 17))
        x = rng.standard_normal((1, 4)) * rng.uniform(0.0, 5.0)
        once = clip(s, t, x)
        assert np.array_equal(clip(s, t, once), once)


@pytest.mark.parametrize("d", [8, 16])
def test_clip_norm_ignores_memory_order(d):
    # rows within an ulp of the radius are judged by their squares summed in
    # coordinate order, for a C- or an F-ordered batch and for a single row;
    # numpy's pairwise row sum would judge some of them otherwise
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, c_clip=1.0, d=d))
    t = 5
    r = s.clip_radius[t]
    rng = np.random.default_rng(d)
    u = rng.standard_normal((2000, d))
    x = np.concatenate([u * (r * (1.0 + k * 2.0**-53) / np.linalg.norm(u, axis=1, keepdims=True))
                        for k in (-2, -1, 0, 1, 2)])
    sums = []
    for row in x.tolist():  # one Python float at a time
        total = 0.0
        for v in row:
            total += v * v
        sums.append(total)
    over = np.sqrt(sums) > r
    assert 0 < over.sum() < len(x)
    assert np.any((np.linalg.norm(x, axis=1) > r) != over)
    expected = np.where(over[:, None], 0.0, x)
    for batch in (np.ascontiguousarray(x), np.asfortranarray(x)):
        assert clip(s, t, batch).tobytes() == expected.tobytes()
    for i in np.flatnonzero((np.linalg.norm(x, axis=1) > r) != over)[:20]:
        assert np.array_equal(clip(s, t, x[i:i + 1]), expected[i:i + 1])


def test_batch_clip_is_rowwise_and_passes_nan():
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, c_clip=0.05, d=3))
    t = 6
    rng = np.random.default_rng(11)
    x = rng.standard_normal((64, 3)) * rng.uniform(0.0, 2.0 * s.clip_radius[t], (64, 1))
    x[7] = np.nan
    x[8, 1] = np.nan
    out = clip(s, t, x)
    for row, got in zip(x, out):
        assert np.array_equal(got, clip(s, t, row[None])[0], equal_nan=True)
    assert np.array_equal(out[7:9], x[7:9], equal_nan=True)
    norms = np.linalg.norm(x, axis=1)
    kept = norms <= s.clip_radius[t]
    assert kept.any() and (norms > s.clip_radius[t]).any()
    assert np.array_equal(out[kept], x[kept])


def test_clip_errors():
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, c_clip=1.0, d=2))
    with pytest.raises(InvalidParams, match="outside"):
        clip(s, 1, np.zeros((1, 2)))
    with pytest.raises(InvalidParams, match="outside"):
        clip(s, 17, np.zeros((1, 2)))
    with pytest.raises(InvalidParams, match="expected a batch"):
        clip(s, 2, np.zeros((1, 3)))


def test_step_index_range_at_every_entry_point():
    # _check_t is the one range rule: clip and the steps start at t = 2, the
    # score at t = 1, and nothing goes past T
    s = build_schedule(ScheduleParams(T=4, c0=1.0, c1=0.5, c_clip=1.0, d=1))
    model = ScoreModel("exact", standard_normal_target(1), s)
    x = np.zeros((2, 1))
    for t in (1, 5, np.array([1, 2]), np.array([3, 5])):
        with pytest.raises(InvalidParams, match="outside"):
            clip(s, t, x)
        for kind in KINDS:
            with pytest.raises(InvalidParams, match="outside"):
                step(kind, s, model, t, x, x, x)
    for t in (0, 5, np.array([0, 2]), np.array([3, 5])):
        with pytest.raises(InvalidParams, match="outside"):
            model.evaluate(t, x)
    # a per-row t has one integer step for each row of the batch
    for t in (2.0, "3", None, np.array([2.0, 3.0]), np.array([2]), np.array([2, 3, 4])):
        with pytest.raises(InvalidParams, match="one integer or one per row"):
            clip(s, t, x)
        for kind in KINDS:
            with pytest.raises(InvalidParams, match="one integer or one per row"):
                step(kind, s, model, t, x, x, x)
        with pytest.raises(InvalidParams, match="one integer or one per row"):
            model.evaluate(t, x)


def test_tables_indexed_by_step():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # undefined entries are NaN without a RuntimeWarning
        s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, c_clip=1.0, d=2))
    tables = (s.alpha_bar, s.alpha, s.sigma, s.clip_radius)
    for table in tables:
        assert table.shape == (17,) and not table.flags.writeable
    # alpha_bar[0] = 1 is the data, so alpha[t] = alpha_bar[t] / alpha_bar[t-1] from t = 1
    assert s.alpha_bar[0] == 1.0 and s.alpha[1] == s.alpha_bar[1]
    assert s.alpha[7] == s.alpha_bar[7] / s.alpha_bar[6]
    assert np.isnan(s.alpha[0]) and not np.isnan(s.alpha[1:]).any()
    for table in (s.sigma, s.clip_radius):
        assert np.isnan(table[:2]).all() and not np.isnan(table[2:]).any()
    t = np.array([2, 16, 7, 7])
    for table in tables:
        assert np.array_equal(table[t], [table[int(k)] for k in t])
