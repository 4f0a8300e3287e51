import math
import warnings

import numpy as np
import pytest

from difflab import targets
from difflab.analytic import gaussian_kl
from difflab.errors import InvalidParams
from difflab.metrics import fit_gaussian, moment_kl, random_directions, sliced_tv
from difflab.schedule import ScheduleParams, build_schedule
from difflab.targets import (GaussianMixture, forward_marginal, projected_cdf, sample,
                             standard_normal_target)


def stationary_law(d=2, T=16):
    target = standard_normal_target(d)
    s = build_schedule(ScheduleParams(T=T, c0=2.0, c1=1.0, d=d))
    return target, s, forward_marginal(target, s, 1)


def test_sliced_tv_vanishes_for_matching_batch():
    target, s, law = stationary_law()
    n = 100_000
    batch = sample(law, n, np.random.default_rng(21))
    mean_tv = sliced_tv(batch, law, n_dirs=8, stream=np.random.default_rng(1))
    dirs = random_directions(2, 8, np.random.default_rng(1))
    per_dir = [sliced_tv(batch, law, directions=dirs[i:i + 1]) for i in range(8)]
    # one-sample Kolmogorov statistic concentration band
    band = 3 * math.sqrt(math.log(2 / 0.01) / (2 * n))
    assert all(d_i <= band for d_i in per_dir)
    assert mean_tv <= band
    assert mean_tv == pytest.approx(np.mean(per_dir), rel=1e-12)


def test_sliced_tv_disjoint_supports():
    mix = GaussianMixture(np.array([1.0]), np.array([[0.0]]), np.array([[[1.0]]]))
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=1))
    law = forward_marginal(mix, s, 1)
    batch = sample(law, 5000, np.random.default_rng(3)) + 10.0
    mean_tv = sliced_tv(batch, law, n_dirs=4, stream=np.random.default_rng(2))
    dirs = random_directions(1, 4, np.random.default_rng(2))
    assert all(sliced_tv(batch, law, directions=dirs[i:i + 1]) > 0.999 for i in range(4))
    assert mean_tv > 0.999


def full_scan(y, law, directions):
    """The sliced distance with the projected CDF at every sorted point."""
    n = len(y)
    grid_lo = np.arange(n) / n
    grid_hi = np.arange(1, n + 1) / n
    distances = []
    for u in directions:
        cdf = projected_cdf(law, u[None], np.sort(y @ u)[None])[0]
        distances.append(float(np.max(np.maximum(cdf - grid_lo, grid_hi - cdf))))
    return float(np.mean(distances))


def random_law(rng, d, K):
    weights = rng.uniform(0.2, 1.0, K)
    a = rng.standard_normal((K, d, d))
    covs = a @ np.swapaxes(a, 1, 2) / d + rng.uniform(0.05, 1.0) * np.eye(d)
    return GaussianMixture(weights / weights.sum(), rng.uniform(-3.0, 3.0, (K, d)), covs)


def test_bracketed_scan_is_the_full_scan_bit_for_bit():
    # the anchors and their bounds only skip points that cannot hold the sup,
    # so the distance is the float of a scan at every point: on the law, off
    # it (shifted, scaled, another mixture, rounded to a grid so points tie)
    # and with disjoint supports, where the sup sits at the last point
    rng = np.random.default_rng(2029)
    for case in range(320):
        d, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n = int(rng.integers(1000, 8001))
        law = random_law(rng, d, K)
        kind = case % 5
        y = sample(random_law(rng, d, K) if kind == 2 else law, n, rng)
        if kind == 1:
            y = y * rng.uniform(0.7, 1.4) + rng.uniform(-0.5, 0.5, d)
        elif kind == 3:
            y = np.round(y, 1)
        elif kind == 4:
            y = y + 40.0
        dirs = random_directions(d, int(rng.integers(1, 7)), rng)
        assert sliced_tv(y, law, directions=dirs) == full_scan(y, law, dirs), case


def test_sliced_tv_deterministic_given_stream():
    target, s, law = stationary_law()
    batch = sample(law, 2000, np.random.default_rng(5))
    a = sliced_tv(batch, law, n_dirs=6, stream=np.random.default_rng(9))
    b = sliced_tv(batch, law, n_dirs=6, stream=np.random.default_rng(9))
    assert a == b
    # the stream only draws the directions
    dirs = random_directions(2, 6, np.random.default_rng(9))
    assert sliced_tv(batch, law, directions=dirs) == a


def test_sliced_tv_projects_the_law_once_per_call():
    # both CDF calls of one distance share each direction's projected means
    # and sds; a new direction stack projects afresh
    target, s, law = stationary_law()
    batch = sample(law, 2000, np.random.default_rng(5))
    targets._projections.cache_clear()
    for seed in (9, 10):
        sliced_tv(batch, law, n_dirs=6, stream=np.random.default_rng(seed))
    info = targets._projections.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_sliced_tv_too_few_samples():
    target, s, law = stationary_law()
    with pytest.raises(InvalidParams, match="samples"):
        sliced_tv(np.zeros((999, 2)), law, n_dirs=2, stream=np.random.default_rng(0))


def test_sliced_tv_needs_stream_or_directions():
    target, s, law = stationary_law()
    with pytest.raises(InvalidParams):
        sliced_tv(np.zeros((1000, 2)), law, n_dirs=2)


@pytest.mark.parametrize("case", ["wrong_dimension", "bare_direction", "no_directions",
                                  "nan_direction", "non_finite_sample"])
def test_sliced_tv_refuses_malformed_input_before_any_work(monkeypatch, case):
    target, s, law = stationary_law()
    y = sample(law, 1000, np.random.default_rng(4))
    dirs = random_directions(2, 3, np.random.default_rng(6))
    if case == "wrong_dimension":
        dirs = random_directions(3, 3, np.random.default_rng(6))
    elif case == "bare_direction":
        dirs = dirs[0]
    elif case == "no_directions":
        dirs = dirs[:0]
    elif case == "nan_direction":
        dirs[1] = np.nan
    else:
        y[17, 1] = np.inf

    def no_cdf(*args):
        raise AssertionError("the CDF was reached before the input was checked")

    monkeypatch.setattr(targets, "projected_cdf", no_cdf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams):
            sliced_tv(y, law, directions=dirs)


def test_sliced_tv_rotation_invariant():
    target, s, law = stationary_law(d=2)  # isotropic law: rotating it is a no-op
    rng = np.random.default_rng(12)
    batch = sample(law, 4000, rng)
    dirs = random_directions(2, 5, np.random.default_rng(77))
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    base = sliced_tv(batch, law, directions=dirs)
    rotated = sliced_tv(batch @ rot.T, law, directions=dirs @ rot.T)
    assert abs(base - rotated) < 1e-12


def test_moment_kl_noise_floor():
    target, s, law = stationary_law()
    n = 1_000_000
    batch = sample(law, n, np.random.default_rng(100))
    value = moment_kl(batch, law)
    assert 0 <= value < 10 * (2**2) / n


def test_moment_kl_mean_shift():
    target, s, law = stationary_law()
    n = 400_000
    delta = 0.2
    batch = sample(law, n, np.random.default_rng(8))
    batch = batch + np.array([delta, 0.0])
    value = moment_kl(batch, law)
    assert value == pytest.approx(delta**2 / 2, abs=1e-3)


def test_moment_kl_exact_moments_zero():
    target, s, law = stationary_law()
    assert abs(gaussian_kl(law, law)) < 1e-14


def test_moment_kl_mixture_law_uses_matched_moments():
    mix = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[-1.0, 0.0], [1.0, 0.0]]),
        np.stack([np.eye(2), np.eye(2)]),
    )
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=2))
    law = forward_marginal(mix, s, 1)
    batch = sample(law, 300_000, np.random.default_rng(31))
    assert moment_kl(batch, law) < 1e-4


def test_fit_gaussian_degenerate():
    with pytest.raises(InvalidParams, match="positive-definite"):
        fit_gaussian(np.ones((100, 2)))


def test_random_directions_unit_norm():
    dirs = random_directions(5, 40, np.random.default_rng(0))
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
