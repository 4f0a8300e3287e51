import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cholesky, inv

from difflab.errors import InvalidParams, TargetLoadFailed
from difflab.schedule import ScheduleParams, build_schedule
from difflab.score_oracle import ScoreModel
from difflab.targets import (
    GaussianMixture,
    check_second_moment,
    factor,
    forward_marginal,
    gaussian_target,
    load_target,
    projected_cdf,
    sample,
    score,
    standard_normal_target,
)

from gaussian_reference import (
    reference_log_density,
    reference_score_and_log_density,
    reference_terms,
)


def two_component_1d():
    return GaussianMixture(
        weights=np.array([0.3, 0.7]),
        means=np.array([[-2.0], [1.5]]),
        covariances=np.array([[[0.5]], [[1.2]]]),
    )


def random_mixture(rng, d, K):
    weights = rng.uniform(0.2, 1.0, K)
    weights /= weights.sum()
    means = rng.uniform(-2.0, 2.0, (K, d))
    covs = np.empty((K, d, d))
    for i in range(K):
        a = rng.standard_normal((d, d))
        covs[i] = a @ a.T / d + 0.5 * np.eye(d)
    return GaussianMixture(weights, means, covs)


def test_mixture_is_its_own_value():
    # a law equals and hashes as itself: arrays are not compared, so equal
    # values are two laws, and both fit in one set; a ScoreModel holding
    # either compares without raising
    a, b = standard_normal_target(2), standard_normal_target(2)
    assert a == a and hash(a) == hash(a)
    assert a != b
    assert len({a, b, a}) == 2
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    model = ScoreModel("exact", a, s)
    assert model == ScoreModel("exact", a, s)
    assert model != ScoreModel("exact", b, s)


def test_mixture_validation():
    with pytest.raises(InvalidParams):
        GaussianMixture(np.array([0.5, 0.6]), np.zeros((2, 1)), np.ones((2, 1, 1)))
    with pytest.raises(InvalidParams):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)),
                        np.array([[[1.0, 0.0], [0.0, -1.0]]]))
    with pytest.raises(InvalidParams):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)),
                        np.array([[[1.0, 0.5], [0.4, 1.0]]]))  # asymmetric
    with pytest.raises(InvalidParams):  # one component still needs its K axis
        GaussianMixture(np.array([1.0]), np.zeros(2), np.eye(2))
    with pytest.raises(InvalidParams):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2))


@pytest.mark.parametrize("weights, mean, cov", [
    ([math.nan, 0.5], [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
    ([0.5, 0.5], [math.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
    ([0.5, 0.5], [0.0, 0.0], [[1.0, 0.0], [0.0, math.inf]]),
    ([0.5, 0.5], [0.0, -math.inf], [[1.0, 0.0], [0.0, 1.0]]),
], ids=["nan_weight", "nan_mean", "inf_cov", "inf_mean"])
def test_non_finite_mixture_parameters_are_refused(tmp_path, weights, mean, cov):
    # refused before the symmetry test and the Cholesky factorization, which
    # would warn on inf - inf or factor NaN silently
    means = np.array([mean, [1.0, 0.0]])
    covs = np.array([cov, np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParams, match="must be finite"):
            GaussianMixture(np.array(weights), means, covs)
        path = tmp_path / "target.json"
        path.write_text(json.dumps({"d": 2, "components": [
            {"weight": w, "mean": m.tolist(), "cov": c.tolist()}
            for w, m, c in zip(weights, means, covs)]}))
        with pytest.raises(TargetLoadFailed, match="must be finite"):
            load_target(str(path))


def test_factor_matches_a_per_component_scipy_reference():
    # the one batched factorization against scipy, one component at a time
    rng = np.random.default_rng(41)
    for d in range(1, 7):
        for K in range(1, 5):
            gm = random_mixture(rng, d, K)
            chols, precisions, log_coefs = factor(gm.weights, gm.covariances)
            for k in range(K):
                ref_chol = cholesky(gm.covariances[k], lower=True)
                ref_prec = inv(gm.covariances[k])
                ref_log_coef = math.log(gm.weights[k]) - 0.5 * (
                    d * math.log(2 * math.pi) + 2.0 * np.sum(np.log(np.diag(ref_chol))))
                for got, ref in ((chols[k], ref_chol), (precisions[k], ref_prec)):
                    np.testing.assert_allclose(got, ref, rtol=1e-12,
                                               atol=1e-12 * np.max(np.abs(ref)))
                assert log_coefs[k] == pytest.approx(ref_log_coef, rel=1e-12)
            # the mixture caches these very arrays, and any leading axes factor alike
            assert gm._precisions.tobytes() == precisions.tobytes()
            stacked = factor(gm.weights, np.stack([gm.covariances] * 3))
            for got, one in zip(stacked, (chols, precisions, log_coefs)):
                assert got.shape == (3, *one.shape) and np.array_equal(got[1], one)
    with pytest.raises(InvalidParams, match="positive-definite"):
        factor(np.ones(2), np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]))


def test_second_moment_bound():
    gm = two_component_1d()
    expected = 0.3 * (0.5 + 4.0) + 0.7 * (1.2 + 2.25)
    assert abs(gm.second_moment() - expected) < 1e-12
    assert check_second_moment(gm, T=16)
    assert check_second_moment(gm, T=int(1e300))  # T**10 is past the float range
    wide = gaussian_target(np.zeros(1), np.array([[1.5e12]]))
    assert not check_second_moment(wide, T=16) and check_second_moment(wide, T=17)


def test_forward_marginal_stationary():
    target = standard_normal_target(3)
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=3))
    for t in [0, 1, 8, 16]:
        law = forward_marginal(target, s, t)
        assert np.allclose(law.means, 0.0)
        assert np.allclose(law.covariances[0], np.eye(3))


def test_forward_marginal_scaling():
    mu = np.array([2.0, -1.0])
    target = gaussian_target(mu, np.eye(2))
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=2))
    # hunt for the transformation at whatever abar the schedule provides
    t = 8
    abar = s.alpha_bar[t]
    law = forward_marginal(target, s, t)
    assert np.allclose(law.means[0], np.sqrt(abar) * mu)
    assert np.allclose(law.covariances[0], np.eye(2))


def test_forward_marginal_two_component_moment_match():
    # components scale as (sqrt(abar) m_i, abar s_i^2 + 1 - abar); cross-check
    # against Monte Carlo draws of the one-shot noising identity.
    gm = two_component_1d()
    s = build_schedule(ScheduleParams(T=32, c0=2.0, c1=2.0, d=1))
    t = 20
    abar = s.alpha_bar[t]
    law = forward_marginal(gm, s, t)
    assert np.allclose(law.means[:, 0], np.sqrt(abar) * gm.means[:, 0])
    assert np.allclose(law.covariances[:, 0, 0],
                       abar * gm.covariances[:, 0, 0] + (1 - abar))

    rng = np.random.default_rng(7)
    n = 1_000_000
    x0 = sample(gm, n, rng)
    draws = np.sqrt(abar) * x0 + np.sqrt(1 - abar) * rng.standard_normal((n, 1))
    mean_a, cov_a = law.mean, law.cov
    se_mean = math.sqrt(float(cov_a[0, 0]) / n)
    assert abs(draws.mean() - mean_a[0]) < 3 * se_mean
    fourth = np.mean((draws[:, 0] - draws.mean()) ** 4)
    se_var = math.sqrt((fourth - cov_a[0, 0] ** 2) / n)
    assert abs(draws.var() - cov_a[0, 0]) < 3 * se_var


def test_forward_marginal_limits():
    gm = two_component_1d()
    s = build_schedule(ScheduleParams(T=256, c0=4.0, c1=4.0, d=1))
    assert forward_marginal(gm, s, 0) is gm  # t = 0 is the target
    # at the horizon the cumulative rate is ~T^-4: every covariance ~ I
    law = forward_marginal(gm, s, 256)
    assert np.allclose(law.covariances, np.eye(1), atol=1e-8)
    assert np.allclose(law.means, 0.0, atol=1e-4)


def test_log_density_matches_quadrature_1d():
    from scipy.integrate import quad

    rng = np.random.default_rng(11)
    gm = random_mixture(rng, d=1, K=3)
    def density(u):
        return math.exp(reference_log_density(gm, np.array([[u]]))[0])

    total, _ = quad(density, -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-8
    # adaptive quadrature of the reference density reproduces the closed-form CDF
    for _ in range(5):
        q = float(rng.uniform(-3, 3))
        integral, _ = quad(density, -np.inf, q)
        assert abs(integral - projected_cdf(gm, np.array([[1.0]]), np.array([[q]]))[0, 0]) < 1e-8


def test_score_standard_normal():
    target = standard_normal_target(2)
    assert np.allclose(score(target, np.array([[2.0, 0.0]])), [[-2.0, 0.0]])


def test_score_symmetric_mixture_zero_at_origin():
    gm = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[1.0, 2.0], [-1.0, -2.0]]),
        np.stack([np.eye(2), np.eye(2)]),
    )
    assert np.allclose(score(gm, np.zeros((1, 2))), 0.0, atol=1e-15)


def finite_difference_score(law, x, h=1e-5):
    grad = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        grad[j] = (reference_log_density(law, (x + e)[None])[0]
                   - reference_log_density(law, (x - e)[None])[0]) / (2 * h)
    return grad


def test_score_matches_finite_differences():
    rng = np.random.default_rng(2024)
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=3))
    for _ in range(25):
        gm = random_mixture(rng, d=3, K=2)
        t = int(rng.integers(0, 17))
        law = forward_marginal(gm, s, t)
        x = rng.standard_normal(3) * 1.5
        exact = score(law, x[None])[0]
        fd = finite_difference_score(law, x)
        assert np.max(np.abs(exact - fd)) <= 1e-6


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 4), K=st.integers(1, 4), t=st.integers(0, 16),
       seed=st.integers(0, 2**32 - 1))
@example(d=3, K=1, t=0, seed=1)  # one component on a correlated target
def test_score_is_the_gradient_of_log_density(d, K, t, seed):
    # finite differences of the reference log-density check the score against
    # independent code; ScoreModel's single-Gaussian score has these bits (test_score_oracle)
    rng = np.random.default_rng(seed)
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=d))
    law = forward_marginal(random_mixture(rng, d, K), s, t)
    x = law.means[rng.integers(0, K)] + rng.uniform(-2.0, 2.0, d)
    exact = score(law, x[None])[0]
    assert np.max(np.abs(exact - finite_difference_score(law, x))) <= 1e-6 * (
        1.0 + np.max(np.abs(exact)))


def test_single_component_score_is_the_general_expression_bit_for_bit():
    rng = np.random.default_rng(17)
    for d in range(1, 5):
        for gm in (random_mixture(rng, d, K=1), standard_normal_target(d)):
            x = gm.means[0] + 4.0 * rng.standard_normal((500, d))
            x[:2] = gm.means[0]  # zeros of x - m: the sign of zero must match too
            x[2] = -0.0
            x[3, 0] = -0.0
            assert_single_component_score_is_general(gm, x)


def assert_single_component_score_is_general(gm, x):
    # the K-component softmax of responsibilities, with K = 1
    diff = x[None] - gm.means[:, None]
    pdiff = np.matmul(diff, gm._precisions)
    log_pdfs = gm._log_coefs[:, None] - 0.5 * np.einsum("knd,knd->kn", diff, pdiff)
    scaled = np.exp(log_pdfs - log_pdfs.max(axis=0))
    general = -np.einsum("kn,knd->nd", scaled / scaled.sum(axis=0), pdiff)
    assert score(gm, x).tobytes() == general.tobytes()


@pytest.mark.parametrize("K", [1, 3])
def test_score_returns_a_fresh_writable_array(K):
    # ScoreModel.evaluate adds its offset or scale to the score in place
    rng = np.random.default_rng(23)
    gm = random_mixture(rng, 2, K)
    x = rng.standard_normal((50, 2))
    x_before = x.copy()
    first = score(gm, x)
    assert first.flags.writeable
    assert not np.shares_memory(first, x)
    expected = first.copy()
    first += 1.0
    np.testing.assert_array_equal(score(gm, x), expected)
    np.testing.assert_array_equal(x, x_before)
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=2))
    model = ScoreModel("offset", gm, s, 0.25)
    once = model.evaluate(5, x)
    np.testing.assert_array_equal(model.evaluate(5, x), once)
    exact = score(forward_marginal(gm, s, 5), x)
    np.testing.assert_array_equal(once[:, 1], exact[:, 1])
    np.testing.assert_array_equal(once[:, 0], exact[:, 0] + 0.25)


def test_score_batch_consistent_with_single():
    # a one-row batch gives its row's bits in any larger batch
    rng = np.random.default_rng(5)
    gm = random_mixture(rng, d=2, K=3)
    xs = rng.standard_normal((50, 2))
    batch = score(gm, xs)
    for i in range(50):
        assert np.array_equal(batch[i], score(gm, xs[i:i + 1])[0])


def test_batched_kernel_matches_per_component_reference():
    rng = np.random.default_rng(31)
    for d in range(1, 5):
        for K in range(1, 5):
            for _ in range(5):
                gm = random_mixture(rng, d, K)
                # points out to about 3 sigma around the mixture
                x = gm.means[rng.integers(0, K, 64)] + rng.uniform(-3, 3, (64, d))
                ref_score, _ = reference_score_and_log_density(gm, x)
                scale = np.max(np.abs(ref_score))
                np.testing.assert_allclose(score(gm, x), ref_score,
                                           rtol=1e-12, atol=1e-12 * scale)


def test_score_far_tail_single_surviving_component():
    gm = GaussianMixture(
        np.array([0.2, 0.5, 0.3]),
        np.array([[-2.0, 0.0], [2.0, 1.0], [0.0, -3.0]]),
        np.array([[[1.0, 0.3], [0.3, 0.6]], np.eye(2), [[0.8, 0.0], [0.0, 1.5]]]),
    )
    x = np.array([[400.0, 20.0]])
    log_pdfs, grads = reference_terms(gm, x)
    top = int(np.argmax(log_pdfs[0]))
    others = np.delete(log_pdfs[0], top) - log_pdfs[0, top]
    assert np.all(np.exp(others) == 0.0)  # every other responsibility underflows
    value = score(gm, x)
    assert np.all(np.isfinite(value))
    np.testing.assert_allclose(value, grads[top], rtol=1e-12)


def test_sampling_deterministic_and_moment_sane():
    target = standard_normal_target(2)
    a = sample(target, 1000, np.random.default_rng(99))
    b = sample(target, 1000, np.random.default_rng(99))
    assert np.array_equal(a, b)

    n = 1_000_000
    draws = sample(target, n, np.random.default_rng(1))
    assert np.all(np.abs(draws.mean(axis=0)) < 4 / math.sqrt(n))


def test_sample_forward_matches_marginal_covariance():
    gm = two_component_1d()
    s = build_schedule(ScheduleParams(T=32, c0=2.0, c1=2.0, d=1))
    n = 200_000
    law = forward_marginal(gm, s, 32)
    draws = sample(law, n, np.random.default_rng(12))
    mean_a, cov_a = law.mean, law.cov
    se_mean = math.sqrt(float(cov_a[0, 0]) / n)
    assert abs(draws.mean() - mean_a[0]) < 4 * se_mean
    fourth = np.mean((draws[:, 0] - mean_a[0]) ** 4)
    se_var = math.sqrt((fourth - cov_a[0, 0] ** 2) / n)
    assert abs(draws.var() - cov_a[0, 0]) < 5 * se_var


def test_projected_cdf_basics():
    target = standard_normal_target(3)
    u = np.array([[1.0, 0.0, 0.0]])
    values = projected_cdf(target, u, np.array([[0.0, 40.0]]))
    assert values.shape == (1, 2)
    assert values[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert values[0, 1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidParams, match="norms must be 1"):
        projected_cdf(target, 2 * u, np.array([[0.0]]))
    with pytest.raises(InvalidParams, match="norms must be 1"):
        projected_cdf(target, np.full((1, 3), np.nan), np.array([[0.0]]))
    # directions are a nonempty (m, d) stack: no bare direction, no other d
    for bad in (u[0], np.array([[1.0, 0.0]]), np.empty((0, 3))):
        with pytest.raises(InvalidParams, match="nonempty"):
            projected_cdf(target, bad, np.array([[0.0]]))
    # q holds one row of points per direction
    for bad in (0.0, np.array([0.0]), np.zeros((2, 1))):
        with pytest.raises(InvalidParams, match="one row of points per direction"):
            projected_cdf(target, u, bad)
    # one point gets its bits in any stack of directions and points
    mix = random_mixture(np.random.default_rng(8), d=2, K=3)
    angles = np.random.default_rng(10).uniform(0, 2 * np.pi, 3)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    q = np.random.default_rng(9).standard_normal((3, 50))
    values = projected_cdf(mix, dirs, q)
    for i in range(3):
        row = projected_cdf(mix, dirs[i:i + 1], q[i:i + 1])
        assert row.tobytes() == values[i:i + 1].tobytes()
        for j in range(50):
            point = projected_cdf(mix, dirs[i:i + 1], q[i:i + 1, j:j + 1])
            assert point.tobytes() == values[i:i + 1, j:j + 1].tobytes()


def test_projected_cdf_matches_monte_carlo():
    gm = two_component_1d()
    u = np.array([[1.0]])
    n = 10_000_000
    draws = sample(gm, n, np.random.default_rng(4))
    q = 1.0
    analytic = projected_cdf(gm, u, np.array([[q]]))[0, 0]
    empirical = np.mean(draws[:, 0] <= q)
    se = math.sqrt(analytic * (1 - analytic) / n)
    assert abs(empirical - analytic) < 3 * se


def test_marginal_index_range():
    target = standard_normal_target(1)
    s = build_schedule(ScheduleParams(T=8, c0=1.0, c1=0.5, d=1))
    with pytest.raises(InvalidParams, match="outside"):
        forward_marginal(target, s, 9)
    with pytest.raises(InvalidParams, match="outside"):
        forward_marginal(target, s, -1)


def test_load_target_roundtrip(tmp_path):
    spec = {
        "d": 2,
        "components": [
            {"weight": 0.4, "mean": [1.0, 0.0], "cov": [[1.0, 0.2], [0.2, 0.5]]},
            {"weight": 0.6, "mean": [-1.0, 1.0], "cov_scale": 0.7},
        ],
    }
    path = tmp_path / "target.json"
    path.write_text(json.dumps(spec))
    gm = load_target(str(path))
    assert gm.K == 2 and gm.d == 2
    assert np.allclose(gm.covariances[1], 0.7 * np.eye(2))

    bad = tmp_path / "bad.json"
    bad.write_text("{\"d\": 2}")
    with pytest.raises(TargetLoadFailed):
        load_target(str(bad))
    with pytest.raises(TargetLoadFailed):
        load_target(str(tmp_path / "missing.json"))
    # "d" follows the integer rule: a fraction, a bool or a string is refused,
    # even where its truncation would fit the mean
    for d, mean in ((2.5, [0.0, 0.0]), (True, [0.0]), ("2", [0.0, 0.0])):
        bad.write_text(json.dumps({"d": d, "components": [
            {"weight": 1.0, "mean": mean, "cov_scale": 1.0}]}))
        with pytest.raises(TargetLoadFailed, match="d must be an integer"):
            load_target(str(bad))


def test_sample_accepts_marginal_law():
    gm = two_component_1d()
    s = build_schedule(ScheduleParams(T=8, c0=1.0, c1=0.5, d=1))
    law = forward_marginal(gm, s, 3)
    draws = sample(law, 32, np.random.default_rng(0))
    assert draws.shape == (32, 1)
