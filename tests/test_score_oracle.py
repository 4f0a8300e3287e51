import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from difflab import samplers, targets
from difflab.errors import InvalidParams
from difflab.schedule import ScheduleParams, build_schedule
from difflab.score_oracle import ScoreModel
from difflab.targets import GaussianMixture, gaussian_target, standard_normal_target


def setup_schedule(T=16, d=2):
    return build_schedule(ScheduleParams(T=T, c0=2.0, c1=1.0, d=d))


def test_exact_mode_stationary_score():
    s = setup_schedule()
    model = ScoreModel("exact", standard_normal_target(2), s)
    rng = np.random.default_rng(0)
    for t in [1, 5, 16]:
        x = rng.standard_normal((1, 2))
        assert np.allclose(model.evaluate(t, x), -x, atol=1e-12)


def test_offset_mode_definitional():
    s = setup_schedule()
    model = ScoreModel("offset", standard_normal_target(2), s, 0.3)
    x = np.array([[0.7, -1.1]])
    expected = -x + np.array([0.3, 0.0])
    assert np.allclose(model.evaluate(4, x), expected, atol=1e-12)


def test_relative_mode_rho_zero_degenerate():
    s = setup_schedule()
    exact = ScoreModel("exact", standard_normal_target(2), s)
    rel = ScoreModel("relative", standard_normal_target(2), s, 0.0)
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = int(rng.integers(1, 17))
        x = rng.standard_normal((1, 2))
        assert np.array_equal(rel.evaluate(t, x), exact.evaluate(t, x))


def test_eps_score_exact_zero():
    s = setup_schedule()
    model = ScoreModel("exact", standard_normal_target(2), s)
    report = model.eps_score()
    assert report.eps_score == 0.0


def test_eps_score_constant_offset():
    s = setup_schedule()
    model = ScoreModel("offset", standard_normal_target(2), s, 0.2)
    assert model.eps_score().eps_score == pytest.approx(0.2, abs=1e-15)


def test_eps_score_relative_monte_carlo():
    # stationary standard normal: E||s_t(X_t)||^2 = d exactly, so
    # eps_t = |rho| * sqrt(d) at every step
    s = setup_schedule(T=8, d=3)
    model = ScoreModel("relative", standard_normal_target(3), s, 0.1)
    report = model.eps_score(mc_samples=20_000, stream=np.random.default_rng(5))
    expected = 0.1 * math.sqrt(3.0)
    assert abs(report.eps_score - expected) < 4 * max(report.stderr, 1e-4)
    assert report.stderr > 0


def test_offset_error_is_exact_not_statistical():
    # the perturbation is x-independent, so a Monte Carlo estimate of
    # E||s_t - s*_t||^2 equals delta_t^2 to machine precision
    s = setup_schedule(T=8, d=2)
    target = standard_normal_target(2)
    model = ScoreModel("offset", target, s, 0.25)
    exact = ScoreModel("exact", target, s)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1000, 2))
    diff = model.evaluate(3, x) - exact.evaluate(3, x)
    assert np.allclose(np.sum(diff**2, axis=1), 0.25**2, atol=1e-14)


def test_evaluate_is_pure():
    s = setup_schedule()
    gm = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        np.stack([np.eye(2), 0.5 * np.eye(2)]),
    )
    model = ScoreModel("exact", gm, s)
    x = np.array([[0.3, -0.4]])
    assert np.array_equal(model.evaluate(5, x), model.evaluate(5, x))


def test_errors():
    s = setup_schedule()
    target = standard_normal_target(2)
    model = ScoreModel("exact", target, s)
    with pytest.raises(InvalidParams, match="outside"):
        model.evaluate(0, np.zeros((1, 2)))
    with pytest.raises(InvalidParams, match="outside"):
        model.evaluate(17, np.zeros((1, 2)))
    with pytest.raises(InvalidParams, match="expected a batch"):
        model.evaluate(3, np.zeros((1, 3)))
    with pytest.raises(InvalidParams, match="schedule dimension"):
        ScoreModel("exact", standard_normal_target(3), s)
    with pytest.raises(InvalidParams, match="unknown score mode"):
        ScoreModel("bogus", target, s)
    # the level is one finite real number within float range, and 0 in exact mode
    for mode, level in [("offset", np.zeros(16)), ("offset", math.nan),
                        ("relative", math.inf), ("relative", -math.inf), ("exact", 0.1),
                        ("offset", "0.1"), ("offset", True), ("offset", 10**400),
                        ("relative", -10**400)]:
        with pytest.raises(InvalidParams, match="level"):
            ScoreModel(mode, target, s, level)


def test_from_config():
    # a sweep cell's (mode, level) pair is the model's value: the level is
    # stored as a float, defaults to 0, and relative mode scales the score
    s = setup_schedule()
    target = standard_normal_target(2)
    assert ScoreModel("exact", target, s, 0.0) == ScoreModel("exact", target, s)
    assert ScoreModel("offset", target, s, 0.1) != ScoreModel("relative", target, s, 0.1)
    for mode, level in [("exact", 0), ("offset", 0.1), ("relative", -0.2)]:
        m = ScoreModel(mode, target, s, level)
        assert (m.mode, m.level) == (mode, level) and type(m.level) is float
    x = np.array([[0.7, -1.1], [0.2, 0.4]])
    exact = ScoreModel("exact", target, s).evaluate(5, x)
    assert np.array_equal(m.evaluate(5, x), (1.0 - 0.2) * exact)


def test_stacks_built_on_first_use(monkeypatch):
    # construction builds nothing, and evaluate reads the per-step stacks and
    # builds no marginal
    real = targets.forward_marginal
    calls = []

    def counting(target, schedule, t):
        calls.append(t)
        return real(target, schedule, t)

    monkeypatch.setattr(targets, "forward_marginal", counting)
    long = build_schedule(ScheduleParams(T=16384, c0=2.0, c1=2.5, d=2))
    assert "_stacks" not in vars(ScoreModel("exact", standard_normal_target(2), long))
    assert calls == []

    s = setup_schedule()
    gm = GaussianMixture(
        np.array([0.4, 0.6]),
        np.array([[1.0, 0.5], [-1.0, 0.0]]),
        np.stack([np.eye(2), np.array([[0.5, 0.1], [0.1, 0.7]])]),
    )
    model = ScoreModel("exact", gm, s)
    x = np.array([[0.3, -0.4], [1.2, 0.8]])
    first = model.evaluate(5, x)
    assert np.array_equal(model.evaluate(5, x), first)
    assert calls == [] and "_stacks" in vars(model)

    clone = pickle.loads(pickle.dumps(model))
    assert np.array_equal(clone.evaluate(5, x), first)
    assert np.array_equal(clone.evaluate(7, x), model.evaluate(7, x))


def random_mixture(rng, d, K):
    weights = rng.uniform(0.2, 1.0, K)
    covs = rng.standard_normal((K, d, d))
    covs = covs @ np.swapaxes(covs, 1, 2) / d + 0.5 * np.eye(d)
    return GaussianMixture(weights / weights.sum(), rng.uniform(-2.0, 2.0, (K, d)), covs)


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 4), d=st.integers(1, 6), T=st.sampled_from([2, 16, 257]),
       seed=st.integers(0, 2**32 - 1))
@example(K=2, d=6, T=16, seed=12)  # scipy and numpy Cholesky factors differ in the last bits here
def test_stacks_have_the_marginal_bits(K, d, T, seed):
    # every step's stacked means, precisions and log-coefficients are the
    # bytes of forward_marginal's for every K, since both come from
    # targets.factor, and the model's score is targets.score of that marginal
    # bit for bit, since both run targets.mixture_score
    rng = np.random.default_rng(seed)
    target = random_mixture(rng, d, K)
    s = build_schedule(ScheduleParams(T=T, c0=2.0, c1=2.5, d=d))
    model = ScoreModel("exact", target, s)
    means, precisions, log_coefs = model._stacks
    x = 3.0 * rng.standard_normal((200, d))
    for t in sorted({0, 1, 2, T // 2, T - 1, T}):
        law = targets.forward_marginal(target, s, t)
        assert means[t].tobytes() == law.means.tobytes()
        assert precisions[t].tobytes() == law._precisions.tobytes()
        assert log_coefs[t].tobytes() == law._log_coefs.tobytes()
        if t >= 1:
            assert model.evaluate(t, x).tobytes() == targets.score(law, x).tobytes()
            assert model.evaluate(t, x[:1]).tobytes() == targets.score(law, x[:1]).tobytes()
    if K > 1:  # a mixture's score takes one step per call
        with pytest.raises(InvalidParams):
            model.evaluate(np.full(len(x), 1), x)


def correlated_gaussian():
    return gaussian_target([0.7, -1.3], np.array([[1.7, 0.6], [0.6, 0.45]]))


def two_component_2d():
    return GaussianMixture(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [1.0, 0.0]]),
                           np.stack([np.eye(2), np.eye(2)]))


def test_step_index_must_be_one_integer():
    s = setup_schedule()
    gauss = ScoreModel("offset", correlated_gaussian(), s, 0.3)
    mix = ScoreModel("offset", two_component_2d(), s, 0.3)
    y = np.array([[0.3, -0.4], [1.2, 0.8], [-0.5, 2.0]])
    # on one Gaussian an int array of m steps runs step k over its run of rows
    # [k r, (k + 1) r), with the bits of a call at that step alone, at d = 4 as
    # at d = 2, for runs of one row and of three
    rng = np.random.default_rng(6)
    for d, r in ((2, 1), (4, 1), (2, 3), (4, 3)):
        root = rng.standard_normal((d, d))
        model = ScoreModel("offset", gaussian_target(rng.standard_normal(d),
                                                     root @ root.T + 0.5 * np.eye(d)),
                           setup_schedule(d=d), 0.3)
        t = rng.integers(1, 17, size=400 // r)
        x = 2.0 * rng.standard_normal((len(t) * r, d))
        runs = model.evaluate(t, x)
        for k in range(len(t)):
            rows = slice(k * r, (k + 1) * r)
            assert np.array_equal(runs[rows], model.evaluate(int(t[k]), x[rows]))
    with pytest.raises(InvalidParams):  # as many steps as divide the rows
        gauss.evaluate(np.array([3, 4]), y)
    # a mixture's score takes one step per call; a per-row t is refused
    with pytest.raises(InvalidParams):
        samplers.step("ddpm", s, mix, np.array([2, 3, 4]), y, None, np.zeros_like(y))
    with pytest.raises(InvalidParams):
        mix.evaluate(np.array([3]), y)
    for model in (gauss, mix):
        for bad in (3.0, np.array([3.0, 4.0, 5.0])):
            with pytest.raises(InvalidParams):
                model.evaluate(bad, y)
        assert np.array_equal(model.evaluate(np.int64(3), y), model.evaluate(3, y))
        assert np.array_equal(model.evaluate(np.array(3), y), model.evaluate(3, y))


def test_single_gaussian_score_has_the_marginal_bits():
    # ScoreModel holds the one exact single-Gaussian score; at every step it
    # equals the mixture score of that step's marginal bit for bit, signed
    # zeros included, and its stacks are built on first use only
    s = setup_schedule(T=16, d=2)
    model = ScoreModel("exact", correlated_gaussian(), s)
    model.eps_score()
    assert "_stacks" not in vars(model)
    rng = np.random.default_rng(4)
    for t in range(1, s.T + 1):
        law = targets.forward_marginal(model.target, s, t)
        x = law.means[0] + 3.0 * rng.standard_normal((300, 2))
        x[:2] = law.means[0]
        x[2, 0] = law.means[0, 0]
        assert model.evaluate(t, x).tobytes() == targets.score(law, x).tobytes()
        assert model._stacks[1][t].tobytes() == law._precisions[0].tobytes()
        assert model._stacks[0][t].tobytes() == law.means[0].tobytes()


def test_far_tail_single_gaussian_score_is_finite():
    # |x - m| ~ 1e160 overflows every Mahalanobis term: on one Gaussian the
    # score is the closed form -(x - m_t) P_t, finite there, in the model and in
    # targets.score alike; a mixture's softmax is 0/0 there, so its score is NaN
    s = setup_schedule()
    model = ScoreModel("exact", correlated_gaussian(), s)
    mix = ScoreModel("exact", two_component_2d(), s)
    x = np.array([[1e160, 0.0]])
    for t in (1, 8, 16):
        law = targets.forward_marginal(model.target, s, t)
        assert np.all(np.isfinite(model.evaluate(t, x)))
        assert targets.score(law, x).tobytes() == model.evaluate(t, x).tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.all(np.isnan(mix.evaluate(t, x)))
            assert np.all(np.isnan(targets.score(targets.forward_marginal(mix.target, s, t), x)))


@pytest.mark.parametrize("T, delta", [(83, 0.04097352393619469), (16, 1e200), (16, -0.3)])
def test_offset_eps_score_is_the_level_exactly(T, delta):
    # no square and root: sqrt(mean(delta^2)) is 0.04097352393619468 at T = 83,
    # and inf at delta = 1e200
    model = ScoreModel("offset", standard_normal_target(2), setup_schedule(T=T), delta)
    report = model.eps_score()
    assert report.eps_score == abs(delta)


def test_relative_eps_score_refuses_a_non_finite_aggregate():
    s = setup_schedule(T=8)
    model = ScoreModel("relative", standard_normal_target(2), s, 1e308)
    with pytest.raises(InvalidParams, match="not finite"):
        model.eps_score(mc_samples=10, stream=np.random.default_rng(0))


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_evaluate_ignores_memory_order(K, d):
    # a C-ordered and an F-ordered copy of one batch give the same bits, signed
    # zeros included, in every mode; the score of an F-ordered batch is
    # F-ordered, so the sampler's coordinate-major arrays stay so; and a
    # one-row batch gives the bits of its row inside a larger batch
    rng = np.random.default_rng(100 * K + d)
    target = random_mixture(rng, d, K)
    s = setup_schedule(T=8, d=d)
    for mode, level in (("exact", 0.0), ("offset", 0.3), ("relative", -0.2)):
        model = ScoreModel(mode, target, s, level)
        for n in (1, 2, 8193):
            x = 3.0 * rng.standard_normal((n, d))
            x[0] = target.means[0]
            c = model.evaluate(5, np.ascontiguousarray(x))
            f = model.evaluate(5, np.asfortranarray(x))
            assert c.tobytes() == f.tobytes()
            assert f.flags.f_contiguous
            for i in range(min(n, 50)):
                assert model.evaluate(5, x[i:i + 1]).tobytes() == f[i:i + 1].tobytes()
