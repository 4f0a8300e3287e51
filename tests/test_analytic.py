import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from difflab import samplers
from difflab.analytic import (
    AFFINE_KINDS,
    _PROBE_STEPS,
    final_kl,
    gaussian_kl,
    propagate,
    scalar_propagate,
    target_law,
    tv_bound,
)
from difflab.errors import InvalidParams, UnsupportedKind
from difflab.samplers import accelerated_step, run_batch
from difflab.schedule import ScheduleParams, build_schedule
from difflab.score_oracle import ScoreModel
from difflab.targets import (
    GaussianMixture,
    forward_marginal,
    gaussian_target,
    standard_normal_target,
)
from gaussian_reference import decimal_final_kl


def step_map(s, target, t, kind):
    """(A, B, D, b) of step t, read off by the full probe for that one step."""
    A, B, D, b = full_probe(s, ScoreModel("exact", target, s), kind, np.array([t]))
    return A[0], B[0], D[0], b[0]


def full_probe(s, model, kind, steps):
    """(A, B, D, b) of the steps read off on all 3d + 1 probe rows per step,
    whether or not the step reads the input a row probes: the zero row gives
    b, each unit row minus it one column of [A B D].  This works in any frame,
    so it checks propagate's principal-axes probe from outside."""
    d, m = s.d, len(steps)
    rows = np.tile(np.vstack([np.zeros(3 * d), np.eye(3 * d)]), (m, 1))
    out, _ = samplers.step(kind, s, model, np.repeat(steps, 3 * d + 1),
                           rows[:, :d], rows[:, d:2 * d], rows[:, 2 * d:])
    out = out.reshape(m, 3 * d + 1, d)
    cols = np.swapaxes(out[:, 1:] - out[:, :1], 1, 2)
    return cols[:, :, :d], cols[:, :, d:2 * d], cols[:, :, 2 * d:], out[:, 0]


def random_target(rng, d):
    root = rng.standard_normal((d, d))
    return gaussian_target(rng.standard_normal(d), root @ root.T + 0.5 * np.eye(d))


def test_gaussian_law_validation():
    gaussian_target(np.zeros(2), np.eye(2))
    with pytest.raises(InvalidParams):
        gaussian_target(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(InvalidParams):
        gaussian_target(np.zeros(2), -np.eye(2))
    with pytest.raises(InvalidParams):
        gaussian_target(np.zeros(3), np.eye(2))


def test_forward_marginal_gaussian_closed_form():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.3], [0.3, 0.5]])
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=2))
    abar = s.alpha_bar[7]
    law = forward_marginal(gaussian_target(mean, cov), s, 7)
    assert np.allclose(law.mean, np.sqrt(abar) * mean, rtol=1e-15)
    assert np.allclose(law.cov, abar * cov + (1 - abar) * np.eye(2), rtol=1e-15)
    # a one-component law's overall moments are its component, bit for bit
    assert np.array_equal(law.mean, law.means[0])
    assert np.array_equal(law.cov, law.covariances[0])


def test_single_gaussian_required():
    mix = GaussianMixture(
        np.array([0.2, 0.3, 0.5]),
        np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, -1.0]]),
        np.stack([np.eye(2)] * 3),
    )
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    with pytest.raises(UnsupportedKind):
        target_law(mix)
    for kind in ("accelerated_noclip", "ddpm", "ode"):
        with pytest.raises(UnsupportedKind):
            propagate(s, mix, kind)


def test_ode_coefficients_stationary():
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=2))
    t = 9
    a = s.alpha[t]
    A, B, D, b = step_map(s, standard_normal_target(2), t, "ode")
    assert np.allclose(A, (1 - (1 - a) / 2) / math.sqrt(a) * np.eye(2), rtol=1e-14)
    assert np.allclose(b, 0.0)
    assert np.allclose(B, 0.0) and np.allclose(D, 0.0)


def test_ddpm_coefficients_stationary():
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=1.0, d=2))
    t = 9
    a = s.alpha[t]
    A, B, D, b = step_map(s, standard_normal_target(2), t, "ddpm")
    # mean coefficient (1 - (1 - a)) / sqrt(a) = sqrt(a)
    assert np.allclose(A, math.sqrt(a) * np.eye(2), rtol=1e-14)
    # noise scale sqrt(1 - a) inside the 1/sqrt(a) rescaling
    assert np.allclose(D, math.sqrt((1 - a) / a) * np.eye(2), rtol=1e-14)
    assert np.allclose(b, 0.0) and np.allclose(B, 0.0)


def test_clip_enabled_kind_unsupported():
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=1))
    with pytest.raises(UnsupportedKind):
        propagate(s, target_law(standard_normal_target(1)), "accelerated")


def test_accelerated_coefficients_by_regression():
    # the no-clip step is exactly affine in (y, z_mid, z); a least-squares
    # fit of simulated outputs recovers the symbolic coefficients
    target = gaussian_target([1.5], np.array([[0.7]]))
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=1))
    model = ScoreModel("exact", target, s)
    t = 4
    rng = np.random.default_rng(42)
    n = 50_000
    y = rng.standard_normal((n, 1))
    z_mid = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, 1))
    out, _ = accelerated_step(s, model, t, y, z_mid, z, use_clip=False)

    design = np.column_stack([y, z_mid, z, np.ones(n)])
    coef, residual, *_ = np.linalg.lstsq(design, out[:, 0], rcond=None)
    ss_tot = float(np.sum((out[:, 0] - out[:, 0].mean()) ** 2))
    r2 = 1.0 - float(residual[0]) / ss_tot if residual.size else 1.0
    assert r2 > 1 - 1e-10

    A, B, D, b = step_map(s, target, t, "accelerated_noclip")
    assert abs(coef[0] - A[0, 0]) < 1e-8
    assert abs(coef[1] - B[0, 0]) < 1e-8
    assert abs(coef[2] - D[0, 0]) < 1e-8
    assert abs(coef[3] - b[0]) < 1e-8


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_affine_coefficients_reproduce_step(kind, d):
    # the map read off the probe rows reproduces the step run under the
    # sampler's own exact score at random points
    rng = np.random.default_rng(17 + d)
    target = random_target(rng, d)
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=d))
    t = 5
    A, B, D, b = step_map(s, target, t, kind)
    y, z_mid, z = rng.standard_normal((3, 20, d))
    direct, _ = samplers.step(kind, s, ScoreModel("exact", target, s), t, y, z_mid, z)
    affine = y @ A.T + z_mid @ B.T + z @ D.T + b
    assert np.allclose(direct, affine, rtol=1e-12, atol=1e-12)


def test_propagate_runs_the_sampler_step(monkeypatch):
    # the propagated law is read off samplers.step, so a mutant step with
    # 1% more noise must change it
    target = target_law(gaussian_target([0.5], np.array([[1.3]])))
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=2.0, d=1))
    before = propagate(s, target, "ddpm").cov
    original = samplers.ddpm_step

    def noisier(s, model, t, y, z):
        return original(s, model, t, y, 1.01 * np.asarray(z))

    monkeypatch.setattr(samplers, "ddpm_step", noisier)
    after = propagate(s, target, "ddpm").cov
    assert not np.allclose(after, before, rtol=1e-6, atol=0.0)


def test_propagate_ode_deterministic_covariance():
    target = target_law(gaussian_target([0.3, 0.1], np.array([[0.8, 0.3], [0.3, 0.5]])))
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    law = propagate(s, target, "ode")
    prod = np.eye(2)
    for t in range(s.T, 1, -1):
        prod = step_map(s, target, t, "ode")[0] @ prod
    assert np.allclose(law.cov, prod @ prod.T, rtol=1e-12)


def test_propagate_single_step_base_case():
    target = target_law(gaussian_target([1.0], np.array([[2.0]])))
    s = build_schedule(ScheduleParams(T=2, c0=1.0, c1=0.5, d=1))
    for kind in ("accelerated_noclip", "ddpm", "ode"):
        A, B, D, b = step_map(s, target, 2, kind)
        law = propagate(s, target, kind)
        assert np.allclose(law.mean, b)  # A @ 0 + b
        assert np.allclose(law.cov, A @ A.T + B @ B.T + D @ D.T)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_propagate_matches_sequential_fold(kind, d):
    # the law propagated in the principal axes, block by block, equals folding
    # the full maps of the correlated target itself one step at a time, on both
    # sides of every block boundary
    target = random_target(np.random.default_rng(40 + d), d)
    for T in (2, 3, _PROBE_STEPS, _PROBE_STEPS + 1, 2 * _PROBE_STEPS + 3):
        s = build_schedule(ScheduleParams(T=T, c0=2.0, c1=1.0, d=d))
        maps = full_probe(s, ScoreModel("exact", target, s), kind, np.arange(T, 1, -1))
        mean, cov = np.zeros(d), np.eye(d)
        for A, B, D, b in zip(*maps):
            mean = A @ mean + b
            cov = A @ cov @ A.T + B @ B.T + D @ D.T
        law = propagate(s, target, kind)
        assert np.allclose(law.mean, mean, rtol=1e-12, atol=1e-12), T
        assert np.allclose(law.cov, cov, rtol=1e-12, atol=1e-12), T


def test_propagate_probe_rows_bounded_independently_of_T(monkeypatch):
    # a step is probed on the zero row and one all-ones row per input it
    # reads, whatever d: 1 + |y, z_mid, z| = 4, 1 + |y, z| = 3, 1 + |y| = 2
    T = 16384
    original = samplers.step

    def bounded(kind, s, model, t, y, z_mid, z):
        rows.append(len(y))
        assert len(y) <= _PROBE_STEPS * 4
        return original(kind, s, model, t, y, z_mid, z)

    monkeypatch.setattr(samplers, "step", bounded)
    for d in (2, 5):
        target = random_target(np.random.default_rng(3), d)
        s = build_schedule(ScheduleParams(T=T, c0=4.0, c1=4.0, d=d))
        for kind, per_step in (("accelerated_noclip", 4), ("ddpm", 3), ("ode", 2)):
            rows = []
            propagate(s, target, kind)
            assert sum(rows) == (T - 1) * per_step
            assert len(rows) == -(-(T - 1) // _PROBE_STEPS)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_reads_table_matches_the_step(kind, d, monkeypatch):
    # a draw is in the table iff the step reads it, and probing only the draws
    # in samplers.READS gives the law of probing every draw bit for bit
    target = random_target(np.random.default_rng(80 + d), d)
    s = build_schedule(ScheduleParams(T=40, c0=2.0, c1=2.5, d=d))
    full = full_probe(s, ScoreModel("exact", target, s), kind, np.arange(s.T, 1, -1))
    for j, draw in enumerate(full[1:3]):  # B (z_mid), D (z)
        assert np.any(draw) == (j in samplers.READS[kind])
    probed = propagate(s, target, kind)
    monkeypatch.setitem(samplers.READS, kind, (0, 1))
    every = propagate(s, target, kind)
    assert np.array_equal(probed.mean, every.mean)
    assert np.array_equal(probed.cov, every.cov)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_propagate_rotation_equivariant(kind, d):
    # the noise is isotropic, so rotating the target rotates the final law;
    # the analytic-rate oracle compares moments in the eigenbasis on this
    rng = np.random.default_rng(60 + d)
    target = random_target(rng, d)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    rot = q * np.sign(np.diag(r))
    rotated = gaussian_target(rot @ target.mean, rot @ target.cov @ rot.T)
    for T in (64, _PROBE_STEPS + 5):
        s = build_schedule(ScheduleParams(T=T, c0=4.0, c1=4.0, d=d))
        law = propagate(s, target, kind)
        turned = propagate(s, rotated, kind)
        assert np.allclose(turned.mean, rot @ law.mean, rtol=1e-12, atol=1e-12)
        assert np.allclose(turned.cov, rot @ law.cov @ rot.T, rtol=1e-12, atol=1e-12)


def test_propagate_matches_monte_carlo_moments():
    target = gaussian_target([0.6, -0.4], np.array([[1.4, 0.5], [0.5, 0.6]]))
    s = build_schedule(ScheduleParams(T=64, c0=4.0, c1=4.0, d=2))
    model = ScoreModel("exact", target, s)
    n = 65_536
    batch = run_batch("accelerated_noclip", s, model, n, seed=314)
    law = propagate(s, target_law(target), "accelerated_noclip")

    se_mean = np.sqrt(np.diag(law.cov) / n)
    assert np.all(np.abs(batch.y1.mean(axis=0) - law.mean) < 5 * se_mean)

    emp_cov = np.cov(batch.y1, rowvar=False)
    v = law.cov
    se_cov = np.sqrt((np.outer(np.diag(v), np.diag(v)) + v**2) / n)
    assert np.all(np.abs(emp_cov - v) < 6 * se_cov)


def test_gaussian_kl_identical_laws():
    law = gaussian_target(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert abs(gaussian_kl(law, law)) < 1e-12


def test_gaussian_kl_noising_formula():
    # p = N(sqrt(abar) x0, (1-abar) I) against q = N(0, I):
    # 0.5 * [d(1-abar) - d + abar ||x0||^2 - d log(1-abar)]
    d, abar = 2, 0.5
    x0 = np.array([1.0, 0.0])
    p = gaussian_target(np.sqrt(abar) * x0, (1 - abar) * np.eye(d))
    q = gaussian_target(np.zeros(d), np.eye(d))
    expected = 0.5 * (d * (1 - abar) - d + abar * 1.0 - d * math.log(1 - abar))
    assert gaussian_kl(p, q) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.4431472, abs=5e-8)


@pytest.mark.parametrize("ratio", [0.49, 1e-3, 1e-16, 1e-17, 1e-40, 1e-300])
def test_gaussian_kl_of_a_far_eigenvalue_is_finite_and_silent(ratio):
    # Cp = ratio * Cq: each eigenvalue is lam = ratio, whose lam - 1 rounds to
    # -1 below about 1e-16; the closed form is 0.5 d (lam - 1 - log lam)
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    p = gaussian_target(np.zeros(2), ratio * cov)
    q = gaussian_target(np.zeros(2), cov)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kl = gaussian_kl(p, q)
    assert kl == pytest.approx(ratio - 1.0 - math.log(ratio), rel=1e-12)


def test_gaussian_kl_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(6)
    perm = np.array([2, 0, 1])
    for _ in range(25):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        p = gaussian_target(rng.standard_normal(3), a @ a.T + 0.3 * np.eye(3))
        q = gaussian_target(rng.standard_normal(3), b @ b.T + 0.3 * np.eye(3))
        kl = gaussian_kl(p, q)
        assert kl >= -1e-10
        p2 = gaussian_target(p.mean[perm], p.cov[np.ix_(perm, perm)])
        q2 = gaussian_target(q.mean[perm], q.cov[np.ix_(perm, perm)])
        assert abs(gaussian_kl(p2, q2) - kl) < 1e-12 * max(1.0, abs(kl))


@pytest.mark.parametrize("kind", AFFINE_KINDS)
def test_final_kl_matches_a_decimal_reference(kind):
    # at T = 4096 the accelerated KL is about 1.6e-10, and a form built from
    # O(1) traces and log-determinants loses about 2e-6 of it to cancellation
    mean, cov = [0.7, -0.4], [[1.6, 0.45], [0.45, 0.6]]
    s = build_schedule(ScheduleParams(T=4096, c0=2.0, c1=2.5, d=2))
    reference = decimal_final_kl(s, mean, cov, kind)
    assert abs(final_kl(s, gaussian_target(mean, np.array(cov)), kind) - reference) \
        <= 1e-8 * reference


def test_final_kl_is_the_exact_cell_value():
    target = gaussian_target([0.7, -0.4], np.array([[1.6, 0.45], [0.45, 0.6]]))
    s = build_schedule(ScheduleParams(T=32, c0=2.0, c1=2.5, d=2))
    law_1 = forward_marginal(target, s, 1)
    for kind in AFFINE_KINDS:
        assert final_kl(s, target, kind) == gaussian_kl(law_1, propagate(s, target, kind))
    # clip-enabled accelerated is read through its no-clip law
    assert final_kl(s, target, "accelerated") == final_kl(s, target, "accelerated_noclip")


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.0, math.pi), exponent=st.floats(-18.0, 0.0))
@example(theta=2.563079532033328, exponent=-17.98904599931941)
def test_every_single_gaussian_built_is_propagated(theta, exponent):
    # construction and principal run the same eigh, so a near-singular
    # covariance is refused when built or has principal axes
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    cov = rot @ np.diag([1.0, 10.0**exponent]) @ rot.T
    cov[1, 0] = cov[0, 1]
    try:
        target = gaussian_target([0.3, -0.2], cov)
    except InvalidParams:
        return
    law = propagate(build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2)), target, "ddpm")
    assert np.all(np.isfinite(law.cov))


def test_singular_covariance_rejected_when_built():
    with pytest.raises(InvalidParams):
        gaussian_target(np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_tv_bound_values():
    q = gaussian_target(np.zeros(1), np.eye(1))
    assert tv_bound(gaussian_kl(q, q)) == 0.0
    # KL(N(m,1) || N(0,1)) = m^2 / 2: pick m for KL = 0.08 and KL = 2
    p = gaussian_target(np.array([0.4]), np.eye(1))
    assert tv_bound(gaussian_kl(p, q)) == pytest.approx(0.2, rel=1e-12)
    p = gaussian_target(np.array([2.0]), np.eye(1))
    assert tv_bound(gaussian_kl(p, q)) == 1.0


@pytest.mark.parametrize("kind", ["accelerated_noclip", "ddpm", "ode"])
def test_scalar_twin_agrees_in_1d(kind):
    c0, c1 = 2.0, 2.0
    for T in (8, 64):
        s = build_schedule(ScheduleParams(T=T, c0=c0, c1=c1, d=1))
        target = target_law(gaussian_target([0.8], np.array([[1.7]])))
        law = propagate(s, target, kind)
        mean, var = scalar_propagate(T, c0, c1, 0.8, 1.7, kind)
        assert abs(law.mean[0] - mean) <= 1e-10 * max(1.0, abs(mean))
        assert abs(law.cov[0, 0] - var) <= 1e-10 * var
