import numpy as np
import pytest

from difflab import analytic, metrics, samplers
from difflab.errors import ConfigInvalid, InvalidParams, UnsupportedKind
from difflab.harness import ExperimentConfig
from difflab.schedule import ScheduleParams, build_schedule
from difflab.score_oracle import ScoreModel
from difflab.targets import GaussianMixture, standard_normal_target


def relative_model():
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    return ScoreModel("relative", standard_normal_target(2), s, 0.1)


def sweep_dict(**changes):
    raw = {"target": "t.json", "T_grid": [8, 16], "samplers": ["ddpm"], "n": 10,
           "out": "out.csv"}
    return {**raw, **changes}


# (call of tmp_path, error class, fragment of its message): each refusal that no
# other in-process test reaches
REFUSALS = {
    "non_positive_weight": (lambda tmp: GaussianMixture(
        np.array([1.5, -0.5]), np.zeros((2, 1)), np.ones((2, 1, 1))),
        InvalidParams, "weights must be positive"),
    "fit_gaussian_too_few_rows": (lambda tmp: metrics.fit_gaussian(np.zeros((3, 2))),
                                  InvalidParams, "more than d + 1 = 3 samples, got 3"),
    "gaussian_kl_across_dimensions": (lambda tmp: analytic.gaussian_kl(
        standard_normal_target(1), standard_normal_target(2)),
        InvalidParams, "share a dimension"),
    "scalar_propagate_accelerated": (lambda tmp: analytic.scalar_propagate(
        16, 2.0, 2.0, 0.0, 1.0, "accelerated"), UnsupportedKind, "no affine form"),
    "step_unknown_kind": (lambda tmp: samplers.step(
        "euler", None, None, 2, np.zeros((1, 2)), None, None),
        UnsupportedKind, "unknown sampler kind 'euler'"),
    "relative_eps_no_samples": (lambda tmp: relative_model().eps_score(
        0, np.random.default_rng(0)), InvalidParams, "mc_samples >= 1"),
    "relative_eps_no_stream": (lambda tmp: relative_model().eps_score(10),
                               InvalidParams, "needs a random stream"),
    "T_grid_not_a_list": (lambda tmp: ExperimentConfig.from_dict(sweep_dict(T_grid=5)),
                          ConfigInvalid, "bad sweep config"),
    "samplers_not_a_list": (lambda tmp: ExperimentConfig.from_dict(sweep_dict(samplers=5)),
                            ConfigInvalid, "bad sweep config"),
    "config_file_missing": (lambda tmp: ExperimentConfig.from_json(str(tmp / "none.json")),
                            ConfigInvalid, "cannot read config"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_raises_its_class_and_message(tmp_path, case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert fragment in str(info.value)
