"""What the benchmark under perfbench/ uses of the library.

The benchmark drives difflab from outside: its tracer patches named entry
points and its oracles read propagated laws.  These tests fail when a
change to the library removes something the benchmark relies on, instead
of leaving the breakage to the next benchmark run.  They only read
perfbench/; no bytecode is written there.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import difflab
from difflab import analytic, harness, metrics, samplers, targets
from difflab.schedule import ScheduleParams, build_schedule
from difflab.score_oracle import ScoreModel
from difflab.targets import gaussian_target, standard_normal_target

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    yield importlib.import_module("spans")
    sys.modules.pop("spans", None)


def test_every_traced_entry_point_resolves(spans):
    points = spans._entry_points()
    assert points
    for owner, attr, name, _ in points:
        # the tracer swaps owner.__dict__[attr], so it must be defined there
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(vars(owner)[attr])


@pytest.mark.parametrize("kind", analytic.AFFINE_KINDS)
def test_propagated_law_exposes_moments(kind):
    target = gaussian_target([0.7, -0.4], np.array([[1.6, 0.45], [0.45, 0.6]]))
    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=2.5, d=2))
    law = analytic.propagate(s, analytic.target_law(target), kind)
    assert law.d == 2
    assert law.mean.shape == (2,)
    assert law.cov.shape == (2, 2)


def test_scalar_twin_is_in_the_library():
    mean, var = analytic.scalar_propagate(16, 2.0, 2.5, 0.7, 1.6, "ddpm")
    assert np.isfinite(mean) and var > 0


def test_sweep_reaches_propagate_through_the_module(tmp_path, monkeypatch):
    # the analytic-rate oracle wraps analytic.propagate on the module
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"d": 2, "components": [
        {"weight": 1.0, "mean": [0.3, -0.2], "cov": [[1.2, 0.3], [0.3, 0.8]]}]}))
    cfg = harness.ExperimentConfig(target_path=str(target), T_grid=(8, 16, 32),
                                   samplers=("accelerated_noclip", "ode"), n=1,
                                   out=str(tmp_path / "sweep.csv"), c0=2.0, c1=2.0)
    calls = []
    original = analytic.propagate

    def record(s, target, kind):
        calls.append((kind, s.T))
        return original(s, target, kind)

    monkeypatch.setattr(analytic, "propagate", record)
    harness.run_sweep(cfg)
    assert calls == [(kind, T) for kind in cfg.samplers for T in cfg.T_grid]


def test_sliced_tv_reaches_projected_cdf_through_the_module(monkeypatch):
    # the tracer patches targets.projected_cdf on the module, so the traced
    # targets.projected_cdf_s reads the CDF time of every sliced distance
    law = standard_normal_target(2)
    y = np.random.default_rng(3).standard_normal((1000, 2))
    calls = []
    original = targets.projected_cdf

    def record(mix, directions, q):
        calls.append(len(directions))
        return original(mix, directions, q)

    monkeypatch.setattr(targets, "projected_cdf", record)
    value = metrics.sliced_tv(y, law, n_dirs=4, stream=np.random.default_rng(5))
    assert 0 < value < 1
    assert calls and all(m == 4 for m in calls)


def test_run_batch_reaches_step_through_the_module(monkeypatch):
    # the tracer patches samplers.ddpm_step on the module
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, d=2))
    model = ScoreModel("exact", standard_normal_target(2), s)
    steps = []
    original = samplers.ddpm_step

    def record(s, model, t, y, z):
        steps.append(t)
        return original(s, model, t, y, z)

    monkeypatch.setattr(samplers, "ddpm_step", record)
    samplers.run_batch("ddpm", s, model, 16, seed=1)
    assert steps == list(range(8, 1, -1))


def test_package_names_resolve_after_a_bare_import():
    # the benchmark times exactly this in a fresh interpreter for setup_s,
    # so an __init__ edit that drops one of these names breaks it there
    code = ("import difflab\n"
            "difflab.targets.load_target\n"
            "difflab.harness.ExperimentConfig.from_json\n"
            "from difflab import analytic, build_schedule, targets, ScheduleParams\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(difflab.__file__)))
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
