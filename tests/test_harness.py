import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difflab import harness, metrics, score_oracle, targets
from difflab.cli import main
from difflab.errors import ConfigInvalid, DiffLabError, InvalidParams
from difflab.harness import CSV_HEADER, ExperimentConfig, fit_slope, run_sweep
from difflab.schedule import ScheduleParams


def test_fit_slope_exact_power_laws():
    for power, expected in [(-4.0, -4.0), (-2.0, -2.0)]:
        points = [(T, 3.7 * T**power) for T in (16, 32, 64, 128)]
        fit = fit_slope(points)
        assert abs(fit.slope - expected) < 1e-9
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr < 1e-9


def test_fit_slope_constant_values():
    fit = fit_slope([(8, 2.5), (16, 2.5), (32, 2.5)])
    assert fit.slope == 0.0
    assert fit.r2 == 0.0
    assert np.isfinite(fit.stderr)


def test_fit_slope_two_decade_hand_example():
    points = [(16, 1e-3), (32, 2.6e-4), (64, 6.2e-5)]
    fit = fit_slope(points)
    oracle = np.polyfit(np.log([t for t, _ in points]),
                        np.log([v for _, v in points]), 1)[0]
    assert fit.slope == pytest.approx(oracle, abs=1e-12)
    assert fit.slope == pytest.approx(-2.004, abs=5e-3)


def test_fit_slope_errors():
    with pytest.raises(InvalidParams):
        fit_slope([(8, 1.0), (16, 0.5)])
    with pytest.raises(InvalidParams):
        fit_slope([(8, 1.0), (16, 0.5), (32, 0.0)])


def write_target(tmp_path, d=1):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({
        "d": d,
        "components": [{"weight": 1.0, "mean": [0.0] * d, "cov_scale": 1.0}],
    }))
    return str(path)


def make_config(tmp_path, **overrides):
    raw = {
        "target": write_target(tmp_path),
        "schedule": {"c0": 2.0, "c1": 2.0, "cclip": 2.0},
        "T_grid": [8, 16],
        "samplers": ["ode"],
        "score": {"mode": "exact"},
        "n": 2000,
        "n_dirs": 4,
        "seed": 123,
        "out": str(tmp_path / "sweep.csv"),
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def read_rows(path):
    lines = open(path).read().splitlines()
    assert lines[0] == CSV_HEADER
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    return data, comments


def test_config_validation(tmp_path):
    with pytest.raises(ConfigInvalid):
        make_config(tmp_path, T_grid=[16, 8])
    with pytest.raises(ConfigInvalid):
        make_config(tmp_path, T_grid=[2, 8])
    with pytest.raises(ConfigInvalid):
        make_config(tmp_path, n=0)
    with pytest.raises(ConfigInvalid):
        make_config(tmp_path, samplers=["euler"])
    with pytest.raises(ConfigInvalid):
        make_config(tmp_path, score={"mode": "mystery"})


def test_missing_key_named_by_its_config_key(tmp_path):
    raw = {"T_grid": [8, 16], "samplers": ["ode"], "n": 2000, "out": str(tmp_path / "s.csv")}
    with pytest.raises(ConfigInvalid, match="'target'"):
        ExperimentConfig.from_dict(raw)


MIXTURE_TARGET = str(Path(__file__).resolve().parent.parent / "configs" / "mixture_2d_three.json")


# parse_error: rejected by ExperimentConfig itself; otherwise by run_sweep,
# which needs the target to know which cells run Monte Carlo.  A list
# override is the whole config.
@pytest.mark.parametrize("override,parse_error", [
    ({"n_dirs": 0}, True),
    ({"seed": -1}, True),
    ({"score": {"mode": "offset", "delta": []}}, True),
    ({"score": {"mode": "relative", "rho": []}}, True),
    ({"score": {"mode": "offset"}}, True),
    ({"n": 500, "target": MIXTURE_TARGET}, False),
    ({"n": 500, "mc": True}, False),
    ({"score": "exact"}, True),
    ({"schedule": [1, 2]}, True),
    ([{"target": "target.json"}], True),
    ({"mc": "false"}, True),
    ({"T_grid": [16.5, 32]}, True),
    ({"n": 1500.7}, True),
    ({"n_dirs": 4.5}, True),
    ({"seed": 12.5}, True),
    ({"score": {"mode": "offset", "delta": [0.0, math.nan]}}, True),
    ({"score": {"mode": "relative", "rho": math.nan}}, True),
    ({"out": ["sweep.csv"]}, True),
    ({"schedule": {"c0": math.nan}}, True),
    ({"schedule": {"c1": -1}}, True),
    ({"schedule": {"cclip": 0}}, True),
    ({"schedule": {"c0": True}}, True),
    ({"schedule": {"cclip": "2"}}, True),
    ({"score": {"mode": "offset", "delta": True}}, True),
    ({"score": {"mode": "offset", "delta": "0.1"}}, True),
    ({"score": {"mode": "relative", "rho": ["0.2", False]}}, True),
    ({"T_grid": [16, 10**400]}, True),
    ({"schedule": {"c0": 10**400}}, True),
    ({"schedule": {"c1": math.inf}}, True),
    ({"score": {"mode": "offset", "delta": [0.0, 10**400]}}, True),
    ({"n_dir": 4}, True),
    ({"schedule": {"c_0": 9.0}}, True),
    ({"score": {"mode": "relative", "rho": 0.1, "delta": 0.1}}, True),
], ids=["n_dirs_zero", "negative_seed", "empty_delta", "empty_rho", "missing_delta",
        "mixture_n_below_floor", "forced_mc_n_below_floor", "score_not_object",
        "schedule_not_object", "config_not_object", "mc_string", "fractional_T",
        "fractional_n", "fractional_n_dirs", "fractional_seed", "nan_delta", "nan_rho",
        "out_not_path", "nan_c0", "negative_c1", "zero_cclip", "bool_c0", "string_cclip",
        "bool_delta", "string_delta", "string_and_bool_rho", "T_past_floats",
        "c0_past_floats", "infinite_c1", "delta_past_floats",
        "unknown_key", "unknown_schedule_key", "stray_level_key"])
def test_config_rejected_before_header(tmp_path, capsys, override, parse_error):
    out = tmp_path / "sweep.csv"
    raw = override
    if isinstance(override, dict):
        raw = {"target": write_target(tmp_path), "T_grid": [8, 16], "samplers": ["ddpm"],
               "n": 2000, "n_dirs": 4, "seed": 123, "out": str(out), **override}
    if parse_error:
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict(raw)
    else:
        with pytest.raises(ConfigInvalid):
            run_sweep(ExperimentConfig.from_dict(raw))
        assert not out.exists()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(cfg_path), "--jobs", "1"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("difflab: ConfigInvalid: ")
    assert not out.exists()


def test_overflowing_second_moment_is_one_error_line(tmp_path, capsys):
    # ||mean||^2 overflows at 1e200: the sweep is refused with one line and
    # no numpy overflow warning before it
    target = tmp_path / "far.json"
    target.write_text(json.dumps({"d": 1, "components": [
        {"weight": 1.0, "mean": [1e200], "cov_scale": 1.0}]}))
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"target": str(target), "T_grid": [8, 16],
                                    "samplers": ["ddpm"], "n": 2000, "out": str(out)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", str(cfg_path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "difflab: ConfigInvalid: target second moment exceeds the horizon bound"
    assert not out.exists()


# Any JSON value: null, bool, int, float (NaN and +-inf included), string,
# list or object.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=4)
FUZZ_KEYS = ([(key,) for key in ("target", "T_grid", "samplers", "n", "out", "n_dirs",
                                 "seed", "mc", "schedule", "score")]
             + [("schedule", key) for key in ("c0", "c1", "cclip")]
             + [("score", key) for key in ("mode", "delta")])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(FUZZ_KEYS), value=JSON_VALUES)
def test_config_fuzz_one_key(key, value):
    # one key of a valid config gets a random JSON value: the config is
    # either accepted whole or refused with ConfigInvalid, and the sweep
    # command refuses it before writing anything; no fuzzed sweep is run
    with tempfile.TemporaryDirectory() as tmp:
        raw = {"target": os.path.join(tmp, "target.json"), "T_grid": [8, 16],
               "samplers": ["ddpm", "accelerated"], "n": 2000,
               "out": os.path.join(tmp, "sweep.csv"), "n_dirs": 4, "seed": 3, "mc": False,
               "schedule": {"c0": 2.0, "c1": 2.0, "cclip": 2.0},
               "score": {"mode": "offset", "delta": [0.0, 0.1]}}
        ExperimentConfig.from_dict(raw)
        (raw if len(key) == 1 else raw[key[0]])[key[-1]] = value
        raw = json.loads(json.dumps(raw))  # the values a config file can hold
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ConfigInvalid:
            cfg_path = os.path.join(tmp, "cfg.json")
            with open(cfg_path, "w") as fh:
                json.dump(raw, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["sweep", "--config", cfg_path]) == 1
            assert err.getvalue().startswith("difflab: ConfigInvalid: ")
            assert os.listdir(tmp) == ["cfg.json"]
            return
        for T in cfg.T_grid:
            ScheduleParams(T=T, c0=cfg.c0, c1=cfg.c1, c_clip=cfg.c_clip)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
METRIC_FIELDS = ("eps_score", "kl_analytic", "tv_bound", "sliced_tv", "moment_kl", "clip_rate")
MC_FIELDS = {"sliced_tv", "moment_kl", "clip_rate"}
LEVELS = st.sampled_from([0.0, 1e-3, -1.0, 1e3, -1e3, 1e150, -1e200, 1e308, -1e308])


@st.composite
def sweep_targets(draw):
    """A shipped target file's contents, or a far-out mixture of one or two
    components: means up to 1e150, covariance scales from 1e-150 to 1e100,
    or in d = 2 a rotated near-singular covariance with eigenvalues 1 and
    1e-18...1e-14."""
    shipped = draw(st.sampled_from(["std_normal_2d", "mixture_2d_three",
                                    "mixture_1d_bimodal", None]))
    if shipped is not None:
        return json.loads((CONFIG_DIR / f"{shipped}.json").read_text())
    d, K = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    components = []
    for _ in range(K):
        mean = [draw(st.sampled_from([0.0, 1.0, -1e8, 1e150])) for _ in range(d)]
        if d == 2 and draw(st.booleans()):
            theta = draw(st.floats(0.0, math.pi))
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            cov = rot @ np.diag([1.0, 10.0 ** -draw(st.floats(14.0, 18.0))]) @ rot.T
            cov[1, 0] = cov[0, 1]
            components.append({"weight": 1.0 / K, "mean": mean, "cov": cov.tolist()})
        else:
            components.append({"weight": 1.0 / K, "mean": mean, "cov_scale": draw(
                st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e100]))})
    return {"d": d, "components": components}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(target=sweep_targets(),
       samplers=st.lists(st.sampled_from(["accelerated", "accelerated_noclip", "ddpm", "ode"]),
                         min_size=1, max_size=2, unique=True),
       T_grid=st.sampled_from([[4], [16], [8, 32], [16, 64]]),
       mode=st.sampled_from(["exact", "offset", "relative"]),
       levels=st.lists(LEVELS, min_size=1, max_size=2),
       mc=st.sampled_from([None, False, True]))
def test_sweep_fuzz_ends_in_rows_or_one_error_line(target, samplers, T_grid, mode, levels, mc):
    # a sweep over any target, score error and grid, with every numpy
    # RuntimeWarning an error: the command either refuses the config with
    # one line or writes every row complete or followed by # cell_failed,
    # with no inf or nan in any field
    with tempfile.TemporaryDirectory() as tmp:
        raw = {"target": os.path.join(tmp, "target.json"), "T_grid": T_grid,
               "samplers": samplers, "n": 1000, "n_dirs": 4, "seed": 5,
               "out": os.path.join(tmp, "sweep.csv"),
               "score": {"mode": "exact"} if mode == "exact" else
               {"mode": mode, harness._LEVEL_KEYS[mode]: levels}}
        if mc is not None:
            raw["mc"] = mc
        with open(raw["target"], "w") as fh:
            json.dump(target, fh)
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["sweep", "--config", cfg_path])
        if code == 1:
            assert err.getvalue().startswith("difflab: ") and err.getvalue().count("\n") == 1
            return
        assert code == 0 and err.getvalue() == ""
        lines = open(raw["out"]).read().splitlines()
        assert lines[0] == CSV_HEADER
        K = len(target["components"])
        wants_mc = mc if mc is not None else (K != 1 or mode != "exact")
        expected = ({"eps_score"} | ({"kl_analytic", "tv_bound"} if K == 1 and mode == "exact"
                                     else set()) | (MC_FIELDS if wants_mc else set()))
        rows = [ln for ln in lines[1:] if not ln.startswith("# slope")]
        for i, line in enumerate(rows):
            if line.startswith("# cell_failed"):
                assert i > 0 and not rows[i - 1].startswith("#")
                continue
            values = line.split(",")
            assert len(values) == len(harness._FIELDS), line
            row = dict(zip(harness._FIELDS, values))
            failed = i + 1 < len(rows) and rows[i + 1].startswith("# cell_failed")
            filled = {f for f in METRIC_FIELDS if row[f]}
            assert filled == (set() if failed else expected), line
            assert all(math.isfinite(float(row[f])) for f in filled), line


def test_moment_kl_stays_finite_when_the_batch_spreads_far(tmp_path):
    # rho = 1e3 spreads the batch about 1e16 times past the law, where an
    # eigenvalue's lam - 1 rounds to -1; its KL term is lam - 1 - log(lam)
    cfg = make_config(tmp_path, target=str(CONFIG_DIR / "mixture_2d_three.json"),
                      T_grid=[16, 64], samplers=["accelerated", "ddpm", "ode"], n=1000,
                      score={"mode": "relative", "rho": 1e3})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_sweep(cfg)
    kls = [row["moment_kl"] for row in report.rows]
    assert len(kls) == 6 and all(math.isfinite(kl) and kl > 100.0 for kl in kls)


def test_overflowing_steps_fail_their_cells_without_a_warning(tmp_path):
    # offsets of +-1e308 overflow every step; each cell fails alone through
    # the batch's finiteness check, and numpy warns of nothing on the way
    # (the sweep runs as under python -W error::RuntimeWarning)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "target": str(CONFIG_DIR / "std_normal_2d.json"), "T_grid": [16], "n": 1000,
        "samplers": ["accelerated", "ddpm", "ode"], "out": str(tmp_path / "sweep.csv"),
        "score": {"mode": "offset", "delta": [1e308, -1e308]}}))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", str(cfg)]) == 0
    assert err.getvalue() == ""
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 12
    for row, comment in zip(lines[::2], lines[1::2]):
        assert not row.startswith("#")
        assert comment.startswith("# cell_failed,") and comment.endswith(
            "trajectory outputs contain non-finite values")


def test_small_n_allowed_without_monte_carlo(tmp_path):
    cfg = make_config(tmp_path, n=500, T_grid=[8])
    report = run_sweep(cfg)
    assert report.rows[0]["error"] is None
    assert report.rows[0]["kl_analytic"] is not None


def test_any_difflab_error_fails_its_cell_alone(tmp_path, monkeypatch):
    real = metrics.sliced_tv
    calls = []

    def second_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise DiffLabError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "sliced_tv", second_call_fails)
    cfg = make_config(tmp_path, T_grid=[8, 16, 32], mc=True)
    report = run_sweep(cfg)
    data, comments = read_rows(cfg.out)
    assert len(data) == 3
    assert [r["T"] for r in report.rows if r["error"] is not None] == [16]
    assert "# cell_failed,ode,16,injected failure" in comments
    # the failed row keeps no partial metrics; its neighbours are complete
    assert data[1].split(",")[3:9] == [""] * 6
    for line in (data[0], data[2]):
        assert "" not in line.split(",")


@pytest.mark.parametrize("huge_T", [1e20, 1e300])
def test_unbuildable_horizon_fails_its_cell_alone(tmp_path, capsys, huge_T):
    # no schedule of 1e20 steps fits in memory, and 1e300**10 overflows a
    # float: the cell fails alone, with no traceback and the T = 16 row complete
    # at each sampler: a horizon that failed to build is not shared, so each
    # of its cells tries, fails and is reported on its own
    out = tmp_path / "sweep.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"target": write_target(tmp_path), "T_grid": [16, huge_T],
                                    "samplers": ["ode", "ddpm"], "n": 2000, "out": str(out)}))
    assert main(["sweep", "--config", str(cfg_path), "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""
    data, comments = read_rows(out)
    assert len(data) == 4
    for row in data[0::2]:
        assert row.split(",")[1] == "16" and "" not in row.split(",")[:6]
    for row in data[1::2]:
        assert row.split(",")[1] == str(int(huge_T))
        assert row.split(",")[3:9] == [""] * 6
    assert len(comments) == 2
    for kind, failed in zip(("ode", "ddpm"), comments):
        assert failed.startswith(f"# cell_failed,{kind},{int(huge_T)},no memory for a schedule")


def test_single_cell_sweep_skips_slopes(tmp_path):
    cfg = make_config(tmp_path, T_grid=[8])
    report = run_sweep(cfg)
    data, comments = read_rows(cfg.out)
    assert len(data) == 1
    assert not comments  # slope section needs >= 3 points
    assert report.slopes == {}
    row = report.rows[0]
    assert row["kl_analytic"] is not None and row["sliced_tv"] is None


def test_sweep_slope_section_and_analytic_path(tmp_path):
    cfg = make_config(tmp_path, T_grid=[8, 16, 32, 64])
    report = run_sweep(cfg)
    data, comments = read_rows(cfg.out)
    assert len(data) == 4
    slope_lines = [c for c in comments if c.startswith("# slope,ode,")]
    assert len(slope_lines) == 1
    assert "ode" in report.slopes
    # deterministic rerun reproduces every data row except wallclock
    out2 = str(tmp_path / "sweep2.csv")
    run_sweep(make_config(tmp_path, T_grid=[8, 16, 32, 64], out=out2))
    data2, _ = read_rows(out2)
    strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows]
    assert strip(data) == strip(data2)


def test_sweep_parallel_cells_identical(tmp_path):
    cfg_a = make_config(tmp_path, T_grid=[8, 16, 32], out=str(tmp_path / "a.csv"))
    cfg_b = make_config(tmp_path, T_grid=[8, 16, 32], out=str(tmp_path / "b.csv"))
    run_sweep(cfg_a, jobs=1)
    run_sweep(cfg_b, jobs=3)
    strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows]
    data_a, _ = read_rows(cfg_a.out)
    data_b, _ = read_rows(cfg_b.out)
    assert strip(data_a) == strip(data_b)


@pytest.mark.parametrize("score,mc,cells", [({"mode": "exact"}, True, 6),
                                            ({"mode": "offset", "delta": [0.0, 0.2]}, None, 12)],
                         ids=["exact", "offset"])
def test_sweep_rows_do_not_depend_on_jobs(tmp_path, score, mc, cells):
    # serial cells share each horizon's schedule and score stacks, pooled
    # cells build their own: the rows and slopes agree but for wallclock_ms
    files = []
    for jobs in (1, 2):
        cfg = make_config(tmp_path, target=write_target(tmp_path, d=2), T_grid=[8, 16, 32],
                          samplers=["accelerated", "ddpm"], score=score, mc=mc, n=1000,
                          out=str(tmp_path / f"jobs{jobs}.csv"))
        run_sweep(cfg, jobs=jobs)
        data, comments = read_rows(cfg.out)
        assert len(data) == cells
        assert not any(c.startswith("# cell_failed") for c in comments)
        files.append(([",".join(r.split(",")[:-1]) for r in data], comments))
    assert files[0] == files[1]


def test_sweep_builds_each_horizon_once(tmp_path, monkeypatch):
    # serial cells share one schedule per horizon and, through it, one
    # factorisation of the stacked marginals; neither outlives the sweep
    builds, factors = [], []
    real_build, real_factor = harness.build_schedule, targets.factor

    def counting_build(params):
        builds.append(params.T)
        return real_build(params)

    def counting_factor(weights, covariances):
        if np.ndim(covariances) == 4:  # (T + 1, K, d, d): one stack per horizon
            factors.append(len(covariances) - 1)
        return real_factor(weights, covariances)

    monkeypatch.setattr(harness, "build_schedule", counting_build)
    monkeypatch.setattr(targets, "factor", counting_factor)
    cfg = make_config(tmp_path, target=write_target(tmp_path, d=2), T_grid=[8, 16, 32],
                      samplers=["accelerated_noclip", "ddpm", "ode"])
    live = len(score_oracle._SHARED_STACKS)
    for _ in range(2):  # a second sweep rebuilds: nothing is kept across sweeps
        builds.clear()
        factors.clear()
        report = run_sweep(cfg)
        assert all(row["kl_analytic"] is not None for row in report.rows)
        assert builds == factors == [8, 16, 32]
        assert len(score_oracle._SHARED_STACKS) == live


def test_sweep_pool_capped_at_the_cells(tmp_path, pool_sizes):
    cfg = make_config(tmp_path, T_grid=[8, 16], out=str(tmp_path / "a.csv"))
    pooled = run_sweep(cfg, jobs=64)
    assert pool_sizes == [2]
    assert [r["T"] for r in pooled.rows] == [8, 16]
    serial = run_sweep(cfg, jobs=1)
    assert pool_sizes == [2]
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wallclock_ms"} for r in rows]
    assert strip(pooled.rows) == strip(serial.rows)


def test_degenerate_cell_fails_alone(tmp_path):
    # c1 * log(4) / 4 drives the T=4 per-step rates to 1/2 with c1=4
    cfg = ExperimentConfig(
        target_path=write_target(tmp_path), T_grid=(4, 16, 32, 64),
        samplers=("ode",), n=2000, out=str(tmp_path / "deg.csv"),
        c0=4.0, c1=4.0, seed=3,
    )
    report = run_sweep(cfg)
    data, comments = read_rows(cfg.out)
    assert len(data) == 4
    failed = [r for r in report.rows if r["error"] is not None]
    assert len(failed) == 1 and failed[0]["T"] == 4
    assert any(c.startswith("# cell_failed,ode,4,") for c in comments)
    assert "ode" in report.slopes  # fitted over the three healthy cells


def test_mc_cells_for_offset_scores(tmp_path):
    cfg = make_config(tmp_path, score={"mode": "offset", "delta": [0.0, 0.2]},
                      samplers=["ddpm"], T_grid=[8])
    report = run_sweep(cfg)
    rows = report.rows
    assert len(rows) == 2
    assert rows[0]["eps_score"] == 0.0 and rows[1]["eps_score"] == pytest.approx(0.2)
    for row in rows:
        assert row["sliced_tv"] is not None and row["moment_kl"] is not None
        assert row["kl_analytic"] is None  # analytic path needs exact scores


def test_relative_score_sweep(tmp_path):
    grid = dict(target=MIXTURE_TARGET, samplers=["ddpm"], T_grid=[8], n=1000,
                score={"mode": "relative", "rho": [0.0, 0.2]})
    strip = lambda rows: [",".join(r.split(",")[:-1]) for r in rows]
    data = {}
    for name, jobs in [("first", 1), ("again", 1), ("parallel", 2)]:
        cfg = make_config(tmp_path, out=str(tmp_path / f"{name}.csv"), **grid)
        rows = run_sweep(cfg, jobs=jobs).rows
        assert [r["error"] for r in rows] == [None, None]
        assert rows[0]["eps_score"] == 0.0 and rows[1]["eps_score"] > 0.0
        assert all(r["sliced_tv"] is not None and r["moment_kl"] is not None for r in rows)
        data[name] = strip(read_rows(cfg.out)[0])
    assert data["again"] == data["first"]
    assert data["parallel"] == data["first"]


def test_all_rows_complete(tmp_path):
    cfg = make_config(tmp_path, T_grid=[8, 16], samplers=["ode", "ddpm", "accelerated"],
                      mc=True)
    run_sweep(cfg)
    data, _ = read_rows(cfg.out)
    for line in data:
        assert len(line.split(",")) == len(CSV_HEADER.split(","))


def run_two_level_sweep(tmp_path, target, score):
    """`difflab sweep` over two score levels of one ddpm cell at T = 16, n = 1000:
    its exit status and the data and comment lines of its CSV."""
    out = tmp_path / "levels.csv"
    cfg_path = tmp_path / "levels.json"
    cfg_path.write_text(json.dumps({"target": target, "T_grid": [16], "samplers": ["ddpm"],
                                    "n": 1000, "score": score, "out": str(out)}))
    status = main(["sweep", "--config", str(cfg_path), "--jobs", "1"])
    return status, *read_rows(out)


def test_overflowing_relative_error_fails_its_cell_alone(tmp_path, capsys):
    # rho = 1e308 is a finite level, but rho**2 E||s||^2 overflows: the cell
    # fails with a message, and the rho = 0.1 row before it is complete
    status, data, comments = run_two_level_sweep(
        tmp_path, write_target(tmp_path, d=2), {"mode": "relative", "rho": [0.1, 1e308]})
    assert status == 0 and capsys.readouterr().err == ""
    assert len(data) == 2
    assert "" not in [data[0].split(",")[i] for i in (3, 6, 7, 8)]
    assert data[1].split(",")[3:9] == [""] * 6
    [failed] = comments
    assert failed.startswith("# cell_failed,ddpm,16,relative score error is not finite")


def test_far_tail_mixture_score_fails_its_cell_alone(tmp_path, capsys):
    # an offset of 1e200 drives the trajectories past |x| ~ 1e154, where every
    # Mahalanobis term of the mixture overflows and the score is NaN: the
    # refusal is the cell's failure, never a NaN in the CSV, and the 0/0 of
    # the responsibilities raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status, data, comments = run_two_level_sweep(
            tmp_path, MIXTURE_TARGET, {"mode": "offset", "delta": [0.1, 1e200]})
    assert status == 0 and capsys.readouterr().err == ""
    assert len(data) == 2
    assert "" not in [data[0].split(",")[i] for i in (3, 6, 7, 8)]
    assert data[1].split(",")[3:9] == [""] * 6
    assert comments == ["# cell_failed,ddpm,16,trajectory outputs contain non-finite values"]
