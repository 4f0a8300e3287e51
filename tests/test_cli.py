import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from difflab import cli
from difflab.analytic import gaussian_kl, propagate, target_law
from difflab.cli import build_parser, main
from difflab.harness import format_value
from difflab.samplers import KINDS, TrajectoryBatch, run_batch
from difflab.schedule import ScheduleParams, build_schedule
from difflab.score_oracle import ScoreModel
from difflab.targets import forward_marginal, load_target, standard_normal_target


def write_target(tmp_path, d=2):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({
        "d": d,
        "components": [{"weight": 1.0, "mean": [0.0] * d, "cov_scale": 1.0}],
    }))
    return str(path)


def test_schedule_csv(tmp_path):
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--T", "8", "--c0", "2", "--c1", "2",
                 "--cclip", "1.5", "--d", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,alpha,alpha_bar,sigma,clip_radius"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "" and first[4] == ""
    s = build_schedule(ScheduleParams(T=8, c0=2.0, c1=2.0, c_clip=1.5, d=2))
    assert float(lines[2].split(",")[3]) == s.sigma[2]


def test_sample_csv_and_jobs_determinism(tmp_path):
    target = write_target(tmp_path)
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"sample_{jobs}.csv"
        assert main(["sample", "--sampler", "accelerated", "--target", target,
                     "--T", "8", "--n", "2000", "--seed", "42",
                     "--c0", "2", "--c1", "2", "--jobs", jobs,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == "y1_0,y1_1"
    assert lines[-1].startswith("# clip_activations=")
    assert len(lines) == 2002


def test_sample_noclip_sampler(tmp_path):
    target = write_target(tmp_path)
    out = tmp_path / "noclip.csv"
    assert main(["sample", "--sampler", "accelerated_noclip", "--target", target,
                 "--T", "8", "--n", "1200", "--seed", "7",
                 "--c0", "2", "--c1", "2", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "# clip_activations=0"


def test_sampler_names_are_the_kinds(capsys):
    # each sampler has one name, the same in sample, analytic and sweep configs
    parser = build_parser()
    common = ["--target", "t.json", "--T", "8", "--out", "y.csv"]
    for kind in KINDS:
        assert parser.parse_args(["sample", "--sampler", kind, "--n", "1", "--seed", "0",
                                  *common]).sampler == kind
        assert parser.parse_args(["analytic", "--sampler", kind, *common]).sampler == kind
    with pytest.raises(SystemExit):  # the flag spelling of accelerated_noclip is gone
        parser.parse_args(["sample", "--sampler", "ddpm", "--n", "1", "--seed", "0",
                           "--no-clip", *common])
    assert "unrecognized arguments: --no-clip" in capsys.readouterr().err


def test_analytic_csv(tmp_path):
    target_path = write_target(tmp_path)
    out = tmp_path / "analytic.csv"
    assert main(["analytic", "--sampler", "ddpm", "--target", target_path,
                 "--T", "16", "--c0", "2", "--c1", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sampler,T,d,kl,tv_bound"
    fields = lines[1].split(",")
    assert fields[:3] == ["ddpm", "16", "2"]

    s = build_schedule(ScheduleParams(T=16, c0=2.0, c1=2.0, d=2))
    law_t = target_law(standard_normal_target(2))
    expected = gaussian_kl(forward_marginal(law_t, s, 1), propagate(s, law_t, "ddpm"))
    assert float(fields[3]) == pytest.approx(expected, rel=1e-15)


def test_sweep_cli(tmp_path, capsys):
    cfg = {
        "target": write_target(tmp_path, d=1),
        "schedule": {"c0": 2.0, "c1": 2.0, "cclip": 2.0},
        "T_grid": [8, 16, 32],
        "samplers": ["ode", "ddpm"],
        "score": {"mode": "exact"},
        "n": 1500,
        "n_dirs": 4,
        "seed": 5,
        "out": str(tmp_path / "sweep.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--jobs", "1"]) == 0
    printed = capsys.readouterr().out
    assert "wrote 6 rows" in printed
    assert "slope[ode]" in printed and "slope[ddpm]" in printed


def test_jobs_default_to_one():
    parser = build_parser()
    assert parser.parse_args(["sweep", "--config", "c.json"]).jobs == 1
    assert parser.parse_args(["sample", "--sampler", "ode", "--target", "t.json",
                              "--T", "8", "--n", "1", "--seed", "0",
                              "--out", "y.csv"]).jobs == 1


def sample_args(target, out, *extra):
    return ["sample", "--sampler", "accelerated", "--target", target, "--T", "16",
            "--n", "40", "--c0", "2", "--c1", "2", "--out", str(out), *extra]


def assert_one_error_line(capsys, error):
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"difflab: {error}: ")


@pytest.mark.parametrize("seed", [-1, 2**64, 2**128])
def test_sample_seed_out_of_range_is_a_difflab_error(tmp_path, capsys, seed):
    out = tmp_path / "y.csv"
    assert main(sample_args(write_target(tmp_path), out, "--seed", str(seed))) == 1
    assert_one_error_line(capsys, "InvalidParams")
    assert not out.exists()


def test_sample_seed_range_edges_are_accepted(tmp_path):
    target = write_target(tmp_path)
    for seed in (0, 2**64 - 1):
        out = tmp_path / f"y{seed}.csv"
        assert main(sample_args(target, out, "--seed", str(seed))) == 0
        assert len(out.read_text().splitlines()) == 42


def error_argv(error, tmp_path, out):
    """A command that fails with the given error class before writing out."""
    if error == "ConfigInvalid":  # "n_dir" is not a config key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": write_target(tmp_path), "T_grid": [8, 16, 32],
                                   "samplers": ["ddpm"], "n": 1500, "n_dir": 4,
                                   "out": str(out)}))
        return ["sweep", "--config", str(cfg)]
    if error == "TargetLoadFailed":
        return sample_args(str(tmp_path / "missing.json"), out, "--seed", "1")
    if error == "ScheduleDegenerate":  # T = 8 at the default c1 = 4
        return ["sample", "--sampler", "ddpm", "--target", write_target(tmp_path),
                "--T", "8", "--n", "40", "--seed", "1", "--out", str(out)]
    # exact propagation needs a single-Gaussian target
    return ["analytic", "--sampler", "ddpm", "--T", "16", "--c0", "2", "--c1", "2",
            "--target", str(Path(__file__).parent.parent / "configs" / "mixture_2d_three.json"),
            "--out", str(out)]


@pytest.mark.parametrize("error", ["ConfigInvalid", "TargetLoadFailed",
                                   "ScheduleDegenerate", "UnsupportedKind"])
def test_cli_error_classes(tmp_path, capsys, error):
    out = tmp_path / "out.csv"
    assert main(error_argv(error, tmp_path, out)) == 1
    assert_one_error_line(capsys, error)
    assert not out.exists()


@pytest.mark.parametrize("command", ["schedule", "sample", "analytic", "sweep"])
def test_unopenable_output_is_one_error_line(tmp_path, capsys, command):
    # an output in a missing directory ends in one difflab: line, not a traceback
    out = tmp_path / "missing" / "out.csv"
    target = write_target(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": target, "T_grid": [8, 16, 32], "samplers": ["ddpm"],
                               "n": 1500, "out": str(out), "schedule": {"c0": 2.0, "c1": 2.0}}))
    argv = {
        "schedule": ["schedule", "--T", "8", "--c0", "2", "--c1", "2", "--out", str(out)],
        "sample": sample_args(target, out, "--seed", "1"),
        "analytic": ["analytic", "--sampler", "ddpm", "--target", target, "--T", "16",
                     "--c0", "2", "--c1", "2", "--out", str(out)],
        "sweep": ["sweep", "--config", str(cfg)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("difflab: FileNotFoundError: ") and str(out) in line


def test_sample_refuses_an_unopenable_output_before_any_step(tmp_path, capsys, monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("sampled before the output was opened")

    monkeypatch.setattr(cli, "run_batch", no_batch)
    out = tmp_path / "missing" / "y.csv"
    assert main(sample_args(write_target(tmp_path), out, "--seed", "1")) == 1
    assert_one_error_line(capsys, "FileNotFoundError")


@pytest.mark.parametrize("command", ["analytic", "sample"])
@pytest.mark.parametrize("component", [
    {"weight": 1.0, "mean": [math.nan, 0.0], "cov_scale": 1.0},
    {"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, math.inf]]},
], ids=["nan_mean", "inf_cov"])
def test_non_finite_target_is_refused_before_any_csv(tmp_path, capsys, command, component):
    # refused at load: no scipy traceback from analytic, no full sampler run
    # ending in non-finite outputs, and no numpy warning on the way
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"d": 2, "components": [component]}))
    out = tmp_path / "out.csv"
    argv = sample_args(str(target), out, "--seed", "1")
    if command == "analytic":
        argv = ["analytic", "--sampler", "ddpm", "--target", str(target), "--T", "16",
                "--c0", "2", "--c1", "2", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    assert_one_error_line(capsys, "TargetLoadFailed")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected_before_any_csv(tmp_path, capsys, jobs):
    out = tmp_path / "y.csv"
    assert main(sample_args(write_target(tmp_path), out, "--seed", "1",
                            "--jobs", jobs)) == 1
    assert_one_error_line(capsys, "InvalidParams")
    assert not out.exists()

    cfg = {"target": write_target(tmp_path, d=1), "T_grid": [8, 16, 32],
           "samplers": ["ddpm"], "score": {"mode": "exact"}, "n": 1500,
           "out": str(tmp_path / "sweep.csv")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_path), "--jobs", jobs]) == 1
    assert_one_error_line(capsys, "InvalidParams")
    assert not (tmp_path / "sweep.csv").exists()


def expected_lines(y1):
    return [",".join(format_value(v) for v in row) for row in y1.tolist()]


def test_sample_csv_rows_are_the_per_value_format(tmp_path):
    # a batch longer than one write block, with a short last block
    n = 2 * cli._WRITE_ROWS + 37
    target = str(Path(__file__).parent.parent / "configs" / "mixture_2d_three.json")
    out = tmp_path / "y.csv"
    assert main(["sample", "--sampler", "accelerated", "--target", target, "--T", "12",
                 "--n", str(n), "--seed", "3", "--c0", "2", "--c1", "2",
                 "--out", str(out)]) == 0
    s = build_schedule(ScheduleParams(T=12, c0=2.0, c1=2.0, d=2))
    batch = run_batch("accelerated", s, ScoreModel("exact", load_target(target), s), n, 3)
    lines = out.read_text().splitlines()
    assert lines[1:-1] == expected_lines(batch.y1)
    assert lines[-1] == f"# clip_activations={batch.clip_activations}"


def test_sample_csv_bytes_of_hand_placed_values(tmp_path, monkeypatch):
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1.7976931348623157e308,
               0.1 + 0.2, 2.2250738585072014e-308, 1.0, -123456.789]
    n = cli._WRITE_ROWS + 5
    y1 = np.random.default_rng(9).standard_normal((n, 2))
    # the values sit in the first, last and block-boundary rows, in both columns
    for rows in ([0, 1, 2, 3, 4], [n - 5, n - 4, n - 3, n - 2, n - 1],
                 [cli._WRITE_ROWS - 3 + i for i in range(5)]):
        y1[rows] = np.reshape(special, (5, 2))
    monkeypatch.setattr(cli, "run_batch",
                        lambda *args, **kw: TrajectoryBatch(y1.copy(), clip_activations=0))
    out = tmp_path / "y.csv"
    assert main(["sample", "--sampler", "ddpm", "--target", write_target(tmp_path),
                 "--T", "8", "--n", str(n), "--seed", "0", "--c0", "2", "--c1", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1:-1] == expected_lines(y1)
    assert lines[1:3] == ["-0,0", "4.9406564584124654e-324,-4.9406564584124654e-324"]
    assert lines[3] == "1.0000000000000001e+300,-1.7976931348623157e+308"
    assert lines[4] == "0.30000000000000004,2.2250738585072014e-308"
    parsed = np.array([[float(f) for f in line.split(",")] for line in lines[1:-1]])
    assert parsed.tobytes() == y1.tobytes()  # every value round-trips, signed zeros too


def test_clip_constant_near_the_float_maximum(tmp_path):
    # c_clip = 1e308 overflows the clip radius to inf without a warning: the
    # schedule writes inf, and accelerated never clips, so its sample and its
    # exact law are those of the no-clip sampler
    target = write_target(tmp_path)
    common = ["--T", "16", "--c0", "2", "--c1", "2", "--cclip", "1e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["schedule", *common, "--d", "2", "--out", str(tmp_path / "s.csv")]) == 0
        for sampler in ("accelerated", "accelerated_noclip"):
            for command, extra in (("sample", ["--n", "1000", "--seed", "3"]), ("analytic", [])):
                assert main([command, "--sampler", sampler, "--target", target, *common,
                             *extra, "--out", str(tmp_path / f"{command}_{sampler}.csv")]) == 0
    radii = [line.split(",")[4] for line in (tmp_path / "s.csv").read_text().splitlines()[2:]]
    assert radii == ["inf"] * 15
    clipped = (tmp_path / "sample_accelerated.csv").read_text()
    assert clipped.endswith("# clip_activations=0\n")
    assert clipped == (tmp_path / "sample_accelerated_noclip.csv").read_text()
    kls = [(tmp_path / f"analytic_{sampler}.csv").read_text().splitlines()[1].split(",")[3:]
           for sampler in ("accelerated", "accelerated_noclip")]
    assert kls[0] == kls[1]
