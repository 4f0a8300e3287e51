import json

import numpy as np
import pytest

from difflab import (
    KINDS,
    ScheduleParams,
    build_schedule,
    forward_marginal,
    gaussian_kl,
    propagate,
    standard_normal_target,
    target_law,
)
from difflab.cli import build_parser, main


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
    assert float(lines[2].split(",")[3]) == s.sigma_at(2)


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
