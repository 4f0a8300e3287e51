import glob
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import difflab
from difflab.harness import CSV_HEADER
from difflab.targets import check_second_moment, load_target

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def child_env():
    """The environment of a child run in another directory: a relative
    PYTHONPATH entry (such as ``src``) would not resolve there, so the
    child gets absolute paths instead; a numpy warning fails the child, as
    it fails an in-process test."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(difflab.__file__)))
    inherited = [os.path.abspath(p)
                 for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir] + inherited),
                PYTHONWARNINGS="error::RuntimeWarning")


def shipped_targets():
    paths = []
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        raw = json.load(open(path))
        if "components" in raw:
            paths.append(path)
    return paths


def test_every_shipped_target_loads_and_bounds_second_moment():
    paths = shipped_targets()
    assert len(paths) >= 3
    for path in paths:
        gm = load_target(path)
        assert abs(gm.weights.sum() - 1.0) < 1e-12
        for T in (16, 64, 512):
            assert check_second_moment(gm, T)


def test_shipped_sweep_configs_validate():
    from difflab.harness import ExperimentConfig

    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "sweep_*.json"))):
        cfg = ExperimentConfig.from_json(path)
        assert cfg.T_grid == tuple(sorted(cfg.T_grid))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_killed_sweep_leaves_only_complete_rows(tmp_path, jobs):
    # a hard kill mid-sweep, serial or pooled, must never leave a partially
    # written data row
    target = tmp_path / "target.json"
    target.write_text(json.dumps({
        "d": 2,
        "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov_scale": 1.0}],
    }))
    out = tmp_path / "killed.csv"
    cfg = {
        "target": str(target),
        "schedule": {"c0": 2.0, "c1": 2.0, "cclip": 2.0},
        "T_grid": [8, 16, 32, 64],
        "samplers": ["accelerated", "ddpm"],
        "score": {"mode": "offset", "delta": 0.1},
        "n": 60000,
        "n_dirs": 8,
        "seed": 99,
        "out": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.Popen(
        [sys.executable, "-m", "difflab.cli", "sweep", "--config", str(cfg_path),
         "--jobs", jobs],
        cwd=str(tmp_path), env=child_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        if out.exists() and len(out.read_text().splitlines()) >= 2:
            break
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    if proc.poll() is None:
        # the child leads its own process group, so this kills its pool
        # workers too and leaves none orphaned
        os.killpg(proc.pid, signal.SIGKILL)
    _, stderr = proc.communicate()
    assert proc.returncode in (0, -signal.SIGKILL), (
        f"sweep exited with {proc.returncode} before the kill:\n"
        f"{stderr.decode(errors='replace')}")

    text = out.read_text()
    # rows are written whole and flushed, so a kill leaves no fragment
    assert text.endswith("\n"), f"partial last row: {text[-200:]!r}"
    complete = text.split("\n")[:-1]
    assert complete[0] == CSV_HEADER
    n_fields = len(CSV_HEADER.split(","))
    for line in complete[1:]:
        if line.startswith("#") or line == "":
            continue
        parts = line.split(",")
        assert len(parts) == n_fields
        float(parts[3])  # eps_score parses


def test_bare_import_leaves_scipy_linalg_out():
    # the library's one factorization is numpy's: of scipy it needs only special
    code = ("import sys, difflab\n"
            "assert 'scipy.linalg' not in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('scipy.linalg'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def run_fresh(tmp_path, code):
    """Run ``code`` in a fresh interpreter in tmp_path; it must exit 0."""
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code], cwd=str(tmp_path),
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def cli_call(argv):
    return f"from difflab import cli\nassert cli.main({argv!r}) == 0\n"


NOT_LOADED = ("loaded = [m for m in ('scipy.special', 'multiprocessing') if m in sys.modules]\n"
              "assert not loaded, loaded\n")
STD_NORMAL = os.path.join(os.path.abspath(CONFIG_DIR), "std_normal_2d.json")


@pytest.mark.parametrize("argv", [
    None,
    ["schedule", "--T", "64", "--d", "2", "--out", "s.csv"],
    ["analytic", "--sampler", "accelerated", "--target", STD_NORMAL, "--T", "64",
     "--out", "a.csv"],
    ["sweep", "--config", "exact.json"],
], ids=["import", "schedule", "analytic", "exact_sweep"])
def test_exact_paths_load_neither_scipy_special_nor_multiprocessing(tmp_path, argv):
    # only a Monte Carlo draw or a sliced distance needs scipy.special, and
    # only a pool of more than one worker needs multiprocessing
    (tmp_path / "exact.json").write_text(json.dumps({
        "target": STD_NORMAL, "T_grid": [16, 32, 64], "n": 1000, "out": "exact.csv",
        "samplers": ["accelerated", "accelerated_noclip", "ddpm", "ode"]}))
    run_fresh(tmp_path, ("import difflab\n" if argv is None else cli_call(argv)) + NOT_LOADED)
    if argv is not None and argv[0] == "sweep":
        text = (tmp_path / "exact.csv").read_text()
        assert "cell_failed" not in text and text.count("\n") == 1 + 12 + 4  # rows, slopes


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sample_that_loads_scipy_itself_writes_the_same_bytes(tmp_path, jobs):
    # a fresh run makes the first import of scipy.special inside its draws
    # (in the helper thread, and in each pool worker at --jobs 2)
    target = os.path.join(os.path.abspath(CONFIG_DIR), "mixture_2d_three.json")
    argv = ["sample", "--sampler", "accelerated", "--target", target, "--T", "16",
            "--n", "9000", "--seed", "5", "--jobs", jobs]
    run_fresh(tmp_path, cli_call(argv + ["--out", "fresh.csv"]))
    run_fresh(tmp_path, "import scipy.special\n" + cli_call(argv + ["--out", "loaded.csv"]))
    fresh = (tmp_path / "fresh.csv").read_bytes()
    assert fresh.count(b"\n") == 9002
    assert fresh == (tmp_path / "loaded.csv").read_bytes()


def test_readme_library_example_runs(tmp_path):
    # the README's one Python block, as a user would paste it into a fresh
    # interpreter
    [code] = re.findall(r"```python\n(.*?)```", open(README).read(), re.S)
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(tmp_path), env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "exact KL:" in proc.stdout
