"""The three benchmark workloads and their oracle checks.

Each workload turns the benchmark seed into program inputs (CLI arguments
or a sweep config written to the work directory), loads them in
``prepare`` together with its exact reference, runs one main call in
``run`` and counts in ``check`` the operations of that call whose output
disagrees with the reference.  See README.md for why each one exists.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# gauss-sample: n is one sampler chunk (32768 rows), so the noise block
# and the per-step arrays have the shape of every chunk of the n=200k
# headline run; T=64 as in the headline.
GAUSS_N = 32768
GAUSS_T = 64
# Monte Carlo standard errors allowed between the sample moments of y1
# and the exact law (5 for the mean, 6 for the covariance entries).
MEAN_SE = 5.0
COV_SE = 6.0
# The exact law is the no-clip law; clip must stay rare for it to apply.
MAX_CLIP_RATE = 1e-3
# Criterion 8 of the acceptance suite: matrix and scalar propagation agree.
ANALYTIC_TOL = 1e-10


def derive_seed(seed: int, salt: int) -> int:
    """A 32-bit program seed drawn from the benchmark seed."""
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def _num(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _sweep_csv(path: str) -> tuple[list[dict], set[int], int]:
    """Data rows (dicts keyed by header field), indices of rows followed by
    a ``# cell_failed`` line, and the file size without the wallclock_ms
    fields (the one field that is a timing)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[0].split(",")
    rows: list[dict] = []
    failed: set[int] = set()
    size = sum(len(line) + 1 for line in lines)
    for line in lines[1:]:
        if line.startswith("# cell_failed"):
            failed.add(len(rows) - 1)
        elif not line.startswith("#"):
            row = dict(zip(fields, line.split(",")))
            size -= len(row.get("wallclock_ms", ""))
            rows.append(row)
    return rows, failed, size


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class GaussSample:
    """``difflab sample`` with the accelerated sampler (clip on) on the
    standard normal in d=2; checked against the exact propagated law."""

    name = "gauss-sample"

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.target = str(root / "configs" / "std_normal_2d.json")
        self.out = str(workdir / "gauss.csv")
        self.sampler_seed = derive_seed(seed, 0)
        self.ops = 1
        self.work = GAUSS_N * (GAUSS_T - 1)
        self.setup_code = f"difflab.targets.load_target({self.target!r})"
        self.worst_z = 0.0

    def prepare(self) -> None:
        from difflab import analytic, build_schedule, targets, ScheduleParams

        target = targets.load_target(self.target)
        s = build_schedule(ScheduleParams(T=GAUSS_T, d=target.d))
        self.law = analytic.propagate(s, analytic.target_law(target),
                                      "accelerated_noclip")
        self.size = {"n": GAUSS_N, "T": [GAUSS_T], "d": target.d, "K": target.K,
                     "cells": 1, "sampler": "accelerated (clip on)", "jobs": 1,
                     "target": "configs/std_normal_2d.json",
                     "sampler_seed": self.sampler_seed}

    def run(self) -> None:
        from difflab import cli

        cli.main(["sample", "--sampler", "accelerated", "--target", self.target,
                  "--T", str(GAUSS_T), "--n", str(GAUSS_N),
                  "--seed", str(self.sampler_seed), "--jobs", "1", "--out", self.out])

    def check(self) -> int:
        with open(self.out) as fh:
            lines = fh.read().splitlines()
        header, trailer = lines[0], lines[-1]
        y = np.loadtxt(lines[1:-1], delimiter=",", ndmin=2)
        d = self.law.d
        if (header != ",".join(f"y1_{j}" for j in range(d))
                or y.shape != (GAUSS_N, d) or not np.all(np.isfinite(y))
                or not trailer.startswith("# clip_activations=")):
            return 1
        clip_rate = int(trailer.split("=", 1)[1]) / (GAUSS_N * (GAUSS_T - 1))
        mean, cov = self.law.mean, self.law.cov
        se_mean = np.sqrt(np.diag(cov) / GAUSS_N)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / GAUSS_N)
        z_mean = np.abs(y.mean(axis=0) - mean) / se_mean
        z_cov = np.abs(np.cov(y, rowvar=False).reshape(d, d) - cov) / se_cov
        self.worst_z = max(self.worst_z, float(z_mean.max()), float(z_cov.max()))
        ok = (np.all(z_mean < MEAN_SE) and np.all(z_cov < COV_SE)
              and clip_rate < MAX_CLIP_RATE)
        return 0 if ok else 1

    def csv_bytes(self) -> dict:
        return {"cli.csv_bytes": Path(self.out).stat().st_size, "harness.csv_bytes": 0}

    def oracle_note(self) -> str:
        return (f"y1 moments vs exact accelerated_noclip law: worst |z| "
                f"{self.worst_z:.2f} (limits {MEAN_SE:g} mean, {COV_SE:g} cov)")


class _Sweep:
    """A ``harness.run_sweep`` workload over a config template in configs/."""

    def __init__(self, root: Path, workdir: Path, seed: int, template: str):
        with open(HERE / "configs" / template) as fh:
            raw = json.load(fh)
        raw["seed"] = derive_seed(seed, 1)
        raw["out"] = str(workdir / template.replace(".json", ".csv"))
        self.raw = raw
        self.out = raw["out"]
        self.config_path = str(workdir / template)
        self.cells = [(kind, T, level) for kind in raw["samplers"] for T in raw["T_grid"]
                      for level in self._levels(raw["score"])]
        self.ops = len(self.cells)
        self.setup_code = ("cfg = difflab.harness.ExperimentConfig.from_json("
                           f"{self.config_path!r}); "
                           "difflab.targets.load_target(cfg.target_path)")

    @staticmethod
    def _levels(score: dict) -> list[float]:
        delta = score.get("delta", 0.0)
        return [float(v) for v in (delta if isinstance(delta, list) else [delta])]

    def _write_config(self) -> None:
        with open(self.config_path, "w") as fh:
            json.dump(self.raw, fh)

    def prepare(self) -> None:
        from difflab import harness, targets

        self.cfg = harness.ExperimentConfig.from_json(self.config_path)
        self.target = targets.load_target(self.cfg.target_path)
        self.size = {"n": self.cfg.n, "T": list(self.cfg.T_grid), "d": self.target.d,
                     "K": self.target.K, "cells": self.ops,
                     "samplers": list(self.cfg.samplers), "score": self.cfg.score,
                     "jobs": 1, "config_seed": self.cfg.seed}

    def run(self) -> None:
        from difflab import harness

        harness.run_sweep(self.cfg, jobs=1)

    def csv_bytes(self) -> dict:
        return {"cli.csv_bytes": 0, "harness.csv_bytes": _sweep_csv(self.out)[2]}

    def _cell(self, rows: list[dict], failed: set[int], i: int,
              fields: tuple[str, ...]) -> list[float] | None:
        """The named fields of cell i's row, or None unless the row is the
        cell's, did not fail, has eps_score equal to the cell's level
        exactly and every field finite."""
        kind, T, level = self.cells[i]
        row = rows[i]
        eps, *values = (_num(row.get(f, "")) for f in ("eps_score",) + fields)
        if (i in failed or row["sampler"] != kind or row["T"] != str(T)
                or not _finite(eps, *values) or eps != level):
            return None
        return values


class MixtureSweep(_Sweep):
    """The K=3 mixture sweep with offset score errors; every cell is Monte
    Carlo, checked for completeness, exact eps_score and a sliced distance
    that rises strictly with the offset."""

    name = "mixture-sweep"

    def __init__(self, root: Path, workdir: Path, seed: int):
        super().__init__(root, workdir, seed, "mixture_sweep.json")
        self.raw["target"] = str(root / self.raw["target"])
        self._write_config()
        self.work = self.raw["n"] * sum(T - 1 for _, T, _ in self.cells)
        self.min_rise = math.inf

    def check(self) -> int:
        rows, failed, _ = _sweep_csv(self.out)
        if len(rows) != len(self.cells):
            return len(self.cells)
        bad = 0
        previous: dict = {}
        for i, (kind, T, _) in enumerate(self.cells):
            values = self._cell(rows, failed, i, ("sliced_tv", "moment_kl", "clip_rate"))
            tv = values[0] if values else None
            before = previous.get((kind, T))
            ok = values is not None
            if ok and before is not None:
                ok = tv > before
                self.min_rise = min(self.min_rise, tv - before)
            previous[(kind, T)] = tv
            bad += not ok
        return bad

    def oracle_note(self) -> str:
        return (f"cells complete, eps_score == delta, sliced_tv strictly rising "
                f"in delta: smallest rise {self.min_rise:.4f}")


class AnalyticRate(_Sweep):
    """The long-horizon exact-score sweep on a seeded 2-D Gaussian target;
    every propagated law is checked against the independent scalar twin."""

    name = "analytic-rate"

    def __init__(self, root: Path, workdir: Path, seed: int):
        super().__init__(root, workdir, seed, "analytic_rate.json")
        rng = np.random.default_rng(derive_seed(seed, 2))
        theta = rng.uniform(0.0, math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        cov = rot @ np.diag(rng.uniform(0.5, 2.0, 2)) @ rot.T
        cov[1, 0] = cov[0, 1]
        target = {"d": 2, "components": [{"weight": 1.0,
                                          "mean": rng.uniform(-1.0, 1.0, 2).tolist(),
                                          "cov": cov.tolist()}]}
        target_path = workdir / "gaussian_target.json"
        with open(target_path, "w") as fh:
            json.dump(target, fh)
        self.raw["target"] = str(target_path)
        self._write_config()
        self.work = sum(T - 1 for _, T, _ in self.cells)
        self.laws: list = []
        self.worst = 0.0

    def prepare(self) -> None:
        from difflab import analytic

        super().prepare()
        self.size["target"] = {"mean": self.target.means[0].tolist(),
                               "cov": self.target.covariances[0].tolist()}
        # The propagation commutes with rotations (isotropic noise), so in
        # the eigenbasis of the target covariance each coordinate is an
        # independent 1-D problem for the scalar twin.
        w, self.basis = np.linalg.eigh(self.target.covariances[0])
        m = self.basis.T @ self.target.means[0]
        cfg = self.cfg
        self.reference = {
            (kind, T): [analytic.scalar_propagate(T, cfg.c0, cfg.c1, m[j], w[j], kind)
                        for j in range(len(w))]
            for kind, T, _ in self.cells
        }

    def run(self) -> None:
        from difflab import analytic

        laws = []
        original = analytic.propagate

        def record(s, target, kind):
            law = original(s, target, kind)
            laws.append((kind, s.T, law))
            return law

        analytic.propagate = record
        try:
            super().run()
        finally:
            analytic.propagate = original
        self.laws = laws

    def _deviation(self, kind: str, T: int, law) -> float:
        """Criterion 8's relative deviation, over every moment."""
        ref = self.reference[(kind, T)]
        mean = self.basis.T @ law.mean
        cov = self.basis.T @ law.cov @ self.basis
        worst = 0.0
        for j, (m, v) in enumerate(ref):
            worst = max(worst, abs(mean[j] - m) / max(1.0, abs(m)),
                        abs(cov[j, j] - v) / v)
            for k in range(j):
                worst = max(worst, abs(cov[j, k]) / math.sqrt(v * ref[k][1]))
        return worst

    def check(self) -> int:
        rows, failed, _ = _sweep_csv(self.out)
        if len(rows) != len(self.cells) or len(self.laws) != len(self.cells):
            return len(self.cells)
        bad = 0
        for i, (kind, T, _) in enumerate(self.cells):
            ok = (self._cell(rows, failed, i, ("kl_analytic", "tv_bound")) is not None
                  and self.laws[i][:2] == (kind, T))
            if ok:
                dev = self._deviation(kind, T, self.laws[i][2])
                self.worst = max(self.worst, dev)
                ok = dev <= ANALYTIC_TOL
            bad += not ok
        return bad

    def oracle_note(self) -> str:
        return (f"propagated moments vs scalar twin: worst relative deviation "
                f"{self.worst:.2e} (limit {ANALYTIC_TOL:g})")


WORKLOADS = {w.name: w for w in (GaussSample, MixtureSweep, AnalyticRate)}
