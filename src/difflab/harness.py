"""Experiment orchestration: sweeps, CSV persistence, and rate fitting.

A sweep iterates the grid (sampler, horizon, score-error level) in a fixed
order.  Gaussian targets get exact distribution propagation (and its
closed-form divergences); mixture targets and error-injected cells get
Monte Carlo batches plus empirical metrics.  Rows are appended to the CSV
in grid order as soon as all earlier rows are written (crash-safe, the same
order with parallel cells), and log-log slopes are fitted per sampler over
zero-error cells at the end.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytic, metrics, targets
from .errors import ConfigInvalid, DiffLabError, InvalidParams
from .samplers import KINDS, ordered_map, run_batch
from .schedule import ScheduleParams, as_integer, build_schedule, is_real
from .score_oracle import MODES, ScoreModel
from .targets import GaussianMixture

CSV_HEADER = ("sampler,T,d,eps_score,kl_analytic,tv_bound,"
              "sliced_tv,moment_kl,clip_rate,seed,wallclock_ms")
_FIELDS = tuple(CSV_HEADER.split(","))
FLOAT_FORMAT = "%.17g"  # 17 significant digits: every float round-trips

_RELATIVE_MC_SAMPLES = 4096


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    r2: float


def fit_slope(points) -> SlopeFit:
    """Ordinary least squares of log(value) on log(T).

    Needs at least three points with positive values.  Constant values fit
    slope 0 with R^2 defined as 0 (never NaN).
    """
    points = list(points)
    if len(points) < 3:
        raise InvalidParams(f"slope fit needs >= 3 points, got {len(points)}")
    t_vals = np.array([float(t) for t, _ in points])
    values = np.array([float(v) for _, v in points])
    if np.any(values <= 0):
        raise InvalidParams("all values must be positive for a log-log fit")
    x = np.log(t_vals)
    y = np.log(values)
    x_c = x - x.mean()
    sxx = float(np.sum(x_c**2))
    slope = float(np.sum(x_c * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ssr = float(np.sum(resid**2))
    sst = float(np.sum((y - y.mean()) ** 2))
    dof = len(points) - 2
    stderr = math.sqrt(ssr / dof / sxx) if dof > 0 else 0.0
    r2 = 0.0 if sst == 0.0 else 1.0 - ssr / sst
    return SlopeFit(slope=slope, stderr=stderr, r2=r2)


# The field each sweep-config key sets; "schedule.c0" is the key "c0" of the
# "schedule" object.  A score object holds "mode" and that mode's level key.
_CONFIG_KEYS = {"target": "target_path", "T_grid": "T_grid", "samplers": "samplers",
                "n": "n", "out": "out", "score": "score", "n_dirs": "n_dirs",
                "seed": "seed", "mc": "mc", "schedule.c0": "c0", "schedule.c1": "c1",
                "schedule.cclip": "c_clip"}
_LEVEL_KEYS = {"offset": "delta", "relative": "rho"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep description; see README for the JSON schema."""

    target_path: str
    T_grid: tuple[int, ...]
    samplers: tuple[str, ...]
    n: int
    out: str
    c0: float = ScheduleParams.c0
    c1: float = ScheduleParams.c1
    c_clip: float = ScheduleParams.c_clip
    score: dict = field(default_factory=lambda: {"mode": "exact"})
    n_dirs: int = 32
    seed: int = 0
    mc: bool | None = None  # None = auto: mixtures and error-injected cells

    def __post_init__(self):
        if not (isinstance(self.target_path, str) and isinstance(self.out, str)):
            raise ConfigInvalid("target and out must be paths")
        grid = tuple(as_integer(t, "T_grid entry", 4, ConfigInvalid) for t in self.T_grid)
        object.__setattr__(self, "T_grid", grid)
        object.__setattr__(self, "samplers", tuple(self.samplers))
        for name, low in (("n", 1), ("n_dirs", 1), ("seed", 0)):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, low,
                                                      ConfigInvalid))
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigInvalid("T_grid must be nonempty and strictly increasing")
        try:
            ScheduleParams(T=grid[0], c0=self.c0, c1=self.c1, c_clip=self.c_clip)
        except InvalidParams as exc:
            raise ConfigInvalid(f"bad schedule constants: {exc}") from exc
        for kind in self.samplers:
            if kind not in KINDS:
                raise ConfigInvalid(f"unknown sampler {kind!r}")
        mode = self.score.get("mode", "exact") if isinstance(self.score, dict) else None
        if mode not in MODES or set(self.score) - {"mode", _LEVEL_KEYS.get(mode)}:
            raise ConfigInvalid(f"score must be an object with a mode in {MODES} and no "
                                f"key but that mode's level key, got {self.score!r}")
        levels = [level for _, level in _score_cells(self.score)]
        if not levels or not all(is_real(v) for v in levels):
            raise ConfigInvalid(f"need one or more finite real score levels, got {levels!r}")
        if not (self.mc is None or isinstance(self.mc, bool)):
            raise ConfigInvalid(f"mc must be true, false or absent, got {self.mc!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        sched = raw.get("schedule", {}) if isinstance(raw, dict) else None
        if not isinstance(sched, dict):
            raise ConfigInvalid("a sweep config and its schedule must be JSON objects")
        flat = {key: value for key, value in raw.items() if key != "schedule"}
        flat.update((f"schedule.{key}", value) for key, value in sched.items())
        params = inspect.signature(cls).parameters
        unknown = [key for key in flat if key not in _CONFIG_KEYS]
        missing = [key for key, name in _CONFIG_KEYS.items()
                   if key not in flat and params[name].default is params[name].empty]
        if unknown or missing:
            raise ConfigInvalid(f"sweep config: unknown keys {unknown or 'none'}, "
                                f"missing keys {missing or 'none'}")
        try:
            return cls(**{_CONFIG_KEYS[key]: value for key, value in flat.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad sweep config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_dict(raw)


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[dict, ...]
    slopes: dict
    out: str


def _score_cells(score_cfg: dict) -> list[tuple[str, float]]:
    """The (mode, level) pair of each score cell (a level list means a grid;
    a missing level is None)."""
    mode = score_cfg.get("mode", "exact")
    if mode == "exact":
        return [("exact", 0.0)]
    value = score_cfg.get(_LEVEL_KEYS[mode])
    levels = value if isinstance(value, (list, tuple)) else [value]
    return [(mode, v) for v in levels]


def _cell_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _wants_mc(cfg: ExperimentConfig, target: GaussianMixture, mode: str) -> bool:
    """Whether a cell runs Monte Carlo: as configured, else for mixtures
    and error-injected scores."""
    return cfg.mc if cfg.mc is not None else (target.K != 1 or mode != "exact")


def _cell_metrics(target: GaussianMixture, cfg: ExperimentConfig, seed: int,
                  kind: str, T: int, mode: str, level: float, schedules: dict) -> dict:
    """The metric fields of one cell's row; raises on any cell failure."""
    if T not in schedules:  # the first cell at a horizon builds the sweep's schedule
        schedules[T] = build_schedule(ScheduleParams(T, cfg.c0, cfg.c1, cfg.c_clip, target.d))
    schedule = schedules[T]
    model = ScoreModel(mode, target, schedule, level)
    eps_stream = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    out = {"eps_score": model.eps_score(_RELATIVE_MC_SAMPLES, eps_stream).eps_score}

    if target.K == 1 and mode == "exact":
        out["kl_analytic"] = analytic.final_kl(schedule, target, kind)
        out["tv_bound"] = analytic.tv_bound(out["kl_analytic"])

    if _wants_mc(cfg, target, mode):
        law_1 = targets.forward_marginal(target, schedule, 1)
        batch = run_batch(kind, schedule, model, cfg.n, seed)
        dir_stream = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        out["sliced_tv"] = metrics.sliced_tv(batch.y1, law_1, cfg.n_dirs, dir_stream)
        out["moment_kl"] = metrics.moment_kl(batch.y1, law_1)
        out["clip_rate"] = batch.clip_activations / (cfg.n * (T - 1))
    return out


def _run_cell(target: GaussianMixture, cfg: ExperimentConfig, index: int,
              kind: str, T: int, mode: str, level: float, schedules: dict) -> dict:
    """One grid cell as a CSV row; any DiffLabError fails the cell alone,
    leaving its metric fields empty."""
    start = time.perf_counter()
    seed = _cell_seed(cfg.seed, index)
    row = {**dict.fromkeys(_FIELDS), "sampler": kind, "T": T, "d": target.d,
           "seed": seed, "error": None}
    try:
        row.update(_cell_metrics(target, cfg, seed, kind, T, mode, level, schedules))
    except DiffLabError as exc:
        row["error"] = str(exc)
    row["wallclock_ms"] = (time.perf_counter() - start) * 1e3
    return row


def format_value(value) -> str:
    """A CSV field: floats round-trip exactly, None is empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    return str(value)


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> SweepReport:
    """Execute the full grid, stream rows to the CSV, and fit slopes.

    A cell that raises a DiffLabError (a degenerate schedule, say) fails
    alone: empty metric fields plus a comment line.  Rows are written in
    grid order no matter which cells finish first.
    """
    target = targets.load_target(cfg.target_path)
    for T in cfg.T_grid:
        if not targets.check_second_moment(target, T):
            raise ConfigInvalid("target second moment exceeds the horizon bound")
    score_cells = _score_cells(cfg.score)
    if (cfg.n < metrics._MIN_SAMPLES
            and any(_wants_mc(cfg, target, mode) for mode, _ in score_cells)):
        raise ConfigInvalid(f"Monte Carlo cells need n >= {metrics._MIN_SAMPLES}, "
                            f"got {cfg.n}")

    schedules: dict = {}  # T -> schedule for serial cells; a pooled cell builds its own
    cells = [(target, cfg, i, kind, T, *score, schedules) for i, (kind, T, score) in
             enumerate(itertools.product(cfg.samplers, cfg.T_grid, score_cells))]
    rows = []

    with open(cfg.out, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.flush()
        for row in ordered_map(_run_cell, cells, jobs):
            fh.write(",".join(format_value(row[f]) for f in _FIELDS) + "\n")
            if row["error"] is not None:
                fh.write(f"# cell_failed,{row['sampler']},{row['T']},{row['error']}\n")
            fh.flush()
            rows.append(row)

        slopes = {}
        for kind in cfg.samplers:
            points = []
            for row in rows:
                if row["sampler"] != kind or row["error"] is not None:
                    continue
                if row["eps_score"] is None or row["eps_score"] != 0.0:
                    continue
                value = next((row[k] for k in ("kl_analytic", "moment_kl", "sliced_tv")
                              if row[k] is not None), None)
                if value is not None and value > 0:
                    points.append((row["T"], value))
            if len(points) >= 3:
                fit = fit_slope(points)
                slopes[kind] = fit
                fh.write(f"# slope,{kind},{format_value(fit.slope)},"
                         f"{format_value(fit.stderr)},{format_value(fit.r2)}\n")
        fh.flush()

    return SweepReport(rows=tuple(rows), slopes=slopes, out=cfg.out)
