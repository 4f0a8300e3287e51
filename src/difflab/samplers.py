"""Reverse-process samplers: two-evaluation accelerated step, plain
stochastic baseline, and a deterministic exponential-Euler step.

Every step takes a batch of points (n, d) and its Gaussian draws as
arguments, so that single steps can be hand-checked on one-row batches;
``run_batch`` owns stream management.  Batches use one counter-based
Philox stream per seed, with trajectory i consuming a fixed, disjoint
slice of the counter sequence, so results are identical bit for bit
regardless of chunking or worker count.

Trajectories start at Y_T ~ N(0, I), apply the chosen step for t = T..2,
and stop at t = 1 (no step is defined at t = 1, where the step-noise level
and clip radius do not exist).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidParams, UnsupportedKind
from .schedule import Schedule, _as_batch, clip
from .score_oracle import ScoreModel

KINDS = ("accelerated", "accelerated_noclip", "ddpm", "ode")

# Uniform-draw bytes per work unit, whatever T: rows per chunk follow from it,
# and never change an output, since a row's draws depend only on (seed, row).
_NOISE_BYTES = 16 * 2**20

# Philox.advance(k) skips k counter blocks of 4 uint64 outputs; one uniform
# double consumes one output word, so per-row layouts are padded to a
# multiple of 4 words to keep rows advance-aligned.
_WORDS_PER_BLOCK = 4


@dataclass(frozen=True)
class TrajectoryBatch:
    """Final-step outputs of n reverse trajectories plus clip accounting."""

    y1: np.ndarray            # (n, d)
    clip_activations: int     # steps where clip zeroed a nonzero input

    def __post_init__(self):
        if not np.all(np.isfinite(self.y1)):
            raise InvalidParams("trajectory outputs contain non-finite values")
        self.y1.setflags(write=False)


def _per_row(value):
    """A schedule value; for an int array t (one step per row) as a column."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def accelerated_step(s: Schedule, model: ScoreModel, t, y, z_mid, z,
                     use_clip: bool = True):
    """One two-evaluation stochastic step from t to t-1.

    The intermediate point reuses a single z_mid draw both in its own
    update and inside the second score argument of the correction term.
    Returns (y_prev, clipped) where ``clipped`` flags rows whose
    correction was zeroed by the norm threshold.
    """
    s._check_t(t, lo=2)
    y = _as_batch(y, s.d)
    z_mid = _as_batch(z_mid, s.d)
    z = _as_batch(z, s.d)
    a = _per_row(s.alpha_at(t))
    om = 1.0 - a
    sqrt_a = np.sqrt(a)

    s_t_y = model.evaluate(t, y)
    y_mid = (y + (om / (2.0 * a)) * s_t_y) / sqrt_a + om * z_mid
    g = a**1.5 * model.evaluate(t - 1, y_mid) - model.evaluate(t, y + om * z_mid)

    clipped = np.zeros(y.shape[0], dtype=bool)
    if use_clip:
        kept = clip(s, t, g)
        moved = g - kept  # g's row where clip zeroed it; 0 (or NaN) where kept
        clipped = np.einsum("ij,ij->i", moved, moved) > 0.0
        g = kept

    y_prev = (y + om * (s_t_y + a * g) + _per_row(s.sigma_at(t)) * z) / sqrt_a
    return y_prev, clipped


def ddpm_step(s: Schedule, model: ScoreModel, t, y, z):
    """One plain stochastic step: single score evaluation, noise level
    sqrt(1 - alpha_t) injected inside the 1/sqrt(alpha_t) rescaling."""
    s._check_t(t, lo=2)
    y = _as_batch(y, s.d)
    z = _as_batch(z, s.d)
    a = _per_row(s.alpha_at(t))
    om = 1.0 - a
    return (y + om * model.evaluate(t, y) + np.sqrt(om) * z) / np.sqrt(a)


def ode_step(s: Schedule, model: ScoreModel, t, y):
    """One deterministic step (exponential-Euler discretization of the
    deterministic reverse dynamics): half the score coefficient, no noise."""
    s._check_t(t, lo=2)
    y = _as_batch(y, s.d)
    a = _per_row(s.alpha_at(t))
    return (y + 0.5 * (1.0 - a) * model.evaluate(t, y)) / np.sqrt(a)


def step(kind: str, s: Schedule, model: ScoreModel, t, y, z_mid, z):
    """(y_prev, clipped) of one step of sampler ``kind`` on a batch (n, d).

    The one mapping from kind to step function, used by ``run_batch`` and
    ``analytic.propagate``; ``clipped`` is all False for kinds without a clip.
    The step functions are module globals looked up on every call.  ``t`` is
    one step for the whole batch, or an int array with one step per row.
    """
    if kind == "ddpm":
        return ddpm_step(s, model, t, y, z), np.zeros(len(y), dtype=bool)
    if kind == "ode":
        return ode_step(s, model, t, y), np.zeros(len(y), dtype=bool)
    if kind in ("accelerated", "accelerated_noclip"):
        return accelerated_step(s, model, t, y, z_mid, z, use_clip=(kind == "accelerated"))
    raise UnsupportedKind(f"unknown sampler kind {kind!r}")


def _row_words(T: int, d: int) -> tuple[int, int]:
    """(used, padded) uniform words per trajectory row."""
    used = d * (1 + 2 * (T - 1))
    padded = -(-used // _WORDS_PER_BLOCK) * _WORDS_PER_BLOCK
    return used, padded


def _noise_rows(seed: int, lo: int, hi: int, T: int, d: int) -> np.ndarray:
    """Standard-normal noise for trajectories lo..hi-1 of a batch, step-major.

    Returns a (2T - 1, hi - lo, d) array: [0] is Y_T, and [2k + 1], [2k + 2]
    are z_mid and z of step t = T - k.  Row i is the inverse-CDF transform of
    uniform words at counter positions [i * padded, i * padded + used), in
    that order; the slice depends only on (seed, i), never on chunking.
    """
    used, padded = _row_words(T, d)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(lo * padded // _WORDS_PER_BLOCK)
    u = np.random.Generator(bitgen).random((hi - lo, padded))
    np.maximum(u, 2.0**-54, out=u)
    draws = u[:, :used].reshape(hi - lo, 2 * T - 1, d).transpose(1, 0, 2)
    return ndtri(draws, out=np.empty(draws.shape))


def _simulate_chunk(kind: str, s: Schedule, model: ScoreModel, seed: int,
                    lo: int, hi: int) -> tuple[np.ndarray, int]:
    noise = _noise_rows(seed, lo, hi, s.T, s.d)
    y = noise[0]
    clip_count = 0
    for k, t in enumerate(range(s.T, 1, -1)):
        y, clipped = step(kind, s, model, t, y, noise[2 * k + 1], noise[2 * k + 2])
        clip_count += int(np.count_nonzero(clipped))
    return y, clip_count


def ordered_map(fn, calls: list[tuple], jobs: int = 1):
    """Yield fn(*call) for each call, in call order.

    With ``jobs`` > 1 and more than one call, the calls run in a process
    pool of at most min(jobs, len(calls)) workers; each result is yielded
    as soon as it and every earlier one is done.
    """
    if jobs > 1 and len(calls) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
            yield from pool.map(fn, *zip(*calls))
    else:
        for call in calls:
            yield fn(*call)


def run_batch(kind: str, s: Schedule, model: ScoreModel, n: int, seed: int,
              jobs: int = 1) -> TrajectoryBatch:
    """Run n reverse trajectories and return their outputs at t = 1.

    Output is bit-identical for any ``jobs`` value: every trajectory's
    draws come from its own counter slice, and results are assembled in
    trajectory order.  A chunk holds the rows that ``_NOISE_BYTES`` allows.
    """
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown sampler kind {kind!r}")
    if n < 1:
        raise InvalidParams("trajectory count must be >= 1")
    if not 0 <= seed < 2**64:
        raise InvalidParams(f"seed must lie in [0, 2**64), got {seed}")
    rows = max(1, _NOISE_BYTES // (8 * _row_words(s.T, s.d)[1]))
    calls = [(kind, s, model, seed, lo, min(lo + rows, n))
             for lo in range(0, n, rows)]
    parts = list(ordered_map(_simulate_chunk, calls, jobs))
    return TrajectoryBatch(y1=np.vstack([p[0] for p in parts]),
                           clip_activations=sum(p[1] for p in parts))
