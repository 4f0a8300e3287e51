"""Reverse-process samplers: two-evaluation accelerated step, plain
stochastic baseline, and a deterministic exponential-Euler step.

Every step takes a batch of points (n, d) and its Gaussian draws as
arguments, so that single steps can be hand-checked on one-row batches;
``run_batch`` owns stream management.  Each step t of a batch draws from
its own counter-based Philox stream, keyed by (seed, t), and trajectory i
reads a fixed, disjoint slice of that stream, so results are identical
bit for bit regardless of chunking or worker count.

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

# The draws each kind's step reads: 0 is z_mid (words [0, d)), 1 is z ([d, 2d)).
READS = {"accelerated": (0, 1), "accelerated_noclip": (0, 1), "ddpm": (1,), "ode": ()}
KINDS = tuple(READS)

# Rows per work unit whatever T, and the noise block a chunk refills; neither
# changes an output.  A block of a few MiB raises glibc's mmap threshold, so
# the per-step score temporaries stay on the heap.
_CHUNK_ROWS = 8192
_NOISE_BYTES = 4 * 2**20

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
    y = _as_batch(y, s.d)
    z_mid = _as_batch(z_mid, s.d)
    z = _as_batch(z, s.d)
    s._check_t(t, lo=2, rows=len(y))
    a = _per_row(s.alpha[t])
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

    y_prev = (y + om * (s_t_y + a * g) + _per_row(s.sigma[t]) * z) / sqrt_a
    return y_prev, clipped


def ddpm_step(s: Schedule, model: ScoreModel, t, y, z):
    """One plain stochastic step: single score evaluation, noise level
    sqrt(1 - alpha_t) injected inside the 1/sqrt(alpha_t) rescaling."""
    y = _as_batch(y, s.d)
    z = _as_batch(z, s.d)
    s._check_t(t, lo=2, rows=len(y))
    a = _per_row(s.alpha[t])
    om = 1.0 - a
    return (y + om * model.evaluate(t, y) + np.sqrt(om) * z) / np.sqrt(a)


def ode_step(s: Schedule, model: ScoreModel, t, y):
    """One deterministic step (exponential-Euler discretization of the
    deterministic reverse dynamics): half the score coefficient, no noise."""
    y = _as_batch(y, s.d)
    s._check_t(t, lo=2, rows=len(y))
    a = _per_row(s.alpha[t])
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


def _row_words(d: int) -> int:
    """Uniform words per row of one step: 2d, padded to a multiple of 4."""
    return -(-2 * d // _WORDS_PER_BLOCK) * _WORDS_PER_BLOCK


def _draws(seed: int, steps, lo: int, out: np.ndarray, words: slice) -> np.ndarray:
    """out[:len(steps)]: rows lo.. of each step t (t = 0 is Y_T), ``words`` of
    each row made normal.  Step t draws from Philox(key=seed + (t << 64)) and
    row i from its counter positions [i p, (i + 1) p), p = out.shape[2], so a
    row's draws depend only on (seed, t, i), never on chunking."""
    for k, t in enumerate(steps):
        bitgen = np.random.Philox(key=seed + (t << 64))
        bitgen.advance(lo * out.shape[2] // _WORDS_PER_BLOCK)
        np.random.Generator(bitgen).random(out=out[k])
    u = out[:len(steps), :, words]
    np.maximum(u, 2.0**-54, out=u)
    ndtri(u, out=u)
    return out[:len(steps)]


def _simulate_chunk(kind: str, s: Schedule, model: ScoreModel, seed: int,
                    lo: int, hi: int) -> tuple[np.ndarray, int]:
    """Rows lo..hi-1 from Y_T (words [0, d) of step 0) down to t = 1.

    Step t reads z_mid from words [0, d) and z from [d, 2d), drawn with its
    neighbours into one reused block of about ``_NOISE_BYTES``.  Only the
    draws in ``READS[kind]`` are made normal; a kind that reads none, as
    ``ode``, is handed the zeroed block.
    """
    d, p, ts, reads = s.d, _row_words(s.d), range(s.T, 1, -1), READS[kind]
    y = _draws(seed, [0], lo, np.empty((1, hi - lo, p)), slice(0, d))[0, :, :d]
    run = min(len(ts), max(1, _NOISE_BYTES // (8 * (hi - lo) * p)))
    block = np.zeros((run, hi - lo, p))
    words = slice(reads[0] * d, (reads[-1] + 1) * d) if reads else None
    clip_count = 0
    for r in range(0, len(ts), run):
        u = _draws(seed, ts[r:r + run], lo, block, words) if reads else block
        for k, t in enumerate(ts[r:r + run]):
            y, clipped = step(kind, s, model, t, y, u[k, :, :d], u[k, :, d:2 * d])
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
    draws come from its own counter slice of each step's stream, and
    results are assembled in trajectory order.  The batch is cut into
    chunks of ``_CHUNK_ROWS`` rows whatever T, the last one short.
    """
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown sampler kind {kind!r}")
    if n < 1:
        raise InvalidParams("trajectory count must be >= 1")
    if not 0 <= seed < 2**64:
        raise InvalidParams(f"seed must lie in [0, 2**64), got {seed}")
    calls = [(kind, s, model, seed, lo, min(lo + _CHUNK_ROWS, n))
             for lo in range(0, n, _CHUNK_ROWS)]
    parts = list(ordered_map(_simulate_chunk, calls, jobs))
    return TrajectoryBatch(y1=np.vstack([p[0] for p in parts]),
                           clip_activations=sum(p[1] for p in parts))
