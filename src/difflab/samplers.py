"""Reverse-process samplers: three-evaluation accelerated step, plain
stochastic baseline, and a deterministic exponential-Euler step.

Every step takes a batch of points (n, d) and its Gaussian draws as
arguments, so that single steps can be hand-checked on one-row batches;
``run_batch`` owns stream management.  Each step t of a batch draws from
its own counter-based Philox stream, keyed by (seed, t), and trajectory i
reads a fixed, disjoint slice of that stream, so results are identical
bit for bit regardless of chunking or worker count.  A chunk keeps its
points and draws coordinate-major, as F-ordered (rows, d) arrays.  While
it steps through one run of steps, a helper thread draws the next run,
and the chunk draws what the helper has not reached; no thread outlives
its chunk.

Trajectories start at Y_T ~ N(0, I), apply the chosen step for t = T..2,
and stop at t = 1 (no step is defined at t = 1, where the step-noise level
and clip radius do not exist).
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, UnsupportedKind
from .schedule import Schedule, _as_batch, clip
from .score_oracle import ScoreModel

# The draws each kind's step reads: 0 is z_mid (words [0, d)), 1 is z ([d, 2d)).
READS = {"accelerated": (0, 1), "accelerated_noclip": (0, 1), "ddpm": (1,), "ode": ()}
KINDS = tuple(READS)

# Rows per work unit whatever T, and the block that holds a chunk's two noise
# halves and its two threads' uniform scratches; neither changes an output.
# One allocation of a few MiB raises glibc's mmap threshold, so the per-step
# score temporaries stay on the heap.
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
    """One three-evaluation stochastic step from t to t-1.

    The step-t score is evaluated at y and at y + (1 - alpha_t) z_mid, the
    step-(t-1) score at the intermediate point: a single z_mid draw serves
    both that point's own update and the correction term's second argument.
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


def _draws(seed: int, t: int, lo: int, scratch: np.ndarray, out: np.ndarray,
           words: slice) -> np.ndarray:
    """out, with ``words`` of rows lo.. of step t (t = 0 is Y_T) made normal and
    written word-major: out[w, i] is word w of row lo + i.  Step t draws from
    Philox(key=seed + (t << 64)) into ``scratch`` (rows, p), and row i from its
    counter positions [i p, (i + 1) p), so a row's draws depend only on
    (seed, t, i), never on chunking."""
    from scipy.special import ndtri  # loaded by a first draw: exact-only runs never load it

    bitgen = np.random.Philox(key=seed + (t << 64))
    bitgen.advance(lo * scratch.shape[1] // _WORDS_PER_BLOCK)
    np.random.Generator(bitgen).random(out=scratch)
    np.maximum(scratch, 2.0**-54, out=scratch)
    ndtri(scratch[:, words].T, out=out[words])
    return out


def _simulate_chunk(kind: str, s: Schedule, model: ScoreModel, seed: int,
                    lo: int, hi: int) -> tuple[np.ndarray, int]:
    """Rows lo..hi-1 from Y_T (words [0, d) of step 0) down to t = 1.

    Every working array is coordinate-major: step t's draws are a (2d, rows)
    slab, z_mid its words [0, d) and z its words [d, 2d), so z_mid, z and y
    are F-contiguous (rows, d).  The slabs of a run of steps fill one of two
    halves, and the halves and one (rows, p) uniform scratch per thread fill
    ``_NOISE_BYTES``.  While the caller steps through one half, a helper
    thread draws the next run into the other, popping steps from the front
    of that run's queue; once through, the caller pops the rest from the
    back, so each step is drawn once, by whichever thread is free.  The pool
    closes with the chunk, so no thread outlives it, whether it returns or
    raises.  Only the draws in ``READS[kind]`` are made; a kind that reads
    none, as ``ode``, is handed zeroed slabs.
    """
    d, rows, p, ts, reads = s.d, hi - lo, _row_words(s.d), range(s.T, 1, -1), READS[kind]
    run = min(len(ts), max(1, (_NOISE_BYTES // (16 * rows) - p) // (2 * d)))
    block = np.zeros((2, run * 2 * d + p, rows))  # one allocation: see _NOISE_BYTES
    halves = block[:, :run * 2 * d].reshape(2, run, 2 * d, rows)
    scratch = block[:, run * 2 * d:].reshape(2, rows, p)
    words = slice(reads[0] * d, (reads[-1] + 1) * d) if reads else None

    def drain(pop, half, own):  # draw the steps pop hands out until the queue is empty
        try:
            while True:
                k, t = pop()
                _draws(seed, t, lo, own, half[k], words)
        except IndexError:
            pass

    clip_count = 0
    # numpy warns of no overflow in a step: TrajectoryBatch's finiteness check refuses it
    with ThreadPoolExecutor(max_workers=1) as helper, np.errstate(all="ignore"):
        def queue(b, r):
            steps = deque(enumerate(ts[r:r + run]) if reads else ())
            return steps, helper.submit(drain, steps.popleft, halves[b], scratch[0])

        steps, ahead = queue(0, 0)
        y = _draws(seed, 0, lo, scratch[1], np.empty((d, rows)), slice(0, d)).T
        for b, r in enumerate(range(0, len(ts), run)):
            drain(steps.pop, halves[b % 2], scratch[1])
            ahead.result()
            if r + run < len(ts):
                steps, ahead = queue(1 - b % 2, r + run)
            u = halves[b % 2]
            for k, t in enumerate(ts[r:r + run]):
                y, clipped = step(kind, s, model, t, y, u[k, :d].T, u[k, d:].T)
                clip_count += int(np.count_nonzero(clipped))
    return y, clip_count


def ordered_map(fn, calls: list[tuple], jobs: int = 1):
    """Yield fn(*call) for each call, in call order.

    With ``jobs`` > 1 and more than one call, the calls run in a process
    pool of at most min(jobs, len(calls)) workers; each result is yielded
    as soon as it and every earlier one is done.
    """
    if jobs > 1 and len(calls) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
            yield from pool.map(fn, *zip(*calls))
    else:
        for call in calls:
            yield fn(*call)


def check_batch(kind: str, n: int, seed: int) -> None:
    """Refuse what ``run_batch`` refuses: an unknown kind, n < 1 or a seed
    outside [0, 2**64)."""
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown sampler kind {kind!r}")
    if n < 1:
        raise InvalidParams("trajectory count must be >= 1")
    if not 0 <= seed < 2**64:
        raise InvalidParams(f"seed must lie in [0, 2**64), got {seed}")


def run_batch(kind: str, s: Schedule, model: ScoreModel, n: int, seed: int,
              jobs: int = 1) -> TrajectoryBatch:
    """Run n reverse trajectories and return their outputs at t = 1.

    Output is bit-identical for any ``jobs`` value: every trajectory's
    draws come from its own counter slice of each step's stream, and
    results are assembled in trajectory order, as a C-ordered (n, d) array.
    The batch is cut into chunks of ``_CHUNK_ROWS`` rows whatever T, the
    last one short.
    """
    check_batch(kind, n, seed)
    calls = [(kind, s, model, seed, lo, min(lo + _CHUNK_ROWS, n))
             for lo in range(0, n, _CHUNK_ROWS)]
    parts = list(ordered_map(_simulate_chunk, calls, jobs))
    return TrajectoryBatch(y1=np.concatenate([p[0] for p in parts], out=np.empty((n, s.d))),
                           clip_activations=sum(p[1] for p in parts))
