"""Step-size schedule construction, validation, and the clip operator.

The schedule is defined backward from the horizon: the cumulative rate at
the final step is pinned to T**(-c0), and each earlier value is obtained by

    abar[t-1] = abar[t] + c1 * (log T / T) * abar[t] * (1 - abar[t])

for t = T, ..., 2 (natural log).  Per-step rates follow as the ratio of
consecutive cumulative rates, the step-noise variance is

    sigma_t^2 = alpha_t - 1 / (3 - 2 * alpha_t)

and the clip radius for step t is

    r_t = c_clip * (1 - alpha_t) * (d * log T / (1 - abar_t)) ** 1.5.

All arithmetic is 64-bit; the recursion is evaluated exactly as written,
with no closed-form substitute.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, ScheduleDegenerate

# Per-step rates at or below this are rejected: the step-noise variance
# sigma_t^2 = alpha_t - 1/(3 - 2 alpha_t) would be nonpositive.
_ALPHA_FLOOR = 0.5 + 1e-9


def is_real(value) -> bool:
    """Whether a value is a finite real number within float range: a bool,
    a string, NaN, +-inf and 10**400 are not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def as_integer(value, name: str, low: int, error=InvalidParams) -> int:
    """value as an int if it is a whole real number >= low within float range,
    else raises ``error``: 16.0 gives 16; 16.5, "16", True and 10**400 raise."""
    if is_real(value) and float(value).is_integer() and value >= low:
        return int(value)
    raise error(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class ScheduleParams:
    """Horizon, recursion constants, clip constant, and dimension.

    T >= 2 and d >= 1 are whole numbers, stored as int; all three constants
    must be positive, finite and real.
    """

    T: int
    c0: float = 4.0
    c1: float = 4.0
    c_clip: float = 2.0
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "T", as_integer(self.T, "horizon T", 2))
        object.__setattr__(self, "d", as_integer(self.d, "dimension d", 1))
        for name in ("c0", "c1", "c_clip"):
            value = getattr(self, name)
            if not (is_real(value) and value > 0):
                raise InvalidParams(f"{name} must be a positive finite real, got {value!r}")

    @property
    def step_rate(self) -> float:
        """The recursion gain c1 * log(T) / T."""
        return self.c1 * math.log(self.T) / self.T


@dataclass(frozen=True, eq=False)
class Schedule:
    """Immutable per-step coefficient arrays for a fixed horizon.

    Each array has T + 1 entries and is indexed by the step itself, as
    ``s.alpha[t]`` for an int t or an int array t.  ``alpha_bar[0] = 1`` is
    the data; entries a step does not define are NaN: ``alpha`` at t = 0,
    ``sigma`` and ``clip_radius`` at t = 0 and 1.  ``_check_t`` is the one
    rule for a step index.  A schedule equals and hashes as itself alone.
    """

    params: ScheduleParams
    alpha_bar: np.ndarray    # (T + 1,)
    alpha: np.ndarray        # (T + 1,), NaN at t = 0
    sigma: np.ndarray        # (T + 1,), NaN at t = 0, 1
    clip_radius: np.ndarray  # (T + 1,), NaN at t = 0, 1

    def __post_init__(self):
        for name in ("alpha_bar", "alpha", "sigma", "clip_radius"):
            getattr(self, name).setflags(write=False)

    @property
    def T(self) -> int:
        return self.params.T

    @property
    def d(self) -> int:
        return self.params.d

    def _check_t(self, t, lo: int, rows: int | None = None):
        """t as a step in [lo, T]: one integer, or for a batch of ``rows`` rows
        also an int array of m >= 1 steps, m dividing rows, where step k runs
        rows [k r, (k + 1) r) with r = rows / m (``per_row``)."""
        if not (isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype.kind in "iu"
                and rows is not None and len(t) and rows % len(t) == 0):
            try:
                t = operator.index(t)
            except TypeError:
                runs = "" if rows is None else f" or an int array whose length divides {rows}"
                raise InvalidParams(f"step must be one integer{runs}, got {t!r}") from None
        low, high = (t.min(), t.max()) if isinstance(t, np.ndarray) else (t, t)
        if low < lo or high > self.T:
            raise InvalidParams(f"step index {t} outside [{lo}, {self.T}]")
        return t


def build_schedule(params: ScheduleParams) -> Schedule:
    """Construct the full schedule for ``params``.

    Deterministic; raises ScheduleDegenerate, naming the step, if a
    cumulative rate leaves (0, 1) or a per-step rate falls to 1/2 or below
    (c1 * log(T) / T too large for this horizon, or T**(-c0) rounding to 0
    or 1), and InvalidParams if no array of T doubles can be allocated.
    """
    T = params.T
    try:
        abar = np.ones(T + 1)  # abar[0] = 1 is the data
    except (ValueError, MemoryError) as exc:
        raise InvalidParams(f"no memory for a schedule of T = {T} steps: {exc}") from exc
    rate = params.step_rate
    a = float(T) ** (-params.c0)
    for t in range(T, 0, -1):  # in Python floats: numpy's arithmetic, at a third of the time
        if not 0.0 < a < 1.0:  # checked before any division by a or 1 - a
            raise ScheduleDegenerate(f"alpha_bar_{t} = {a!r} is outside (0, 1) at T = {T}, "
                                     f"c0 = {params.c0!r}, c1 = {params.c1!r}")
        abar[t] = a
        a += rate * a * (1.0 - a)

    alpha = np.full(T + 1, np.nan)
    alpha[1:] = abar[1:] / abar[:-1]
    bad = alpha[2:] <= _ALPHA_FLOOR
    if np.any(bad):
        t_bad = int(np.argmax(bad)) + 2
        raise ScheduleDegenerate(
            f"alpha_{t_bad} = {alpha[t_bad]:.6f} <= 1/2: "
            f"c1*log(T)/T = {rate:.4f} is too large for T = {T}"
        )

    a = alpha[2:]
    sigma = np.full(T + 1, np.nan)
    sigma[2:] = np.sqrt(a - 1.0 / (3.0 - 2.0 * a))
    clip_radius = np.full(T + 1, np.nan)
    with np.errstate(over="ignore"):  # an infinite radius never clips, as clip's > reads it
        clip_radius[2:] = (params.c_clip * (1.0 - a)
                           * (params.d * math.log(T) / (1.0 - abar[2:])) ** 1.5)
    return Schedule(params=params, alpha_bar=abar, alpha=alpha,
                    sigma=sigma, clip_radius=clip_radius)


@dataclass(frozen=True)
class LemmaCheck:
    """One named inequality check with its worst-case margin.

    ``margin`` is the maximum over steps of (lhs - rhs); the check passes
    iff the margin is <= 0.  ``per_step`` holds the per-step margins for
    t = 2..T (empty for the single-value rate-at-step-one check).
    """

    name: str
    passed: bool
    margin: float
    per_step: np.ndarray = field(default_factory=lambda: np.empty(0))


def schedule_lemma_checks(s: Schedule) -> dict[str, LemmaCheck]:
    """Evaluate the four schedule inequalities, each by name with its margin.

    For all t = 2..T, with c = c1 * log(T) / T:

      (a) 1 - alpha_t                    <= c
      (b) (1 - alpha_t) / (1 - abar_t)   <= c
      (c) (1 - abar_t) / (1 - abar_{t-1}) <= 1 + 2c

    and, for the first step,

      (d) 1 - alpha_1 <= T ** (-c1 / 4).

    (d) needs c1 sufficiently above c0.  The recursion starts abar_T at
    T ** (-c0) and raises logit(abar) by about c1 * log(T) / T per step,
    so logit(abar_1) is about (c1 - c0) * log(T).  At c0 = c1 the first
    rate alpha_1 = abar_1 therefore ends near or below 1/2, while (d) asks
    for 1 - alpha_1 below T ** (-c1 / 4), which is under 1/2 once
    c1 * log(T) > 4 * log(2).  At c0 = c1 = 4, (d) fails at every T that
    builds: abar_1 runs from 0.04 at T = 16 to 0.47 at T = 4096.
    """
    rate = s.params.step_rate
    abar = s.alpha_bar
    one_minus_alpha = 1.0 - s.alpha[2:]

    m_a = one_minus_alpha - rate
    m_b = one_minus_alpha / (1.0 - abar[2:]) - rate
    m_c = (1.0 - abar[2:]) / (1.0 - abar[1:-1]) - (1.0 + 2.0 * rate)
    m_d = (1.0 - s.alpha[1]) - float(s.T) ** (-s.params.c1 / 4.0)

    def check(name, margin, *per_step):
        return name, LemmaCheck(name, bool(margin <= 0.0), float(margin), *per_step)

    return dict((
        check("one_minus_alpha_le_rate", np.max(m_a), m_a),
        check("relative_step_le_rate", np.max(m_b), m_b),
        check("tail_ratio_le_one_plus_2rate", np.max(m_c), m_c),
        check("first_step_rate_bound", m_d),
    ))


def _as_batch(x, d: int) -> np.ndarray:
    """x as a float batch of points (n, d), the one input form of every
    point-wise function in the package."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise InvalidParams(f"expected a batch (n, {d}), got shape {x.shape}")
    return x


def per_row(values: np.ndarray, t, rows: int):
    """values[t] for a batch of ``rows`` rows and a t that ``_check_t`` passed:
    one value for one step, or for an int array of m steps a column (rows, 1)
    in which step k's value fills its run of rows [k r, (k + 1) r), r = rows / m."""
    if isinstance(t, np.ndarray):
        return np.repeat(values[t], rows // len(t))[:, None]
    return values[t]


def clip(s: Schedule, t, x: np.ndarray) -> np.ndarray:
    """Threshold each row of a batch x (n, d) by norm.

    Indicator semantics, not a projection: a row whose 2-norm exceeds the
    radius r_t maps to the zero vector, any other row is returned as is.
    A row with a NaN norm is not over the radius, so it passes through, and
    no row is over an infinite radius.  t is one step for the batch, or an
    int array of steps, each over its own run of rows (``per_row``).
    """
    x = _as_batch(x, s.d)
    t = s._check_t(t, lo=2, rows=len(x))
    squares = x * x
    sums = squares[:, 0].copy()
    for column in squares.T[1:]:  # in coordinate order, so no memory order or d changes a bit
        sums += column
    over = np.sqrt(sums)[:, None] > per_row(s.clip_radius, t, len(x))
    return np.where(over, 0.0, x)
