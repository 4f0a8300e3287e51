"""Span tracing of difflab's layer entry points, installed from outside.

The tracer replaces each entry point with a wrapper that records a span
(name, start, end, parent span) and one count taken at the boundary, runs
the call, and restores the original binding on exit.  Spans stay in
memory; ``Tracer.dump`` writes them out when the benchmark ends.

Bindings matter: ``cli`` and ``harness`` import ``run_batch`` and
``build_schedule`` by name, so those are patched in the caller modules;
``samplers`` looks its ``*_step`` functions up as module globals, and
``score_oracle`` calls ``targets.score`` through the module attribute.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _entry_points():
    """(owner, attribute, span name, count taken from (args, result))."""
    from difflab import analytic, cli, harness, metrics, samplers, score_oracle, targets

    model = score_oracle.ScoreModel
    return [
        (targets, "score", "targets.score", lambda a, r: _rows(a[1])),
        (targets, "projected_cdf", "targets.projected_cdf", None),
        (model, "__post_init__", "score_oracle.build", None),
        (model, "evaluate", "score_oracle.evaluate", None),
        (samplers, "accelerated_step", "samplers.step", lambda a, r: _rows(a[3])),
        (samplers, "ddpm_step", "samplers.step", lambda a, r: _rows(a[3])),
        (samplers, "ode_step", "samplers.step", lambda a, r: _rows(a[3])),
        (cli, "run_batch", "samplers.run_batch", lambda a, r: r.clip_activations),
        (harness, "run_batch", "samplers.run_batch", lambda a, r: r.clip_activations),
        (cli, "build_schedule", "schedule.build", None),
        (harness, "build_schedule", "schedule.build", None),
        (analytic, "propagate", "analytic.propagate", lambda a, r: a[0].T - 1),
        (analytic, "gaussian_kl", "analytic.kl", None),
        (metrics, "sliced_tv", "metrics.sliced_tv", None),
        (metrics, "moment_kl", "metrics.moment_kl", None),
        (harness, "_run_cell", "harness.cell", lambda a, r: int(r["error"] is not None)),
        (harness, "run_sweep", "harness.run_sweep", None),
        (cli, "cmd_sample", "cli.cmd_sample", None),
    ]


class Tracer:
    """Records nested spans; one instance per traced repetition."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, count]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.spans[idx][4] = count(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in _entry_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def _durations(self):
        total = [s[2] - s[1] for s in self.spans]
        self_time = list(total)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                self_time[s[3]] -= total[i]
        return total, self_time

    def layer_metrics(self) -> dict:
        """Per-layer times (s) and counts of this repetition's spans."""
        total, self_time = self._durations()

        def pick(name):
            return [i for i, s in enumerate(self.spans) if s[0] == name]

        def tsum(name):
            return sum(total[i] for i in pick(name))

        def ssum(name):
            return sum(self_time[i] for i in pick(name))

        def csum(name):
            return sum(self.spans[i][4] for i in pick(name))

        cells = [total[i] for i in pick("harness.cell")]
        return {
            "targets.score_s": tsum("targets.score"),
            "targets.score_calls": len(pick("targets.score")),
            "targets.score_rows": csum("targets.score"),
            "targets.projected_cdf_s": tsum("targets.projected_cdf"),
            "score_oracle.build_s": tsum("score_oracle.build"),
            "score_oracle.builds": len(pick("score_oracle.build")),
            "score_oracle.evaluate_self_s": ssum("score_oracle.evaluate"),
            "samplers.step_s": tsum("samplers.step"),
            "samplers.step_self_s": ssum("samplers.step"),
            "samplers.batch_self_s": ssum("samplers.run_batch"),
            "samplers.steps": csum("samplers.step"),
            "samplers.clip_activations": csum("samplers.run_batch"),
            "analytic.propagate_s": tsum("analytic.propagate"),
            "analytic.propagate_steps": csum("analytic.propagate"),
            "analytic.kl_s": tsum("analytic.kl"),
            "schedule.build_s": tsum("schedule.build"),
            "schedule.builds": len(pick("schedule.build")),
            "metrics.sliced_tv_s": tsum("metrics.sliced_tv"),
            "metrics.moment_kl_s": tsum("metrics.moment_kl"),
            "harness.cells": len(cells),
            "harness.cells_failed": csum("harness.cell"),
            "harness.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "harness.cell_s_max": max(cells, default=0.0),
            "harness.io_s": ssum("harness.run_sweep"),
            "cli.write_s": ssum("cli.cmd_sample"),
        }

    def records(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": s[0], "start": s[1] - origin, "end": s[2] - origin,
                 "parent": s[3], "count": s[4]} for s in self.spans]


def dump(path, tracers) -> None:
    """Write the spans of every traced repetition as one JSON document."""
    with open(path, "w") as fh:
        json.dump([t.records() for t in tracers], fh)
