"""Command-line entry point with the schedule/sample/analytic/sweep tools."""

from __future__ import annotations

import argparse
import sys

from . import analytic, harness, targets
from .errors import DiffLabError, InvalidParams
from .harness import FLOAT_FORMAT, format_value
from .samplers import KINDS, run_batch
from .schedule import ScheduleParams, build_schedule
from .score_oracle import ScoreModel

_WRITE_ROWS = 4096  # sample rows per formatted string, so memory stays flat


def _schedule_params(args, d: int) -> ScheduleParams:
    return ScheduleParams(T=args.T, c0=args.c0, c1=args.c1, c_clip=args.cclip, d=d)


def cmd_schedule(args) -> int:
    s = build_schedule(_schedule_params(args, args.d))
    with open(args.out, "w") as fh:
        fh.write("t,alpha,alpha_bar,sigma,clip_radius\n")
        for t in range(1, s.T + 1):  # sigma and clip_radius start at t = 2
            tail = (s.sigma[t], s.clip_radius[t]) if t >= 2 else (None, None)
            fh.write(",".join(map(format_value, (t, s.alpha[t], s.alpha_bar[t], *tail))) + "\n")
    return 0


def cmd_sample(args) -> int:
    target = targets.load_target(args.target)
    s = build_schedule(_schedule_params(args, target.d))
    model = ScoreModel("exact", target, s)
    batch = run_batch(args.sampler, s, model, args.n, args.seed, jobs=args.jobs)
    with open(args.out, "w") as fh:
        fh.write(",".join(f"y1_{j}" for j in range(target.d)) + "\n")
        line = ",".join([FLOAT_FORMAT] * target.d) + "\n"
        for lo in range(0, args.n, _WRITE_ROWS):
            block = batch.y1[lo:lo + _WRITE_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
        fh.write(f"# clip_activations={batch.clip_activations}\n")
    return 0


def cmd_analytic(args) -> int:
    target = analytic.target_law(targets.load_target(args.target))
    s = build_schedule(_schedule_params(args, target.d))
    law_1 = targets.forward_marginal(target, s, 1)
    p_y1 = analytic.propagate(s, target, analytic.affine_kind(args.sampler))
    kl = analytic.gaussian_kl(law_1, p_y1)
    tv = analytic.tv_bound(kl)
    with open(args.out, "w") as fh:
        fh.write("sampler,T,d,kl,tv_bound\n")
        fh.write(f"{args.sampler},{args.T},{target.d},{format_value(kl)},{format_value(tv)}\n")
    return 0


def cmd_sweep(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    report = harness.run_sweep(cfg, jobs=args.jobs)
    failed = sum(1 for r in report.rows if r["error"] is not None)
    print(f"wrote {len(report.rows)} rows ({failed} failed cells) to {report.out}")
    for kind, fit in report.slopes.items():
        print(f"slope[{kind}] = {fit.slope:.4f} (stderr {fit.stderr:.4f}, R2 {fit.r2:.6f})")
    return 0


def _add_schedule_constants(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c0", type=float, default=ScheduleParams.c0)
    p.add_argument("--c1", type=float, default=ScheduleParams.c1)
    p.add_argument("--cclip", type=float, default=ScheduleParams.c_clip)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="difflab",
                                     description="diffusion sampling laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="emit per-step schedule coefficients as CSV")
    p.add_argument("--T", type=int, required=True)
    _add_schedule_constants(p)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("sample", help="run reverse trajectories, write final points")
    p.add_argument("--sampler", choices=KINDS, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_schedule_constants(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("analytic", help="exact final-law divergences for Gaussian targets")
    p.add_argument("--sampler", choices=KINDS, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--T", type=int, required=True)
    _add_schedule_constants(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("sweep", help="run an experiment grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InvalidParams(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except DiffLabError as exc:
        print(f"difflab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
