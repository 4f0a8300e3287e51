"""difflab benchmark: time to an oracle-checked result, per workload.

    python3 perfbench/run.py --workload gauss-sample --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports ``difflab`` from
``src/`` and times calls into its public functions from outside; every
repetition's output is checked against an exact oracle and failures are
counted.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer split from a separately traced run (see
README.md).  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero without a result line when the difflab
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7

SETUP_CODE = """\
import time
start = time.perf_counter()
import difflab
{load}
print(time.perf_counter() - start)
"""

UNITS = {
    "run_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MiB",
    "trace.overhead_s": "s",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or "_s_" in name:
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def measure_setup(workload) -> float:
    """Median time of ``import difflab`` plus input loading, each in a
    fresh interpreter, as every CLI invocation pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = SETUP_CODE.format(load=workload.setup_code)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def repetition(workload, tracer=None) -> tuple[float, int]:
    """Time one main call (through the closing of its output file) and
    count the operations whose output fails the oracle check."""
    start = time.perf_counter()
    try:
        if tracer is None:
            workload.run()
        else:
            with tracer.installed():
                workload.run()
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - start, workload.ops
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check()
    except Exception:
        traceback.print_exc()
        return elapsed, workload.ops


def measure(workload, seconds: float, traced: bool) -> dict:
    """Repeat the main call, at least once, until another repetition
    would run past ``seconds``; with tracing, each untraced call is paired
    with a traced one."""
    from spans import Tracer

    plain, timed_traced, tracers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        # alternate which of a pair runs first, so that neither side
        # always pays the first call's warm-up
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order if traced else (False,):
            tracer = Tracer() if with_trace else None
            elapsed, bad = repetition(workload, tracer)
            attempted, failed = attempted + workload.ops, failed + bad
            if with_trace:
                timed_traced.append(elapsed)
                tracers.append(tracer)
            else:
                plain.append(elapsed)
        now = time.perf_counter()
        if now - start + (now - begin) > seconds:
            break
    return {"plain": plain, "traced": timed_traced, "tracers": tracers,
            "attempted": attempted, "failed": failed}


def end_to_end(workload, result: dict) -> dict:
    run_s = statistics.median(result["plain"])
    return {
        "run_s": run_s,
        "setup_s": measure_setup(workload),
        "steps_per_s": workload.work / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, result: dict) -> dict:
    layers = [t.layer_metrics() for t in result["tracers"]]
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values.update(workload.csv_bytes())
    values["trace.overhead_s"] = (statistics.median(result["traced"])
                                  - statistics.median(result["plain"]))
    return values


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    # One BLAS thread: workloads run single-process (jobs=1) on a small
    # shared machine, and extra BLAS threads spin without making these
    # small-matrix calls faster.  Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (SRC / "difflab" / "__init__.py").is_file():
        print(f"perfbench: difflab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import difflab  # noqa: F401  (first import, before anything is timed)
    from spans import dump
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](ROOT, workdir, args.seed)
        workload.prepare()
        result = measure(workload, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(workload, result)
            dump(OUT / f"spans-{args.workload}-seed{args.seed}.json", result["tracers"])
        else:
            metrics = end_to_end(workload, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "input": workload.size,
            "machine": machine_facts(), "repetitions": len(result["plain"]),
            "run_s_each": result["plain"], "traced_s_each": result["traced"],
            "operations_per_repetition": workload.ops,
            "work_per_repetition": workload.work}
    print("info " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name:<30} {value:>16.6g} {unit_of(name)}")
    print(f"{'fail_frac':<30} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    print("oracle: " + workload.oracle_note())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
