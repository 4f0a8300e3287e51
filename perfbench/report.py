"""Run the benchmark over workloads and seeds and summarize each metric.

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 \\
        [--workloads gauss-sample ...] [--trace 0 1] [--out FILE]

Run from the repository root.  Each (workload, seed, trace) is one fresh
``run.py`` process, run one after another.  For every metric the table
gives the median over seeds, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median.  ``--out`` writes every run's values,
the input sizes, the machine facts and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return {"info": info, "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        entry = report["workloads"][workload] = {"runs": [], "summary": {}}
        for trace in args.trace:
            for seed in args.seeds:
                run = run_once(workload, seed, args.seconds, trace)
                entry["runs"].append(run)
                report["machine"] = run["info"]["machine"]
                entry["input"] = run["info"]["input"]
                res = run["result"]
                print(f"{workload} seed={seed} trace={trace} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}", flush=True)
        runs = [r["result"] for r in entry["runs"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry["fail_frac"] = failed / attempted
        names = {k: v["unit"] for r in runs for k, v in r["metrics"].items()}
        print(f"\n{workload}: input {json.dumps(entry['input'])}")
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} unit")
        for name, unit in names.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs
                               if name in r["metrics"]])
            stats["unit"] = unit
            entry["summary"][name] = stats
            print(f"  {name:<30} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
                  f"{stats['q3']:>12.6g} {stats['spread']:>8.3f} {unit}")
        print(f"  {'fail_frac':<30} {entry['fail_frac']:>12.6g} "
              f"({failed} of {attempted} operations)\n", flush=True)
    print("machine " + json.dumps(report.get("machine")))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
