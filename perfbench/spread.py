"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 10] [--trace 0|1]
                                [--json OUT]

For each workload and metric it prints the median of the runs and, with
two seeds or more, the spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median,
the figure BENCHMARK.json's bounds are judged against.  It then prints the
workload's failed_frac: failed over attempted invocations of all runs.
Seeds run 0..SEEDS-1, one process at a time, with BENCHMARK.json's
`run_seconds`; `--seeds 1` is the one command that prints every metric of
every workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", metavar="OUT", help="also write the summary here")
    args = p.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    summary = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        done = []
        for seed in range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode == 0:
                done.append(json.loads(lines[-1]))
            ok = ok and proc.returncode == 0 and done[-1]["correct"]
            print(f"{workload} seed {seed}: "
                  + (lines[-2] if proc.returncode == 0 else proc.stderr[-300:]),
                  file=sys.stderr)
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        entry = summary["workloads"][workload] = {
            "runs": len(done), "attempted": attempted, "failed": failed, "metrics": {}}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in done]
            if not values:
                continue
            stats = entry["metrics"][m["name"]] = summarize(values)
            bound = m.get("bound")
            print(f"{workload:11s} {m['name']:34s} median {stats['median']:11.6g} "
                  f"{m['unit']:5s}"
                  + (f" spread {stats['spread']:7.2%}" if len(values) > 1 else "")
                  + (f"  (bound {bound:.0%})" if bound else ""))
        print(f"{workload:11s} {'failed_frac':34s} {failed / max(attempted, 1):18.6g} 1"
              f"      ({failed}/{attempted} invocations, "
              f"{args.seeds - len(done)} runs without a result)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
