"""End-to-end benchmark of the `koszul-gerst` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the `src/` beside this directory, never from
an installed copy; without that source the run exits 2 and prints no
result.

One process, one thread, a closed loop with a single caller: a pass is the
workload's ordered list of `koszulgerst.cli.main(argv)` calls with
`--format structured`, each starting when the previous one returned.  Every
call builds its algebra from scratch, so each pass starts cold exactly as
a command-line user does.  Passes repeat until the next one would end after
`--seconds`.

Correctness: every invocation must exit 0, print one JSON document whose
own exact checks passed, print the same bytes in every pass of the run and,
where `reference.json` holds digests for the workload and seed (see
record_reference.py), match them.  Any miss counts as a failed invocation.

Times are in reference seconds: each pass's (or set-up probe's) wall time
is multiplied by REFERENCE_CALIBRATION_S over the mean time of a fixed
calibration kernel run just before and just after it.  The speed of a
shared machine drifts by tens of percent within a minute, which no run
length averages out; the kernel runs no program code, so the scaling
cancels that drift and keeps every change to the program.  The summary
line also prints the unscaled median pass time.

With `--trace 0` the result holds the end-to-end metrics:
  wall_s       median pass time, first call to last verified answer
  wall_s_tail  highest pass-time percentile with ten passes beyond it
               (the maximum when there are ten passes or fewer)
  setup_s      median over probe processes of launch -> first cli.main call:
               interpreter start, package import and input generation
  peak_rss_mb  peak resident set size of a separate process that runs one
               pass
The summary line before the result also prints failed_frac and the tail's
sample count.  With `--trace 1` the first half of the time runs untraced
passes and the second half traced ones (see tracer.py); the result holds
BENCHMARK.json's per-layer metrics: self times as medians over the traced
passes, and counts of one pass, which must repeat exactly in every pass.
The last line of standard output is the JSON result.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import operator
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 7
TAIL_BEYOND = 10
CALIBRATION_KEYS = 40000
REFERENCE_CALIBRATION_S = 0.07


def per_layer_spec():
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench["per_layer"]]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import `koszulgerst.cli` from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "koszulgerst" / "__init__.py").is_file():
        raise BenchError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import koszulgerst.cli as cli
    if Path(cli.__file__).resolve().parent != src / "koszulgerst":
        raise BenchError(f"imported {cli.__file__}, not the checkout's source")
    return cli


def run_pass(cli, argvs):
    """One closed-loop pass; returns (wall seconds, [(status, stdout)])."""
    results = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # the harness must record it and go on
                status = f"{type(exc).__name__}: {exc}"
        results.append((status, out.getvalue()))
    return time.perf_counter() - start, results


def own_check(doc):
    """The program's own verdict on its structured document."""
    if doc.get("command") == "resolution":
        return doc.get("verify", {}).get("ok") is True
    if doc.get("command") == "mc":
        return doc.get("exact") is True
    return doc.get("ok") is True


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_pass(argvs, results, expected):
    """Failed invocations of one pass; `expected` lists digests or Nones."""
    failures = []
    for argv, (status, out), want in zip(argvs, results, expected):
        reason = None
        if status != 0:
            reason = f"exit status {status!r}"
        else:
            try:
                ok = own_check(json.loads(out))
            except ValueError:
                ok = False
            if not ok:
                reason = "the program's own check failed"
            elif want is not None and digest(out) != want:
                reason = "structured output differs from the reference"
        if reason:
            failures.append(f"{' '.join(argv[:-2])}: {reason}")
    return failures


def reference_digests(workload, seed, reference):
    key = str(seed) if workload in workloads.SEEDED else "pinned"
    return reference.get(workload, {}).get(key)


def measure_setup(args):
    """Median scaled launch -> first-call time over probe processes."""
    samples = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--probe", "setup"],
            capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            raise BenchError(f"setup probe failed: {probe.stderr.strip()}")
        seconds = (int(probe.stdout.split()[-1]) - launched) / 1e9
        after = calibrate()
        samples.append(seconds * REFERENCE_CALIBRATION_S * 2 / (before + after))
        before = after
    return statistics.median(samples)


def measure_peak_rss(args):
    """Peak resident set size, in MiB, of a process that runs one pass."""
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--probe", "pass"],
        capture_output=True, text=True, timeout=170)
    if probe.returncode != 0:
        raise BenchError(f"pass probe failed: {probe.stderr.strip()}")
    return float(probe.stdout.split()[-1])


def own_peak_rss_mb():
    """This process's peak resident set size in MiB.

    Read from VmHWM, which belongs to the address space the process got at
    exec; getrusage would also count the parent's pages the child held
    between fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc/self/status")


def _eliminate(rows, ncols, inv, mul, sub, zero):
    """Gauss-Jordan on sparse row dicts, the shape of the program's solves."""
    pivot_row = 0
    for col in range(ncols):
        found = next((i for i in range(pivot_row, len(rows)) if col in rows[i]), None)
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        row = rows[pivot_row]
        scale = inv(row[col])
        for c in list(row):
            row[c] = mul(row[c], scale)
        for i, other in enumerate(rows):
            factor = other.get(col)
            if i == pivot_row or factor is None:
                continue
            for c, v in row.items():
                new = sub(other.get(c, zero), mul(factor, v))
                if new == zero:
                    other.pop(c, None)
                else:
                    other[c] = new
        pivot_row += 1


def calibrate():
    """Seconds taken by a fixed pure-Python kernel that shares no program code.

    A dictionary of tuple keys larger than the processor caches, Fraction
    accumulation and sparse elimination over Q and F_32003 are the
    program's inner loops in miniature, so the kernel's time tracks how fast
    this machine runs the program at that moment.
    """
    start = time.perf_counter()
    n = CALIBRATION_KEYS
    table = {(i, 7 * i % 1009, 31 * i % 4099): i for i in range(n)}
    total = 0
    for i in range(0, 7 * n, 7):
        j = i % n
        total = (total + table[(j, 7 * j % 1009, 31 * j % 4099)]) % 32003
    acc = {}
    for i in range(n // 16):
        key = (i % 97, i % 13)
        value = acc.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 1)
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
    n = 60
    _eliminate([{(7 * i + 3 * j) % n: Fraction((i + 2 * j) % 5 + 1, j % 3 + 1)
                 for j in range(6)} for i in range(n)],
               n, lambda a: 1 / a, operator.mul, operator.sub, 0)
    p, n = 32003, 90
    _eliminate([{(7 * i + 3 * j) % n: (31 * (i + 2 * j) + 1) % p for j in range(7)}
                for i in range(n)],
               n, lambda a: pow(a, p - 2, p), lambda a, b: a * b % p,
               lambda a, b: (a - b) % p, 0)
    return time.perf_counter() - start


def tail(values):
    """(value, percentile) of the highest order statistic with TAIL_BEYOND above."""
    ordered = sorted(values)
    k = len(ordered) - 1
    if len(ordered) > TAIL_BEYOND:
        k -= TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Run:
    """Passes of one workload, with their correctness bookkeeping."""

    def __init__(self, cli, argvs, reference):
        self.cli = cli
        self.argvs = argvs
        self.reference = reference  # digests per invocation, or None
        self.first = None  # digests of the first pass
        self.attempted = 0
        self.failures = []  # failed invocations
        self.problems = []  # harness-level inconsistencies
        if reference is not None and len(reference) != len(argvs):
            self.problems.append(f"reference holds {len(reference)} digests "
                                 f"for {len(argvs)} invocations")

    def passes(self, seconds, on_pass=None):
        """Run passes until the next would end after `seconds`.

        Returns (raw walls, scales): a pass's scale is REFERENCE_CALIBRATION_S
        over the mean calibration time just before and just after it.
        """
        walls, scales = [], []
        deadline = time.perf_counter() + seconds
        gc.collect()
        before = calibrate()
        while not walls or (time.perf_counter() + statistics.median(walls) + before
                            <= deadline):
            wall, results = run_pass(self.cli, self.argvs)
            gc.collect()
            after = calibrate()
            walls.append(wall)
            scales.append(REFERENCE_CALIBRATION_S * 2 / (before + after))
            if on_pass is not None:
                on_pass(results, scales[-1])
            self.check(results)
            before = after
        return walls, scales

    def check(self, results):
        digests = [digest(out) for _, out in results]
        if self.first is None:
            self.first = digests
        expected = self.reference or self.first
        self.attempted += len(results)
        self.failures += check_pass(self.argvs, results, expected)

    @property
    def failed(self):
        return len(self.failures)

    def summary(self):
        return (f"failed_frac {self.failed / self.attempted:.4g} "
                f"({self.failed}/{self.attempted} invocations)")


def untraced(run, args):
    setup_s = measure_setup(args)
    peak_mb = measure_peak_rss(args)
    walls, scales = run.passes(args.seconds)
    if tracer.installed():
        raise BenchError(f"untraced run found wrappers: {tracer.installed()}")
    scaled = [w * s for w, s in zip(walls, scales)]
    value, pct = tail(scaled)
    metrics = {"wall_s": (statistics.median(scaled), "s"),
               "wall_s_tail": (value, "s"),
               "setup_s": (setup_s, "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    summary = (f"wall_s_tail is p{pct:.0f} of {len(walls)} passes; unscaled wall "
               f"median {statistics.median(walls):.4g} s at scale "
               f"{statistics.median(scales):.3f}; {run.summary()}")
    return metrics, summary


def traced(run, args):
    plain = run.passes(args.seconds / 2)
    if tracer.installed():
        raise BenchError(f"untraced passes found wrappers: {tracer.installed()}")
    tr = tracer.Tracer()
    tracer.install(tr)
    per_pass = []

    def collect(results, scale):
        per_pass.append(layer_metrics(tr, results, scale))
        for edge, calls in tr.edges.items():
            edges[edge] = edges.get(edge, 0) + calls
        tr.reset()

    edges = {}
    tr.reset()
    walls, scales = run.passes(args.seconds / 2, collect)
    metrics = {}
    for name, unit in per_layer_spec():
        values = [m.get(name, 0) for m in per_pass]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
            continue
        metrics[name] = (values[0], unit)
        if any(v != values[0] for v in values):
            run.problems.append(f"{name} differs between traced passes: {values}")
    # the one per-layer metric that compares the traced passes with the others
    traced_s = statistics.median(w * s for w, s in zip(walls, scales))
    plain_s = statistics.median(w * s for w, s in zip(*plain))
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    summary = f"{len(walls)} traced and {len(plain[0])} untraced passes; {run.summary()}"
    print_spans(per_pass, edges)
    return metrics, summary


def layer_metrics(tr, results, scale):
    """One traced pass as per-layer metrics (self times in scaled seconds)."""
    m = {f"{name}_s": ns * scale / 1e9 for name, ns in tr.self_ns.items()}
    m.update((f"{name}_calls", calls) for name, calls in tr.calls.items())
    m.update(tr.counts)
    m["koszul.comult_slices"] = len(tr.slices)
    calls = tr.calls.get("rewriting.multiply", 0)
    m["rewriting.multiply_distinct_share"] = len(tr.products) / calls if calls else 0.0
    m["cli.output_bytes"] = sum(len(out.encode()) for _, out in results)
    return m


def print_spans(per_pass, edges):
    """Span tree of the traced passes on stderr: self time share per span."""
    names = sorted({n[:-2] for m in per_pass for n in m if n.endswith("_s")})
    self_s = {n: statistics.median(m.get(f"{n}_s", 0.0) for m in per_pass) for n in names}
    total = sum(self_s.values()) or 1.0
    print("span                           self_s   share  parents (calls per pass)",
          file=sys.stderr)
    for n in sorted(names, key=lambda n: -self_s[n]):
        parents = ", ".join(f"{p or '-'}:{c // len(per_pass)}"
                            for (p, c_name), c in sorted(edges.items(), key=str)
                            if c_name == n)
        print(f"{n:30s} {self_s[n]:7.3f} {100 * self_s[n] / total:6.1f}%  {parents}",
              file=sys.stderr)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "pass"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = load_program()
        argvs = workloads.make_pass(args.workload, args.seed, workdir)
        if args.probe == "setup":
            print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
            return 0
        if args.probe == "pass":
            run_pass(cli, argvs)
            print(own_peak_rss_mb())
            return 0
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        run = Run(cli, argvs, reference_digests(args.workload, args.seed, reference))
        metrics, summary = (traced if args.trace else untraced)(run, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.problems + run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    line = ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()
                     if not args.trace)
    print(f"{args.workload} seed {args.seed}: {line}{'; ' if line else ''}{summary}")
    print(json.dumps({
        "correct": not (run.failures or run.problems),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
