"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in about a minute:
1. a corrupted reference digest makes the run count failed invocations;
2. the untraced run carries no wrapper, and the traced one wraps every
   entry of tracer.SPANS;
3. two traced runs of every workload report identical per-layer counts;
4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys

import run
import tracer
import workloads


def check(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    return ok


def corrupted_reference(cli):
    argvs = workloads.make_pass("family-Q", 0, None)
    reference = run.reference_digests("family-Q", 0, json.loads(run.REFERENCE.read_text()))
    good = run.Run(cli, argvs, reference)
    good.passes(0)
    bad = run.Run(cli, argvs, ["0" * 64] + reference[1:])
    bad.passes(0)
    return check(good.failed == 0 and bad.failed > 0,
                 f"corrupted digest: failed {bad.failed}/{bad.attempted} "
                 f"(intact reference: {good.failed}/{good.attempted})")


def wrappers():
    before = tracer.installed()
    tracer.install(tracer.Tracer())
    after = tracer.installed()
    methods = {f"{tracer.PACKAGE}.{m}.{a}" for m, a, _, _ in tracer.SPANS if "." in a}
    return check(not before and methods <= set(after),
                 f"no wrapper before install, {len(after)} after")


def traced_counts(workload):
    def counts():
        out = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=180, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        if not result["correct"]:
            return None
        return {k: result["metrics"][k]["value"] for k, unit in run.per_layer_spec()
                if unit != "s"}
    first, second = counts(), counts()
    return check(first is not None and first == second,
                 f"{workload}: traced runs correct, counts repeat exactly")


def bare_directory():
    bare = run.ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "family-Q", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return check(proc.returncode != 0 and not proc.stdout.strip(),
                 f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")


def main():
    cli = run.load_program()
    results = [corrupted_reference(cli), wrappers()]
    results += [traced_counts(w) for w in workloads.WORKLOADS]
    results.append(bare_directory())
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
