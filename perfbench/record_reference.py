"""Record the structured-output digests that run.py compares against.

    python3 perfbench/record_reference.py

Run it only on a commit whose output is the accepted reference: it runs one
pass of every workload (the seeded ones for seeds 0-9), requires every
invocation to exit 0 and pass the program's own checks, and rewrites
perfbench/reference.json.  A change that claims byte-identical output must
leave this file untouched.
"""

import json
import shutil
import sys

import run
import workloads

SEEDS = range(10)


def main():
    cli = run.load_program()
    reference = {}
    for workload in workloads.WORKLOADS:
        seeded = workload in workloads.SEEDED
        reference[workload] = {}
        for seed in SEEDS if seeded else [0]:
            workdir = run.ROOT / ".perfbench_work" / f"reference-{workload}-{seed}"
            try:
                argvs = workloads.make_pass(workload, seed, workdir)
                _, results = run.run_pass(cli, argvs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failures = run.check_pass(argvs, results, [None] * len(argvs))
            if failures:
                sys.exit(f"{workload} seed {seed}: {failures}")
            key = str(seed) if seeded else "pinned"
            reference[workload][key] = [run.digest(out) for _, out in results]
            print(f"{workload} {key}: {len(results)} digests", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
