"""Fresh-process probe: cold start of one workload, optionally followed by one warm pass.

run.py starts this script in a new interpreter and reads the one JSON object
it prints:

    python3 perfbench/child.py --workload NAME --seed N [--size tiny] [--warm-pass]

The clock starts just before ``import toeplitz_lab`` (which imports numpy
and scipy).  The probe reports ``import_s``, ``inputs_s`` (drawing the
workload's cases from the seed), ``first_call_s`` (workloads.first_case,
cold) and ``setup_s``, from the import through the first call.  With ``--warm-pass`` it then times one
pass over every case; run.py uses that, with OPENBLAS_NUM_THREADS=1 in the
environment, as the single-threaded reference.
"""
import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--warm-pass", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    clock = time.perf_counter
    t0 = clock()
    import toeplitz_lab  # noqa: F401 - timed: the import is part of cold start
    t1 = clock()
    import workloads
    cases = workloads.build(args.workload, args.seed, args.size)
    first = workloads.first_case(args.workload, args.seed)
    t2 = clock()
    seconds, failure, digest = workloads.run_case(first, clock)
    out = {
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
        "first_call_s": seconds,
        "setup_s": clock() - t0,
        "first_case": first.label,
        "failures": [f"{first.label}: {failure}"] if failure else [],
        "digests": [[first.label, digest]] if digest else [],
    }
    if args.warm_pass:
        start = clock()
        for case in cases:
            _, failure, digest = workloads.run_case(case, clock)
            if failure:
                out["failures"].append(f"{case.label}: {failure}")
            if digest:
                out["digests"].append([case.label, digest])
        out["pass_s"] = clock() - start
        out["cases"] = len(cases)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
