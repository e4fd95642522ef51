"""toeplitz-lab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload s1-identities --seed 7 --seconds 30 --trace 0

Every run first times cold start in five fresh processes (child.py):
import, input generation and the first call.  The benchmark process then
makes that first call once, untimed.  Every answer is checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  It times the
workload's cases in turn, starting again from the first after the last,
until the next case would end after --seconds; every case runs at least
once.  A case's time is the median of its calls, and a pass is the sum of
those medians, so a partial last pass adds samples without favouring the
cases it reached.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: self time and calls per pass of each instrumented layer
(spans.py), the computed work fingerprint, case latency percentiles,
cold-start detail, the tracing overhead and, for s1-identities and
verify-suite, a reference pass in a child process with
OPENBLAS_NUM_THREADS=1.  The benchmark sets no thread variable for its own
runs; it records the ones it sees.

The last line of standard output is the JSON result.  The exit status is 0
only when every case was certified; failures are counted, never fatal.
Details, and the spans of a traced run, go to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170
REFERENCE_WORKLOADS = ("s1-identities", "verify-suite")
COUNTER_UNITS = {"svd_flops": "flop", "bytes": "B"}
FINGERPRINT = ("work.cases", "kernel.stabilized_kernel_dim.svd_count",
               "kernel.stabilized_kernel_dim.svd_flops", "hardy_s1.toeplitz_rect_s1.bytes",
               "hardy_s3.toeplitz_rect_s3.bytes", "symbols.eval_hopf_grid.points",
               "topology.chern_s3.quadrature_nodes")
clock = time.perf_counter


def environment() -> dict:
    """What the numbers depend on: code, interpreter, libraries, BLAS, threads, cores."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toeplitz_lab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def probe(args, warm_pass: bool = False, env: dict | None = None) -> dict:
    """Run child.py in a fresh interpreter; a failed child is returned as a failure."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    if warm_pass:
        cmd.append("--warm-pass")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        return {"failures": [f"probe timed out after {CHILD_TIMEOUT_S} s"], "digests": []}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"probe exited {done.returncode}: {tail[0]}"], "digests": []}
    return json.loads(done.stdout.strip().splitlines()[-1])


class Run:
    """What the benchmark process saw: attempts, failures, and digests by case label."""

    def __init__(self, run_case, tracer=None):
        self.run_case = run_case
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, set] = {}

    def record(self, label: str, failure: str | None, digest: str | None = None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{label}: {failure}")
        if digest:
            self.digests.setdefault(label, set()).add(digest)

    def case(self, case) -> tuple[float, str | None]:
        seconds, failure, digest = self.run_case(case, clock)
        self.record(case.label, failure, digest)
        return seconds, failure

    def round_robin(self, cases, seconds: float) -> tuple[list[list[float]], set[int]]:
        """Time the cases in turn until the next would end after `seconds`.

        After the last case it starts again from the first; every case runs
        at least once, and a later call is made only when the case's median
        time still fits.  Returns each case's latencies and the indices of
        the cases that failed.
        """
        times: list[list[float]] = [[] for _ in cases]
        failed: set[int] = set()
        begin = clock()
        for i in itertools.count():
            k = i % len(cases)
            if times[k] and clock() - begin + statistics.median(times[k]) > seconds:
                break
            elapsed, failure = self.case(cases[k])
            times[k].append(elapsed)
            if failure:
                failed.add(k)
        return times, failed

    def one_pass(self, cases, latencies: list[float] | None = None) -> float:
        """Run every case once; untraced passes add certified latencies."""
        start = clock()
        if latencies is None:
            with self.tracer:
                for i, case in enumerate(cases):
                    self.tracer.case = i
                    self.case(case)
        else:
            for case in cases:
                seconds, failure = self.case(case)
                if failure is None:
                    latencies.append(seconds)
        return clock() - start


def percentile_ms(samples: list[float], q: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e3
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(cold, times, failed) -> dict:
    setups = [c["setup_s"] for c in cold if "setup_s" in c]
    # a pass is the sum of each case's median time: one slow call moves it little
    pass_s = sum(statistics.median(t) for t in times)
    return {
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "cases_per_s": ((len(times) - len(failed)) / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(cold, cases, tracer, walls, traced_walls, latencies, reference) -> dict:
    passes = len(traced_walls)
    out = {}
    for name, layer in tracer.layers.items():
        out[f"{name}.self_s"] = (layer.self_s / passes, "s")
        out[f"{name}.calls"] = (layer.calls / passes, "count")
        for counter, total in layer.counts.items():
            out[f"{name}.{counter}"] = (total / passes, COUNTER_UNITS.get(counter, "count"))
    wall = sum(traced_walls) / passes
    ok = [c for c in cold if "first_call_s" in c]
    first_calls = [c["first_call_s"] for c in ok]
    out.update({
        "work.cases": (len(cases), "count"),
        "latency.samples": (len(latencies), "count"),
        "latency.case_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "latency.case_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "unattributed_s": (wall - tracer.self_seconds() / passes, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (
            statistics.median(traced_walls) / statistics.median(walls) - 1, "ratio"),
        "cold.import_s": (statistics.median(c["import_s"] for c in ok) if ok else 0.0, "s"),
        "cold.first_call_s": (statistics.median(first_calls) if ok else 0.0, "s"),
        "cold.first_call_max_s": (max(first_calls, default=0.0), "s"),
        "reference.blas1_cases_per_s": (
            reference["cases"] / reference["pass_s"] if "pass_s" in reference else 0.0,
            "1/s"),
    })
    return out


def number(value: float):
    return int(value) if float(value).is_integer() and abs(value) < 2 ** 53 else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="toeplitz-lab benchmark: one workload, one seed, one closed-loop client.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    parser.add_argument("--inject-failure", action="store_true",
                        help="replace the first case's answer with a wrong one")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    env = environment()
    cold = [probe(args) for _ in range(SETUP_RUNS)]

    cases = workloads.build(args.workload, args.seed, args.size)
    if args.inject_failure:
        cases[0] = dataclasses.replace(cases[0], answer=lambda result: "injected wrong answer")
    run = Run(workloads.run_case, spans.Tracer() if args.trace else None)
    for c in cold:
        run.record("setup probe", "; ".join(c["failures"]) or None)
        for label, digest in c["digests"]:
            run.digests.setdefault(label, set()).add(digest)
    run.case(workloads.first_case(args.workload, args.seed))  # warm-up, not timed

    walls, traced_walls, latencies = [], [], []
    if args.trace:
        begin = clock()
        while True:
            walls.append(run.one_pass(cases, latencies))
            traced_walls.append(run.one_pass(cases))
            if clock() - begin + statistics.median(walls) + statistics.median(
                    traced_walls) > args.seconds:
                break
    else:
        times, failed_cases = run.round_robin(cases, args.seconds)
        latencies = [t for k, ts in enumerate(times) if k not in failed_cases for t in ts]

    reference = {}
    if args.trace and args.workload in REFERENCE_WORKLOADS:
        reference = probe(args, warm_pass=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        run.record("reference pass", "; ".join(reference["failures"]) or None)
    for label, seen in list(run.digests.items()):
        if len(seen) > 1:
            run.record(label, "output differs between reruns of the same case")

    if args.trace:
        metrics = per_layer(cold, cases, run.tracer, walls, traced_walls, latencies, reference)
    else:
        metrics = end_to_end(cold, times, failed_cases)
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": number(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }

    print(f"toeplitz-lab benchmark: workload {args.workload}, seed {args.seed}, "
          f"size {args.size}, trace {args.trace}, closed loop, 1 client")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"cold start ({len(cold)} fresh processes): setup_s "
          + " ".join(f"{c.get('setup_s', float('nan')):.4f}" for c in cold)
          + ", first_call_s "
          + " ".join(f"{c.get('first_call_s', float('nan')):.4f}" for c in cold))
    if args.trace:
        print(f"warm: {len(walls)} untraced and {len(traced_walls)} traced passes of "
              f"{len(cases)} cases")
    else:
        print(f"warm: {sum(map(len, times))} timed calls over {len(cases)} cases, "
              f"{min(map(len, times))} to {max(map(len, times))} calls per case")
    print(f"{len(latencies)} untraced calls certified, case_p50_ms "
          f"{percentile_ms(latencies, 50):.6g}, case_p90_ms "
          f"{percentile_ms(latencies, 90):.6g} (not gated)")
    print(f"failed_ratio {failed / run.attempted:.4g} ({failed} of {run.attempted} attempted)")
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")
    if args.trace:
        print("work fingerprint per pass (computed from shapes and arguments, not measured): "
              + ", ".join(f"{k} {number(metrics[k][0])}" for k in FINGERPRINT))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {number(value):>16.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    detail = {"args": vars(args), "environment": env, "cold": cold,
              "pass_walls_s": walls, "traced_pass_walls_s": traced_walls,
              "case_times_s": None if args.trace else times,
              "latencies_s": latencies, "failures": run.failures,
              "reference": reference, "result": result}
    if run.tracer is not None:
        detail["spans"] = {"fields": ["case", "name", "parent", "start_s", "end_s"],
                           "rows": run.tracer.spans}
    name = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail) + "\n")

    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
