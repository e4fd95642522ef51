"""Bundled verification suite: seeded property checks over random symbols.

Every property ties the analytic index (stabilized truncation SVD) to an
independent prediction — a winding oracle, a Chern quadrature, an algebraic
identity, or a value known by construction.  The suite is deterministic for
a fixed seed: reports carry no timestamps or timings, so two runs with the
same seed and counts produce byte-identical serialized output.

A property failure never aborts the suite; it is recorded with the offending
symbol serialized inline so the case can be replayed from the report alone.

Symbols are drawn serially from the one seeded stream; the cases then run in
a pool of forked worker processes, one per usable CPU, each case on one BLAS
thread.  Every case reports what it changed in its property's result, and
the parent merges those changes in draw order, so the report does not depend
on the number of workers.  Fork lets the workers run the cases' closures,
which cannot be pickled: a worker inherits the case list and receives only
an index.
"""
from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .families import (homotopy_path, random_matrix_symbol,
                       random_scalar_symbol, su2_symbol, z_power)
from .hardy_s1 import analytic_index_s1
from .hardy_s3 import analytic_index_s3
from .errors import NumericsError
from .kernel import DEFAULT_RESIDUAL_TOL, DEFAULT_TOL, one_blas_thread
from .symbols import S1, Symbol, adjoint, det_laurent, direct_sum, identity, multiply
from .symbol_io import symbol_to_dict
from .topology import chern_s1, chern_s3, winding_argument, winding_roots


@dataclass
class PropertyResult:
    name: str
    passed: bool
    cases: int
    failures: list[str] = field(default_factory=list)
    failing_symbol: dict | None = None


@dataclass
class VerifyReport:
    seed: int
    counts: dict
    tolerances: dict
    all_passed: bool
    properties: list[PropertyResult]


def _check(result: PropertyResult, condition: bool, message: str, symbol: Symbol) -> None:
    if not condition:
        result.passed = False
        result.failures.append(message)
        if result.failing_symbol is None:
            result.failing_symbol = symbol_to_dict(symbol)


def _guard(result: PropertyResult, symbol: Symbol, fn) -> None:
    """Run one case; any exception is a recorded failure, not a suite abort."""
    result.cases += 1
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 — every failure mode must land in the report
        result.passed = False
        result.failures.append(f"{type(exc).__name__}: {exc}")
        if result.failing_symbol is None:
            result.failing_symbol = symbol_to_dict(symbol)


def _cpu_count() -> int:
    """CPUs this process may run on, which bounds the number of workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_worker_cases: list = []


def _start_worker(cases: list) -> None:
    """Pool initializer: keep the run's case list, inherited through fork."""
    global _worker_cases
    _worker_cases = cases


def _run_case(i: int):
    """Run case i in a worker; return what it changed in its property's result.

    The worker's copy of the result is reset first, so the returned cases,
    passed, failures and first failing symbol are this case's alone.  The case
    runs on one BLAS thread: the other workers hold the other CPUs.
    """
    result, symbol, fn = _worker_cases[i]
    result.cases, result.passed, result.failures, result.failing_symbol = 0, True, [], None
    with one_blas_thread():
        _guard(result, symbol, fn)
    return result.cases, result.passed, result.failures, result.failing_symbol


def _run_cases(cases: list) -> None:
    """Run every (result, symbol, fn) case in a fork pool; merge in draw order.

    Failures only append and the first failing symbol wins, so merging the
    cases' changes in draw order gives the report a serial run would.  A
    worker that dies breaks the pool; that is a NumericsError naming how many
    cases went unevaluated, never a hang or a partial report.
    """
    pool = ProcessPoolExecutor(max_workers=min(_cpu_count(), len(cases)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(cases,))
    futures = []
    try:
        for i in range(len(cases)):
            futures.append(pool.submit(_run_case, i))
        changes = [future.result() for future in futures]
    except BrokenProcessPool as exc:
        evaluated = sum(1 for future in futures if future.exception() is None)
        raise NumericsError(f"a verify worker process died: {len(cases) - evaluated} of "
                            f"{len(cases)} cases went unevaluated ({exc})") from exc
    finally:
        pool.shutdown(cancel_futures=True)
    for (result, _, _), (n, passed, failures, failing_symbol) in zip(cases, changes):
        result.cases += n
        result.passed = result.passed and passed
        result.failures.extend(failures)
        if result.failing_symbol is None:
            result.failing_symbol = failing_symbol


def run_verify(
    seed: int = 0,
    scalar_cases: int = 8,
    matrix_cases: int = 4,
    homotopy_samples: int = 5,
    tol: float = DEFAULT_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> VerifyReport:
    """Execute the full property suite with one randomness stream.

    Every symbol is drawn before any case runs; the cases then run in a
    process pool (see the module docstring).  Raises NumericsError when a
    worker process dies.
    """
    rng = np.random.default_rng(seed)
    properties: list[PropertyResult] = []
    cases: list = []  # (result, symbol, fn) in draw order

    def index32(a: Symbol) -> int:
        return analytic_index_s1(a, trunc=32, tol=tol, residual_tol=residual_tol).index

    # 1. Scalar monomial law: index of T_{z^m} is -m, with the split dims.
    noether = PropertyResult("noether-scalar-law", True, 0)
    for m in range(-3, 4):
        f = z_power(m)

        def case(m=m, f=f):
            res = analytic_index_s1(f, trunc=16, tol=tol, residual_tol=residual_tol)
            _check(noether, res.index == -m, f"index(z^{m}) = {res.index}, want {-m}", f)
            _check(noether, res.ker_dim == max(-m, 0) and res.coker_dim == max(m, 0),
                   f"z^{m} dims (ker {res.ker_dim}, coker {res.coker_dim})", f)

        cases.append((noether, f, case))
    properties.append(noether)

    # 2. Oracle agreement on random scalar symbols: analytic index vs both
    # winding routes vs the rounded Chern value vs the constructed winding.
    oracle = PropertyResult("oracle-agreement", True, 0)
    for _ in range(scalar_cases):
        f, true_winding = random_scalar_symbol(rng)

        def case(f=f, true_winding=true_winding):
            res = analytic_index_s1(f, trunc=64, tol=tol, residual_tol=residual_tol)
            w_roots = winding_roots(f)
            w_arg = winding_argument(f)
            ch = chern_s1(f)
            _check(oracle, w_roots == true_winding,
                   f"winding_roots {w_roots} != constructed {true_winding}", f)
            _check(oracle, w_arg == true_winding,
                   f"winding_argument {w_arg} != constructed {true_winding}", f)
            _check(oracle, res.index == -true_winding,
                   f"analytic {res.index} != -winding {-true_winding}", f)
            _check(oracle, ch.rounded == -true_winding,
                   f"chern {ch.rounded} != -winding {-true_winding}", f)
        cases.append((oracle, f, case))
    properties.append(oracle)

    # 3. Additivity: index(ab) = index(a) + index(b) for matrix symbols.
    additivity = PropertyResult("index-additivity", True, 0)
    for _ in range(matrix_cases):
        rank = int(rng.integers(1, 4))
        a, ia = random_matrix_symbol(rng, rank=rank)
        b, ib = random_matrix_symbol(rng, rank=rank)
        ab = multiply(a, b)

        def case(a=a, b=b, ab=ab, ia=ia, ib=ib):
            got_a = index32(a)
            got_b = index32(b)
            got_ab = index32(ab)
            _check(additivity, got_a == ia, f"index(a) {got_a} != constructed {ia}", a)
            _check(additivity, got_b == ib, f"index(b) {got_b} != constructed {ib}", b)
            _check(additivity, got_ab == got_a + got_b,
                   f"index(ab) {got_ab} != {got_a} + {got_b}", ab)
        cases.append((additivity, ab, case))
    properties.append(additivity)

    # 4. Adjoint antisymmetry: index(a*) = -index(a).
    adj = PropertyResult("adjoint-antisymmetry", True, 0)
    for _ in range(matrix_cases):
        a, ia = random_matrix_symbol(rng)
        a_star = adjoint(a)

        def case(a=a, a_star=a_star, ia=ia):
            got = index32(a)
            got_star = index32(a_star)
            _check(adj, got == ia, f"index(a) {got} != constructed {ia}", a)
            _check(adj, got_star == -got, f"index(a*) {got_star} != {-got}", a_star)
        cases.append((adj, a, case))
    properties.append(adj)

    # 5. Direct-sum stability: padding with an identity block never moves the
    # index, and the index of a direct sum is the sum of the indices.
    stab = PropertyResult("direct-sum-stability", True, 0)
    for _ in range(matrix_cases):
        a, ia = random_matrix_symbol(rng)
        b, ib = random_matrix_symbol(rng)
        padded = direct_sum(a, identity(S1, 2))
        sum_ab = direct_sum(a, b)

        def case(a=a, padded=padded, sum_ab=sum_ab, ia=ia, ib=ib):
            got = index32(a)
            got_pad = index32(padded)
            got_sum = index32(sum_ab)
            _check(stab, got == ia, f"index(a) {got} != constructed {ia}", a)
            _check(stab, got_pad == got, f"index(a + I) {got_pad} != {got}", padded)
            _check(stab, got_sum == ia + ib, f"index(a + b) {got_sum} != {ia + ib}", sum_ab)
        cases.append((stab, sum_ab, case))
    properties.append(stab)

    # 6. Homotopy invariance along invertible constant-factor paths.
    homotopy = PropertyResult("homotopy-invariance", True, 0)
    a, ia = random_matrix_symbol(rng)
    path = homotopy_path(a, rng)
    for t in np.linspace(0.0, 1.0, homotopy_samples):
        a_t = path(float(t))

        def case(a_t=a_t, t=t, ia=ia):
            got = index32(a_t)
            _check(homotopy, got == ia, f"index at t={t:.2f} is {got}, want {ia}", a_t)
        cases.append((homotopy, a_t, case))
    properties.append(homotopy)

    # 7. Three-sphere calibration: the SU(2) generator has index -1 on both
    # routes, and its winding-free Chern value certifies the orientation sign.
    calib = PropertyResult("s3-calibration", True, 0)
    gamma = su2_symbol()

    def s3_case():
        res = analytic_index_s3(gamma, sizes=(8, 12), tol=tol, residual_tol=residual_tol)
        ch = chern_s3(gamma, theta_nodes=16, phi_nodes=16)
        _check(calib, res.index == -1, f"analytic index {res.index}, want -1", gamma)
        _check(calib, res.ker_dim == 0 and res.coker_dim == 1,
               f"dims (ker {res.ker_dim}, coker {res.coker_dim}), want (0, 1)", gamma)
        _check(calib, ch.rounded == -1,
               f"chern value {ch.refined:.6f} rounds to {ch.rounded}, want -1", gamma)
    cases.append((calib, gamma, s3_case))

    scalar_det = PropertyResult("noether-matrix-determinant", True, 0)
    for _ in range(max(2, matrix_cases // 2)):
        a, ia = random_matrix_symbol(rng)
        det = det_laurent(a)

        def case(a=a, det=det, ia=ia):
            w = winding_roots(det)
            _check(scalar_det, -w == ia,
                   f"-winding(det) {-w} != constructed index {ia}", a)
        cases.append((scalar_det, a, case))
    properties.append(scalar_det)
    properties.append(calib)

    _run_cases(cases)
    counts = {"scalar_cases": scalar_cases, "matrix_cases": matrix_cases,
              "homotopy_samples": homotopy_samples}
    tolerances = {"kernel_tol": tol, "residual_tol": residual_tol}
    return VerifyReport(
        seed=int(seed),
        counts=counts,
        tolerances=tolerances,
        all_passed=all(p.passed for p in properties),
        properties=properties,
    )


def verify_report_to_dict(report: VerifyReport) -> dict:
    return {
        "seed": report.seed,
        "counts": report.counts,
        "tolerances": report.tolerances,
        "all_passed": report.all_passed,
        "properties": [
            {
                "name": p.name,
                "passed": p.passed,
                "cases": p.cases,
                "failures": p.failures,
                "failing_symbol": p.failing_symbol,
            }
            for p in report.properties
        ],
    }


def verify_report_json(report: VerifyReport) -> str:
    """Canonical serialization: sorted keys, no volatile fields, trailing newline."""
    return json.dumps(verify_report_to_dict(report), indent=2, sort_keys=True) + "\n"


def verify_report_text(report: VerifyReport) -> str:
    lines = [f"verification suite: seed {report.seed}"]
    for p in report.properties:
        status = "PASS" if p.passed else "FAIL"
        lines.append(f"  {status}  {p.name}  ({p.cases} cases)")
        for failure in p.failures:
            lines.append(f"        - {failure}")
    lines.append("all passed" if report.all_passed else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def verify_report_csv(report: VerifyReport) -> str:
    lines = ["property,passed,cases,failures"]
    for p in report.properties:
        lines.append(f"{p.name},{str(p.passed).lower()},{p.cases},{len(p.failures)}")
    return "\n".join(lines) + "\n"
