"""Bundled verification suite: seeded property checks over random symbols.

Every property ties the analytic index (stabilized truncation SVD) to an
independent prediction — a winding oracle, a Chern quadrature, an algebraic
identity, or a value known by construction.  The suite is deterministic for
a fixed seed: reports carry no timestamps or timings, so two runs with the
same seed and counts produce byte-identical serialized output.

A property failure never aborts the suite; it is recorded with the offending
symbol serialized inline so the case can be replayed from the report alone.

Symbols are drawn serially from the one seeded stream.  A case is then a
function that shares no state: it returns its failed checks as (message,
symbol document) pairs.  `_run_cases` runs the cases in a pool of forked
worker processes, one per usable CPU (blas.cpu_count), each case inside
blas.one_blas_thread, and returns every case's failures in draw order; the
suite folds them into its property results, so the report does not depend
on the number of workers.  The workers keep the parent's affinity mask; a
case's hold alone keeps the kernel engine from starting a helper thread
(blas.spare_cpu), since the workers already keep every CPU busy.
Fork lets the workers run the cases' closures, which cannot be pickled: a
worker inherits the case list and receives only an index.
"""
from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from .blas import cpu_count, one_blas_thread
from .families import (homotopy_path, random_matrix_symbol,
                       random_scalar_symbol, su2_symbol, z_power)
from .hardy_s1 import analytic_index_s1
from .hardy_s3 import analytic_index_s3
from .errors import NumericsError
from .kernel import DEFAULT_RESIDUAL_TOL, DEFAULT_TOL
from .symbols import S1, Symbol, adjoint, det_laurent, direct_sum, identity, multiply
from .symbol_io import document_json, symbol_to_dict
from .topology import chern, chern_s1, winding_argument, winding_roots


@dataclass
class PropertyResult:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    failing_symbol: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class VerifyReport:
    seed: int
    counts: dict
    tolerances: dict
    all_passed: bool
    properties: list[PropertyResult]


def _failed(*checks: tuple[bool, str, Symbol]) -> list[tuple[str, dict]]:
    """(message, symbol document) of every (condition, message, symbol) check that failed."""
    return [(message, symbol_to_dict(symbol)) for ok, message, symbol in checks if not ok]


_worker_cases: list = []


def _start_worker(cases: list) -> None:
    """Pool initializer: keep the run's case list, inherited through fork."""
    global _worker_cases
    _worker_cases = cases


def _run_case(i: int) -> list[tuple[str, dict]]:
    """Run case i in a worker inside one_blas_thread; return its failures.

    The other workers hold the other CPUs, so the hold also keeps the case
    from starting a helper thread.  A case that raises has one failure, the
    exception, with the case's symbol.
    """
    symbol, fn = _worker_cases[i]
    try:
        with one_blas_thread():
            return fn()
    except Exception as exc:  # noqa: BLE001 — every failure mode must land in the report
        return [(f"{type(exc).__name__}: {exc}", symbol_to_dict(symbol))]


def _run_cases(cases: list) -> list[list[tuple[str, dict]]]:
    """Run every (symbol, fn) case in a fork pool; return their failures in input order.

    A worker that dies breaks the pool; that is a NumericsError naming how
    many cases went unevaluated, never a hang or a partial result.  An empty
    case list returns [] without starting a pool.
    """
    if not cases:
        return []
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(max_workers=min(cpu_count(), len(cases)), mp_context=context,
                               initializer=_start_worker, initargs=(cases,))
    futures = []
    try:
        for i in range(len(cases)):
            futures.append(pool.submit(_run_case, i))
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        evaluated = sum(1 for future in futures if future.exception() is None)
        raise NumericsError(f"a verify worker process died: {len(cases) - evaluated} of "
                            f"{len(cases)} cases went unevaluated ({exc})") from exc
    finally:
        pool.shutdown(cancel_futures=True)


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
    noether = PropertyResult("noether-scalar-law")
    for m in range(-3, 4):
        f = z_power(m)

        def case(m=m, f=f):
            res = analytic_index_s1(f, trunc=16, tol=tol, residual_tol=residual_tol)
            return _failed(
                (res.index == -m, f"index(z^{m}) = {res.index}, want {-m}", f),
                (res.ker_dim == max(-m, 0) and res.coker_dim == max(m, 0),
                 f"z^{m} dims (ker {res.ker_dim}, coker {res.coker_dim})", f))

        cases.append((noether, f, case))
    properties.append(noether)

    # 2. Oracle agreement on random scalar symbols: analytic index vs both
    # winding routes vs the rounded Chern value vs the constructed winding.
    oracle = PropertyResult("oracle-agreement")
    for _ in range(scalar_cases):
        f, true_winding = random_scalar_symbol(rng)

        def case(f=f, true_winding=true_winding):
            res = analytic_index_s1(f, trunc=64, tol=tol, residual_tol=residual_tol)
            w_roots = winding_roots(f)
            w_arg = winding_argument(f)
            ch = chern_s1(f)
            return _failed(
                (w_roots == true_winding,
                 f"winding_roots {w_roots} != constructed {true_winding}", f),
                (w_arg == true_winding,
                 f"winding_argument {w_arg} != constructed {true_winding}", f),
                (res.index == -true_winding,
                 f"analytic {res.index} != -winding {-true_winding}", f),
                (ch.rounded == -true_winding,
                 f"chern {ch.rounded} != -winding {-true_winding}", f))
        cases.append((oracle, f, case))
    properties.append(oracle)

    # 3. Additivity: index(ab) = index(a) + index(b) for matrix symbols.
    additivity = PropertyResult("index-additivity")
    for _ in range(matrix_cases):
        rank = int(rng.integers(1, 4))
        a, ia = random_matrix_symbol(rng, rank=rank)
        b, ib = random_matrix_symbol(rng, rank=rank)
        ab = multiply(a, b)

        def case(a=a, b=b, ab=ab, ia=ia, ib=ib):
            got_a = index32(a)
            got_b = index32(b)
            got_ab = index32(ab)
            return _failed(
                (got_a == ia, f"index(a) {got_a} != constructed {ia}", a),
                (got_b == ib, f"index(b) {got_b} != constructed {ib}", b),
                (got_ab == got_a + got_b, f"index(ab) {got_ab} != {got_a} + {got_b}", ab))
        cases.append((additivity, ab, case))
    properties.append(additivity)

    # 4. Adjoint antisymmetry: index(a*) = -index(a).
    adj = PropertyResult("adjoint-antisymmetry")
    for _ in range(matrix_cases):
        a, ia = random_matrix_symbol(rng)
        a_star = adjoint(a)

        def case(a=a, a_star=a_star, ia=ia):
            got = index32(a)
            got_star = index32(a_star)
            return _failed((got == ia, f"index(a) {got} != constructed {ia}", a),
                           (got_star == -got, f"index(a*) {got_star} != {-got}", a_star))
        cases.append((adj, a, case))
    properties.append(adj)

    # 5. Direct-sum stability: padding with an identity block never moves the
    # index, and the index of a direct sum is the sum of the indices.
    stab = PropertyResult("direct-sum-stability")
    for _ in range(matrix_cases):
        a, ia = random_matrix_symbol(rng)
        b, ib = random_matrix_symbol(rng)
        padded = direct_sum(a, identity(S1, 2))
        sum_ab = direct_sum(a, b)

        def case(a=a, padded=padded, sum_ab=sum_ab, ia=ia, ib=ib):
            got = index32(a)
            got_pad = index32(padded)
            got_sum = index32(sum_ab)
            return _failed((got == ia, f"index(a) {got} != constructed {ia}", a),
                           (got_pad == got, f"index(a + I) {got_pad} != {got}", padded),
                           (got_sum == ia + ib, f"index(a + b) {got_sum} != {ia + ib}", sum_ab))
        cases.append((stab, sum_ab, case))
    properties.append(stab)

    # 6. Homotopy invariance along invertible constant-factor paths.
    homotopy = PropertyResult("homotopy-invariance")
    a, ia = random_matrix_symbol(rng)
    path = homotopy_path(a, rng)
    for t in np.linspace(0.0, 1.0, homotopy_samples):
        a_t = path(float(t))

        def case(a_t=a_t, t=t, ia=ia):
            got = index32(a_t)
            return _failed((got == ia, f"index at t={t:.2f} is {got}, want {ia}", a_t))
        cases.append((homotopy, a_t, case))
    properties.append(homotopy)

    # 7. Three-sphere calibration: the SU(2) generator has index -1 on both
    # routes, and its winding-free Chern value certifies the orientation sign.
    calib = PropertyResult("s3-calibration")
    gamma = su2_symbol()

    def s3_case():
        res = analytic_index_s3(gamma, sizes=(8, 12), tol=tol, residual_tol=residual_tol)
        ch = chern(gamma)  # sized from gamma's degree, so chern_s3 gets explicit counts
        return _failed(
            (res.index == -1, f"analytic index {res.index}, want -1", gamma),
            (res.ker_dim == 0 and res.coker_dim == 1,
             f"dims (ker {res.ker_dim}, coker {res.coker_dim}), want (0, 1)", gamma),
            (ch.rounded == -1, f"chern value {ch.refined:.6f} rounds to {ch.rounded}, want -1",
             gamma))
    cases.append((calib, gamma, s3_case))

    scalar_det = PropertyResult("noether-matrix-determinant")
    for _ in range(max(2, matrix_cases // 2)):
        a, ia = random_matrix_symbol(rng)
        det = det_laurent(a)

        def case(a=a, det=det, ia=ia):
            w = winding_roots(det)
            return _failed((-w == ia, f"-winding(det) {-w} != constructed index {ia}", a))
        cases.append((scalar_det, a, case))
    properties.append(scalar_det)
    properties.append(calib)

    outcomes = _run_cases([(symbol, fn) for _, symbol, fn in cases])
    for (result, _, _), failures in zip(cases, outcomes):
        result.cases += 1
        for message, symbol_doc in failures:
            result.failures.append(message)
            if result.failing_symbol is None:
                result.failing_symbol = symbol_doc
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
    return document_json(verify_report_to_dict(report))


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
