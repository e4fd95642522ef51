"""The benchmark's three workloads: inputs drawn from a seed, one program call per case.

A workload is a fixed list of cases for a given seed.  Each case is one call
into toeplitz_lab, timed by the runner, and a check of its answer against a
value known by construction.  Calls go through module attributes at call
time (``hardy_s1.analytic_index_s1``, not a name bound at import), so the
traced run's call-site wrappers see the benchmark's own calls too.

``size="tiny"`` shrinks every workload to a second or so; the benchmark's
own tests use it; measured runs use the default, ``size="full"``.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from toeplitz_lab import families, hardy_s1, hardy_s3, reports, topology, verify
from toeplitz_lab.symbols import adjoint, direct_sum, laurent_identity, multiply

WORKLOADS = ("s1-identities", "s3-representatives", "verify-suite")
SIZES = ("full", "tiny")

# Final ladder delta a certified Chern ladder must reach.
LADDER_DELTA_TOL = 1e-10


@dataclass(frozen=True)
class Case:
    """One timed call and the check of its answer.

    ``answer(result)`` extracts what is checked; the case is certified when it
    equals ``want``.  ``digest(result)``, when set, names output that must be
    byte-identical every time the same case runs, in any process.
    """

    label: str
    call: Callable[[], Any]
    answer: Callable[[Any], Any]
    want: Any
    digest: Callable[[Any], str] | None = None


def build(workload: str, seed: int, size: str = "full") -> list[Case]:
    """The workload's cases for one seed; the same seed gives the same cases."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    tiny = size == "tiny"
    if workload == "s1-identities":
        return _s1_identities(seed, pairs=1 if tiny else 10)
    if workload == "s3-representatives":
        return (_s3_representatives((1, 0, -1) if tiny else (1, 0, -1, 2, -2, 3, -3))
                + _s3_chern_ladder(seed, symbols=1 if tiny else 3, nodes=8 if tiny else 12))
    counts = (2, 1, 2) if tiny else (32, 16, 10)
    return _verify_suite(seed, counts, seeds=1 if tiny else 4)


def first_case(workload: str, seed: int) -> Case:
    """The cold-start call: the first case of the workload at its tiny size.

    It takes the code paths of the full cases, and so their one-time costs
    (lazy imports, the first LAPACK call, OpenBLAS starting its threads), at
    a fraction of their cost.  For s1-identities and s3-representatives it is
    also the first full case.
    """
    return build(workload, seed, "tiny")[0]


def _s1_identities(seed: int, pairs: int) -> list[Case]:
    """The acceptance criterion-3 loop: per pair a + I2, a, b, ab, a*, 10 homotopy samples.

    Every pair has rank 3, where criterion 3 draws the rank from 1..3: the
    truncations are then all about 200 x 190, and a seed changes the symbols'
    coefficients and exponent windows but not the mix of matrix shapes, which
    would otherwise move the latency percentiles from one group of shapes to
    another.  The padded case comes first: its SVDs are large enough for
    OpenBLAS to start its threads, a stall that belongs to cold start.
    """
    rng = np.random.default_rng(seed)
    cases = []

    def index_case(label, symbol, want):
        cases.append(Case(label, lambda: hardy_s1.analytic_index_s1(symbol, trunc=32),
                          lambda res: res.index, want))

    for i in range(pairs):
        a, ia = families.random_matrix_symbol(rng, rank=3)
        b, ib = families.random_matrix_symbol(rng, rank=3)
        index_case(f"pair{i}/a+I2", direct_sum(a, laurent_identity(2)), ia)
        index_case(f"pair{i}/a", a, ia)
        index_case(f"pair{i}/b", b, ib)
        index_case(f"pair{i}/ab", multiply(a, b), ia + ib)
        index_case(f"pair{i}/a*", adjoint(a), -ia)
        path = families.homotopy_path(a, rng)
        for t in np.linspace(0.0, 1.0, 10):
            index_case(f"pair{i}/t={t:.2f}", path(float(t)), ia)
    return cases


def _s3_representatives(ms) -> list[Case]:
    """Acceptance criterion 5: s3_representative(m) by both routes must give m.

    The representatives are fixed by construction, so these cases do not
    depend on the seed.  m = 1 comes first: it is cheap, so cold start stays
    short, yet its SVDs are large enough for OpenBLAS to start its threads.
    """
    cases = []
    for m in ms:
        symbol, sizes = families.s3_representative(m)

        def both_routes(symbol=symbol, sizes=sizes):
            analytic = hardy_s3.analytic_index_s3(symbol, sizes=sizes).index
            return analytic, topology.topological_index(symbol).rounded

        cases.append(Case(f"m={m}", both_routes, lambda got: got, (m, m)))
    return cases


def _s3_chern_ladder(seed: int, symbols: int, nodes: int) -> list[Case]:
    """convergence_table from `nodes` nodes, doubled twice: su2^2 by the unitary
    inverse, seeded constant sandwiches of su2^-2 and su2 by the batched inverse.

    s3-representatives runs it from 12 nodes (12/24/48, refined to 96), not
    from 24: at 24 the refined quadrature streams arrays of about 19 MB per
    chunk, and its time then follows the host's memory traffic so closely
    that runs of the same code differ by a quarter.
    """
    rng = np.random.default_rng(seed)
    inputs = [
        ("su2^2", families.su2_power(2), -2),
        ("sandwich(su2^-2)", families.constant_sandwich(families.su2_power(-2), rng), 2),
        ("sandwich(su2)", families.constant_sandwich(families.su2_symbol(), rng), -1),
    ][:symbols]

    def answer(rows):
        final = rows[-1].delta
        return ([int(round(r.value.real)) for r in rows],
                final is not None and final <= LADDER_DELTA_TOL)

    return [Case(label,
                 lambda symbol=symbol: reports.convergence_table(
                     symbol, theta_nodes=nodes, phi_nodes=nodes),
                 answer, ([want] * 3, True))
            for label, symbol, want in inputs]


def _verify_suite(seed: int, counts: tuple[int, int, int], seeds: int) -> list[Case]:
    """run_verify at the given counts for the seeds seed, seed + 1, ...

    Several suite seeds per benchmark seed average out how much work one
    suite seed happens to draw.  The report JSON of each suite seed is a
    digest: it must be byte-identical on every rerun, in any process.
    """
    scalar, matrix, homotopy = counts
    cases = []
    for s in range(seed, seed + seeds):
        cases.append(Case(
            f"verify(seed={s}, counts={scalar}/{matrix}/{homotopy})",
            lambda s=s: verify.run_verify(s, scalar_cases=scalar, matrix_cases=matrix,
                                          homotopy_samples=homotopy),
            lambda report: report.all_passed, True,
            digest=lambda report: hashlib.sha256(
                verify.verify_report_json(report).encode()).hexdigest()))
    return cases


def run_case(case: Case, clock: Callable[[], float]) -> tuple[float, str | None, str | None]:
    """Time one call and check it: (seconds, failure or None, digest or None).

    A failure never escapes: an exception from the program, typed
    (NumericsError, SymbolError) or not, is returned as the failure text.
    """
    t0 = clock()
    try:
        result = case.call()
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts the run
        return clock() - t0, f"{type(exc).__name__}: {exc}", None
    seconds = clock() - t0
    got = case.answer(result)
    failure = None if got == case.want else f"got {got!r}, want {case.want!r}"
    return seconds, failure, case.digest(result) if case.digest else None
