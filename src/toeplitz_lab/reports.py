"""End-to-end index reports and convergence tables.

An IndexReport carries both sides of the index theorem for one symbol — the
analytic index with its stabilization evidence, the topological index with
its quadrature defects — plus the agreement verdict.  Convergence tables
rerun the Chern quadrature up a resolution ladder and record successive
differences.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .hardy_s1 import analytic_index_s1
from .hardy_s3 import analytic_index_s3
from .kernel import DEFAULT_RESIDUAL_TOL, DEFAULT_TOL
from .symbols import S1, Symbol, require_invertible
from .topology import _certified_chern, chern_ladder


@dataclass(frozen=True)
class IndexReport:
    """Both routes to the index of one Toeplitz operator, with evidence."""

    manifold: str
    rank: int
    analytic_index: int
    ker_dim: int
    coker_dim: int
    truncation_sizes: tuple[int, ...]
    spectral_gaps: dict
    residual_maxima: dict
    topological_value: complex
    topological_index: int
    agreement: bool
    timings_ms: dict


def compute_index_report(
    symbol: Symbol,
    trunc: int | None = None,
    tol: float = DEFAULT_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    grid: int = 512,
    theta_nodes: int = 24,
    phi_nodes: int = 24,
) -> IndexReport:
    """Run both index pipelines on one symbol and compare them (trunc=None: route default)."""
    analytic_index = analytic_index_s1 if symbol.manifold is S1 else analytic_index_s3
    truncation = {} if trunc is None else {"trunc": trunc}
    t0 = time.perf_counter()
    analytic = analytic_index(symbol, tol=tol, residual_tol=residual_tol, **truncation)
    t1 = time.perf_counter()
    # topological_index without its gate: the analytic route has just passed it
    chern = _certified_chern(symbol, grid, theta_nodes, phi_nodes)
    t2 = time.perf_counter()
    return IndexReport(
        manifold=symbol.manifold.name,
        rank=symbol.rank,
        analytic_index=analytic.index,
        ker_dim=analytic.ker_dim,
        coker_dim=analytic.coker_dim,
        truncation_sizes=analytic.sizes,
        spectral_gaps={"kernel": analytic.ker.spectral_gap,
                       "cokernel": analytic.coker.spectral_gap},
        residual_maxima={"kernel": analytic.ker.residual,
                         "cokernel": analytic.coker.residual},
        topological_value=chern.refined,
        topological_index=chern.rounded,
        agreement=analytic.index == chern.rounded,
        timings_ms={"analytic": (t1 - t0) * 1e3, "topological": (t2 - t1) * 1e3},
    )


def _json_real(x: float):
    x = float(x)
    return x if math.isfinite(x) else None


def index_report_to_dict(report: IndexReport) -> dict:
    """JSON-ready document mirroring the report field-for-field (inf -> null)."""
    return {
        "manifold": report.manifold,
        "rank": report.rank,
        "analytic_index": report.analytic_index,
        "ker_dim": report.ker_dim,
        "coker_dim": report.coker_dim,
        "truncation_sizes": list(report.truncation_sizes),
        "spectral_gaps": {k: _json_real(v) for k, v in report.spectral_gaps.items()},
        "residual_maxima": {k: _json_real(v) for k, v in report.residual_maxima.items()},
        "topological_value": [report.topological_value.real, report.topological_value.imag],
        "topological_index": report.topological_index,
        "agreement": report.agreement,
        "timings_ms": {k: round(float(v), 3) for k, v in report.timings_ms.items()},
    }


def index_report_text(report: IndexReport) -> str:
    gaps = ", ".join(f"{k} {v:.3e}" for k, v in report.spectral_gaps.items())
    residuals = ", ".join(f"{k} {v:.3e}" for k, v in report.residual_maxima.items())
    timings = ", ".join(f"{k} {v:.1f} ms" for k, v in report.timings_ms.items())
    tv = report.topological_value
    lines = [
        f"manifold            {report.manifold}, rank {report.rank}",
        f"analytic index      {report.analytic_index}  "
        f"(ker {report.ker_dim}, coker {report.coker_dim})",
        f"truncation sizes    {', '.join(str(n) for n in report.truncation_sizes)}",
        f"spectral gaps       {gaps}",
        f"residual maxima     {residuals}",
        f"topological value   {tv.real:+.12f} {tv.imag:+.3e} i",
        f"topological index   {report.topological_index}",
        f"agreement           {'yes' if report.agreement else 'NO'}",
        f"timings             {timings}",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConvergenceRow:
    size: int
    value: complex
    delta: float | None


def convergence_table(
    symbol: Symbol,
    grid: int = 512,
    theta_nodes: int = 24,
    phi_nodes: int = 24,
    steps: int | None = None,
) -> list[ConvergenceRow]:
    """topology.chern_ladder's rungs with deltas |value_i - value_{i-1}| (None on the first)."""
    require_invertible(symbol)
    rows: list[ConvergenceRow] = []
    previous: complex | None = None
    for size, value in chern_ladder(symbol, steps, grid, theta_nodes, phi_nodes):
        delta = None if previous is None else float(abs(value - previous))
        rows.append(ConvergenceRow(size=size, value=value, delta=delta))
        previous = value
    return rows


def convergence_to_csv(rows: list[ConvergenceRow]) -> str:
    lines = ["size,value_re,value_im,delta"]
    for row in rows:
        delta = "" if row.delta is None else repr(row.delta)
        lines.append(f"{row.size},{row.value.real!r},{row.value.imag!r},{delta}")
    return "\n".join(lines) + "\n"


def convergence_to_dict(rows: list[ConvergenceRow]) -> dict:
    return {"rows": [{"size": r.size,
                      "value": [r.value.real, r.value.imag],
                      "delta": r.delta} for r in rows]}


def convergence_text(rows: list[ConvergenceRow]) -> str:
    lines = [f"{'size':>8}  {'value':>32}  {'delta':>12}"]
    for row in rows:
        value = f"{row.value.real:+.12f} {row.value.imag:+.2e} i"
        delta = "" if row.delta is None else f"{row.delta:.3e}"
        lines.append(f"{row.size:>8}  {value:>32}  {delta:>12}")
    return "\n".join(lines) + "\n"


def final_delta(rows: list[ConvergenceRow]) -> float:
    if len(rows) < 2:
        raise ValueError("convergence table needs at least two rows")
    return float(rows[-1].delta)
