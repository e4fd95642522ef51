"""Call-site timing spans for the traced benchmark run.

A target is a function of toeplitz_lab named by module and attribute.
Installing a Tracer binds a timing wrapper in its place wherever the program
holds it: in the defining module and in every module that imported it by
name.  The program's own calls are then timed where they are made, and
uninstalling puts every original back.  No file of the program changes.

Each span records the case it belongs to, its name, its parent span, and its
start and end.  A layer's self time is the duration of its spans minus the
durations of their child spans, so self times never count an interval twice
and the wall time of a traced pass is the sum of all self times plus the
time spent outside every span (``unattributed``).
"""
from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def svd_flops(rows: int, cols: int) -> int:
    """Computed cost of a full complex SVD (U, sigma and V) of a rows x cols matrix.

    Golub and Van Loan's R-SVD count, 4 m^2 n + 22 n^3 real flops for m >= n,
    times 4 for complex arithmetic.  A count from the shape, not a measurement.
    """
    m, n = max(rows, cols), min(rows, cols)
    return 4 * (4 * m * m * n + 22 * n ** 3)


def _kernel_hook(args: dict, counts: dict) -> Callable:
    """Count SVDs and residual checks by wrapping the truncation builder.

    stabilized_kernel_dim takes an SVD of builder(n) for every n in sizes and
    builds one larger truncation for the residual check when dim > 0.
    """
    builder, sizes = args["builder"], {int(n) for n in args["sizes"]}

    def counted(n):
        matrix = builder(n)
        if int(n) in sizes:
            counts["svd_count"] += 1
            counts["svd_flops"] += svd_flops(*matrix.shape)
        else:
            counts["residual_checks"] += 1
        return matrix

    args["builder"] = counted
    gap_warn_ratio = sys.modules["toeplitz_lab.kernel"].GAP_WARN_RATIO

    def finish(report):
        # the condition under which stabilized_kernel_dim warns of a narrow gap
        counts["gap_warnings"] += int(report.spectral_gap < gap_warn_ratio)
    return finish


def _bytes_hook(args: dict, counts: dict) -> Callable:
    def finish(truncation):
        counts["bytes"] += truncation.matrix.nbytes
    return finish


def _points_hook(args: dict, counts: dict) -> None:
    counts["points"] += np.size(args["theta"]) * np.size(args["phi1"]) * np.size(args["phi2"])


def _chern_s3_hook(args: dict, counts: dict) -> None:
    # the value at (t, p) nodes and the refinement at (2t, 2p): 9 t p^2 points
    t, p = int(args["theta_nodes"]), int(args["phi_nodes"])
    counts["quadrature_nodes"] += 9 * t * p * p


# (module, attribute) -> (counter names, hook).  A hook sees the call's bound
# arguments before the call, may replace them, and may return a function
# that sees the result.
TARGETS: dict[tuple[str, str], tuple[tuple[str, ...], Callable | None]] = {
    ("toeplitz_lab.verify", "run_verify"): ((), None),
    ("toeplitz_lab.reports", "convergence_table"): ((), None),
    ("toeplitz_lab.hardy_s1", "analytic_index_s1"): ((), None),
    ("toeplitz_lab.hardy_s3", "analytic_index_s3"): ((), None),
    ("toeplitz_lab.topology", "topological_index"): ((), None),
    ("toeplitz_lab.topology", "chern_s1"): ((), None),
    ("toeplitz_lab.topology", "chern_s3"): (("quadrature_nodes",), _chern_s3_hook),
    ("toeplitz_lab.topology", "winding_argument"): ((), None),
    ("toeplitz_lab.topology", "winding_roots"): ((), None),
    ("toeplitz_lab.symbols", "require_invertible"): ((), None),
    ("toeplitz_lab.symbols", "eval_hopf_grid"): (("points",), _points_hook),
    ("toeplitz_lab.kernel", "stabilized_kernel_dim"): (
        ("svd_count", "svd_flops", "residual_checks", "gap_warnings"), _kernel_hook),
    ("toeplitz_lab.hardy_s1", "toeplitz_rect_s1"): (("bytes",), _bytes_hook),
    ("toeplitz_lab.hardy_s3", "toeplitz_rect_s3"): (("bytes",), _bytes_hook),
}


def layer_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('toeplitz_lab.')}.{attr}"


@dataclass
class Layer:
    self_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans and per-layer totals for the calls made while it is installed."""

    def __init__(self):
        self.clock = time.perf_counter
        self.layers = {layer_name(*key): Layer(counts=dict.fromkeys(names, 0))
                       for key, (names, _) in TARGETS.items()}
        # (case, name, parent span index or -1, start, end)
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.case = -1
        self._open: list[list] = []   # [span index, start, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        layer = self.layers[name]
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            finish = None
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                finish = hook(bound.arguments, layer.counts)
                args, kwargs = bound.args, bound.kwargs
            index = len(self.spans)
            parent = self._open[-1][0] if self._open else -1
            self.spans.append((self.case, name, parent, 0.0, 0.0))
            frame = [index, self.clock(), 0.0]
            self._open.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                duration = end - frame[1]
                layer.self_s += duration - frame[2]
                layer.calls += 1
                if self._open:
                    self._open[-1][2] += duration
                self.spans[index] = (self.case, name, parent, frame[1], end)
            if finish is not None:
                finish(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "toeplitz_lab" or n.startswith("toeplitz_lab."))]
        for (module, attr), (_, hook) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(layer_name(module, attr), original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_seconds(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())
