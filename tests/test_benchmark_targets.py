"""The benchmark's traced call sites exist and take the parameters its hooks bind.

perfbench/spans.py wraps program functions by module and attribute name, and
perfbench/workloads.py imports program names; a rename or deletion there
would only show when the benchmark runs.
"""
import importlib
import importlib.util
import inspect
import os
import sys
import time

import numpy as np
import pytest

from toeplitz_lab import hardy_s1, hardy_s3, kernel, topology
from toeplitz_lab.families import s3_representative, su2_power, su2_symbol, z_power
from toeplitz_lab.hardy_s1 import toeplitz_rect_s1
from toeplitz_lab.hardy_s3 import toeplitz_rect_s3
from toeplitz_lab.symbols import margin_grid_size

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

# (module, attribute) -> parameters its hook in spans.py reads from the call
HOOK_PARAMETERS = {
    ("toeplitz_lab.kernel", "stabilized_kernel_dim"): {"builder", "sizes"},
    ("toeplitz_lab.topology", "chern_s3"): {"theta_nodes", "phi_nodes"},
    ("toeplitz_lab.symbols", "eval_hopf_grid"): {"theta", "phi1", "phi2"},
}


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


spans = _load_perfbench("spans")
TARGETS = spans.TARGETS


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(module), attr)


@pytest.mark.parametrize("module, attr", sorted(TARGETS))
def test_target_is_a_function(module, attr):
    assert inspect.isfunction(_resolve(module, attr))


@pytest.mark.parametrize("module, attr", sorted(HOOK_PARAMETERS))
def test_hooked_function_takes_the_bound_parameters(module, attr):
    assert TARGETS[module, attr][1] is not None
    parameters = inspect.signature(_resolve(module, attr)).parameters
    assert HOOK_PARAMETERS[module, attr] <= set(parameters)


def test_gap_warning_ratio_exists():
    assert isinstance(kernel.GAP_WARN_RATIO, float)


@pytest.mark.parametrize("truncation", [lambda: toeplitz_rect_s1(z_power(2), 8),
                                        lambda: toeplitz_rect_s3(su2_symbol(), 4)],
                         ids=["s1", "s3"])
def test_truncations_are_dense_arrays(truncation):
    # the traced run's byte counter reads truncation.matrix.nbytes
    assert isinstance(truncation().matrix, np.ndarray)


@pytest.mark.parametrize("theta_nodes, phi_nodes", [(4, 4), (12, 8), (10, 6)])
def test_chern_s3_evaluates_the_points_its_hook_counts(monkeypatch, theta_nodes, phi_nodes):
    # spans.py counts 9 t p^2 quadrature nodes per chern_s3(a, t, p): the value
    # at (t, p) and the refinement at (2t, 2p)
    points = []
    evaluate = topology.eval_hopf_grid

    def counted(a, theta, phi1, phi2, partials=False):
        points.append(np.size(theta) * np.size(phi1) * np.size(phi2))
        return evaluate(a, theta, phi1, phi2, partials)

    monkeypatch.setattr(topology, "eval_hopf_grid", counted)
    topology.chern_s3(s3_representative(2)[0], theta_nodes, phi_nodes)
    assert sum(points) == 9 * theta_nodes * phi_nodes ** 2


def test_traced_default_quadrature_counts_the_points_it_evaluates():
    # su2^2 has degree 2: its default nodes are 4 x 13^2, refined at 8 x 26^2,
    # 9 * 4 * 13^2 points in all; eval_hopf_grid also samples the margin
    # gate's grid and, on the same grid size, the one unitarity check
    a = su2_power(2)
    with spans.Tracer() as tracer:
        assert topology.topological_index(a).resolution == (4, 13)
    nodes = tracer.layers["topology.chern_s3"].counts["quadrature_nodes"]
    points = tracer.layers["symbols.eval_hopf_grid"].counts["points"]
    assert nodes == 9 * 4 * 13 ** 2 == 6084
    assert points - margin_grid_size(a) ** 3 - margin_grid_size(a) ** 3 == nodes


@pytest.mark.parametrize("m, call", [
    ("s1", lambda: hardy_s1.analytic_index_s1(z_power(2), trunc=8)),
    ("s3", lambda: hardy_s3.analytic_index_s3(su2_symbol(), sizes=(4, 8))),
], ids=["s1", "s3"])
def test_tracer_sees_the_programs_own_calls(m, call):
    # the wrappers must reach the builder, the gate and the stabilizer through
    # names the tracer rebinds; one bound at import time would go uncounted
    with spans.Tracer() as tracer:
        call()
    layers = tracer.layers
    assert layers[f"hardy_{m}.analytic_index_{m}"].calls == 1
    assert layers["symbols.require_invertible"].calls == 1
    stabilize = layers["kernel.stabilized_kernel_dim"]
    assert stabilize.calls == 2
    assert (stabilize.counts["svd_count"], stabilize.counts["residual_checks"]) == (4, 1)
    # kernel and cokernel at both sizes, and one residual check for the cokernel
    assert layers[f"hardy_{m}.toeplitz_rect_{m}"].calls == 5


def test_every_workload_builds_its_cases():
    # building imports and binds every program name the workloads use; the
    # cases themselves are not run
    workloads = _load_perfbench("workloads")
    for workload in workloads.WORKLOADS:
        assert len(workloads.build(workload, 0, "tiny")) >= 1, workload


def test_every_tiny_case_passes_under_the_tracer():
    # a hook that cannot read a call's arguments (chern_s3 called with its
    # default node counts) fails the traced case, which perfbench/tests
    # would otherwise be the first to show
    workloads = _load_perfbench("workloads")
    failures = []
    with spans.Tracer():
        for workload in workloads.WORKLOADS:
            for case in workloads.build(workload, 0, "tiny"):
                _, failure, _ = workloads.run_case(case, time.perf_counter)
                if failure is not None:
                    failures.append((workload, case.label, failure))
    assert failures == []
