"""The benchmark's traced call sites exist and take the parameters its hooks bind.

perfbench/spans.py wraps program functions by module and attribute name; a
rename there would only show when the traced benchmark runs.
"""
import importlib
import importlib.util
import inspect
import os
import sys

import numpy as np
import pytest

from toeplitz_lab import kernel, topology
from toeplitz_lab.families import s3_representative, su2_symbol, z_power
from toeplitz_lab.hardy_s1 import toeplitz_rect_s1
from toeplitz_lab.hardy_s3 import toeplitz_rect_s3

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")

# (module, attribute) -> parameters its hook in spans.py reads from the call
HOOK_PARAMETERS = {
    ("toeplitz_lab.kernel", "stabilized_kernel_dim"): {"builder", "sizes"},
    ("toeplitz_lab.topology", "chern_s3"): {"theta_nodes", "phi_nodes"},
    ("toeplitz_lab.symbols", "eval_hopf_grid"): {"theta", "phi1", "phi2"},
}


def _load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.TARGETS


TARGETS = _load_targets()


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
