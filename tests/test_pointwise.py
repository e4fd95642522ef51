"""Points-last pointwise algebra of the S3 quadrature against the point-stack references.

eval_hopf_grid evaluates by frequency into (r, r, nt, n1, n2) buffers, and
the S3 Chern quadrature multiplies (r, r, N) stacks with pointwise_matmul and
inverts them with pointwise_inverse, one diagonal block of the symbol at a
time, in batches of theta nodes over one workspace per block.  The
per-term evaluation into (nt, n1, n2, r, r) arrays and the stacked-@
quadrature over the whole symbol, with LAPACK inverses, are kept here as
references.  Summing by frequency pair changes the order of the sum,
so the grid agrees with the per-term loop and with the one-point oracles to
1e-13 of each field's largest modulus, not bit for bit; the value alone
equals the value of the partials call exactly.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitz_lab import symbols, topology
from toeplitz_lab.errors import SymbolError
from toeplitz_lab.families import (constant_sandwich, haar_unitary, s3_representative,
                                   su2_power, su2_symbol, z_power)
from toeplitz_lab.reports import convergence_table
from toeplitz_lab.symbols import (S3, UNITARY_TOL, Symbol, constant, direct_sum, eval_hopf_grid,
                                  margin_grid_size, multiply, pointwise_inverse,
                                  pointwise_matmul)
from toeplitz_lab.topology import (S3_ORIENTATION_SIGN, THETA_CHUNK, _chern_s3_raw,
                                   _diagonal_blocks, topological_index)

from oracles import HopfPoint, evaluate, flat_index_inverse, hopf_partials

MS = range(-3, 4)


def loop_eval_hopf_grid(a, theta, phi1, phi2):
    """Per-term evaluation into point-major (nt, n1, n2, r, r) arrays, with partials."""
    ct, st = np.cos(theta), np.sin(theta)
    shape = (theta.size, phi1.size, phi2.size, a.rank, a.rank)
    val, dth, dp1, dp2 = (np.zeros(shape, dtype=complex) for _ in range(4))
    for (p, q, s, t), c in a.terms.items():
        radial = ct ** (p + s) * st ** (q + t)
        phase = (np.exp(1j * (p - s) * phi1)[:, None]
                 * np.exp(1j * (q - t) * phi2)[None, :])
        base = radial[:, None, None] * phase[None, :, :]
        val += base[..., None, None] * c
        drad = np.zeros_like(radial)
        if p + s > 0:
            drad += (p + s) * ct ** (p + s - 1) * (-st) * st ** (q + t)
        if q + t > 0:
            drad += (q + t) * st ** (q + t - 1) * ct * ct ** (p + s)
        dth += (drad[:, None, None] * phase[None, :, :])[..., None, None] * c
        dp1 += (1j * (p - s)) * base[..., None, None] * c
        dp2 += (1j * (q - t)) * base[..., None, None] * c
    return val, dth, dp1, dp2


def chern_s3_raw(a, theta_nodes, phi_nodes, unitary):
    """topology._chern_s3_raw on a's diagonal blocks, split as chern_ladder splits a."""
    return _chern_s3_raw(_diagonal_blocks(a), theta_nodes, phi_nodes, unitary)


def stacked_chern_s3_raw(a, theta_nodes, phi_nodes, unitary):
    """The S3 Chern quadrature with numpy's stacked @ on (N, r, r) point stacks."""
    # Gauss-Legendre in t = cos 2 theta: theta_k = arccos(t_k) / 2, weight w_k / (2 sin 2 theta_k)
    nodes, weights = np.polynomial.legendre.leggauss(theta_nodes)
    theta = np.arccos(nodes) / 2
    w_theta = weights / (2 * np.sin(2 * theta))
    phi = np.arange(phi_nodes) * (2 * np.pi / phi_nodes)
    r = a.rank
    total = 0.0 + 0.0j
    for start in range(0, theta_nodes, THETA_CHUNK):
        th = theta[start:start + THETA_CHUNK]
        wt = w_theta[start:start + THETA_CHUNK]
        val, dth, dp1, dp2 = loop_eval_hopf_grid(a, th, phi, phi)
        flat = val.reshape(-1, r, r)
        inv = np.conj(np.swapaxes(flat, -1, -2)) if unitary else np.linalg.inv(flat)
        a_th = inv @ dth.reshape(-1, r, r)
        a_p1 = inv @ dp1.reshape(-1, r, r)
        a_p2 = inv @ dp2.reshape(-1, r, r)
        comm = a_p1 @ a_p2 - a_p2 @ a_p1
        integrand = 3.0 * np.einsum('nij,nji->n', a_th, comm)
        integrand = integrand.reshape(th.size, phi_nodes, phi_nodes)
        total += np.einsum('t,tab->', wt, integrand)
    total *= (2 * np.pi / phi_nodes) ** 2
    return complex(S3_ORIENTATION_SIGN * total / (24 * np.pi ** 2))


def sandwich(m):
    return constant_sandwich(s3_representative(m)[0], np.random.default_rng(100 + m))


def hopf_axes(nt, n1, n2):
    return (np.linspace(0.05, np.pi / 2 - 0.05, nt),
            np.arange(n1) * (2 * np.pi / n1), np.arange(n2) * (2 * np.pi / n2) + 0.3)


def assert_fields_agree(got, want):
    """Each field within 1e-13 times the largest modulus of the reference's field."""
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


@pytest.mark.parametrize("m", MS)
def test_evaluation_equals_the_per_term_reference(m):
    axes = hopf_axes(5, 6, 7)
    for a in (s3_representative(m)[0], sandwich(m)):
        got = eval_hopf_grid(a, *axes, partials=True)
        assert_fields_agree(got, loop_eval_hopf_grid(a, *axes))
        assert np.array_equal(eval_hopf_grid(a, *axes), got[0])
        # with its plan kept, a evaluates as a fresh equal symbol does
        assert a._plan is not None
        kept = eval_hopf_grid(a, *axes, partials=True)
        fresh = eval_hopf_grid(Symbol(S3, a.terms), *axes, partials=True)
        assert all(map(np.array_equal, kept, fresh))


def su2_product(powers, rng):
    """su2^k1 V1 su2^k2 V2 ... over powers, with Haar-random constant unitaries V between."""
    a = su2_power(powers[0])
    for k in powers[1:]:
        a = multiply(a, multiply(constant(S3, haar_unitary(rng, 2)), su2_power(k)))
    return a


DENSE = su2_product((5, -3), np.random.default_rng(8))  # 92 terms of total degree 8


@st.composite
def dense_symbols(draw):
    """Products of su2 powers of total degree at most 8, half of them constant sandwiches."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    powers = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=3)
                  .filter(lambda ks: sum(map(abs, ks)) <= 8))
    a = su2_product(powers, rng)
    return constant_sandwich(a, rng) if draw(st.booleans()) else a


@settings(max_examples=30, deadline=None)
@given(a=dense_symbols(), seed=st.integers(0, 2 ** 32 - 1))
@example(a=DENSE, seed=0)
@example(a=constant_sandwich(DENSE, np.random.default_rng(9)), seed=1)
def test_evaluation_matches_the_point_oracles(a, seed):
    rng = np.random.default_rng(seed)
    axes = (rng.uniform(0, np.pi / 2, 2), rng.uniform(0, 2 * np.pi, 3),
            rng.uniform(0, 2 * np.pi, 4))
    got = eval_hopf_grid(a, *axes, partials=True)
    want = np.empty((4,) + got[0].shape, dtype=complex)
    for i, j, k in np.ndindex(got[0].shape[:3]):
        point = HopfPoint(axes[0][i], axes[1][j], axes[2][k])
        want[:, i, j, k] = (evaluate(a, point), *hopf_partials(a, point))
    assert_fields_agree(got, want)


def test_the_dense_product_certifies_its_index():
    assert len(DENSE.terms) == 92 and DENSE.total_degree == 8
    assert topological_index(DENSE).rounded == -2


def test_evaluation_returns_views_of_points_last_buffers():
    val = eval_hopf_grid(su2_symbol(), *hopf_axes(3, 4, 5))
    assert val.shape == (3, 4, 5, 2, 2)
    assert np.moveaxis(val, (3, 4), (0, 1)).flags.c_contiguous


@pytest.mark.parametrize("theta_nodes", [4, 12, 20])
@pytest.mark.parametrize("m", MS)
def test_raw_chern_agrees_with_the_stacked_reference(m, theta_nodes):
    rep = s3_representative(m)[0]
    cases = [(rep, True), (rep, False), (sandwich(m), False)]
    for a, unitary in cases:
        got = chern_s3_raw(a, theta_nodes, 8, unitary)
        want = stacked_chern_s3_raw(a, theta_nodes, 8, unitary)
        assert abs(got - want) <= 1e-12, (m, theta_nodes, unitary, got, want)


def test_singular_node_raises_symbol_error():
    # the one Gauss-Legendre theta node is pi/4; z1 - cos(pi/4) vanishes there at phi1 = 0
    a = Symbol(S3, {(1, 0, 0, 0): [[1.0]], (0, 0, 0, 0): [[-np.cos(np.pi / 4)]]})
    with pytest.raises(SymbolError, match="singular at a quadrature node"):
        chern_s3_raw(a, 1, 4, unitary=False)


def test_pointwise_matmul_matches_stacked_matmul():
    rng = np.random.default_rng(5)
    for r, k, s in ((1, 1, 1), (2, 3, 4), (4, 4, 4)):
        a = rng.standard_normal((r, k, 17)) + 1j * rng.standard_normal((r, k, 17))
        b = rng.standard_normal((k, s, 17)) + 1j * rng.standard_normal((k, s, 17))
        want = np.moveaxis(np.moveaxis(a, -1, 0) @ np.moveaxis(b, -1, 0), 0, -1)
        assert np.allclose(pointwise_matmul(a, b), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("a", [su2_symbol(), s3_representative(3)[0], sandwich(-2),
                               z_power(3, rank=2), constant_sandwich(z_power(-2, rank=2),
                                                                     np.random.default_rng(4))],
                         ids=["su2", "m=3", "sandwich(m=-2)", "z^3 rank 2", "sandwich(z^-2)"])
def test_unitarity_defect_matches_the_stacked_gram(a):
    # the defect the symbol keeps beside its margin, filled by its one sample
    vals = a.manifold.sample(a, margin_grid_size(a))
    gram = np.conj(np.swapaxes(vals, -1, -2)) @ vals
    want = float(np.max(np.abs(gram - np.eye(a.rank))))
    assert a.unitary is (want <= UNITARY_TOL)
    assert abs(a._defect - want) <= 1e-14 * max(1.0, want)


def test_quadrature_peak_memory_stays_within_the_stacked_path():
    # the stacked-@ path peaked at 64.1 MiB on m = 3, and fresh arrays for
    # every 8-node chunk at 10.7 MiB on either call; the batches' one
    # workspace per block peaks near 3.3 MiB, and a larger batch or a
    # leftover temporary would show as a larger traced peak
    chern_s3_raw(su2_symbol(), 4, 4, unitary=True)  # first-call allocations outside
    for quadrature in (lambda: chern_s3_raw(s3_representative(3)[0], 48, 48, unitary=True),
                       lambda: convergence_table(su2_power(2), theta_nodes=12, phi_nodes=12)):
        tracemalloc.start()
        try:
            quadrature()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20, peak / 2 ** 20


def random_stack(rng, r, n):
    """(r, r, n) stack whose column-0 pivot is row 0 at even points and moves at odd ones.

    Above rank 1 the odd points' leading entry is exactly zero, so an
    elimination that does not pivot there fails.
    """
    a = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    a[0::2, 0, 0] = 10.0
    a[1::2, 0, 0] = 0.0 if r > 1 else 0.1
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


@pytest.mark.parametrize("r", range(1, 7))
def test_pointwise_inverse_matches_lapack(r):
    a = random_stack(np.random.default_rng(r), r, 101)
    pivots = np.argmax(np.abs(a[:, 0]), axis=0)
    if r > 1:
        assert np.any(pivots == 0) and np.any(pivots != 0)
    want = np.moveaxis(np.linalg.inv(np.moveaxis(a, -1, 0)), 0, -1)
    got = pointwise_inverse(a)
    assert got.shape == a.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("r", [3, 4])
def test_masked_pivot_swaps_match_the_flat_index_swaps_bit_for_bit(r):
    # Gaussian stacks over enough points that every elimination step takes
    # its pivot from every candidate row somewhere
    rng = np.random.default_rng(30 + r)
    a = rng.standard_normal((r, r, 400)) + 1j * rng.standard_normal((r, r, 400))
    pivots = []
    want = flat_index_inverse(a, pivots)
    for k, pivot in enumerate(pivots):
        assert set(pivot.tolist()) == set(range(r - k)), k
    assert np.array_equal(pointwise_inverse(a), want)
    out = np.full_like(a, np.nan)
    assert pointwise_inverse(a, out=out) is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("singular", [[[0.0]], [[1.0, 0.0], [2.0, 0.0]],
                                      [[1.0, 2.0], [2.0, 4.0]]],
                         ids=["zero", "zero column", "dependent rows"])
def test_pointwise_inverse_raises_on_a_zero_pivot(singular):
    r = len(singular)
    a = random_stack(np.random.default_rng(7), r, 9)
    a[:, :, 4] = singular
    with pytest.raises(SymbolError, match="singular"):
        pointwise_inverse(a)


def permutation(rank, order):
    return constant(S3, np.eye(rank)[list(order)])


@pytest.mark.parametrize("unitary", [True, False])
def test_quadrature_of_a_permuted_direct_sum_is_the_sum_of_its_blocks(unitary):
    blocks = ((su2_power(-2), su2_symbol()) if unitary
              else (sandwich(2), constant_sandwich(su2_symbol(), np.random.default_rng(3))))
    a = multiply(permutation(4, (2, 0, 3, 1)),
                 multiply(direct_sum(*blocks), permutation(4, (1, 3, 0, 2))))
    got = chern_s3_raw(a, 12, 8, unitary)
    parts = sum(chern_s3_raw(b, 12, 8, unitary) for b in blocks)
    assert abs(got - parts) <= 1e-12, (got, parts)
    want = stacked_chern_s3_raw(a, 12, 8, unitary)
    assert abs(got - want) <= 1e-12, (got, want)
    assert abs(got - 1.0) < 1e-6


@pytest.mark.parametrize("terms", [
    {(1, 0, 0, 0): [[1, 0], [0, 0]], (0, 1, 0, 0): [[0, 1], [0, 0]]},
    {(1, 0, 0, 0): [[1, 0], [1, 0]], (0, 0, 1, 0): [[0, 0], [1, 0]]},
], ids=["zero row", "zero column"])
def test_symbol_with_a_zero_row_or_column_is_singular(terms):
    with pytest.raises(SymbolError, match="singular at a quadrature node"):
        chern_s3_raw(Symbol(S3, terms), 4, 4, unitary=False)


def test_chern_s3_evaluates_one_grid_per_block(monkeypatch):
    # s3_representative(3) is su2^-2 + su2^-1: two rank-2 blocks, so twice the
    # 9 t p^2 points of the value at (t, p) and the refinement at (2t, 2p)
    a, b = s3_representative(3)[0], su2_power(2)
    points, plans = [], []
    evaluate, plan = topology.eval_hopf_grid, symbols._hopf_plan
    monkeypatch.setattr(symbols, "_hopf_plan", lambda a: plans.append(a) or plan(a))

    def counted(a, theta, phi1, phi2, partials=False, **kwargs):
        points.append(np.size(theta) * np.size(phi1) * np.size(phi2))
        return evaluate(a, theta, phi1, phi2, partials, **kwargs)

    monkeypatch.setattr(topology, "eval_hopf_grid", counted)
    theta_nodes, phi_nodes = 12, 8
    topology.chern_s3(a, theta_nodes, phi_nodes)
    assert sum(points) == 2 * 9 * theta_nodes * phi_nodes ** 2
    # one plan for a's sample, then one per block: the ladder splits a once,
    # and both rungs evaluate the same blocks
    assert len(plans) == 1 + 2 and plans[0] is a
    # a symbol that does not split plans once for its sample, both rungs and
    # every batch: 4 theta nodes in one batch, then 8 in batches of 6 and 2
    points.clear()
    plans.clear()
    topological_index(b)
    assert len(points) == 3 and len(plans) == 1 and plans[0] is b


def test_inverse_path_peak_memory_stays_within_the_lapack_path():
    # the LAPACK inverse path peaked at 45.6 MiB here, an augmented (r, 2r, N)
    # elimination buffer at 50.1 MiB and fresh arrays for every 8-node chunk
    # at 41.1 MiB; one-node batches over one workspace peak near 7.1 MiB
    a = constant_sandwich(s3_representative(3)[0], np.random.default_rng(0))
    chern_s3_raw(a, 4, 4, unitary=False)  # first-call allocations outside the measurement
    tracemalloc.start()
    try:
        chern_s3_raw(a, 48, 48, unitary=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("a", [su2_power(2), su2_power(5), sandwich(3)],
                         ids=["su2^2", "su2^5", "rank-4 sandwich"])
def test_batches_of_theta_nodes_leave_the_quadrature_bit_identical(monkeypatch, a):
    # every point's integrand is the same arithmetic in a batch of any size,
    # and each THETA_CHUNK block is summed as one; 10 nodes end on a short
    # batch (8 + 2 at batch 4)
    sizes = []
    evaluate = topology.eval_hopf_grid

    def counted(a, theta, phi1, phi2, partials=False, **kwargs):
        sizes.append(np.size(theta))
        return evaluate(a, theta, phi1, phi2, partials, **kwargs)

    monkeypatch.setattr(topology, "eval_hopf_grid", counted)
    theta_nodes, phi_nodes = 10, 12
    values, batches = [], {1: [1] * 10, 2: [2] * 5, 4: [4, 4, 2], 8: [8, 2]}
    for batch, expected in batches.items():
        monkeypatch.setattr(topology, "CHUNK_ENTRIES", batch * a.rank ** 2 * phi_nodes ** 2)
        sizes.clear()
        values.append(chern_s3_raw(a, theta_nodes, phi_nodes, a.unitary))
        assert sizes == expected, (batch, sizes)
    assert all(v == values[0] for v in values), values


def test_evaluation_writes_into_the_given_buffers():
    a, axes = sandwich(2), hopf_axes(3, 4, 5)
    want = eval_hopf_grid(a, *axes, partials=True)
    out = np.full((4, a.rank, a.rank, 3, 4, 5), np.nan, dtype=complex)
    got = eval_hopf_grid(a, *axes, partials=True, out=out)
    for g, w, buffer in zip(got, want, out, strict=True):
        assert np.shares_memory(g, buffer) and np.array_equal(g, w)
    # a strided destination would be reshaped into a copy, losing the product
    with pytest.raises(ValueError, match="C-contiguous"):
        eval_hopf_grid(a, *axes, out=out[0].transpose(1, 0, 2, 3, 4))
