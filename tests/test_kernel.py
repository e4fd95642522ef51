"""Kernel engine: SVD dimension counting, stabilization, residual validation."""
import ctypes
import functools
import os
import re
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from toeplitz_lab import blas, cli, kernel, symbols, topology
from toeplitz_lab.errors import ResidualFailureError, UnstabilizedError
from toeplitz_lab.families import (constant_sandwich, homotopy_path,
                                   random_matrix_symbol, random_scalar_symbol,
                                   s3_representative, su2_symbol, z_power)
from toeplitz_lab.hardy_s1 import analytic_index_s1, toeplitz_rect_s1
from toeplitz_lab.hardy_s3 import analytic_index_s3, toeplitz_rect_s3
from toeplitz_lab.kernel import (DEFAULT_TOL, _blocks, _connected_components,
                                 _svd_split, stabilized_kernel_dim)
from toeplitz_lab.symbol_io import load_symbol
from toeplitz_lab.symbols import (S1, Symbol, adjoint, direct_sum, identity,
                                  multiply)

from oracles import entries, kernel_dim


def shift_matrix(n, rows=None):
    """Rectangular forward shift: e_i -> e_{i+1}; exact model of T_z, by its entries."""
    rows = n + 1 if rows is None else rows
    m = np.zeros((rows, n), dtype=complex)
    for i in range(min(n, rows - 1)):
        m[i + 1, i] = 1.0
    return entries(m)


@pytest.fixture
def vector_svd_shapes(monkeypatch):
    """Shapes of the stacks whose singular vectors kernel.py takes.

    Only a split's kernel_basis() takes vectors: np.linalg.svd with vectors
    records its stack of the blocks that have a kernel, and the bidiagonal
    path records its one block, as a stack of one, when it forms the block's
    kernel vectors.  Values-only SVDs record nothing.
    """
    svd, bidiagonal_kernel = np.linalg.svd, kernel._bidiagonal_kernel
    shapes = []

    def counted_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counted_bidiagonal_kernel(lapacke, reduction, k):
        shapes.append((1,) + reduction[0].shape)
        return bidiagonal_kernel(lapacke, reduction, k)

    monkeypatch.setattr(kernel.np.linalg, "svd", counted_svd)
    monkeypatch.setattr(kernel, "_bidiagonal_kernel", counted_bidiagonal_kernel)
    return shapes


class TestKernelDim:
    def test_full_rank(self):
        assert kernel_dim(np.eye(5)) == 0

    def test_exact_deficiency(self):
        m = np.diag([1.0, 2.0, 0.0, 3.0])
        assert kernel_dim(m) == 1

    def test_zero_matrix_kernel_is_everything(self):
        assert kernel_dim(np.zeros((3, 4))) == 4

    def test_wide_block_counts_missing_columns(self):
        m = np.hstack([np.eye(2), np.zeros((2, 3))])
        assert kernel_dim(m) == 3

    def test_relative_threshold(self):
        m = np.diag([1e6, 1.0])
        # 1.0 <= 1e-8 * 1e6 is false: full rank despite the scale spread
        assert kernel_dim(m) == 0
        assert kernel_dim(np.diag([1e6, 1e-4])) == 1

    def test_block_additivity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4))
        a[:, 0] = a[:, 1]  # one exact deficiency
        b = np.diag([1.0, 0.0, 2.0])
        block = np.block([[a, np.zeros((6, 3))], [np.zeros((3, 4)), b]])
        assert kernel_dim(block) == kernel_dim(a) + kernel_dim(b)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        m = np.diag([1.0, 0.5, 0.0, 0.0])
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert kernel_dim(q1 @ m @ q2) == kernel_dim(m)


class TestStabilized:
    def test_clean_zero_kernel(self):
        report = stabilized_kernel_dim(shift_matrix, (8, 16))
        assert report.dim == 0
        assert report.dims == (0, 0)
        assert report.residual == 0.0
        assert report.spectral_gap == np.inf

    def test_clean_positive_kernel(self):
        # backward shift kills exactly the lowest basis vector at every size
        def builder(n):
            return entries(shift_matrix(n).matrix.T)

        report = stabilized_kernel_dim(builder, (8, 16))
        assert report.dim == 1
        assert report.residual <= 1e-12

    def test_disagreeing_dims_raise(self, vector_svd_shapes):
        # the dims disagree, so no size forms kernel vectors and no residual
        # truncation is built
        built = []

        def builder(n):
            built.append(n)
            d = np.ones(n)
            if n >= 8:
                d[-1] = 0.0
            return entries(np.diag(d))

        message = "kernel dimension does not stabilize across sizes (4, 8): got [0, 1]"
        with pytest.raises(UnstabilizedError, match=f"^{re.escape(message)}$"):
            stabilized_kernel_dim(builder, (4, 8))
        assert built == [4, 8]
        assert vector_svd_shapes == []

    def test_square_truncation_artifact_caught_by_residual(self):
        # The classic trap: square truncations of the forward shift have a
        # spurious kernel vector (the last basis vector) at every size.  The
        # sizes agree, so only the exact-operator residual check can object.
        def square(n):
            return shift_matrix(n, rows=n)

        with pytest.raises(ResidualFailureError, match="residual"):
            stabilized_kernel_dim(square, (8, 16))

    @pytest.mark.parametrize("tols", [
        {"residual_tol": float("nan")}, {"residual_tol": float("inf")},
        {"residual_tol": -1e-6}, {"tol": float("nan")}, {"tol": -1.0},
        {"tol": float("inf")},
    ], ids=repr)
    def test_tolerances_that_switch_a_check_off_are_rejected(self, tols):
        # residual > nan is false: a NaN bound would accept the square
        # truncation's spurious kernel vector, whose residual is 1.0
        def square(n):
            return shift_matrix(n, rows=n)

        with pytest.raises(ValueError, match="must be finite and non-negative"):
            stabilized_kernel_dim(square, (8, 16), **tols)

    def test_unit_tolerance_is_accepted(self):
        # tol = 1 counts every singular value as zero, so the dimension is
        # the column count and cannot stabilize: a legal bound whose failure
        # the verify suite's fault injection relies on
        with pytest.raises(UnstabilizedError, match=r"got \[8, 16\]"):
            stabilized_kernel_dim(shift_matrix, (8, 16), tol=1.0)

    def test_narrow_spectral_gap_warns(self):
        def builder(n):
            d = np.ones(n)
            d[5], d[6] = 1e-9, 5e-7
            return entries(np.diag(d))

        with pytest.warns(RuntimeWarning, match="spectral gap"):
            report = stabilized_kernel_dim(builder, (10, 14))
        assert report.dim == 1
        assert report.spectral_gap == pytest.approx(500.0)

    def test_sizes_validation(self):
        with pytest.raises(ValueError):
            stabilized_kernel_dim(shift_matrix, (8,))
        with pytest.raises(ValueError):
            stabilized_kernel_dim(shift_matrix, (8, 8))
        with pytest.raises(ValueError):
            stabilized_kernel_dim(shift_matrix, (16, 8))

    def test_report_carries_top_size_evidence(self):
        report = stabilized_kernel_dim(shift_matrix, (4, 6))
        assert report.sizes == (4, 6)
        assert report.singular_values.shape == (6,)


def up_shift(k):
    """Image-exact truncation family for the k-step forward shift (k >= 0)."""
    def builder(n):
        m = np.zeros((n + k, n), dtype=complex)
        for i in range(n):
            m[i + k, i] = 1.0
        return entries(m)
    return builder


def down_shift(k):
    """Image-exact truncation family for the k-step backward shift (k >= 0)."""
    def builder(n):
        m = np.zeros((n, n), dtype=complex)
        for i in range(n - k):
            m[i, i + k] = 1.0
        return entries(m)
    return builder


def shift_model_dims(ker_builder, coker_builder):
    """(dim ker, dim coker) of a shift model, each family stabilized over sizes 8 and 16.

    These are the two dimensions analytic_index_from_truncations stabilizes
    and subtracts.
    """
    ker = stabilized_kernel_dim(ker_builder, (8, 16), label="kernel")
    coker = stabilized_kernel_dim(coker_builder, (8, 16), label="cokernel")
    return ker.dim, coker.dim


class TestAnalyticIndexAssembly:
    def test_two_step_shift_model(self):
        # forward shift by 2: trivial kernel; its adjoint (backward shift by
        # 2) annihilates the first two basis vectors, so coker dim is 2
        assert shift_model_dims(up_shift(2), down_shift(2)) == (0, 2)

    def test_opposite_orientation(self):
        assert shift_model_dims(down_shift(3), up_shift(3)) == (3, 0)

    def test_identity_model(self):
        assert shift_model_dims(up_shift(0), down_shift(0)) == (0, 0)


def dense_svd_split(t, tol):
    """Reference: one dense SVD of the whole matrix, as before the block split.

    Takes what _svd_split takes, a truncation's Entries, and densifies it.
    """
    m = t.matrix
    rows, cols = m.shape
    u, sigma, vh = np.linalg.svd(m, full_matrices=True)
    if sigma.size == 0 or sigma[0] == 0.0:
        return cols, sigma, np.inf, lambda: np.eye(cols, dtype=complex)
    thresh = tol * sigma[0]
    small = sigma <= thresh
    dim = int(np.count_nonzero(small)) + (cols - sigma.size)
    basis = vh.conj().T[:, cols - dim:] if dim > 0 else np.zeros((cols, 0), dtype=complex)
    kept = sigma[~small]
    rejected = sigma[small]
    if dim == 0 or rejected.size == 0 or rejected[0] == 0.0:
        gap = np.inf
    else:
        gap = float(kept[-1] / rejected[0]) if kept.size else np.inf
    return dim, sigma, gap, lambda: basis


def gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def permuted_blocks(rng, blocks, zero_rows=0, zero_cols=0):
    """Block-diagonal matrix of the given blocks plus zero rows and columns,
    with rows and columns randomly permuted."""
    rows = sum(b.shape[0] for b in blocks) + zero_rows
    cols = sum(b.shape[1] for b in blocks) + zero_cols
    m = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        m[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return m[rng.permutation(rows)][:, rng.permutation(cols)]


def low_rank(rng, rows, cols, rank):
    return gaussian(rng, rows, rank) @ gaussian(rng, rank, cols)


def with_singular_values(rng, values):
    q1, _ = np.linalg.qr(gaussian(rng, len(values), len(values)))
    q2, _ = np.linalg.qr(gaussian(rng, len(values), len(values)))
    return q1 @ np.diag(values) @ q2


# name -> (blocks as (rows, cols, rank), zero rows, zero columns)
BLOCK_CASES = {
    "rank_deficient": ([(6, 4, 3), (5, 5, 2), (3, 3, 3), (4, 2, 1)], 0, 0),
    "wide": ([(2, 5, 2), (3, 7, 2), (1, 3, 1), (4, 4, 4)], 0, 0),
    "zero_rows_and_columns": ([(5, 4, 4), (3, 3, 2)], 3, 2),
    "one_component": ([(9, 7, 5)], 0, 0),
    "zero_matrix": ([], 5, 4),
    "many_equal_shapes": ([(3, 3, 2)] * 20 + [(4, 2, 2)] * 10 + [(2, 3, 1)] * 5, 1, 1),
}


def block_case_matrix(case, seed):
    rng = np.random.default_rng(seed)
    shapes, zero_rows, zero_cols = BLOCK_CASES[case]
    return permuted_blocks(rng, [low_rank(rng, *shape) for shape in shapes],
                           zero_rows, zero_cols)


def assert_matches_dense(matrix, tol, vector_svd_shapes):
    t = entries(matrix)
    ref_dim, ref_sigma, ref_gap, ref_basis = dense_svd_split(t, tol)
    ref_basis = ref_basis()
    vector_svd_shapes.clear()
    dim, sigma, gap, kernel_basis = _svd_split(t, tol)
    # dimension, values and gap are read with no singular vector formed
    assert vector_svd_shapes == []
    assert dim == ref_dim
    assert sigma.shape == ref_sigma.shape
    scale = ref_sigma[0] if ref_sigma.size and ref_sigma[0] > 0 else 1.0
    assert np.max(np.abs(sigma - ref_sigma), initial=0.0) <= 1e-12 * scale
    if ref_gap < 1e12:
        assert gap == pytest.approx(ref_gap, rel=1e-9)
    else:
        assert gap >= 1e12
    basis = kernel_basis()
    assert basis.shape == (t.shape[1], dim)
    projector = basis @ basis.conj().T
    ref_projector = ref_basis @ ref_basis.conj().T
    assert np.max(np.abs(projector - ref_projector), initial=0.0) <= 1e-10
    return dim, gap


class TestBlockSplitAgainstDense:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_permuted_block_diagonal(self, case, seed, vector_svd_shapes):
        assert_matches_dense(block_case_matrix(case, seed), DEFAULT_TOL, vector_svd_shapes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_threshold_is_taken_across_blocks(self, seed, vector_svd_shapes):
        # every singular value of the small block lies below tol times the
        # large block's sigma_max, though none is small against its own
        # block's: all four count as kernel, and the gap spans the blocks
        rng = np.random.default_rng(seed)
        large = with_singular_values(rng, [1.0, 0.9, 0.7, 0.6, 0.5])
        small = with_singular_values(rng, [5e-4, 3e-4, 2e-4, 1e-4])
        matrix = permuted_blocks(rng, [large, small, large])
        dim, gap = assert_matches_dense(matrix, 1e-3, vector_svd_shapes)
        assert dim == 4
        assert gap == pytest.approx(0.5 / 5e-4, rel=1e-9)


def unique_pairs_components(m):
    """Reference: _blocks' grouping of block shapes by np.unique over (rows, cols) pairs."""
    rows, cols = m.shape
    r, c = np.nonzero(m)
    graph = coo_array((np.ones(r.size), (r, rows + c)), shape=(rows + cols, rows + cols))
    count, labels = connected_components(graph, directed=False)
    row_label, col_label = labels[:rows], labels[rows:]
    row_order = np.argsort(row_label, kind="stable")
    col_order = np.argsort(col_label, kind="stable")
    n_rows = np.bincount(row_label, minlength=count)
    n_cols = np.bincount(col_label, minlength=count)
    row_start = np.cumsum(n_rows) - n_rows
    col_start = np.cumsum(n_cols) - n_cols
    shapes, group = np.unique(np.stack([n_rows, n_cols], axis=1), axis=0, return_inverse=True)
    for k, (nr, nc) in enumerate(shapes):
        blocks = np.flatnonzero(group == k)
        yield (row_order[row_start[blocks, None] + np.arange(nr)],
               col_order[col_start[blocks, None] + np.arange(nc)])


def s3_top_truncation(m):
    sym, sizes = s3_representative(m)
    return toeplitz_rect_s3(sym, sizes[-1])


# name -> Entries factory; truncations of one generic symbol
# (one component), of monomials (many) and of S3 weight-space symbols
# (hundreds of blocks)
COMPONENT_CASES = {
    **{name: lambda name=name: entries(block_case_matrix(name, seed=0)) for name in BLOCK_CASES},
    "s1_random_rank3": lambda: toeplitz_rect_s1(
        random_matrix_symbol(np.random.default_rng(7), rank=3)[0], 32),
    "s1_diag_z2_zm1": lambda: toeplitz_rect_s1(direct_sum(z_power(2), z_power(-1)), 16),
    "s3_m-3": lambda: s3_top_truncation(-3),
    "s3_m1": lambda: s3_top_truncation(1),
    "s3_m2": lambda: s3_top_truncation(2),
    "s3_sandwich_m2": lambda: toeplitz_rect_s3(
        constant_sandwich(s3_representative(2)[0], np.random.default_rng(7)), 8),
}


@pytest.mark.parametrize("case", sorted(COMPONENT_CASES))
def test_components_match_the_pairwise_grouping(case):
    # a truncation's own entries against the nonzero pattern of its matrix
    t = COMPONENT_CASES[case]()
    got = [(rows, cols) for rows, cols, _ in _blocks(t)]
    ref = list(unique_pairs_components(t.matrix))
    assert len(got) == len(ref)
    for (rows, cols), (ref_rows, ref_cols) in zip(got, ref):
        assert np.array_equal(rows, ref_rows) and rows.dtype == ref_rows.dtype
        assert np.array_equal(cols, ref_cols) and cols.dtype == ref_cols.dtype


SYMBOLS = os.path.join(os.path.dirname(__file__), os.pardir, "symbols")


def top_truncations():
    """(name, truncation) at the top default size of each shipped symbol, the
    representatives and a constant sandwich, for the symbol and its adjoint."""
    cases = []
    for name in sorted(os.listdir(SYMBOLS)):
        a = load_symbol(os.path.join(SYMBOLS, name))
        cases.append((name, a, toeplitz_rect_s1, 128) if a.manifold is S1
                     else (name, a, toeplitz_rect_s3, 16))
    for m in range(-3, 4):
        sym, sizes = s3_representative(m)
        cases.append((f"s3_m{m}", sym, toeplitz_rect_s3, sizes[-1]))
    cases.append(("s3_sandwich_m2", constant_sandwich(
        s3_representative(2)[0], np.random.default_rng(7)), toeplitz_rect_s3, 12))
    return [(f"{name}/{family}", lambda a=a, build=build, n=n, family=family: build(
        a if family == "ker" else adjoint(a), n))
        for name, a, build, n in cases for family in ("ker", "coker")]


TOP_TRUNCATIONS = top_truncations()


@pytest.mark.parametrize("name, truncation", TOP_TRUNCATIONS,
                         ids=[name for name, _ in TOP_TRUNCATIONS])
def test_the_split_of_the_entries_is_the_split_of_the_matrix(name, truncation):
    # the blocks are scattered from the entries into zero arrays: every
    # singular value is bit-equal to the split of the dense matrix
    t = truncation()
    dim, sigma, gap, _ = _svd_split(t, DEFAULT_TOL)
    ref_dim, ref_sigma, ref_gap, _ = _svd_split(entries(t.matrix), DEFAULT_TOL)
    assert (dim, gap) == (ref_dim, ref_gap)
    assert sigma.tobytes() == ref_sigma.tobytes()


def bipartite_graph(seed):
    """Edges row -> rows + col of a seeded random sparsity pattern, as _blocks builds them."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(k) for k in rng.integers(1, 60, size=2))
    r, c = np.nonzero(rng.uniform(size=(rows, cols)) < rng.uniform(0.0, 0.1))
    return rows + cols, r, rows + c


def permuted_path(n):
    order = np.random.default_rng(n).permutation(n)
    return n, order[:-1], order[1:]


NO_EDGES = np.zeros(0, dtype=np.intp)

# name -> (nodes, u, v)
GRAPH_CASES = {
    **{f"bipartite_{seed}": lambda seed=seed: bipartite_graph(seed) for seed in range(8)},
    "path_10k_permuted": lambda: permuted_path(10_000),
    "no_edges": lambda: (9, NO_EDGES, NO_EDGES),
    "no_nodes": lambda: (0, NO_EDGES, NO_EDGES),
    "isolated_nodes": lambda: (12, np.array([3, 5, 10]), np.array([5, 7, 3])),
}


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_connected_components_are_scipys(case):
    n, u, v = GRAPH_CASES[case]()
    count, labels = _connected_components(n, u, v)
    ref_count, ref_labels = connected_components(
        coo_array((np.ones(u.size), (u, v)), shape=(n, n)), directed=False)
    assert count == ref_count
    assert np.array_equal(labels, ref_labels)


def random_coefficients(rng, rank, scale):
    return scale * (rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank)))


def banded_family(rank, dominant):
    """Truncations of a generic three-term circle symbol whose `dominant` term wins.

    Every coefficient is dense and nonzero, so each truncation is one
    connected component.  A dominant z^0 term gives no kernel, a dominant
    z^-1 term a kernel of dimension rank.
    """
    rng = np.random.default_rng(rank)
    terms = {k: random_coefficients(rng, rank, 0.05) for k in (-1, 0, 1)}
    terms[dominant] = terms[dominant] + 3.0 * np.eye(rank)
    a = Symbol(S1, terms)
    return lambda n: toeplitz_rect_s1(a, n)


@pytest.mark.parametrize("dominant, dim", [(0, 0), (-1, 2)])
def test_vectors_are_taken_once_at_the_top_size_only_for_a_kernel(dominant, dim,
                                                                 vector_svd_shapes):
    builder = banded_family(2, dominant)
    report = stabilized_kernel_dim(builder, (16, 24, 32))
    assert report.dims == (dim, dim, dim)
    top = (1,) + builder(32).shape
    assert vector_svd_shapes == ([top] if dim else [])


has_lapacke = pytest.mark.skipif(blas._lapacke() is None,
                                 reason="numpy's OpenBLAS lacks the bidiagonal path's LAPACKE routines")


def generic_rank3():
    """A generic rank-3 circle symbol with both a kernel and a cokernel."""
    return random_matrix_symbol(np.random.default_rng(5), rank=3)[0]


@has_lapacke
def test_a_generic_index_takes_no_vector_svd_from_numpy(vector_svd_shapes, monkeypatch):
    svd = kernel.np.linalg.svd
    numpy_vectors = []

    def counted_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            numpy_vectors.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(kernel.np.linalg, "svd", counted_svd)
    result = analytic_index_s1(generic_rank3(), trunc=32)
    assert (result.ker_dim, result.coker_dim) == (4, 2)
    assert numpy_vectors == []
    # one bidiagonal extraction per family, at the top size
    assert [shape[2] for shape in vector_svd_shapes] == [192, 192]


def s1_identity_symbols():
    """(name, symbol) pairs drawn like the s1-identities loop, at every rank 1..3."""
    rng = np.random.default_rng(20261018)
    symbols = []
    for rank in (1, 2, 3):
        a, _ = random_matrix_symbol(rng, rank=rank)
        b, _ = random_matrix_symbol(rng, rank=rank)
        path = homotopy_path(a, rng)
        symbols += [(f"a{rank}", a), (f"a{rank}*", adjoint(a)), (f"a{rank}b{rank}", multiply(a, b)),
                    (f"a{rank}+I2", direct_sum(a, identity(S1, 2))),
                    (f"a{rank}(t=0.5)", path(0.5)), (f"a{rank}(t=1)", path(1.0))]
    return symbols


def split_kernel_path():
    """Homotopy path of the sixth rank-3 pair drawn as s1-identities draws seed 41.

    At the workload's t = 0, 7/9 and 1 its truncations at domain 64 have a
    kernel of dimension 7 with singular values from about 5e-16 down to
    7e-47, 1.5e-39 and 9e-38: the Golub-Kahan tridiagonal of such a block
    splits numerically, and at t = 7/9 inverse iteration that takes it as one
    block, fed the bidiagonal's own singular values, misses the kernel.
    """
    rng = np.random.default_rng(41)
    for _ in range(6):
        a, _ = random_matrix_symbol(rng, rank=3)
        random_matrix_symbol(rng, rank=3)
        path = homotopy_path(a, rng)
    return path


def duplicate_columns(rng, rows, cols, copies):
    """A Gaussian block whose last `copies` columns repeat earlier ones."""
    m = gaussian(rng, rows, cols)
    m[:, cols - copies:] = m[:, rng.integers(0, cols - copies, size=copies)]
    return m


# name -> (rows, cols, rank) of an exact low-rank tall block, k = cols - rank >= 8
LOW_RANK_BLOCKS = {"square_k8": (60, 60, 52), "tall_k24": (90, 64, 40),
                   "s1_sized_k92": (200, 192, 100)}

# name -> matrix factory: the top truncations of s1-identities-like index
# calls (trunc 32, so domain 64, for the symbol and its adjoint), truncations
# whose tridiagonal splits (k = 7), exact low-rank and duplicate-column tall
# blocks with k >= 8, and the permuted block cases, whose blocks include
# repeated zero singular values
BIDIAGONAL_CASES = {
    **{f"{name}/{family}": lambda a=a, family=family: toeplitz_rect_s1(
        a if family == "ker" else adjoint(a), 64).matrix
       for name, a in s1_identity_symbols() for family in ("ker", "coker")},
    **{f"split/t={t:.2f}/{family}": lambda t=t, family=family: toeplitz_rect_s1(
        split_kernel_path()(t) if family == "ker" else adjoint(split_kernel_path()(t)),
        64).matrix
       for t in np.linspace(0.0, 1.0, 10)[[0, 7, 9]] for family in ("ker", "coker")},
    **{f"low_rank/{name}/seed{seed}": lambda shape=shape, seed=seed: low_rank(
        np.random.default_rng(seed), *shape)
       for name, shape in LOW_RANK_BLOCKS.items() for seed in range(2)},
    **{f"duplicate_columns/seed{seed}": lambda seed=seed: duplicate_columns(
        np.random.default_rng(seed), 120, 96, 12) for seed in range(2)},
    **{f"{case}/seed{seed}": lambda case=case, seed=seed: block_case_matrix(case, seed)
       for case in sorted(BLOCK_CASES) for seed in range(3)},
}


def tall_single_blocks(m):
    """The blocks of m that are alone in their shape group and tall, as matrices."""
    for rows, cols, _ in _blocks(entries(m)):
        if rows.shape[0] == 1 and rows.shape[1] >= cols.shape[1] > 0:
            yield m[np.ix_(rows[0], cols[0])]


@has_lapacke
@pytest.mark.parametrize("case", BIDIAGONAL_CASES)
def test_bidiagonal_path_matches_dense_and_values_only(case):
    for block in tall_single_blocks(BIDIAGONAL_CASES[case]()):
        dim, sigma, _, kernel_basis = _svd_split(entries(block), DEFAULT_TOL)
        ref_dim, _, _, ref_basis = dense_svd_split(entries(block), DEFAULT_TOL)
        # on one BLAS thread, as the engine runs it: its rounding follows the count
        with blas.one_blas_thread():
            values = np.linalg.svd(block, compute_uv=False)
        assert dim == ref_dim
        rows, cols = block.shape
        # numpy's values-only SVD reduces to bidiagonal form directly below
        # zgesdd's crossover, and after a QR factorization from it on
        if rows < int(cols * 17 / 9):
            assert np.array_equal(sigma, values)
        else:
            assert np.max(np.abs(sigma - values)) <= 1e-12 * values[0]
        basis, ref_basis = kernel_basis(), ref_basis()
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(dim)), initial=0.0) <= 1e-12
        projector = basis @ basis.conj().T
        ref_projector = ref_basis @ ref_basis.conj().T
        assert np.max(np.abs(projector - ref_projector), initial=0.0) <= 1e-10


def test_bidiagonal_cases_reach_the_path_with_kernels():
    blocks = [block for factory in BIDIAGONAL_CASES.values()
              for block in tall_single_blocks(factory())]
    # the oracle above is not vacuous: most cases hold a tall single block,
    # many of those blocks have a kernel, and some a repeated zero singular
    # value, a kernel of dimension 8 or more, or a kernel whose values span
    # 20 orders of magnitude, so that the Golub-Kahan tridiagonal splits
    assert len(blocks) >= 2 * len(BIDIAGONAL_CASES) // 3
    dims = [kernel_dim(block) for block in blocks]
    assert sum(dim > 0 for dim in dims) >= len(blocks) // 3
    assert sum(dim >= 8 for dim in dims) >= 8
    sigmas = [np.linalg.svd(block, compute_uv=False) for block in blocks]
    assert any(np.count_nonzero(s <= 1e-12 * s[0]) >= 2 for s in sigmas)
    assert any(dim == 7 and s[-1] < 1e-20 * s[-dim] for dim, s in zip(dims, sigmas))


def assert_same_kernel_reports(report, ref, mixed_blocks=False):
    """Dims and sizes exactly, values to 1e-12 sigma_max, gap and residual by band.

    The bands are those of tests/test_behaviour_pins.py: digits below them
    follow the SVD's rounding, which differs between LAPACK paths.  A residual
    of 0.0 is in the band only with `mixed_blocks`, for a reference SVD that
    mixes the blocks: a kernel vector exact in one block split is
    rounding-level once another path mixes the blocks.
    """
    assert (report.dim, report.dims, report.sizes) == (ref.dim, ref.dims, ref.sizes)
    assert report.singular_values.shape == ref.singular_values.shape
    scale = ref.singular_values[0] if ref.singular_values.size else 1.0
    assert np.max(np.abs(report.singular_values - ref.singular_values),
                  initial=0.0) <= 1e-12 * scale
    for value, ref_value, rounding in (
            (report.spectral_gap, ref.spectral_gap, lambda gap: gap >= 1e12),
            (report.residual, ref.residual,
             lambda residual: (mixed_blocks or residual > 0.0) and residual <= 1e-12)):
        if rounding(ref_value):
            assert rounding(value)
        else:
            assert value == pytest.approx(ref_value, rel=1e-9)


def verify_like_cases():
    """(name, analytic_index call) pairs drawn like the verify suite's symbols."""
    rng = np.random.default_rng(20260816)
    cases = []
    for rank in (1, 2, 3):
        a, _ = random_matrix_symbol(rng, rank=rank)
        b, _ = random_matrix_symbol(rng, rank=rank)
        cases += [(f"a{rank}", a), (f"a{rank}*", adjoint(a)), (f"a{rank}b{rank}", multiply(a, b)),
                  (f"a{rank}+I2", direct_sum(a, identity(S1, 2)))]
        path = homotopy_path(a, rng)
        cases += [(f"a{rank}(t={t})", path(t)) for t in (0.5, 1.0)]
    runs = [(name, lambda a=a: analytic_index_s1(a, trunc=32)) for name, a in cases]
    runs += [(f"z^{m}", lambda m=m: analytic_index_s1(z_power(m), trunc=16))
             for m in range(-3, 4)]
    for k in range(4):
        f, _ = random_scalar_symbol(rng)
        runs.append((f"scalar{k}", lambda f=f: analytic_index_s1(f, trunc=64)))
    for m in range(-3, 4):
        sym, sizes = s3_representative(m)
        runs.append((f"s3_m{m}", lambda sym=sym, sizes=sizes: analytic_index_s3(sym, sizes=sizes)))
    return runs


VERIFY_LIKE = verify_like_cases()


# case name -> its analytic index with every SVD dense.  The s3_m* references
# serve two tests each and are the costly ones, so each is computed once.
DENSE_REFERENCES = {}


def assert_reports_match_dense(name, run, monkeypatch):
    result = run()
    if name not in DENSE_REFERENCES:
        with monkeypatch.context() as patch:
            # every SVD the stabilization takes goes dense, with vectors
            patch.setattr(kernel, "_svd_split", dense_svd_split)
            DENSE_REFERENCES[name] = run()
    reference = DENSE_REFERENCES[name]
    assert_same_kernel_reports(result.ker, reference.ker, mixed_blocks=True)
    assert_same_kernel_reports(result.coker, reference.coker, mixed_blocks=True)


@pytest.mark.parametrize("name, run", VERIFY_LIKE, ids=[name for name, _ in VERIFY_LIKE])
def test_reports_match_taking_vectors_at_every_size(name, run, monkeypatch):
    assert_reports_match_dense(name, run, monkeypatch)


@pytest.mark.parametrize("m", range(-3, 4))
def test_representative_kernel_reports_match_dense(m, monkeypatch):
    sym, sizes = s3_representative(m)
    # without the library a lone tall block takes the stacked SVD too
    monkeypatch.setattr(blas, "_OPENBLAS", None)
    assert blas._lapacke() is None
    assert_reports_match_dense(f"s3_m{m}", lambda: analytic_index_s3(sym, sizes=sizes),
                               monkeypatch)


@has_lapacke
@pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
def test_s3_vectors_are_formed_only_for_blocks_with_a_kernel(m, vector_svd_shapes, monkeypatch):
    sym, sizes = s3_representative(m)
    recorded, bidiagonal = kernel._bidiagonal_kernel, []

    def counted_bidiagonal_kernel(lapacke, reduction, k):
        bidiagonal.append(k)
        return recorded(lapacke, reduction, k)

    monkeypatch.setattr(kernel, "_bidiagonal_kernel", counted_bidiagonal_kernel)
    result = analytic_index_s3(sym, sizes=sizes)
    assert result.index == m
    # hundreds of weight-space blocks at the top size, and no stacked SVD with
    # vectors: for |m| = 1 the kernel vector is a zero column, written with no
    # decomposition; for |m| = 2 and 3 a lone 12 x 12 and a lone 13 x 13 block
    # hold one kernel vector each, on the bidiagonal path, and |m| = 3 has a
    # zero column besides
    want = [] if abs(m) == 1 else [(1, 12, 12), (1, 13, 13)]
    assert vector_svd_shapes == want
    assert bidiagonal == [1] * len(want)


@pytest.mark.parametrize("call, manifold", [
    (lambda: toeplitz_rect_s1(su2_symbol(), 4), "circle"),
    (lambda: analytic_index_s1(su2_symbol(), trunc=4), "circle"),
    (lambda: toeplitz_rect_s3(z_power(1), 4), "three-sphere"),
    (lambda: analytic_index_s3(z_power(1), trunc=4), "three-sphere"),
], ids=["toeplitz_rect_s1", "analytic_index_s1", "toeplitz_rect_s3", "analytic_index_s3"])
def test_wrong_manifold_symbol_is_a_value_error(call, manifold):
    with pytest.raises(ValueError, match=f"defined for {manifold} symbols only"):
        call()


needs_openblas = pytest.mark.skipif(blas._OPENBLAS is None,
                                    reason="numpy does not link its bundled OpenBLAS")


def blas_threads():
    return blas._OPENBLAS.scipy_openblas_get_num_threads64_()


@pytest.fixture
def caller_threads():
    """Set the caller's OpenBLAS thread count for one test, then restore it."""
    lib = blas._OPENBLAS
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib.scipy_openblas_set_num_threads64_
    lib.scipy_openblas_set_num_threads64_(before)


def z_minus(rho):
    return Symbol(S1, {0: -rho, 1: 1.0})


def dstevx_info_1(routine, *args):
    routine(*args)
    return 1  # eigenvectors failed to converge


def dstevx_one_short(routine, *args):
    info = routine(*args)
    ctypes.c_int64.from_address(args[11]).value -= 1  # m, the eigenpairs found
    return info


# name -> fake dstevx, called with the real routine and its arguments
DSTEVX_FAULTS = {"info 1": dstevx_info_1, "one short": dstevx_one_short}


def with_dstevx(fake, call):
    """call() with the bidiagonal path's dstevx replaced by fake(routine, *args)."""
    lapacke = blas._lapacke

    def faulty_lapacke():
        routines = lapacke()
        routines["dstevx"] = functools.partial(fake, routines["dstevx"])
        return routines

    blas._lapacke = faulty_lapacke
    try:
        return call()
    finally:
        blas._lapacke = lapacke


def nan_at_the_top(n):
    m = banded_family(2, -1)(n).matrix
    if n == 32:
        m[0, 0] = np.nan
    return entries(m)


ENGINE_CALLS = {
    "analytic index": (lambda: analytic_index_s1(random_matrix_symbol(
        np.random.default_rng(3), rank=2)[0], trunc=32), None),
    # z - 0.8: its cokernel's singular value 0.8^n is above the threshold at 64 only
    "unstabilized": (lambda: analytic_index_s1(z_minus(0.8)), UnstabilizedError),
    "residual failure": (lambda: stabilized_kernel_dim(
        lambda n: shift_matrix(n, rows=n), (8, 16)), ResidualFailureError),
    # raised by the SVD itself, inside the guard
    "svd failure": (lambda: kernel_dim(np.full((4, 3), np.nan)), np.linalg.LinAlgError),
    # every size's one tall block goes through the bidiagonal path, whose
    # zgebrd rejects the NaN at the top
    "lapack failure": (lambda: stabilized_kernel_dim(nan_at_the_top, (16, 32)),
                       np.linalg.LinAlgError),
    # the kernel vectors' eigensolver fails, or finds fewer eigenpairs than asked
    **{f"dstevx {name}": (lambda fake=fake: with_dstevx(fake, lambda: analytic_index_s1(
        z_minus(0.2), trunc=16)), np.linalg.LinAlgError) for name, fake in DSTEVX_FAULTS.items()},
}


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(ENGINE_CALLS))
def test_engine_restores_the_callers_blas_threads(name, threads, caller_threads):
    call, raises = ENGINE_CALLS[name]
    caller_threads(threads)
    if raises is None:
        call()
    else:
        with pytest.raises(raises):
            call()
    assert blas_threads() == threads


def banded_with_an_infinite_entry():
    m = banded_family(2, -1)(32).matrix
    m[0, 0] = np.inf
    return m


@pytest.mark.parametrize("matrix", [lambda: np.diag([np.inf, 1.0, 1.0]),
                                    banded_with_an_infinite_entry],
                         ids=["stacked", "one_tall_block"])
def test_an_infinite_entry_is_a_linalg_error(matrix, monkeypatch):
    # numpy's values-only SVD gives NaN singular values for it, not an error;
    # the bidiagonal path's dbdsqr rejects the NaN that zgebrd makes of it
    with pytest.raises(np.linalg.LinAlgError):
        kernel_dim(matrix())
    monkeypatch.setattr(blas, "_OPENBLAS", None)
    with pytest.raises(np.linalg.LinAlgError, match="^SVD gave a non-finite singular value$"):
        kernel_dim(matrix())


@has_lapacke
def test_a_lapacke_failure_is_a_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match="^LAPACKE zgebrd failed with info -4$"):
        stabilized_kernel_dim(nan_at_the_top, (16, 32))


@has_lapacke
@pytest.mark.parametrize("fault, message", [
    ("info 1", "^LAPACKE dstevx failed with info 1$"),
    ("one short", "^LAPACKE dstevx found 1 of 2 eigenpairs$")])
def test_a_dstevx_failure_is_a_linalg_error(fault, message, capsys):
    with pytest.raises(np.linalg.LinAlgError, match=message):
        with_dstevx(DSTEVX_FAULTS[fault], lambda: analytic_index_s1(z_minus(0.2), trunc=16))
    # and exit 4 from the CLI, for a shipped symbol whose kernels are on the path
    assert with_dstevx(DSTEVX_FAULTS[fault], lambda: cli.main(
        ["index", os.path.join(os.path.dirname(__file__), os.pardir, "symbols",
                               "s1_random_rank3.json")])) == 4
    assert capsys.readouterr().err.startswith("error: LAPACKE dstevx ")


@needs_openblas
def test_every_engine_svd_runs_on_one_blas_thread(caller_threads, monkeypatch):
    svd, lapacke = np.linalg.svd, blas._lapacke
    seen, lapacke_seen = [], []

    def counted_svd(*args, **kwargs):
        seen.append(blas_threads())
        return svd(*args, **kwargs)

    def counted(name, routine):
        def call(*args):
            lapacke_seen.append((name, blas_threads()))
            return routine(*args)
        return call

    def counted_lapacke():
        routines = lapacke()
        return routines and {name: counted(name, r) for name, r in routines.items()}

    monkeypatch.setattr(kernel.np.linalg, "svd", counted_svd)
    monkeypatch.setattr(blas, "_lapacke", counted_lapacke)
    caller_threads(2)
    # z^2 splits into stacks; the cokernel of z - 0.2 is one tall block
    analytic_index_s1(z_power(2), trunc=16)
    assert analytic_index_s1(z_minus(0.2), trunc=16).coker_dim == 1
    assert seen and set(seen) == {1}
    if lapacke() is not None:
        assert {name for name, _ in lapacke_seen} == set(blas._LAPACKE)
        assert {threads for _, threads in lapacke_seen} == {1}


@needs_openblas
def test_the_residual_check_runs_on_one_blas_thread(caller_threads):
    seen = {}

    def builder(n):
        seen[n] = blas_threads()
        return entries(shift_matrix(n).matrix.T)

    caller_threads(2)
    assert stabilized_kernel_dim(builder, (8, 16)).dim == 1
    assert seen[17] == 1


@needs_openblas
def test_every_s3_evaluation_runs_on_one_blas_thread(caller_threads, monkeypatch):
    # eval_hopf_grid's phase products are BLAS products: the symbol's one
    # sample and chern_s3's quadrature run them on one thread
    seen = []
    evaluate = symbols.eval_hopf_grid

    def counted(*args, **kwargs):
        seen.append(blas_threads())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(symbols, "eval_hopf_grid", counted)
    monkeypatch.setattr(topology, "eval_hopf_grid", counted)
    caller_threads(2)
    assert topology.topological_index(su2_symbol()).rounded == -1
    # the one sample of margin and unitarity, and one grid per rung and chunk
    assert len(seen) == 3 and set(seen) == {1}
    assert blas_threads() == 2


@needs_openblas
def test_overlapping_holders_share_one_change(caller_threads):
    # a holder leaves while another still holds: the count stays 1 until the
    # last one leaves, and then it is the caller's again
    caller_threads(2)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def first():
        with blas.one_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def second():
        a_in.wait(10)
        with blas.one_blas_thread():
            b_in.set()
            a_out.wait(10)
            seen.append(blas_threads())

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1]
    assert blas_threads() == 2

    with blas.one_blas_thread():
        with blas.one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2


@needs_openblas
def test_concurrent_engine_calls_restore_the_callers_blas_threads(caller_threads):
    caller_threads(2)
    errors = []

    def engine_loop():
        try:
            for _ in range(20):
                with blas.one_blas_thread():
                    if blas_threads() != 1:
                        errors.append(blas_threads())
                kernel_dim(shift_matrix(6).matrix)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=engine_loop) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert blas_threads() == 2


@has_lapacke
def test_without_the_library_the_stacked_svd_gives_the_same_index(monkeypatch):
    result = analytic_index_s1(generic_rank3(), trunc=32)
    monkeypatch.setattr(blas, "_OPENBLAS", None)
    assert blas._lapacke() is None
    fallback = analytic_index_s1(generic_rank3(), trunc=32)
    assert ((result.index, result.ker_dim, result.coker_dim)
            == (fallback.index, fallback.ker_dim, fallback.coker_dim) == (2, 4, 2))
    assert_same_kernel_reports(result.ker, fallback.ker)
    assert_same_kernel_reports(result.coker, fallback.coker)


@needs_openblas
def test_the_guard_does_nothing_without_the_library(caller_threads, monkeypatch):
    lib = blas._OPENBLAS
    caller_threads(2)
    monkeypatch.setattr(blas, "_OPENBLAS", None)
    with blas.one_blas_thread():
        assert lib.scipy_openblas_get_num_threads64_() == 2
    assert analytic_index_s1(z_power(-1), trunc=16).index == 1
    assert lib.scipy_openblas_get_num_threads64_() == 2


def on_cpus(monkeypatch, count):
    """Patch the affinity mask blas.cpu_count reads to hold count CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def helper_reductions(monkeypatch):
    """The threads on which kernel._bidiagonal runs in a helper's executor, one entry per
    reduction there; a caller's own reductions, on any thread, are not counted."""
    bidiagonal, threads = kernel._bidiagonal, []

    def counted(lapacke, block):
        if threading.current_thread().name.startswith("ThreadPoolExecutor"):
            threads.append(threading.get_ident())
        return bidiagonal(lapacke, block)

    monkeypatch.setattr(kernel, "_bidiagonal", counted)
    return threads


def helper_cases():
    rng = np.random.default_rng(11)
    cases = []
    for rank in (1, 2, 3):
        a = random_matrix_symbol(rng, rank=rank)[0]
        cases += [(f"rank{rank}", a, analytic_index_s1),
                  (f"rank{rank}*", adjoint(a), analytic_index_s1)]
    a = generic_rank3()
    cases += [("generic3", a, analytic_index_s1), ("generic3*", adjoint(a), analytic_index_s1)]
    cases += [(f"z^{m}", z_power(m), analytic_index_s1) for m in (-2, -1, 0, 1, 2)]
    cases += [(f"s3_m{m}", s3_representative(m)[0], analytic_index_s3) for m in (-2, -1, 1, 2)]
    return cases


HELPER_CASES = helper_cases()


def assert_identical_kernel_reports(report, ref):
    assert (report.dim, report.sizes, report.dims) == (ref.dim, ref.sizes, ref.dims)
    assert np.array_equal(report.singular_values, ref.singular_values)
    assert (report.spectral_gap, report.residual) == (ref.spectral_gap, ref.residual)


@pytest.mark.parametrize("name, symbol, index", HELPER_CASES,
                         ids=[name for name, _, _ in HELPER_CASES])
def test_the_helper_thread_leaves_every_value_as_the_inline_path_gives_it(
        name, symbol, index, monkeypatch):
    # one CPU in the mask keeps every reduction on the caller's thread
    on_cpus(monkeypatch, 1)
    inline = index(symbol)
    on_cpus(monkeypatch, 2)
    reductions = helper_reductions(monkeypatch)
    before = threading.active_count()
    helped = index(symbol)
    assert threading.active_count() == before
    assert (helped.index, helped.ker_dim, helped.coker_dim, helped.sizes) == \
        (inline.index, inline.ker_dim, inline.coker_dim, inline.sizes)
    assert_identical_kernel_reports(helped.ker, inline.ker)
    assert_identical_kernel_reports(helped.coker, inline.coker)
    assert threading.get_ident() not in reductions
    # no S3 truncation is one component, so no S3 call starts a thread
    if name.startswith("s3"):
        assert reductions == []


def one_tall_component(t):
    """Whether a truncation's sparsity graph, its isolated rows and columns left out, is one
    connected component with at least as many rows as columns."""
    rows, cols = t.shape
    graph = coo_array((np.ones(t.rows.size), (t.rows, rows + t.cols)),
                      shape=(rows + cols, rows + cols))
    labels = connected_components(graph, directed=False)[1]
    used = np.unique(labels[np.concatenate([t.rows, rows + t.cols])])
    if used.size != 1:
        return False
    return np.count_nonzero(labels[:rows] == used[0]) >= np.count_nonzero(labels[rows:] == used[0])


@has_lapacke
def test_the_helper_reduces_each_adjoint_truncation_that_is_one_tall_component(monkeypatch):
    on_cpus(monkeypatch, 2)
    reductions = helper_reductions(monkeypatch)
    want = 0
    for name, symbol, index in HELPER_CASES:
        sizes = index(symbol).sizes
        builder = toeplitz_rect_s1 if index is analytic_index_s1 else toeplitz_rect_s3
        want += sum(one_tall_component(builder(adjoint(symbol), n)) for n in sizes)
    # at both sizes: each rank-2 and rank-3 symbol and its adjoint, isolated
    # rows and columns beside the one component included
    assert len(reductions) == want >= 12


def test_one_cpu_starts_no_thread(monkeypatch):
    on_cpus(monkeypatch, 1)
    reductions = helper_reductions(monkeypatch)
    started = []
    monkeypatch.setattr(kernel, "ThreadPoolExecutor", lambda *a, **k: started.append(a))
    assert analytic_index_s1(generic_rank3(), trunc=32).index == 2
    assert reductions == [] and started == []


@has_lapacke
def test_a_call_inside_the_one_thread_hold_starts_no_helper(monkeypatch):
    # on a 2-CPU mask a caller inside the hold uses one CPU, so its call
    # reduces inline, with the same reports; the depth is per thread, and a
    # block that raises leaves it at 0
    on_cpus(monkeypatch, 2)
    reductions = helper_reductions(monkeypatch)
    executor, started = kernel.ThreadPoolExecutor, []
    monkeypatch.setattr(kernel, "ThreadPoolExecutor",
                        lambda *a, **k: started.append(a) or executor(*a, **k))
    with blas.one_blas_thread():
        assert not blas.spare_cpu()
        spare_elsewhere = []
        other = threading.Thread(target=lambda: spare_elsewhere.append(blas.spare_cpu()))
        other.start()
        other.join()
        held = analytic_index_s1(generic_rank3(), trunc=32)
    assert spare_elsewhere == [True]
    assert reductions == [] and started == []
    free = analytic_index_s1(generic_rank3(), trunc=32)
    assert len(started) == 1 and len(reductions) == 2
    assert (held.index, held.ker_dim, held.coker_dim) == (free.index, free.ker_dim,
                                                          free.coker_dim) == (2, 4, 2)
    assert_identical_kernel_reports(held.ker, free.ker)
    assert_identical_kernel_reports(held.coker, free.coker)
    with pytest.raises(ValueError, match="inside the hold"):
        with blas.one_blas_thread(), blas.one_blas_thread():
            raise ValueError("inside the hold")
    assert blas._held.depth == 0 and blas.spare_cpu()


def raise_on_block(monkeypatch, block, exc):
    """Make kernel._bidiagonal raise exc on the given block only; return the raising threads."""
    bidiagonal, raised = kernel._bidiagonal, []

    def failing(lapacke, b):
        if np.array_equal(b, block):
            raised.append(threading.get_ident())
            raise exc
        return bidiagonal(lapacke, b)

    monkeypatch.setattr(kernel, "_bidiagonal", failing)
    return raised


def failure_on(monkeypatch, cpus, call):
    on_cpus(monkeypatch, cpus)
    before = threading.active_count()
    with pytest.raises(Exception) as info:
        call()
    assert threading.active_count() == before
    return type(info.value), str(info.value)


@has_lapacke
def test_a_linalg_error_in_the_helpers_reduction_surfaces_as_inline(monkeypatch):
    a = generic_rank3()
    top = toeplitz_rect_s1(adjoint(a), 64).matrix
    raised = raise_on_block(monkeypatch, top,
                            np.linalg.LinAlgError("LAPACKE zgebrd failed with info -4"))
    reductions = helper_reductions(monkeypatch)
    call = lambda: analytic_index_s1(a, trunc=32)  # noqa: E731
    inline = failure_on(monkeypatch, 1, call)
    assert reductions == [] and raised == [threading.get_ident()]
    helped = failure_on(monkeypatch, 2, call)
    assert helped == inline == (np.linalg.LinAlgError, "LAPACKE zgebrd failed with info -4")
    # the second raise was the helper's, on another thread
    assert len(reductions) == 2 and raised[1] in reductions
    assert raised[1] != threading.get_ident()


@has_lapacke
def test_an_unstabilized_kernel_joins_the_started_reductions(monkeypatch):
    # conj(z - 0.8) = z^-1 - 0.8: its kernel's singular value 0.8^n is above
    # the threshold at 64 only, while its adjoint's truncations, z - 0.8, are
    # one tall component each and start on the helper.  The kernel's error
    # cancels a reduction the helper has not begun, so the reductions are
    # counted as they are handed to it
    a = adjoint(z_minus(0.8))
    executor, reductions = kernel.ThreadPoolExecutor, []

    class Counted(executor):
        def submit(self, fn, *args, **kwargs):
            reductions.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(kernel, "ThreadPoolExecutor", Counted)
    inline = failure_on(monkeypatch, 1, lambda: analytic_index_s1(a))
    helped = failure_on(monkeypatch, 2, lambda: analytic_index_s1(a))
    assert helped == inline
    assert inline[0] is UnstabilizedError and inline[1].startswith("kernel dimension")
    assert len(reductions) == 2


@has_lapacke
@needs_openblas
def test_concurrent_index_calls_with_helpers_give_the_serial_reports(caller_threads, monkeypatch):
    # four callers, each with its own helper, on a shortened switch interval:
    # every report must be the serial one to the bit, the callers' count is
    # restored and no helper outlives its call; reductions are counted on the
    # executors' threads, since every caller's inline ones run off the main
    # thread too
    on_cpus(monkeypatch, 2)
    caller_threads(2)
    symbol = next(s for name, s, _ in HELPER_CASES if name == "rank2")
    want = analytic_index_s1(symbol, trunc=16)
    reductions = helper_reductions(monkeypatch)
    before = threading.active_count()
    errors, results = [], []

    def index_loop():
        try:
            for _ in range(5):
                results.append(analytic_index_s1(symbol, trunc=16))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=index_loop) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == [] and len(results) == 20 and len(reductions) == 2 * 20
    for result in results:
        assert_identical_kernel_reports(result.ker, want.ker)
        assert_identical_kernel_reports(result.coker, want.coker)
    assert blas_threads() == 2
    assert threading.active_count() == before
