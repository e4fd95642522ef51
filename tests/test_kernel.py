"""Kernel engine: SVD dimension counting, stabilization, residual validation."""
import re
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from toeplitz_lab import kernel
from toeplitz_lab.errors import ResidualFailureError, UnstabilizedError
from toeplitz_lab.families import (constant_sandwich, homotopy_path,
                                   random_matrix_symbol, random_scalar_symbol,
                                   s3_representative, su2_symbol, z_power)
from toeplitz_lab.hardy_s1 import analytic_index_s1, toeplitz_rect_s1
from toeplitz_lab.hardy_s3 import analytic_index_s3, toeplitz_rect_s3
from toeplitz_lab.kernel import (DEFAULT_TOL, AnalyticIndex, _components,
                                 _svd_split, analytic_index_from_builders,
                                 kernel_dim, stabilized_kernel_dim)
from toeplitz_lab.symbols import (S1, Symbol, adjoint, direct_sum, identity,
                                  multiply)


def shift_matrix(n, rows=None):
    """Rectangular forward shift: e_i -> e_{i+1}; exact model of T_z."""
    rows = n + 1 if rows is None else rows
    m = np.zeros((rows, n), dtype=complex)
    for i in range(min(n, rows - 1)):
        m[i + 1, i] = 1.0
    return m


@pytest.fixture
def vector_svd_shapes(monkeypatch):
    """Shapes of the stacks that np.linalg.svd, as kernel.py calls it, decomposes with vectors."""
    svd = np.linalg.svd
    shapes = []

    def counted_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(kernel.np.linalg, "svd", counted_svd)
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
            return shift_matrix(n).T

        report = stabilized_kernel_dim(builder, (8, 16))
        assert report.dim == 1
        assert report.residual <= 1e-12

    def test_disagreeing_dims_raise(self, vector_svd_shapes):
        # the size below the top has no kernel, so the top SVD is values-only;
        # its kernel cannot stabilize, and no residual truncation is built
        built = []

        def builder(n):
            built.append(n)
            d = np.ones(n)
            if n >= 8:
                d[-1] = 0.0
            return np.diag(d)

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

    def test_narrow_spectral_gap_warns(self):
        def builder(n):
            d = np.ones(n)
            d[5], d[6] = 1e-9, 5e-7
            return np.diag(d)

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
        return m
    return builder


def down_shift(k):
    """Image-exact truncation family for the k-step backward shift (k >= 0)."""
    def builder(n):
        m = np.zeros((n, n), dtype=complex)
        for i in range(n - k):
            m[i, i + k] = 1.0
        return m
    return builder


class TestAnalyticIndexAssembly:
    def test_two_step_shift_model(self):
        # forward shift by 2: trivial kernel; its adjoint (backward shift by
        # 2) annihilates the first two basis vectors, so coker dim is 2
        result = analytic_index_from_builders(up_shift(2), down_shift(2), (8, 16))
        assert isinstance(result, AnalyticIndex)
        assert (result.ker_dim, result.coker_dim, result.index) == (0, 2, -2)

    def test_opposite_orientation(self):
        result = analytic_index_from_builders(down_shift(3), up_shift(3), (8, 16))
        assert (result.ker_dim, result.coker_dim, result.index) == (3, 0, 3)

    def test_identity_model(self):
        result = analytic_index_from_builders(up_shift(0), down_shift(0), (8, 16))
        assert (result.ker_dim, result.coker_dim, result.index) == (0, 0, 0)
        assert result.index == result.ker_dim - result.coker_dim


def dense_svd_split(matrix, tol):
    """Reference: one dense SVD of the whole matrix, as before the block split."""
    m = np.asarray(matrix, dtype=complex)
    rows, cols = m.shape
    u, sigma, vh = np.linalg.svd(m, full_matrices=True)
    if sigma.size == 0 or sigma[0] == 0.0:
        return cols, sigma, np.eye(cols, dtype=complex), np.inf
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
    return dim, sigma, basis, gap


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


def assert_matches_dense(matrix, tol):
    dim, sigma, basis, gap = _svd_split(matrix, tol, vectors=True)
    ref_dim, ref_sigma, ref_basis, ref_gap = dense_svd_split(matrix, tol)
    assert dim == ref_dim
    assert basis.shape == (matrix.shape[1], dim)
    assert sigma.shape == ref_sigma.shape
    scale = ref_sigma[0] if ref_sigma.size and ref_sigma[0] > 0 else 1.0
    assert np.max(np.abs(sigma - ref_sigma), initial=0.0) <= 1e-12 * scale
    projector = basis @ basis.conj().T
    ref_projector = ref_basis @ ref_basis.conj().T
    assert np.max(np.abs(projector - ref_projector), initial=0.0) <= 1e-10
    # the values-only split reads the same dimension, values and gap, and no basis
    values_dim, values_sigma, values_basis, values_gap = _svd_split(matrix, tol, vectors=False)
    assert values_dim == ref_dim and values_basis is None
    assert np.max(np.abs(values_sigma - ref_sigma), initial=0.0) <= 1e-12 * scale
    for split_gap in (gap, values_gap):
        if ref_gap < 1e12:
            assert split_gap == pytest.approx(ref_gap, rel=1e-9)
        else:
            assert split_gap >= 1e12
    return dim, gap


class TestBlockSplitAgainstDense:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_permuted_block_diagonal(self, case, seed):
        assert_matches_dense(block_case_matrix(case, seed), DEFAULT_TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_threshold_is_taken_across_blocks(self, seed):
        # every singular value of the small block lies below tol times the
        # large block's sigma_max, though none is small against its own
        # block's: all four count as kernel, and the gap spans the blocks
        rng = np.random.default_rng(seed)
        large = with_singular_values(rng, [1.0, 0.9, 0.7, 0.6, 0.5])
        small = with_singular_values(rng, [5e-4, 3e-4, 2e-4, 1e-4])
        matrix = permuted_blocks(rng, [large, small, large])
        dim, gap = assert_matches_dense(matrix, 1e-3)
        assert dim == 4
        assert gap == pytest.approx(0.5 / 5e-4, rel=1e-9)


@pytest.mark.parametrize("m", range(-3, 4))
def test_representative_kernel_reports_match_dense(m, monkeypatch):
    sym, sizes = s3_representative(m)
    result = analytic_index_s3(sym, sizes=sizes)
    with monkeypatch.context() as patch:
        # every SVD the stabilization takes, values-only or not, goes dense
        patch.setattr(kernel, "_svd_split",
                      lambda matrix, tol, vectors: dense_svd_split(matrix, tol))
        reference = analytic_index_s3(sym, sizes=sizes)
    for report, ref in ((result.ker, reference.ker), (result.coker, reference.coker)):
        assert (report.dim, report.dims, report.sizes) == (ref.dim, ref.dims, ref.sizes)
        assert np.max(np.abs(report.singular_values - ref.singular_values)) <= 1e-12


def unique_pairs_components(m):
    """Reference: _components grouping block shapes by np.unique over (rows, cols) pairs."""
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
    return toeplitz_rect_s3(sym, sizes[-1]).matrix


# name -> matrix factory; truncations of one generic symbol (one component),
# of monomials (many) and of S3 weight-space symbols (hundreds of blocks)
COMPONENT_CASES = {
    **{name: lambda name=name: block_case_matrix(name, seed=0) for name in BLOCK_CASES},
    "s1_random_rank3": lambda: toeplitz_rect_s1(
        random_matrix_symbol(np.random.default_rng(7), rank=3)[0], 32).matrix,
    "s1_diag_z2_zm1": lambda: toeplitz_rect_s1(direct_sum(z_power(2), z_power(-1)), 16).matrix,
    "s3_m-3": lambda: s3_top_truncation(-3),
    "s3_m1": lambda: s3_top_truncation(1),
    "s3_m2": lambda: s3_top_truncation(2),
    "s3_sandwich_m2": lambda: toeplitz_rect_s3(
        constant_sandwich(s3_representative(2)[0], np.random.default_rng(7)), 8).matrix,
}


@pytest.mark.parametrize("case", sorted(COMPONENT_CASES))
def test_components_match_the_pairwise_grouping(case):
    m = COMPONENT_CASES[case]()
    got = list(_components(m))
    ref = list(unique_pairs_components(m))
    assert len(got) == len(ref)
    for (rows, cols), (ref_rows, ref_cols) in zip(got, ref):
        assert np.array_equal(rows, ref_rows) and rows.dtype == ref_rows.dtype
        assert np.array_equal(cols, ref_cols) and cols.dtype == ref_cols.dtype


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
    return lambda n: toeplitz_rect_s1(a, n).matrix


@pytest.mark.parametrize("dominant, dim", [(0, 0), (-1, 2)])
def test_vectors_are_taken_once_at_the_top_size_only_for_a_kernel(dominant, dim,
                                                                 vector_svd_shapes):
    builder = banded_family(2, dominant)
    report = stabilized_kernel_dim(builder, (16, 24, 32))
    assert report.dims == (dim, dim, dim)
    top = (1,) + builder(32).shape
    assert vector_svd_shapes == ([top] if dim else [])


def all_vectors_split(matrix, tol, vectors):
    """Reference: every SVD of the stabilization takes singular vectors."""
    return _svd_split(matrix, tol, vectors=True)


def assert_same_kernel_reports(report, ref):
    assert (report.dim, report.dims, report.sizes) == (ref.dim, ref.dims, ref.sizes)
    assert report.spectral_gap == ref.spectral_gap
    assert report.residual == ref.residual
    assert report.singular_values.shape == ref.singular_values.shape
    assert np.max(np.abs(report.singular_values - ref.singular_values),
                  initial=0.0) <= 1e-12


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


@pytest.mark.parametrize("name, run", VERIFY_LIKE, ids=[name for name, _ in VERIFY_LIKE])
def test_reports_match_taking_vectors_at_every_size(name, run, monkeypatch):
    result = run()
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_svd_split", all_vectors_split)
        reference = run()
    assert_same_kernel_reports(result.ker, reference.ker)
    assert_same_kernel_reports(result.coker, reference.coker)


@pytest.mark.parametrize("call, manifold", [
    (lambda: toeplitz_rect_s1(su2_symbol(), 4), "circle"),
    (lambda: analytic_index_s1(su2_symbol(), trunc=4), "circle"),
    (lambda: toeplitz_rect_s3(z_power(1), 4), "three-sphere"),
    (lambda: analytic_index_s3(z_power(1), trunc=4), "three-sphere"),
], ids=["toeplitz_rect_s1", "analytic_index_s1", "toeplitz_rect_s3", "analytic_index_s3"])
def test_wrong_manifold_symbol_is_a_value_error(call, manifold):
    with pytest.raises(ValueError, match=f"defined for {manifold} symbols only"):
        call()


needs_openblas = pytest.mark.skipif(kernel._OPENBLAS is None,
                                    reason="numpy does not link its bundled OpenBLAS")


def blas_threads():
    return kernel._OPENBLAS.scipy_openblas_get_num_threads64_()


@pytest.fixture
def caller_threads():
    """Set the caller's OpenBLAS thread count for one test, then restore it."""
    lib = kernel._OPENBLAS
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib.scipy_openblas_set_num_threads64_
    lib.scipy_openblas_set_num_threads64_(before)


def z_minus(rho):
    return Symbol(S1, {0: -rho, 1: 1.0})


ENGINE_CALLS = {
    "analytic index": (lambda: analytic_index_s1(random_matrix_symbol(
        np.random.default_rng(3), rank=2)[0], trunc=32), None),
    # z - 0.8: its cokernel's singular value 0.8^n is above the threshold at 64 only
    "unstabilized": (lambda: analytic_index_s1(z_minus(0.8)), UnstabilizedError),
    "residual failure": (lambda: stabilized_kernel_dim(
        lambda n: shift_matrix(n, rows=n), (8, 16)), ResidualFailureError),
    # raised by the SVD itself, inside the guard
    "svd failure": (lambda: kernel_dim(np.full((4, 3), np.nan)), np.linalg.LinAlgError),
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


@needs_openblas
def test_every_engine_svd_runs_on_one_blas_thread(caller_threads, monkeypatch):
    svd = np.linalg.svd
    seen = []

    def counted_svd(*args, **kwargs):
        seen.append(blas_threads())
        return svd(*args, **kwargs)

    monkeypatch.setattr(kernel.np.linalg, "svd", counted_svd)
    caller_threads(2)
    analytic_index_s1(z_power(2), trunc=16)
    assert seen and set(seen) == {1}


@needs_openblas
def test_the_residual_check_runs_on_one_blas_thread(caller_threads):
    seen = {}

    def builder(n):
        seen[n] = blas_threads()
        return shift_matrix(n).T

    caller_threads(2)
    assert stabilized_kernel_dim(builder, (8, 16)).dim == 1
    assert seen[17] == 1


@needs_openblas
def test_overlapping_holders_share_one_change(caller_threads):
    # a holder leaves while another still holds: the count stays 1 until the
    # last one leaves, and then it is the caller's again
    caller_threads(2)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def first():
        with kernel.one_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def second():
        a_in.wait(10)
        with kernel.one_blas_thread():
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

    with kernel.one_blas_thread():
        with kernel.one_blas_thread():
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
                with kernel.one_blas_thread():
                    if blas_threads() != 1:
                        errors.append(blas_threads())
                kernel_dim(shift_matrix(6))
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


@needs_openblas
def test_the_guard_does_nothing_without_the_library(caller_threads, monkeypatch):
    lib = kernel._OPENBLAS
    caller_threads(2)
    monkeypatch.setattr(kernel, "_OPENBLAS", None)
    with kernel.one_blas_thread():
        assert lib.scipy_openblas_get_num_threads64_() == 2
    assert analytic_index_s1(z_power(-1), trunc=16).index == 1
    assert lib.scipy_openblas_get_num_threads64_() == 2
