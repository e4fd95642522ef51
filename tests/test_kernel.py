"""Kernel engine: SVD dimension counting, stabilization, residual validation."""
import numpy as np
import pytest

from toeplitz_lab import kernel
from toeplitz_lab.errors import ResidualFailureError, UnstabilizedError
from toeplitz_lab.families import s3_representative
from toeplitz_lab.hardy_s3 import analytic_index_s3
from toeplitz_lab.kernel import (DEFAULT_TOL, AnalyticIndex, _svd_split,
                                 analytic_index_from_builders, kernel_dim,
                                 stabilized_kernel_dim)


def shift_matrix(n, rows=None):
    """Rectangular forward shift: e_i -> e_{i+1}; exact model of T_z."""
    rows = n + 1 if rows is None else rows
    m = np.zeros((rows, n), dtype=complex)
    for i in range(min(n, rows - 1)):
        m[i + 1, i] = 1.0
    return m


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

    def test_disagreeing_dims_raise(self):
        def builder(n):
            d = np.ones(n)
            if n >= 8:
                d[-1] = 0.0
            return np.diag(d)

        with pytest.raises(UnstabilizedError, match="does not stabilize"):
            stabilized_kernel_dim(builder, (4, 8))

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


def assert_matches_dense(matrix, tol):
    dim, sigma, basis, gap = _svd_split(matrix, tol)
    ref_dim, ref_sigma, ref_basis, ref_gap = dense_svd_split(matrix, tol)
    assert dim == ref_dim
    assert basis.shape == (matrix.shape[1], dim)
    assert sigma.shape == ref_sigma.shape
    scale = ref_sigma[0] if ref_sigma.size and ref_sigma[0] > 0 else 1.0
    assert np.max(np.abs(sigma - ref_sigma), initial=0.0) <= 1e-12 * scale
    projector = basis @ basis.conj().T
    ref_projector = ref_basis @ ref_basis.conj().T
    assert np.max(np.abs(projector - ref_projector), initial=0.0) <= 1e-10
    if ref_gap < 1e12:
        assert gap == pytest.approx(ref_gap, rel=1e-9)
    else:
        assert gap >= 1e12
    return dim, gap


class TestBlockSplitAgainstDense:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_permuted_block_diagonal(self, case, seed):
        rng = np.random.default_rng(seed)
        shapes, zero_rows, zero_cols = BLOCK_CASES[case]
        blocks = [low_rank(rng, *shape) for shape in shapes]
        assert_matches_dense(permuted_blocks(rng, blocks, zero_rows, zero_cols), DEFAULT_TOL)

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
        patch.setattr(kernel, "_svd_split", dense_svd_split)
        reference = analytic_index_s3(sym, sizes=sizes)
    for report, ref in ((result.ker, reference.ker), (result.coker, reference.coker)):
        assert (report.dim, report.dims, report.sizes) == (ref.dim, ref.dims, ref.sizes)
        assert np.max(np.abs(report.singular_values - ref.singular_values)) <= 1e-12
