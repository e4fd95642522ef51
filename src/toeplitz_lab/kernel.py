"""Kernel detection for exact rectangular truncations, with stabilization.

The analytic index of a Toeplitz operator is dim ker - dim coker.  Both
dimensions are read off finite rectangular truncations: the kernel dimension
from the SVD of the truncated matrix, the cokernel from the same procedure
applied to the adjoint symbol's own truncation (never from transposing a
finite block, which has the wrong shape to be image-exact).

A dimension is only trusted when it stabilizes: the SVD rank deficiency must
agree across increasing truncation sizes, and the candidate kernel vectors at
the largest size must annihilate a strictly larger truncation after zero
extension.  Because the truncations are image-exact, that larger matrix acts
on the candidates exactly as the infinite operator does, so the residual test
separates true kernel vectors from truncation artifacts.

Each SVD is taken block by block.  Rows and columns of a truncation linked by
a nonzero entry form the connected components of its sparsity graph, and the
matrix is a row and column permutation of the block-diagonal matrix of those
components.  Its SVD is therefore exactly the union of the block SVDs: the
singular values are the blocks' values together, and a block's right singular
vectors, zero-extended into its columns, are right singular vectors of the
whole.  The split needs no symmetry and no knowledge of the symbol; a
torus-equivariant symbol on S3 splits into hundreds of small weight-space
blocks, a generic symbol stays one component.  Blocks of equal shape go
through one stacked SVD.  The kernel threshold is relative to the largest
singular value over all blocks, never to a block's own.

Dimensions, singular values and gaps need no singular vectors; only the
residual check reads kernel vectors, at the largest size and only when a
kernel exists.  So every SVD is values-only except the one of the largest
truncation, which takes vectors exactly when the size below it found a
kernel.  That is exact.  If the size below has no kernel, either the largest
has none either, and no basis is read, or the sizes disagree, and
stabilization fails before any residual check.  If it has one, the largest
truncation's SVD is the same as when every size takes vectors.  No truncation
is decomposed twice.

Every SVD, and the residual check's product, runs on one BLAS thread, and
the caller's thread count is restored afterwards.  The engine's products are
small (S1 truncations of about 100 to 400 columns, torus-equivariant S3
blocks of a few dozen): a second OpenBLAS thread slows them down, and once
woken it keeps a core busy after the call.  With one thread their rounding,
and so the reported gaps and residuals, no longer depends on the caller's
thread count either.
"""
from __future__ import annotations

import ctypes
import glob
import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .errors import ResidualFailureError, UnstabilizedError
from .symbols import Symbol, adjoint, require_invertible

DEFAULT_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-6
GAP_WARN_RATIO = 1e3


def _bundled_openblas():
    """numpy's bundled OpenBLAS, if numpy links it, else None.

    numpy wheels ship it as numpy.libs/libscipy_openblas64_*.so; loading that
    path again returns the library numpy already uses.  A numpy built against
    another BLAS has no such file or lacks the thread-count symbols.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = (lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


_OPENBLAS = _bundled_openblas()
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_caller_threads = 0


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count.

    The count is process-wide, so nested and concurrent holders share one
    change: the first to enter saves the caller's count and sets 1, the last
    to leave puts the saved count back, on return or on an exception.
    Without numpy's bundled OpenBLAS (another BLAS build) it does nothing.
    """
    global _blas_holders, _blas_caller_threads
    lib = _OPENBLAS
    if lib is None:
        yield
        return
    with _blas_lock:
        if _blas_holders == 0:
            _blas_caller_threads = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                lib.scipy_openblas_set_num_threads64_(_blas_caller_threads)


@dataclass(frozen=True)
class KernelReport:
    """Stabilized kernel dimension of one operator truncation family."""

    dim: int
    sizes: tuple[int, ...]
    dims: tuple[int, ...]
    singular_values: np.ndarray
    spectral_gap: float
    residual: float


def _components(m: np.ndarray):
    """Connected components of the sparsity graph of m, grouped by block shape.

    Yields (row_index, col_index) pairs of integer arrays of shapes
    (blocks, rows) and (blocks, cols), one pair per distinct block shape.
    Rows and columns without a nonzero entry are components of their own:
    a zero column is a (0, 1) block, a zero row a (1, 0) block.
    """
    rows, cols = m.shape
    r, c = (m != 0).nonzero()
    graph = coo_array((np.ones(r.size), (r, rows + c)), shape=(rows + cols, rows + cols))
    count, labels = connected_components(graph, directed=False)
    row_label, col_label = labels[:rows], labels[rows:]
    row_order = np.argsort(row_label, kind="stable")
    col_order = np.argsort(col_label, kind="stable")
    n_rows = np.bincount(row_label, minlength=count)
    n_cols = np.bincount(col_label, minlength=count)
    row_start = np.cumsum(n_rows) - n_rows
    col_start = np.cumsum(n_cols) - n_cols
    # n_cols <= cols, so the key orders shapes as (n_rows, n_cols) pairs do
    keys, group = np.unique(n_rows * (cols + 1) + n_cols, return_inverse=True)
    for k, key in enumerate(keys):
        nr, nc = divmod(int(key), cols + 1)
        blocks = np.flatnonzero(group == k)
        yield (row_order[row_start[blocks, None] + np.arange(nr)],
               col_order[col_start[blocks, None] + np.arange(nc)])


def _svd_split(matrix: np.ndarray, tol: float, vectors: bool):
    """Split the SVD of a truncation into (dim, sigma, kernel_basis, gap).

    The SVD is the union of the SVDs of the connected components of the
    matrix's sparsity graph (see the module docstring), one stacked SVD per
    block shape.  sigma holds every block's singular values in descending
    order, padded with zeros to min(rows, cols), as the SVD of the whole
    matrix would give them.  dim counts singular values at most
    tol * sigma_max, with sigma_max taken over all blocks, plus each block's
    columns beyond its number of singular values (possible only for wide
    blocks, and always for a zero column); a zero matrix has every column in
    the kernel.  gap is the ratio of the smallest kept to the largest
    rejected singular value of sigma.  dim, sigma and gap need singular
    values only.  With vectors true the block SVDs also take the right
    singular vectors, and the kernel basis holds each block's kernel right
    singular vectors, zero-extended into the block's columns; with vectors
    false the SVDs are values-only and the kernel basis is None.  The SVDs
    run on one BLAS thread (see the module docstring).
    """
    m = np.asarray(matrix, dtype=complex)
    rows, cols = m.shape
    groups = []
    with one_blas_thread():
        for row_index, col_index in _components(m):
            nr, nc = row_index.shape[1], col_index.shape[1]
            blocks = m[row_index[:, :, None], col_index[:, None, :]]
            if vectors:
                _, s, vh = np.linalg.svd(blocks, full_matrices=nr < nc)
            else:
                s, vh = np.linalg.svd(blocks, compute_uv=False), None
            groups.append((col_index, s, vh))

    sigma = np.zeros(min(rows, cols))
    values = np.concatenate([s.ravel() for _, s, _ in groups]) if groups else sigma[:0]
    sigma[:values.size] = -np.sort(-values)
    thresh = tol * (sigma[0] if sigma.size else 0.0)
    small = sigma <= thresh
    dim = cols - int(np.count_nonzero(~small))

    basis = None
    if vectors:
        basis = np.zeros((cols, dim), dtype=complex)
        filled = 0
        for col_index, s, vh in groups:
            n_kept = np.count_nonzero(s > thresh, axis=1)
            block, row = np.nonzero(np.arange(vh.shape[1]) >= n_kept[:, None])
            slots = filled + np.arange(block.size)
            basis[col_index[block], slots[:, None]] = vh[block, row].conj()
            filled += block.size

    kept = sigma[~small]
    rejected = sigma[small]
    if dim == 0 or rejected.size == 0 or rejected[0] == 0.0:
        gap = np.inf
    else:
        gap = float(kept[-1] / rejected[0]) if kept.size else np.inf
    return dim, sigma, basis, gap


def kernel_dim(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """SVD kernel dimension of one matrix at relative threshold tol.

    Singular values at most tol times the largest one count as kernel; the
    values-only SVD is taken per connected block of the matrix's sparsity
    graph, with the threshold set by the largest singular value of all
    blocks.
    """
    dim, _, _, _ = _svd_split(matrix, tol, vectors=False)
    return dim


def stabilized_kernel_dim(
    builder: Callable[[int], np.ndarray],
    sizes: Sequence[int],
    tol: float = DEFAULT_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    label: str = "kernel",
) -> KernelReport:
    """Kernel dimension trusted across a family of image-exact truncations.

    builder(n) must return the truncation whose domain is the first n basis
    bands, with the prefix property: the matrix for a larger n contains every
    smaller one as its leading block.  Raises UnstabilizedError when the
    per-size dimensions disagree, ResidualFailureError when a candidate
    kernel vector fails to annihilate the next-larger truncation.  Every
    size but the largest takes a values-only SVD; the largest takes kernel
    vectors exactly when the size below it has a kernel (see the module
    docstring for why that reads every vector the residual check needs).
    """
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be at least two strictly increasing truncation sizes")

    dims = [_svd_split(builder(n), tol, vectors=False)[0] for n in sizes[:-1]]
    # a top kernel with none below cannot stabilize, so needs no vectors
    dim, sigma_top, basis_top, gap_top = _svd_split(builder(sizes[-1]), tol,
                                                    vectors=dims[-1] > 0)
    dims.append(dim)

    if len(set(dims)) != 1:
        raise UnstabilizedError(
            f"{label} dimension does not stabilize across sizes {sizes}: got {dims}")

    residual = 0.0
    if dim > 0:
        with one_blas_thread():
            check = np.asarray(builder(sizes[-1] + 1), dtype=complex)
            padded = np.zeros((check.shape[1], dim), dtype=complex)
            padded[:basis_top.shape[0], :] = basis_top
            image = check @ padded
        residual = float(np.max(np.linalg.norm(image, axis=0)))
        if residual > residual_tol:
            raise ResidualFailureError(
                f"{label} candidates fail exact-operator residual validation: "
                f"residual {residual:.3e} > {residual_tol:.0e} "
                f"(truncation artifact, not a kernel vector)")

    if gap_top < GAP_WARN_RATIO:
        warnings.warn(
            f"{label} spectral gap {gap_top:.2e} below {GAP_WARN_RATIO:.0e}; "
            f"dimension split is poorly separated — consider larger truncations "
            f"or a tighter tolerance",
            RuntimeWarning, stacklevel=2)

    return KernelReport(
        dim=dim,
        sizes=sizes,
        dims=tuple(dims),
        singular_values=sigma_top,
        spectral_gap=gap_top,
        residual=residual,
    )


@dataclass(frozen=True)
class AnalyticIndex:
    """Fredholm index with its stabilized kernel and cokernel evidence."""

    index: int
    ker_dim: int
    coker_dim: int
    sizes: tuple[int, ...]
    ker: KernelReport
    coker: KernelReport


def analytic_index_from_builders(
    ker_builder: Callable[[int], np.ndarray],
    coker_builder: Callable[[int], np.ndarray],
    sizes: Sequence[int],
    tol: float = DEFAULT_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> AnalyticIndex:
    """Assemble index = dim ker - dim coker from two stabilized truncation families."""
    ker = stabilized_kernel_dim(ker_builder, sizes, tol, residual_tol, label="kernel")
    coker = stabilized_kernel_dim(coker_builder, sizes, tol, residual_tol, label="cokernel")
    return AnalyticIndex(
        index=ker.dim - coker.dim,
        ker_dim=ker.dim,
        coker_dim=coker.dim,
        sizes=tuple(int(n) for n in sizes),
        ker=ker,
        coker=coker,
    )


def analytic_index_from_truncations(
    a: Symbol,
    truncate: Callable,
    sizes: Sequence[int],
    tol: float,
    residual_tol: float,
) -> AnalyticIndex:
    """Stabilized Fredholm index of T_a from its manifold's truncation builder.

    truncate(a, n) returns the image-exact truncation of T_a with domain size
    n, its matrix in .matrix.  The kernel dimension comes from the symbol's
    own truncations, the cokernel dimension from the adjoint symbol's
    truncations (coker T_a is conjugate-isomorphic to ker T_{a*}).  The
    symbol must clear the sampled invertibility margin first; otherwise it is
    rejected as non-Fredholm.
    """
    require_invertible(a)
    a_star = adjoint(a)
    return analytic_index_from_builders(
        ker_builder=lambda n: truncate(a, n).matrix,
        coker_builder=lambda n: truncate(a_star, n).matrix,
        sizes=sizes,
        tol=tol,
        residual_tol=residual_tol,
    )
