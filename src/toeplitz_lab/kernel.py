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
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .errors import ResidualFailureError, UnstabilizedError

DEFAULT_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-6
GAP_WARN_RATIO = 1e3


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
    false the SVDs are values-only and the kernel basis is None.
    """
    m = np.asarray(matrix, dtype=complex)
    rows, cols = m.shape
    groups = []
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
