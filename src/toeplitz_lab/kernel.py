"""Kernel detection for exact rectangular truncations, with stabilization.

The analytic index of a Toeplitz operator is dim ker - dim coker.  Both
dimensions are read off finite rectangular truncations: the kernel dimension
from the SVD of the truncated matrix, the cokernel from the same procedure
applied to the adjoint symbol's own truncation (never from transposing a
finite block, which has the wrong shape to be image-exact).

A dimension is only trusted when it stabilizes: the SVD rank deficiency must
agree across increasing truncation sizes, and the candidate kernel vectors at
the largest size must annihilate a strictly larger truncation after zero
extension.  Because the truncations are image-exact, the larger matrix's
extra rows are zero on the largest truncation's columns, T_{N+1} [v; 0] =
[T_N v; 0], so the residual is that of the computed vectors against the
largest truncation itself.  It certifies how the vectors were formed; it
does not tell a kernel vector of the infinite operator from a small singular
value of the truncation, which only the stabilization across sizes speaks
to.  A builder that is not image-exact, such as square truncations of the
shift, fails it.

The engine reads a truncation by its nonzero entries (Entries: the shape
and one row, column and value per nonzero coordinate), never as a dense
matrix, and takes no other input.  Each SVD is taken block by block.  Rows
and columns of a truncation linked by an entry form the connected
components of its sparsity graph (found once, by _blocks, which also
scatters each component's entries), and the matrix is a row and
column permutation of the block-diagonal matrix of those components.  Its
SVD is therefore exactly the union of the block SVDs: the singular values
are the blocks' values together, and a block's right singular vectors,
zero-extended into its columns, are right singular vectors of the whole.
The split needs no symmetry and no knowledge of the symbol; a
torus-equivariant symbol on S3 splits into hundreds of small weight-space
blocks, a generic symbol stays one component.  Blocks of equal shape go
through one stacked SVD, on a zero array into which their entries are
scattered.  The kernel threshold is relative to the largest singular value
over all blocks, never to a block's own.

Dimensions, singular values and gaps need no singular vectors; only the
residual check reads kernel vectors, at the largest size and only once the
sizes agree on a kernel.  So every block of every truncation takes values
only, and kernel vectors are formed on demand, after the threshold over all
blocks is known.  A block that is alone in its shape group and tall (rows at
least columns, as a generic S1 truncation is) is reduced once to bidiagonal
form, A = Q B P^H (LAPACK zgebrd), and all its singular values come from QR
sweeps on B with no vectors (dbdsqr), the sequence numpy's values-only SVD
runs.  Its k > 0 kernel vectors, when asked for, come from the 2k
eigenpairs nearest zero of B's Golub-Kahan tridiagonal (dstevx), with P
applied to those k vectors only (zunmbr); no n x n matrix is formed.  Every
other group (a stack of equal blocks such as the S3 weight-space blocks, a
wide block, any block on a numpy without those routines) takes one stacked
values-only np.linalg.svd, and its kernel vectors, when asked for, come from
np.linalg.svd with vectors on just the blocks that have a kernel.  The
LAPACKE routines are those of numpy's bundled OpenBLAS, looked up by
blas._lapacke; a routine that fails, or a singular value that is not
finite, raises numpy's LinAlgError, as np.linalg.svd does.

The residual check's product T_{N+1} [v; 0] is summed from the larger
truncation's entries, so a column with no entry contributes nothing and an
exact kernel vector's residual is exactly 0.

The kernel's and the cokernel's families are independent, and
analytic_index_from_truncations reduces them at once where it can.  The
adjoint's truncations are built and split first; where the only shape group
with entries is one tall block (a tall connected component, beside any
empty rows and columns), its reduction starts on a helper thread, and the
caller stabilizes the kernel meanwhile.  The helper runs only
_bidiagonal's LAPACK calls, which drop the GIL, on the array the inline
order would pass, so every value is the same to the bit; builds, splits and
the stabilization stay on the caller's thread.  It is used only where the
caller has a spare CPU (blas.spare_cpu): the process may run on two CPUs,
and the caller is inside no one_blas_thread block.  So no verify case,
which runs inside one, starts it, and no S3 truncation (split into weight
blocks) qualifies.  The call decides before it enters its own hold, which
lasts until the helper is joined.  The helper is made on first use and
joined before the call returns or raises.

Every SVD runs on one BLAS thread (blas.one_blas_thread), the helper's
inside its caller's hold, and the caller's thread count is restored
afterwards.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import blas
from .blas import _COL_MAJOR, _lapack_check
from .errors import ResidualFailureError, UnstabilizedError
from .symbols import Symbol, adjoint, require_invertible

DEFAULT_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-6
GAP_WARN_RATIO = 1e3


def _bidiagonal(lapacke: dict, block: np.ndarray):
    """All singular values of one tall block, descending, and its bidiagonal reduction.

    zgebrd reduces the block to upper bidiagonal form, A = Q B P^H, and
    dbdsqr takes B's singular values with no vectors: the sequence numpy's
    values-only SVD (zgesdd) runs for a block with fewer rows than
    int(17 * cols / 9), so there the values are the same to the bit; from
    that crossover on, zgesdd factors A = QR first.  The reduction
    (the reflectors in the overwritten block, B's diagonals and the
    scalar factors of P) is what _bidiagonal_kernel needs: B's diagonals d
    and e make its Golub-Kahan tridiagonal.
    """
    a = np.array(block, dtype=complex, order="F")
    rows, cols = a.shape
    d, e = np.empty(cols), np.empty(max(cols - 1, 1))
    tauq, taup = np.empty(cols, dtype=complex), np.empty(cols, dtype=complex)
    _lapack_check("zgebrd", lapacke["zgebrd"](
        _COL_MAJOR, rows, cols, a.ctypes.data, rows, d.ctypes.data, e.ctypes.data,
        tauq.ctypes.data, taup.ctypes.data))
    s, work = d.copy(), e.copy()
    _lapack_check("dbdsqr", lapacke["dbdsqr"](
        _COL_MAJOR, b"U", cols, 0, 0, 0, s.ctypes.data, work.ctypes.data,
        None, 1, None, 1, None, 1))
    return s, (a, d, e, taup)


def _bidiagonal_kernel(lapacke: dict, reduction, k: int) -> np.ndarray:
    """Right singular vectors of the k smallest singular values, as columns.

    B's singular pairs are eigenpairs of its Golub-Kahan tridiagonal T: size
    2n, zero diagonal, off-diagonal d1, e1, d2, e2, ..., dn.  For B v = s u
    and B^T u = s v, the interleaved (v1, u1, ..., vn, un) is an eigenvector
    of T for s, and (v, -u) one for -s.  dstevx finds the 2k eigenpairs
    nearest zero, eigenvalues n-k+1 to n+k in ascending order, by bisection
    and inverse iteration, O(n k) work and no n x n matrix; bisection
    handles the blocks into which T splits when kernel values differ by
    orders of magnitude.  Those 2k vectors span the (v, 0) and (0, u) of the
    k smallest values, so their V halves, the even rows, span the k right
    singular vectors: the halves' Gram matrix has k eigenvalues 1 and k
    eigenvalues 0, and its top k eigenvectors map the halves to an
    orthonormal basis.  zunmbr applies P to those k columns only.
    """
    a, d, e, taup = reduction
    rows, cols = a.shape
    n = 2 * cols
    diag, off = np.zeros(n), np.empty(n - 1)
    off[0::2], off[1::2] = d, e[:cols - 1]
    found = np.zeros(1, dtype=np.int64)
    w, ifail = np.empty(n), np.empty(n, dtype=np.int64)
    z = np.empty((n, 2 * k), order="F")
    _lapack_check("dstevx", lapacke["dstevx"](
        _COL_MAJOR, b"V", b"I", n, diag.ctypes.data, off.ctypes.data, 0.0, 0.0,
        cols - k + 1, cols + k, 0.0, found.ctypes.data, w.ctypes.data,
        z.ctypes.data, n, ifail.ctypes.data))
    if found[0] != 2 * k:
        raise np.linalg.LinAlgError(f"LAPACKE dstevx found {found[0]} of {2 * k} eigenpairs")
    halves = z[0::2]
    gram_values, gram_vectors = np.linalg.eigh(halves.T @ halves)
    c = np.asfortranarray(halves @ (gram_vectors[:, k:] / np.sqrt(gram_values[k:])),
                          dtype=complex)
    _lapack_check("zunmbr", lapacke["zunmbr"](
        _COL_MAJOR, b"P", b"L", b"N", cols, k, rows, a.ctypes.data, rows,
        taup.ctypes.data, c.ctypes.data, cols))
    return c


@dataclass(frozen=True)
class Entries:
    """A complex matrix by its nonzero entries.

    rows, cols and values hold one entry per coordinate and no exact zero,
    so they are exactly the sparsity graph of the matrix of the given shape.
    matrix is that dense array, formed on first use and kept.  split, when
    set, is the split of t that _start_split began (None for a plain
    truncation).
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    split: list | None = field(default=None, repr=False, compare=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=complex)
        m[self.rows, self.cols] = self.values
        return m


@dataclass(frozen=True)
class KernelReport:
    """Stabilized kernel dimension of one operator truncation family."""

    dim: int
    sizes: tuple[int, ...]
    dims: tuple[int, ...]
    singular_values: np.ndarray
    spectral_gap: float
    residual: float


def _connected_components(n: int, u: np.ndarray, v: np.ndarray):
    """Connected components of the undirected graph on nodes 0..n-1 with edges {u[k], v[k]}.

    Returns (count, labels): labels[x] numbers x's component, the components
    numbered from 0 in the order of their smallest node.  Hooking and
    pointer jumping (Shiloach and Vishkin, J. Algorithms 1982): every node
    points at a node no larger than itself; each round hooks the larger of
    an edge's two roots under the smaller, then jumps pointers until every
    node points at a root, and the rounds stop when no edge joins two roots.
    A root is then its component's smallest node, so ranking the roots
    numbers the components in that order.
    """
    parent = np.arange(n)
    while True:
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        if not cross.any():
            break
        np.minimum.at(parent, np.maximum(pu, pv)[cross], np.minimum(pu, pv)[cross])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    roots, labels = np.unique(parent, return_inverse=True)
    return roots.size, labels


def _blocks(t: Entries):
    """The connected components of t's sparsity graph as stacks of blocks, one per block shape.

    Yields (row_index, col_index, blocks) per distinct block shape (rows,
    cols), the shapes in increasing order: row_index and col_index are the
    integer arrays of shapes (blocks, rows) and (blocks, cols) of the
    components' rows and columns, and blocks the (blocks, rows, cols) array
    of their submatrices, a zero array into which the entries of those
    components are scattered.  The components of a shape come in the order
    of their smallest node, rows before columns, and each one's rows and
    columns in increasing order.  Rows and columns without an entry are
    components of their own: a zero column is a (0, 1) block, a zero row a
    (1, 0) block.  Components, rows, columns and entries are placed once for
    all shapes; each shape's stack then takes slices of them and one scatter.
    """
    n_rows, n_cols = t.shape
    count, labels = _connected_components(n_rows + n_cols, t.rows, n_rows + t.cols)
    row_label, col_label = labels[:n_rows], labels[n_rows:]
    block_rows = np.bincount(row_label, minlength=count)
    block_cols = np.bincount(col_label, minlength=count)
    # block_cols <= n_cols, so the key orders shapes as (rows, cols) pairs do
    keys, group = np.unique(block_rows * (n_cols + 1) + block_cols, return_inverse=True)
    members = np.bincount(group, minlength=keys.size)
    # rank: each component's place among all by group, then number; block_at: in its group
    rank = np.empty(count, dtype=np.intp)
    rank[np.argsort(group, kind="stable")] = np.arange(count)
    block_at = rank - (np.cumsum(members) - members)[group]

    def placed(label):
        """Nodes by group, component and index, and each node's place in its component."""
        order = np.argsort(rank[label], kind="stable")
        ranked, at = rank[label[order]], np.empty(label.size, dtype=np.intp)
        at[order] = np.arange(label.size) - np.searchsorted(ranked, ranked)
        return order, at

    row_order, row_at = placed(row_label)
    col_order, col_at = placed(col_label)
    # every entry's (block, row, column), the entries by group
    entry_group = group[row_label[t.rows]]
    order = np.argsort(entry_group, kind="stable")
    rows, cols, values = t.rows[order], t.cols[order], t.values[order]
    entry_block, entry_row, entry_col = block_at[row_label[rows]], row_at[rows], col_at[cols]
    shape_rows, shape_cols = np.divmod(keys, n_cols + 1)
    row_end = col_end = entry_end = 0
    for n, nr, nc, ne in zip(members.tolist(), shape_rows.tolist(), shape_cols.tolist(),
                             np.bincount(entry_group, minlength=keys.size).tolist()):
        row_end, col_end, entry_end = row_end + n * nr, col_end + n * nc, entry_end + ne
        row_index = row_order[row_end - n * nr:row_end].reshape(n, nr)
        col_index = col_order[col_end - n * nc:col_end].reshape(n, nc)
        entries = slice(entry_end - ne, entry_end)
        blocks = np.zeros((n, nr, nc), dtype=complex)
        blocks[entry_block[entries], entry_row[entries], entry_col[entries]] = values[entries]
        yield row_index, col_index, blocks


def _one_tall_block(blocks: np.ndarray) -> bool:
    """Whether a shape group is one block with at least as many rows as columns, and some."""
    return len(blocks) == 1 and blocks.shape[1] >= blocks.shape[2] > 0


def _start_split(t: Entries, helper: ThreadPoolExecutor | None) -> Entries:
    """t with its split set, for _svd_split to finish.

    The split is _blocks(t) as (col_index, blocks, reduced) per shape
    group.  When the only group with entries is one tall block, and a helper
    is given, that block's bidiagonal reduction starts on the helper, and
    reduced is its Future in place of the block; the LAPACK calls drop the
    GIL, so it runs while the caller goes on.  Every other group, such as
    the empty rows and columns beside that block, is left to _svd_split,
    with reduced None.
    """
    split = [(col_index, blocks, None) for _, col_index, blocks in _blocks(t)]
    lapacke = blas._lapacke()
    full = [k for k, (_, blocks, _) in enumerate(split) if blocks.size]
    if helper is not None and lapacke is not None and len(full) == 1:
        col_index, blocks, _ = split[full[0]]
        if _one_tall_block(blocks):
            split[full[0]] = (col_index, None, helper.submit(_bidiagonal, lapacke, blocks[0]))
    return replace(t, split=split)


def _svd_split(t: Entries, tol: float):
    """Split the SVD of a truncation, given by its entries, into (dim, sigma, gap, kernel_basis).

    The SVD is the union of the SVDs of the connected components of the
    entries' sparsity graph (see the module docstring), and every block takes
    values only: a block alone in its shape group and tall goes through
    _bidiagonal when the LAPACKE routines are at hand, every other group
    through one stacked values-only np.linalg.svd.  When _start_split set
    t.split, its groups are used, and a started reduction is awaited here in
    place of _bidiagonal: the same call on the same block.  sigma holds
    every block's singular values in descending order, padded with zeros to
    min(rows, cols), as the SVD of the whole matrix would give them.  dim
    counts singular values at most tol * sigma_max, with sigma_max taken
    over all blocks, plus each block's columns beyond its number of singular
    values (possible only for wide blocks, and always for a zero column); a
    zero matrix has every column in the kernel.  gap is the ratio of the smallest kept to the
    largest rejected singular value of sigma.  kernel_basis() returns the
    (cols, dim) kernel basis, each block's kernel right singular vectors
    zero-extended into the block's columns, and forms them only when called:
    _bidiagonal_kernel for a reduced block, the unit vector for a zero column,
    np.linalg.svd with vectors on the other stacked blocks that keep fewer
    values than they have columns.  Raises
    LinAlgError when a singular value is not finite.  The SVDs run on one
    BLAS thread (see the module docstring).
    """
    rows, cols = t.shape
    lapacke = blas._lapacke()
    split = t.split
    if split is None:
        split = ((col_index, blocks, None) for _, col_index, blocks in _blocks(t))
    groups = []
    with blas.one_blas_thread():
        for col_index, blocks, reduced in split:
            if reduced is not None or lapacke is not None and _one_tall_block(blocks):
                s, reduction = (reduced.result() if reduced is not None
                                else _bidiagonal(lapacke, blocks[0]))
                s, blocks = s[None], None  # the reduction keeps its own copy
            else:
                s, reduction = np.linalg.svd(blocks, compute_uv=False), None
            groups.append((col_index, s, blocks, reduction))

    values = np.concatenate([s.ravel() for _, s, _, _ in groups]) if groups else np.zeros(0)
    # numpy's values-only SVD gives NaN for an infinite entry, and LAPACKE
    # lets a NaN through when LAPACKE_NANCHECK=0 switches its check off
    if not np.isfinite(values).all():
        raise np.linalg.LinAlgError("SVD gave a non-finite singular value")
    sigma = np.zeros(min(rows, cols))
    sigma[:values.size] = -np.sort(-values)
    thresh = tol * (sigma[0] if sigma.size else 0.0)
    small = sigma <= thresh
    dim = cols - int(np.count_nonzero(~small))

    def kernel_basis() -> np.ndarray:
        basis = np.zeros((cols, dim), dtype=complex)
        filled = 0
        with blas.one_blas_thread():
            for col_index, s, blocks, reduction in groups:
                nc = col_index.shape[1]
                n_kept = np.count_nonzero(s > thresh, axis=1)
                short = np.flatnonzero(n_kept < nc)
                if short.size == 0:
                    continue
                if reduction is not None:
                    kernel_rows = _bidiagonal_kernel(lapacke, reduction, nc - int(n_kept[0])).T
                    block = np.zeros(len(kernel_rows), dtype=np.intp)
                elif blocks.shape[1] == 0:
                    # zero columns, (0, 1) blocks: each is its own kernel vector
                    block, kernel_rows = short, np.ones((short.size, 1))
                else:
                    _, _, vh = np.linalg.svd(blocks[short], full_matrices=blocks.shape[1] < nc)
                    block, row = np.nonzero(np.arange(nc) >= n_kept[short, None])
                    kernel_rows = vh[block, row].conj()
                    block = short[block]
                slots = filled + np.arange(block.size)
                basis[col_index[block], slots[:, None]] = kernel_rows
                filled += block.size
        return basis

    kept = sigma[~small]
    rejected = sigma[small]
    if dim == 0 or rejected.size == 0 or rejected[0] == 0.0:
        gap = np.inf
    else:
        gap = float(kept[-1] / rejected[0]) if kept.size else np.inf
    return dim, sigma, gap, kernel_basis


def _zero_extended_product(t: Entries, vectors: np.ndarray) -> np.ndarray:
    """t's matrix times the columns of vectors zero-extended to t's columns.

    Summed from t's entries: an entry beyond the vectors' rows meets a zero
    and is skipped, and each row of the product sums its entries' terms in
    entry order (np.bincount, real and imaginary parts apart).
    """
    n, k = vectors.shape
    inside = t.cols < n
    rows, terms = t.rows[inside], t.values[inside][:, None] * vectors[t.cols[inside]]
    index = (rows[:, None] * k + np.arange(k)).ravel()
    size = t.shape[0] * k
    image = np.empty(size, dtype=complex)
    image.real = np.bincount(index, terms.real.ravel(), size)
    image.imag = np.bincount(index, terms.imag.ravel(), size)
    return image.reshape(t.shape[0], k)


def _schedule(sizes: Sequence[int], tol: float, residual_tol: float) -> tuple[int, ...]:
    """sizes as a tuple of ints, once it and both tolerances are checked (ValueError)."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be at least two strictly increasing truncation sizes")
    if not (0.0 <= tol < np.inf and 0.0 <= residual_tol < np.inf):
        raise ValueError(f"tol {tol} and residual_tol {residual_tol} must be finite "
                         f"and non-negative")
    return sizes


def stabilized_kernel_dim(
    builder: Callable[[int], Entries],
    sizes: Sequence[int],
    tol: float = DEFAULT_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    label: str = "kernel",
) -> KernelReport:
    """Kernel dimension trusted across a family of image-exact truncations.

    builder(n) must return the Entries of the truncation whose domain is the
    first n basis bands, with the prefix property: the matrix for a larger n
    contains every smaller one as its leading block.  Raises
    UnstabilizedError when the per-size dimensions disagree,
    ResidualFailureError when a candidate kernel vector fails to annihilate
    the next-larger truncation.  Every size is split the same way, values
    only; kernel vectors are formed only at the largest size, and only once
    the dimensions agree on a kernel.  Raises ValueError unless tol and
    residual_tol are finite and non-negative.
    """
    sizes = _schedule(sizes, tol, residual_tol)
    dims = [_svd_split(builder(n), tol)[0] for n in sizes[:-1]]
    dim, sigma_top, gap_top, kernel_basis = _svd_split(builder(sizes[-1]), tol)
    dims.append(dim)

    if len(set(dims)) != 1:
        raise UnstabilizedError(
            f"{label} dimension does not stabilize across sizes {sizes}: got {dims}")

    residual = 0.0
    if dim > 0:
        basis_top = kernel_basis()
        with blas.one_blas_thread():
            image = _zero_extended_product(builder(sizes[-1] + 1), basis_top)
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


def analytic_index_from_truncations(
    a: Symbol,
    truncate: Callable,
    sizes: Sequence[int],
    tol: float,
    residual_tol: float,
) -> AnalyticIndex:
    """Stabilized Fredholm index of T_a from its manifold's truncation builder.

    truncate(a, n) returns the image-exact truncation of T_a with domain size
    n as Entries, which the engine reads without forming the dense matrix.
    The kernel dimension comes from the symbol's own truncations, the
    cokernel dimension from the adjoint symbol's truncations (coker T_a is
    conjugate-isomorphic to ker T_{a*}).  The symbol must clear the sampled
    invertibility margin first; otherwise it is rejected as non-Fredholm.
    The adjoint's truncations are built and split first, and a helper thread
    may reduce them while the kernel is stabilized (see the module
    docstring); it is joined before this returns or raises.  A caller inside
    blas.one_blas_thread starts none.
    """
    require_invertible(a)
    a_star = adjoint(a)
    sizes = _schedule(sizes, tol, residual_tol)
    # decided before this call's own hold, inside which it has no spare CPU
    helper = ThreadPoolExecutor(max_workers=1) if blas.spare_cpu() else None
    with blas.one_blas_thread():
        try:
            star = {n: _start_split(truncate(a_star, n), helper) for n in sizes}
            ker = stabilized_kernel_dim(lambda n: truncate(a, n), sizes, tol, residual_tol,
                                        label="kernel")
            coker = stabilized_kernel_dim(lambda n: star[n] if n in star
                                          else truncate(a_star, n),
                                          sizes, tol, residual_tol, label="cokernel")
        finally:
            # a reduction left unread follows an error that ended the call, so
            # the inline order would not have run it
            if helper is not None:
                helper.shutdown(cancel_futures=True)
    return AnalyticIndex(
        index=ker.dim - coker.dim,
        ker_dim=ker.dim,
        coker_dim=coker.dim,
        sizes=sizes,
        ker=ker,
        coker=coker,
    )
