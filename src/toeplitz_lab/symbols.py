"""Matrix-valued symbols on S1 and S3 and their exact algebra.

A Symbol is a matrix polynomial on its manifold: a Laurent polynomial in z on
the circle S1, or a polynomial in z1, z2, z1bar, z2bar restricted to the unit
sphere of C^2 on S3.  Both are dense in the continuous invertible symbols up
to homotopy, and both admit exact finite truncations of the associated
Toeplitz operators downstream.  What differs between the manifolds (exponent
keys, sampling degree, sample grid) sits in a Manifold record, S1 or S3;
the algebra is written once against it.

All symbols are immutable after construction; every operation returns a new
value.  Coefficients are pruned only when exactly zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .blas import one_blas_thread
from .errors import SymbolError

MARGIN_THRESHOLD = 1e-6
UNITARY_TOL = 1e-10  # largest unitarity defect of a pointwise-unitary symbol


def _as_coeff(rank: int | None, value) -> np.ndarray:
    m = np.atleast_2d(np.asarray(value, dtype=complex))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"coefficient must be square, got shape {m.shape}")
    if rank is not None and m.shape[0] != rank:
        raise ValueError(f"coefficient rank {m.shape[0]} != symbol rank {rank}")
    if not np.all(np.isfinite(m)):
        raise ValueError("coefficient entries must be finite")
    m = m.copy()
    m.setflags(write=False)
    return m


class Symbol:
    """Matrix polynomial on a manifold: terms maps exponent keys to r x r matrices.

    On S1 a key k stands for z^k; on S3 a key (p, q, s, t) of non-negative
    integers stands for z1^p z2^q z1bar^s z2bar^t.  Scalars are promoted to
    1 x 1; at least one coefficient must be nonzero.  k_min, k_max and
    bandwidth describe S1 symbols, total_degree and max_shift S3 symbols.
    margin, min |det a|, and unitary, whether max |a^dagger a - I| is at most
    UNITARY_TOL, come from one sample on the margin_grid_size grid, taken on
    first use of either and kept, as is an S3 symbol's _hopf_plan.
    """

    __slots__ = ("manifold", "rank", "_terms", "_margin", "_defect", "_plan")

    def __init__(self, manifold: Manifold, terms: Mapping, rank: int | None = None):
        cleaned: dict = {}
        for key, value in terms.items():
            key = manifold.check_key(key)
            m = _as_coeff(rank, value)
            if rank is None:
                rank = m.shape[0]
            if np.any(m != 0):
                cleaned[key] = m
        if not cleaned:
            raise ValueError("symbol must have at least one nonzero term")
        self.manifold = manifold
        self.rank = rank
        self._terms = MappingProxyType(dict(sorted(cleaned.items())))
        self._margin = self._defect = self._plan = None

    @property
    def terms(self) -> Mapping:
        return self._terms

    @property
    def margin(self) -> float:
        if self._margin is None:
            self._margin, self._defect = _sampled_margin_and_defect(self)
        return self._margin

    @property
    def unitary(self) -> bool:
        self.margin  # the one sample keeps the defect too
        return self._defect <= UNITARY_TOL

    @property
    def k_min(self) -> int:
        return min(self._terms)

    @property
    def k_max(self) -> int:
        return max(self._terms)

    @property
    def bandwidth(self) -> int:
        return self.k_max - self.k_min

    @property
    def total_degree(self) -> int:
        return max(p + q + s + t for (p, q, s, t) in self._terms)

    @property
    def max_shift(self) -> int:
        """Largest upward total-degree shift of the holomorphic grading (S3)."""
        return max(max(p - s + q - t, 0) for (p, q, s, t) in self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return (self.manifold is other.manifold
                and self.rank == other.rank
                and self._terms.keys() == other._terms.keys()
                and all(np.array_equal(self._terms[k], other._terms[k]) for k in self._terms))

    def __repr__(self) -> str:
        return f"Symbol({self.manifold.name}, rank={self.rank}, nterms={len(self._terms)})"


# -- the two manifolds --------------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class Manifold:
    """What the symbol algebra needs to know about one manifold (S1 or S3)."""

    name: str
    key_fields: tuple[str, ...]  # exponent fields of a term in a symbol file
    min_exponent: int | None     # lower bound of each of those fields, if any
    check_key: Callable          # canonical form of a given key; ValueError if invalid
    zero: object                 # key of the constant term
    add: Callable                # key of the product of two terms
    conj: Callable               # key of the complex conjugate of a term
    degree: Callable             # degree that sets how densely a symbol is sampled
    sample: Callable             # (a, n) -> a on the n-per-axis sample grid, (N, r, r)

    def __repr__(self) -> str:
        return self.name


def _s3_key(key) -> tuple[int, int, int, int]:
    p, q, s, t = (int(e) for e in key)
    if min(p, q, s, t) < 0:
        raise ValueError(f"exponents must be non-negative, got {key}")
    return (p, q, s, t)


def _hopf_sample(a: Symbol, n: int) -> np.ndarray:
    theta = np.linspace(0.0, np.pi / 2, n)
    phi = np.arange(n) * (2 * np.pi / n)
    with one_blas_thread():  # as in topology._chern_s3_block: small BLAS products stall
        return eval_hopf_grid(a, theta, phi, phi).reshape(-1, a.rank, a.rank)


S1 = Manifold(
    name="S1",
    key_fields=("k",),
    min_exponent=None,
    check_key=int,
    zero=0,
    add=lambda j, l: j + l,
    conj=lambda k: -k,
    degree=lambda a: a.bandwidth,
    sample=lambda a, n: eval_circle(a, np.exp(2j * np.pi * np.arange(n) / n)),
)

S3 = Manifold(
    name="S3",
    key_fields=("p", "q", "s", "t"),
    min_exponent=0,
    check_key=_s3_key,
    zero=(0, 0, 0, 0),
    add=lambda j, l: tuple(x + y for x, y in zip(j, l)),
    conj=lambda key: (key[2], key[3], key[0], key[1]),
    degree=lambda a: a.total_degree,
    sample=_hopf_sample,
)

def identity(manifold: Manifold, rank: int) -> Symbol:
    return Symbol(manifold, {manifold.zero: np.eye(rank)})


def constant(manifold: Manifold, matrix) -> Symbol:
    return Symbol(manifold, {manifold.zero: matrix})


# The benchmark's workloads (perfbench/workloads.py) import this spelling;
# it goes when they change to identity(S1, r) in a change to the benchmark.
laurent_identity = partial(identity, S1)


def multiply(a: Symbol, b: Symbol) -> Symbol:
    """Pointwise product ab; exact coefficient arithmetic on both manifolds."""
    if a.manifold is not b.manifold:
        raise ValueError("cannot multiply symbols of different manifold kinds")
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    out: dict = {}
    for j, c in a.terms.items():
        for l, d in b.terms.items():
            key = a.manifold.add(j, l)
            out[key] = out.get(key, 0) + c @ d
    return Symbol(a.manifold, out, rank=a.rank)


def adjoint(a: Symbol) -> Symbol:
    """Pointwise conjugate transpose: eval(adjoint(a))(x) = eval(a)(x)^dagger."""
    return Symbol(a.manifold, {a.manifold.conj(key): c.conj().T for key, c in a.terms.items()},
                  rank=a.rank)


def transpose(a: Symbol) -> Symbol:
    """Pointwise transpose without conjugation: eval(transpose(a))(x) = eval(a)(x)^T."""
    return Symbol(a.manifold, {key: c.T for key, c in a.terms.items()}, rank=a.rank)


def direct_sum(a: Symbol, b: Symbol) -> Symbol:
    """Block-diagonal symbol of rank a.rank + b.rank."""
    if a.manifold is not b.manifold:
        raise ValueError("cannot direct-sum symbols of different manifold kinds")
    r, s = a.rank, b.rank
    out: dict = {}
    keys = set(a.terms) | set(b.terms)
    for key in keys:
        m = np.zeros((r + s, r + s), dtype=complex)
        if key in a.terms:
            m[:r, :r] = a.terms[key]
        if key in b.terms:
            m[r:, r:] = b.terms[key]
        out[key] = m
    return Symbol(a.manifold, out, rank=r + s)


# -- circle coefficient vectors and the exact determinant ---------------------

def laurent_coefficients(a: Symbol) -> np.ndarray:
    """a's coefficients over [k_min, k_max], (r, r, bandwidth + 1), exact zeros in the gaps."""
    if a.manifold is not S1:
        raise ValueError("laurent_coefficients is defined for circle symbols only")
    out = np.zeros((a.rank, a.rank, a.bandwidth + 1), dtype=complex)
    for k, c in a.terms.items():
        out[:, :, k - a.k_min] = c
    return out


def _det_coefficients(c: np.ndarray) -> np.ndarray:
    """Cofactor expansion of an (n, n, L) matrix of coefficient vectors, by np.convolve."""
    n = len(c)
    if n == 1:
        return c[0, 0]
    det = np.zeros(n * (c.shape[2] - 1) + 1, dtype=complex)
    for i in np.flatnonzero(c[:, 0].any(axis=1)):  # exactly zero pivots add nothing
        term = np.convolve(c[i, 0], _det_coefficients(np.delete(c[:, 1:], i, axis=0)))
        det += term if i % 2 == 0 else -term
    return det


def det_laurent(a: Symbol) -> Symbol:
    """Exact determinant of a circle symbol as a rank-1 Laurent symbol."""
    if a.manifold is not S1:
        raise ValueError("det_laurent is defined for circle symbols only")
    det = _det_coefficients(laurent_coefficients(a))
    # exact cancellation of tiny cross terms is impossible to distinguish from
    # data; keep every coefficient that is not exactly zero
    if not np.any(det):
        raise ValueError("determinant is identically zero (symbol nowhere invertible)")
    return Symbol(S1, {a.rank * a.k_min + j: [[v]] for j, v in enumerate(det)}, rank=1)


# -- evaluation --------------------------------------------------------------

def eval_circle(a: Symbol, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an array of circle points; returns (n, r, r)."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape + (a.rank, a.rank), dtype=complex)
    for k, c in a.terms.items():
        out += (z ** k)[..., None, None] * c
    return out


def _hopf_plan(a: Symbol) -> tuple:
    """eval_hopf_grid's tables of a alone: exponents, coefficients, frequencies, pair map."""
    p, q, s, t = np.array(list(a.terms)).T
    coeffs = np.array(list(a.terms.values())).reshape(p.size, -1).T  # (r r, K)
    f1, k1 = np.unique(p - s, return_inverse=True)
    f2, k2 = np.unique(q - t, return_inverse=True)
    pairs = np.zeros((p.size, f1.size * f2.size))  # one-hot: term -> its frequency pair
    pairs[np.arange(p.size), k1 * f2.size + k2] = 1.0
    return p, q, s, t, coeffs, f1, f2, pairs


def eval_hopf_grid(a: Symbol, theta: np.ndarray, phi1: np.ndarray, phi2: np.ndarray,
                   partials: bool = False, out=None):
    """Vectorized evaluation on the product Hopf grid theta x phi1 x phi2.

    Returns value array of shape (nt, n1, n2, r, r); with partials=True returns
    (value, d_theta, d_phi1, d_phi2) using the exact per-term derivatives.
    A term z1^p z2^q z1bar^s z2bar^t is cos^(p+s) theta sin^(q+t) theta
    e^{i(p-s) phi1} e^{i(q-t) phi2}, so a field is evaluated by frequency:
    the coefficients times a radial table (d_theta: its derivative) and a
    weight (d_phi1, d_phi2: i(p - s), i(q - t)) are summed per frequency
    pair, and two products with the phase tables fill a points-last
    (r, r, nt, n1, n2) buffer, returned as its transposed view.  The
    frequency pairs come from a's _hopf_plan, made once and kept on a.
    out, when given, is that buffer (with partials, a sequence of four):
    C-contiguous complex arrays the fields are written into, not new ones.
    """
    theta, phi1, phi2 = (np.asarray(x, dtype=float) for x in (theta, phi1, phi2))
    if a._plan is None:
        a._plan = _hopf_plan(a)
    p, q, s, t, coeffs, f1, f2, pairs = a._plan
    phase1, phase2 = np.exp(1j * np.outer(phi1, f1)), np.exp(1j * np.outer(f2, phi2))
    shape = (a.rank, a.rank, theta.size, phi1.size, phi2.size)

    def field(radial, weight, buffer):
        by_pair = ((coeffs * weight)[:, None, :] * radial) @ pairs  # (r r, nt, F1 F2)
        half = phase1 @ by_pair.reshape(-1, f1.size, f2.size)  # (r r nt, n1, F2)
        if buffer is None:
            buffer = np.empty(shape, dtype=complex)
        elif buffer.shape != shape or not buffer.flags.c_contiguous:
            # reshaping any other array copies it, and the product would be lost
            raise ValueError(f"out must be C-contiguous of shape {shape}")
        np.matmul(half.reshape(-1, f2.size), phase2, out=buffer.reshape(-1, phi2.size))
        return buffer.transpose(2, 3, 4, 0, 1)

    ct, st, m, n = np.cos(theta)[:, None], np.sin(theta)[:, None], p + s, q + t
    radial = ct ** m * st ** n  # (nt, K)
    if not partials:
        return field(radial, 1.0, out)
    # d/dtheta cos^m sin^n, with no negative power: a zero exponent's term is 0
    d_radial = (n * ct ** (m + 1) * st ** np.maximum(n - 1, 0)
                - m * ct ** np.maximum(m - 1, 0) * st ** (n + 1))
    out = (None,) * 4 if out is None else out
    return (field(radial, 1.0, out[0]), field(d_radial, 1.0, out[1]),
            field(radial, 1j * (p - s), out[2]), field(radial, 1j * (q - t), out[3]))


def pointwise_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product at every point of points-last stacks: (r, k, N) x (k, s, N) -> (r, s, N).

    Row i is a[i, 0] b[0] + a[i, 1] b[1] + ..., one multiply and one add per
    inner index over whole (s, N) rows, so each entry sums the same products
    in the same order as an entry-by-entry loop; numpy's stacked @ would run
    one tiny matrix product per point.  The product is written into out if given.
    """
    k, n = a.shape[1], a.shape[2]
    if out is None:
        out = np.empty((a.shape[0], b.shape[1], n), dtype=np.result_type(a, b))
    term = np.empty(out.shape[1:], dtype=out.dtype)
    for i in range(out.shape[0]):
        np.multiply(a[i, 0], b[0], out=out[i])
        for l in range(1, k):
            out[i] += np.multiply(a[i, l], b[l], out=term)
    return out


def pointwise_inverse(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse at every point of a points-last stack: (r, r, N) -> (r, r, N).

    Rank 2, the rank of the SU(2) generator, is inverted in closed form by
    the adjugate (_adjugate_inverse).  Other ranks go through Gauss-Jordan
    elimination with partial pivoting, run on all points at once: each row
    operation is one multiply-add over whole point vectors, and the pivot
    row, chosen per point, is swapped in by a masked swap of rows k and
    k + i at the points whose pivot is i.  The eliminated copy of a and the
    inverse are two (r, r, N) buffers.  The inverse is written into out when
    it is given (out may be a itself), and returned.  An exactly zero
    determinant (rank 2) or pivot (otherwise), which makes a singular at
    that point, raises SymbolError.
    """
    if a.shape[0] == 2:
        return _adjugate_inverse(a, out)
    r, n = a.shape[0], a.shape[2]
    work = a.copy()
    inv = np.empty_like(work) if out is None else out
    inv[...] = np.eye(r)[:, :, None]
    scale = np.empty(n, dtype=work.dtype)
    term = np.empty((r, n), dtype=work.dtype)
    for k in range(r):
        # first row of largest modulus, as np.argmax would pick it along axis 0
        mag = np.abs(work[k:, k])
        pivot = np.zeros(n, dtype=np.intp)
        for i in range(1, r - k):
            np.copyto(pivot, i, where=mag[i] > mag[0])
            np.maximum(mag[0], mag[i], out=mag[0])
        for i in range(1, r - k):
            swap = pivot == i
            if not swap.any():
                continue
            # rows from k down are zero in the columns before k, so work
            # swaps columns k on and inv every column
            for buffer, first in ((work, k), (inv, 0)):
                top, row = buffer[k, first:], buffer[k + i, first:]
                held = np.where(swap, row, top)
                np.copyto(row, top, where=swap)
                top[...] = held
        if not np.all(work[k, k]):
            raise SymbolError("symbol is singular at a quadrature node")
        np.divide(1.0, work[k, k], out=scale)
        work[k, k + 1:] *= scale
        inv[k] *= scale
        for i in range(r):
            if i != k:
                factor = work[i, k]
                rest = term[:r - k - 1]
                work[i, k + 1:] -= np.multiply(work[k, k + 1:], factor, out=rest)
                inv[i] -= np.multiply(inv[k], factor, out=term)
    return inv


def _adjugate_inverse(a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """pointwise_inverse of a (2, 2, N) stack: [[a11, -a01], [-a10, a00]] (1 / det a).

    det a = a00 a11 - a01 a10 and its reciprocal are taken once per point,
    and each entry is one product with the reciprocal or its negative.
    Every entry of a is read before the one that overwrites it is written,
    so out may be a.
    """
    a00, a01, a10, a11 = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    scale = np.multiply(a00, a11)
    term = np.multiply(a01, a10)
    scale -= term
    if not np.all(scale):
        raise SymbolError("symbol is singular at a quadrature node")
    np.divide(1.0, scale, out=scale)
    inv = np.empty_like(a) if out is None else out
    np.negative(scale, out=term)
    np.multiply(a01, term, out=inv[0, 1])
    np.multiply(a10, term, out=inv[1, 0])
    np.multiply(a00, scale, out=term)
    np.multiply(a11, scale, out=inv[0, 0])
    inv[1, 1] = term
    return inv


# -- invertibility -----------------------------------------------------------

def invertibility_margin(a: Symbol, grid_size: int = 64) -> float:
    """Min of |det(a(x))| over a sample grid: uniform on S1, product Hopf grid on S3.

    Returns 0 or near-0 for symbols that vanish somewhere; callers gate on it.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    dets = np.linalg.det(a.manifold.sample(a, grid_size))
    return float(np.min(np.abs(dets)))


def margin_grid_size(a: Symbol) -> int:
    """Points per axis, max(16, 4(d + 2)) at sampling degree d, of a's one sample.

    More than a nonzero trigonometric polynomial of degree 2d (an entry of
    a^dagger a - I) can vanish on, and oversampling the zero set of det a.
    """
    return max(16, 4 * (a.manifold.degree(a) + 2))


def _sampled_margin_and_defect(a: Symbol) -> tuple[float, float]:
    """Symbol.margin and the unitarity defect: min |det a|, max |a^dagger a - I| on one sample."""
    vals = a.manifold.sample(a, margin_grid_size(a))
    margin = float(np.min(np.abs(np.linalg.det(vals))))
    stack = np.moveaxis(vals, 0, -1)
    gram = pointwise_matmul(np.conj(stack.transpose(1, 0, 2)), stack)
    return margin, float(np.max(np.abs(gram - np.eye(a.rank)[:, :, None])))


def require_invertible(a: Symbol) -> float:
    """Gate for index pipelines: reject symbols whose determinant gets too small.

    Returns a.margin; raises SymbolError below MARGIN_THRESHOLD, where the
    symbol is not safely Fredholm and no index claim should be made.
    """
    if a.margin < MARGIN_THRESHOLD:
        raise SymbolError(
            f"symbol is not invertible enough on the manifold: sampled |det| margin "
            f"{a.margin:.3e} < {MARGIN_THRESHOLD:.0e} on a {margin_grid_size(a)}-point grid")
    return a.margin


def power(a: Symbol, k: int) -> Symbol:
    """Pointwise power a^k.

    Negative powers are defined only for pointwise-unitary symbols (a.unitary),
    where a^-1 = adjoint(a) keeps the result polynomial.
    """
    k = int(k)
    if k < 0 and not a.unitary:
        raise ValueError(
            f"negative powers need a pointwise-unitary symbol: unitarity defect "
            f"{a._defect:.2e} > {UNITARY_TOL:.0e} on a {margin_grid_size(a)}-point grid")
    base = a if k >= 0 else adjoint(a)
    out = identity(a.manifold, a.rank)
    for _ in range(abs(k)):
        out = multiply(out, base)
    return out
