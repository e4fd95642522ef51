"""Point-by-point oracles the tests check the program's grid and block paths against.

No program path evaluates a symbol at a single point: the analytic route
splits truncations and the topological route runs grid quadrature.  These
one-point forms stay here, as independent references for the tests: a
symbol's value and exact partials at one manifold point, the squared
monomial norm of H^2(S3), the six-term trace of the S3 Chern form, the
pointwise Gauss-Jordan inverse with its pivot rows swapped in through flat
indices, and the SVD kernel dimension of one matrix.  entries() gives a dense test matrix
as the Entries the kernel engine takes, and sample_calls() records every
symbol a manifold samples.  Not collected by pytest; the test modules import
it as ``oracles`` from their own directory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from toeplitz_lab.hardy_s3 import log_monomial_norm_sq
from toeplitz_lab.kernel import DEFAULT_TOL, Entries, _svd_split
from toeplitz_lab.errors import SymbolError
from toeplitz_lab.symbols import S1, S3, Symbol


@dataclass(frozen=True)
class HopfPoint:
    """Point of S3 in Hopf coordinates: z1 = cos(theta) e^{i phi1}, z2 = sin(theta) e^{i phi2}."""

    theta: float
    phi1: float
    phi2: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi / 2):
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")
        if not (0.0 <= self.phi1 < 2 * np.pi and 0.0 <= self.phi2 < 2 * np.pi):
            raise ValueError("phi angles must lie in [0, 2*pi)")


def _hopf_point(x) -> HopfPoint:
    return x if isinstance(x, HopfPoint) else HopfPoint(*x)


def _hopf_monomial(key: tuple, x: HopfPoint) -> complex:
    p, q, s, t = key
    radial = np.cos(x.theta) ** (p + s) * np.sin(x.theta) ** (q + t)
    return radial * np.exp(1j * ((p - s) * x.phi1 + (q - t) * x.phi2))


def evaluate(a: Symbol, point) -> np.ndarray:
    """Evaluate the symbol at one manifold point.

    S1 symbols take a unit-modulus complex number; S3 symbols take a HopfPoint.
    """
    if a.manifold is S1:
        point, monomial = complex(point), lambda k, z: z ** k
    else:
        point, monomial = _hopf_point(point), _hopf_monomial
    out = np.zeros((a.rank, a.rank), dtype=complex)
    for key, c in a.terms.items():
        out += c * monomial(key, point)
    return out


def hopf_partials(a: Symbol, point: HopfPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact partial derivatives (d_theta a, d_phi1 a, d_phi2 a) at one point, term by term.

    d_theta differentiates cos^(p+s) theta sin^(q+t) theta by the product
    rule; a phi partial multiplies a term by i(p - s) or i(q - t).
    """
    x = _hopf_point(point)
    ct, st = np.cos(x.theta), np.sin(x.theta)
    dth, dp1, dp2 = (np.zeros((a.rank, a.rank), dtype=complex) for _ in range(3))
    for (p, q, s, t), c in a.terms.items():
        monomial = _hopf_monomial((p, q, s, t), x)
        phase = np.exp(1j * ((p - s) * x.phi1 + (q - t) * x.phi2))
        d_radial = 0.0
        if p + s > 0:
            d_radial += (p + s) * ct ** (p + s - 1) * (-st) * st ** (q + t)
        if q + t > 0:
            d_radial += (q + t) * st ** (q + t - 1) * ct * ct ** (p + s)
        dth += c * (d_radial * phase)
        dp1 += c * (1j * (p - s) * monomial)
        dp2 += c * (1j * (q - t) * monomial)
    return dth, dp1, dp2


def monomial_norm_sq(a, b):
    """h(a, b) = a! b! / (a + b + 1)!, the squared monomial norm; log-factorials for stability."""
    out = np.exp(log_monomial_norm_sq(a, b))
    return float(out) if out.ndim == 0 else out


def six_term_trace(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> complex:
    """tr of the fully antisymmetrized product over all six orderings of (a1, a2, a3)."""
    return complex(
        np.trace(a1 @ a2 @ a3) - np.trace(a1 @ a3 @ a2)
        + np.trace(a2 @ a3 @ a1) - np.trace(a2 @ a1 @ a3)
        + np.trace(a3 @ a1 @ a2) - np.trace(a3 @ a2 @ a1))


def flat_index_inverse(a: np.ndarray, pivots: list | None = None) -> np.ndarray:
    """symbols.pointwise_inverse with each pivot row swapped in by a flat-index gather and scatter.

    The same Gauss-Jordan elimination over a points-last (r, r, N) stack and
    the same pivot choice; the pivot rows of step k, counted from k, are
    appended to pivots when it is given.
    """
    r, n = a.shape[0], a.shape[2]
    work = a.copy()
    inv = np.zeros_like(work)
    for i in range(r):
        inv[i, i] = 1.0
    scale = np.empty(n, dtype=work.dtype)
    term = np.empty((r, n), dtype=work.dtype)
    points = np.arange(n)
    for k in range(r):
        mag = np.abs(work[k:, k])
        pivot = np.zeros(n, dtype=np.intp)
        for i in range(1, r - k):
            np.copyto(pivot, i, where=mag[i] > mag[0])
            np.maximum(mag[0], mag[i], out=mag[0])
        if pivots is not None:
            pivots.append(pivot)
        if pivot.any():
            for buffer, first in ((work, k), (inv, 0)):
                flat = buffer.reshape(-1)
                columns = (np.arange(first, r) * n)[:, None]
                src = (k + pivot) * (r * n) + points + columns
                dst = k * (r * n) + points + columns
                row = flat[src]
                flat[src] = flat[dst]
                flat[dst] = row
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


def entries(matrix) -> Entries:
    """The Entries of a dense array: its shape and one row, column and value per nonzero."""
    m = np.asarray(matrix, dtype=complex)
    rows, cols = m.nonzero()
    return Entries(m.shape, rows, cols, m[rows, cols])


def kernel_dim(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """SVD kernel dimension of one dense matrix at relative threshold tol.

    Singular values at most tol times the largest one count as kernel; the
    values are taken per connected block of the matrix's sparsity graph, with
    the threshold set by the largest singular value of all blocks, and no
    singular vector is formed.
    """
    return _svd_split(entries(matrix), tol)[0]


def sample_calls(monkeypatch) -> list:
    """The symbols S1.sample and S3.sample are called on, in call order, while monkeypatch holds.

    A Manifold is a frozen dataclass, so the counting sample goes into the
    instance dictionary, where attribute lookup finds it first.
    """
    calls: list = []
    for manifold in (S1, S3):
        def counted(a, n, sample=manifold.sample):
            calls.append(a)
            return sample(a, n)
        monkeypatch.setitem(vars(manifold), "sample", counted)
    return calls
