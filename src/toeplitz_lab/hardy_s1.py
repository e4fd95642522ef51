"""Toeplitz operators on the Hardy space of the circle, truncated exactly.

H^2(S1) has orthonormal basis e_n = z^n, n >= 0; the Toeplitz operator with
matrix symbol a = sum_k c_k z^k acts with block matrix entries
(T_a)_{m,n} = c_{m-n}.  Truncations here are rectangular and image-exact:
with domain degrees 0..N-1 and codomain degrees 0..N-1+max(k_max, 0), every
product of the symbol against a domain vector is captured in full.  Square
N x N truncations silently discard rows and manufacture spurious kernels for
symbols with positive exponents; they are never used.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import (DEFAULT_RESIDUAL_TOL, DEFAULT_TOL, AnalyticIndex,
                     analytic_index_from_builders)
from .symbols import Symbol, adjoint, require_invertible


@dataclass(frozen=True)
class S1Truncation:
    """Image-exact rectangular block of a circle Toeplitz operator.

    Domain: degrees 0..domain_size-1.  Codomain: degrees 0..codomain_size-1
    with codomain_size = domain_size + max(k_max, 0), so the matrix has shape
    (codomain_size * rank, domain_size * rank).
    """

    matrix: np.ndarray
    domain_size: int
    codomain_size: int
    rank: int


def toeplitz_rect_s1(a: Symbol, domain_size: int) -> S1Truncation:
    """Build the image-exact rectangular truncation with the given domain size."""
    n_dom = int(domain_size)
    if n_dom < 1:
        raise ValueError("domain_size must be positive")
    r = a.rank
    n_cod = n_dom + max(a.k_max, 0)
    mat = np.zeros((n_cod * r, n_dom * r), dtype=complex)
    blocks = mat.reshape(n_cod, r, n_dom, r)
    for k, c in a.terms.items():
        # domain degrees n with 0 <= n + k < n_cod; terms have distinct k, so
        # no block is written twice
        n = np.arange(max(-k, 0), min(n_dom, n_cod - k))
        blocks[n + k, :, n, :] = c
    return S1Truncation(matrix=mat, domain_size=n_dom, codomain_size=n_cod, rank=r)


def default_sizes_s1(trunc: int) -> tuple[int, int]:
    """Stabilization schedule on the circle: compare N against 2N."""
    return (int(trunc), 2 * int(trunc))


def analytic_index_s1(
    a: Symbol,
    trunc: int = 64,
    tol: float = DEFAULT_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    sizes: Sequence[int] | None = None,
) -> AnalyticIndex:
    """Stabilized Fredholm index of T_a on H^2(S1).

    The kernel dimension comes from the symbol's own truncations, the
    cokernel dimension from the adjoint symbol's truncations (coker T_a is
    conjugate-isomorphic to ker T_{a*}).  The symbol must clear the sampled
    invertibility margin first; otherwise it is rejected as non-Fredholm.
    """
    require_invertible(a)
    if sizes is None:
        sizes = default_sizes_s1(trunc)
    a_star = adjoint(a)
    return analytic_index_from_builders(
        ker_builder=lambda n: toeplitz_rect_s1(a, n).matrix,
        coker_builder=lambda n: toeplitz_rect_s1(a_star, n).matrix,
        sizes=sizes,
        tol=tol,
        residual_tol=residual_tol,
    )
