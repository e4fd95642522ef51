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

from typing import Sequence

import numpy as np

from .kernel import (DEFAULT_RESIDUAL_TOL, DEFAULT_TOL, AnalyticIndex, Entries,
                     analytic_index_from_truncations)
from .symbols import S1, Symbol


def toeplitz_rect_s1(a: Symbol, domain_size: int) -> Entries:
    """The image-exact rectangular truncation with the given domain size, by its nonzero entries.

    Domain: degrees 0..domain_size-1.  Codomain: degrees 0..codomain_size-1
    with codomain_size = domain_size + max(k_max, 0), so the shape is
    (codomain_size * rank, domain_size * rank).
    """
    if a.manifold is not S1:
        raise ValueError("toeplitz_rect_s1 is defined for circle symbols only")
    n_dom = int(domain_size)
    if n_dom < 1:
        raise ValueError("domain_size must be positive")
    r = a.rank
    n_cod = n_dom + max(a.k_max, 0)
    rows, cols, values = [], [], []
    for k, c in a.terms.items():
        # domain degrees n with 0 <= n + k < n_cod, and c's nonzero entries;
        # terms have distinct k, so no coordinate is written twice
        n = np.arange(max(-k, 0), min(n_dom, n_cod - k))
        i, j = c.nonzero()
        rows.append(((n + k)[:, None] * r + i).ravel())
        cols.append((n[:, None] * r + j).ravel())
        values.append(np.tile(c[i, j], n.size))
    return Entries(shape=(n_cod * r, n_dom * r), rows=np.concatenate(rows),
                   cols=np.concatenate(cols), values=np.concatenate(values))


def analytic_index_s1(
    a: Symbol,
    trunc: int = 64,
    tol: float = DEFAULT_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    sizes: Sequence[int] | None = None,
) -> AnalyticIndex:
    """Stabilized Fredholm index of T_a on H^2(S1), by kernel.analytic_index_from_truncations.

    The schedule compares domain sizes N = trunc and 2N unless sizes is given.
    """
    if sizes is None:
        sizes = (int(trunc), 2 * int(trunc))
    # looked up at call time, so a wrapper bound in its place on this module
    # (the traced benchmark binds one) sees every build
    return analytic_index_from_truncations(a, toeplitz_rect_s1, sizes, tol, residual_tol)
