"""Toeplitz operators on the Hardy space of the three-sphere, truncated exactly.

H^2(S3) is spanned by holomorphic monomials z1^a z2^b with squared norm
h(a, b) = a! b! / (a + b + 1)! under the normalized round measure.  A symbol
term C z1^p z2^q z1bar^s z2bar^t maps the normalized monomial u_{a,b} to a
multiple of u_{a+p-s, b+q-t} (dropped when an exponent would go negative)
with scalar weight h(a+p, b+q) / sqrt(h(a, b) h(a', b')) coming from the
monomial pairing.

Basis ordering is total-degree-major, lexicographic in the z1 exponent
within a band, so truncating to bands 0..N keeps a prefix of the basis.
Rectangular truncations take domain bands 0..N and codomain bands
0..N + max_shift, which captures the image of the domain in full
(image-exactness): nothing a domain vector maps to is discarded.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .kernel import (DEFAULT_RESIDUAL_TOL, DEFAULT_TOL, AnalyticIndex, Entries,
                     analytic_index_from_truncations)
from .symbols import S3, Symbol


def band_dim(band: int) -> int:
    """Number of monomials of total degree at most band."""
    return (band + 1) * (band + 2) // 2


def monomial_position(a, b):
    """Index of z1^a z2^b in the degree-major, z1-lex ordering."""
    d = a + b
    return d * (d + 1) // 2 + a


def monomials_up_to(band: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent arrays (a, b) for all monomials of total degree <= band, in order."""
    degree = np.repeat(np.arange(band + 1), np.arange(1, band + 2))
    a = np.arange(degree.size) - degree * (degree + 1) // 2
    return a, degree - a


@lru_cache(maxsize=32)
def _log_factorials(top: int) -> np.ndarray:
    """math.lgamma(k + 1) for k = 0..top, read-only."""
    table = np.array([math.lgamma(k + 1) for k in range(top + 1)])
    table.setflags(write=False)
    return table


def log_monomial_norm_sq(a, b) -> np.ndarray:
    """log h(a, b) = log a! + log b! - log (a + b + 1)!, elementwise.

    a and b are non-negative integer arrays; each log k! is read from a
    table of math.lgamma(k + 1), k = 0..max(a + b) + 1, made once per size.
    """
    a = np.asarray(a, dtype=np.intp)
    b = np.asarray(b, dtype=np.intp)
    log_factorial = _log_factorials(int(np.max(a + b, initial=0)) + 1)
    return log_factorial[a] + log_factorial[b] - log_factorial[a + b + 1]


def toeplitz_rect_s3(a: Symbol, domain_band: int) -> Entries:
    """The image-exact rectangular truncation with the given domain band, by its nonzero entries.

    Domain: monomial bands 0..domain_band.  Codomain: bands 0..codomain_band
    with codomain_band = domain_band + a.max_shift.  Shape is
    (band_dim(codomain_band) * rank, band_dim(domain_band) * rank); most of
    the dense matrix is zero.  The entries of all terms are formed in one array
    pass over every (term, domain monomial) pair, and come in row-major order.
    """
    if a.manifold is not S3:
        raise ValueError("toeplitz_rect_s3 is defined for three-sphere symbols only")
    n_band = int(domain_band)
    if n_band < 0:
        raise ValueError("domain_band must be non-negative")
    r = a.rank
    dom_a, dom_b = monomials_up_to(n_band)
    n_cols = dom_a.size * r
    p, q, s, t = np.array(list(a.terms)).T
    coeffs = np.array(list(a.terms.values()))
    # every (term, domain monomial) pair that lands on a monomial, in term
    # order and then domain order
    shift_a, shift_b = p - s, q - t
    term, src = np.nonzero((dom_a + shift_a[:, None] >= 0) & (dom_b + shift_b[:, None] >= 0))
    ta, tb = dom_a[src] + shift_a[term], dom_b[src] + shift_b[term]
    log_pair = log_monomial_norm_sq(dom_a[src] + p[term], dom_b[src] + q[term])
    weights = np.exp(log_pair - 0.5 * (log_monomial_norm_sq(dom_a, dom_b)[src]
                                       + log_monomial_norm_sq(ta, tb)))
    # a pair's entries (target * r + i, src * r + j) as flat keys row * n_cols
    # + col, one per nonzero (i, j) of its term's coefficient in c.nonzero()
    # order: entry e of a pair is nonzero nz of all terms', its term's first
    # plus e's place in the pair.  One term's keys are distinct: it sends
    # distinct domain monomials to distinct targets.
    nz_term, nz_i, nz_j = np.nonzero(coeffs != 0)
    per_term = np.bincount(nz_term, minlength=p.size)
    count = per_term[term]
    pair = np.repeat(np.arange(term.size), count)
    nz = np.arange(pair.size) + np.repeat((np.cumsum(per_term) - per_term)[term]
                                          - (np.cumsum(count) - count), count)
    keys = (monomial_position(ta, tb)[pair] * r + nz_i[nz]) * n_cols + (src[pair] * r + nz_j[nz])
    # terms meeting at one coordinate are summed in term order from 0, as
    # adding each term into a zero matrix would; sums that cancel are dropped
    keys, at = np.unique(keys, return_inverse=True)
    summed = np.zeros(keys.size, dtype=complex)
    np.add.at(summed, at, weights[pair] * coeffs[nz_term, nz_i, nz_j][nz])
    nonzero = summed != 0
    rows, cols = np.divmod(keys[nonzero], n_cols)
    n_rows = band_dim(n_band + a.max_shift) * r
    return Entries(shape=(n_rows, n_cols), rows=rows, cols=cols, values=summed[nonzero])


def analytic_index_s3(
    a: Symbol,
    trunc: int = 12,
    tol: float = DEFAULT_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    sizes: Sequence[int] | None = None,
) -> AnalyticIndex:
    """Stabilized Fredholm index of T_a on H^2(S3), by kernel.analytic_index_from_truncations.

    The schedule compares domain bands N = trunc and N + 4 unless sizes is given.
    """
    if sizes is None:
        sizes = (int(trunc), int(trunc) + 4)
    # looked up at call time, as in hardy_s1.analytic_index_s1
    return analytic_index_from_truncations(a, toeplitz_rect_s3, sizes, tol, residual_tol)
