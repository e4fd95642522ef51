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

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .kernel import (DEFAULT_RESIDUAL_TOL, DEFAULT_TOL, AnalyticIndex,
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
    a_list, b_list = [], []
    for d in range(band + 1):
        for a in range(d + 1):
            a_list.append(a)
            b_list.append(d - a)
    return np.array(a_list, dtype=int), np.array(b_list, dtype=int)


def monomial_norm_sq(a, b):
    """h(a, b) = a! b! / (a + b + 1)!, the squared monomial norm; log-gamma for stability."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.exp(gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class S3Truncation:
    """Image-exact rectangular block of a three-sphere Toeplitz operator.

    Domain: monomial bands 0..domain_band.  Codomain: bands 0..codomain_band
    with codomain_band = domain_band + symbol.max_shift.  Shape is
    (band_dim(codomain_band) * rank, band_dim(domain_band) * rank).
    """

    matrix: np.ndarray
    domain_band: int
    codomain_band: int
    rank: int


def toeplitz_rect_s3(a: Symbol, domain_band: int) -> S3Truncation:
    """Build the image-exact rectangular truncation with the given domain band."""
    if a.manifold is not S3:
        raise ValueError("toeplitz_rect_s3 is defined for three-sphere symbols only")
    n_band = int(domain_band)
    if n_band < 0:
        raise ValueError("domain_band must be non-negative")
    r = a.rank
    m_band = n_band + a.max_shift
    dom_a, dom_b = monomials_up_to(n_band)
    n_dom = dom_a.size
    n_cod = band_dim(m_band)
    mat = np.zeros((n_cod * r, n_dom * r), dtype=complex)
    blocks = mat.reshape(n_cod, r, n_dom, r)
    log_h_dom = gammaln(dom_a + 1) + gammaln(dom_b + 1) - gammaln(dom_a + dom_b + 2)
    for (p, q, s, t), coeff in a.terms.items():
        tgt_a = dom_a + (p - s)
        tgt_b = dom_b + (q - t)
        valid = (tgt_a >= 0) & (tgt_b >= 0)
        if not np.any(valid):
            continue
        src = np.nonzero(valid)[0]
        ta, tb = tgt_a[src], tgt_b[src]
        lift_a, lift_b = dom_a[src] + p, dom_b[src] + q
        log_pair = gammaln(lift_a + 1) + gammaln(lift_b + 1) - gammaln(lift_a + lift_b + 2)
        log_h_tgt = gammaln(ta + 1) + gammaln(tb + 1) - gammaln(ta + tb + 2)
        weights = np.exp(log_pair - 0.5 * (log_h_dom[src] + log_h_tgt))
        rows = monomial_position(ta, tb)
        # one term sends distinct domain monomials to distinct targets, so
        # no (row, col) block repeats within the fancy-indexed add
        blocks[rows, :, src, :] += weights[:, None, None] * coeff
    return S3Truncation(matrix=mat, domain_band=n_band, codomain_band=m_band, rank=r)


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
