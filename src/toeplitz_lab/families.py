"""Concrete symbol families: monomials, the SU(2) generator, seeded random suites.

The random generators are the workhorses of the verification suite.  They are
built so that the true index is known by construction — scalar circle symbols
come as z^p times a product of linear factors with roots kept well away from
the circle (winding = p + number of interior roots), matrix symbols as
unitary sandwiches of diagonal ones — which is what lets the analytic and
topological pipelines be checked against ground truth rather than against
each other only.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.linalg

from .symbols import (S1, S3, Symbol, constant, direct_sum, invertibility_margin,
                      multiply, power)

# Root radii for random scalar symbols: interior roots in [0.15, 0.70],
# exterior in [1.43, 3.00].  Both bands keep every linear factor at least
# 0.3 in modulus on the circle, so products stay comfortably invertible.
SCALAR_INTERIOR_RADII = (0.15, 0.70)
SCALAR_EXTERIOR_RADII = (1.43, 3.00)
SCALAR_MAX_ROOTS = 5
SCALAR_WINDOW = 6

# Per-entry radii for the diagonal cores of random matrix symbols are pushed
# further from the circle (at most 2 roots per entry) and every entry is
# rescaled to unit-order margin, so the determinant margin of a rank <= 3
# sandwich stays above 0.1 by construction.
MATRIX_INTERIOR_RADII = (0.15, 0.50)
MATRIX_EXTERIOR_RADII = (2.00, 4.00)
MATRIX_MAX_ROOTS_PER_ENTRY = 2
MATRIX_WINDOW = 4
MATRIX_MAX_RANK = 3

# Singular values of the constant factors that sandwich a symbol: condition
# number at most 2, so kernel detection margins survive the sandwich.
SANDWICH_SINGULAR_VALUES = (0.7, 1.4)

# Norm of the generator X of a homotopy path t -> exp(tX) a.
HOMOTOPY_STRENGTH = 0.4


def z_power(m: int, rank: int = 1) -> Symbol:
    """The monomial symbol z^m (times the identity for rank > 1)."""
    return Symbol(S1, {int(m): np.eye(rank)})


def su2_symbol() -> Symbol:
    """Degree-one unitary generator [[z1, z2], [-z2bar, z1bar]] on S3.

    Pointwise in SU(2); its Toeplitz operator has a trivial kernel and a
    one-dimensional cokernel, hence index -1.  Its transpose (equivalently,
    reading the same matrix as acting on row vectors) has index +1.
    """
    return Symbol(S3, {
        (1, 0, 0, 0): [[1, 0], [0, 0]],
        (0, 1, 0, 0): [[0, 1], [0, 0]],
        (0, 0, 0, 1): [[0, 0], [-1, 0]],
        (0, 0, 1, 0): [[0, 0], [0, 1]],
    })


def su2_power(k: int) -> Symbol:
    """Pointwise power of the SU(2) generator; index of its Toeplitz operator is -k."""
    return power(su2_symbol(), k)


def s3_representative(m: int) -> tuple[Symbol, tuple[int, int]]:
    """A three-sphere symbol of index m with its trusted truncation sizes.

    |m| <= 2 uses a power of the SU(2) generator directly.  |m| = 3 uses a
    direct sum of the power-2 and power-1 representatives: higher powers have
    geometrically decaying (not exactly vanishing) kernel candidates whose
    detection cost grows fast with the power, while direct sums keep the
    exact block kernels of the summands.  The size schedule reflects the
    slowest-decaying block: powers beyond +-1 resolve cleanly from band 20 up.
    """
    m = int(m)
    if abs(m) > 3:
        raise ValueError("representatives are provided for indices in [-3, 3]")
    if abs(m) <= 2:
        sym = su2_power(-m)
    else:
        sign = 1 if m > 0 else -1
        sym = direct_sum(su2_power(-sign * 2), su2_power(-sign * 1))
    sizes = (8, 12) if abs(m) <= 1 else (20, 24)
    return sym, sizes


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def well_conditioned_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random invertible matrix with singular values in SANDWICH_SINGULAR_VALUES.

    Condition number is capped at their ratio, so sandwiching a symbol with
    these factors perturbs kernel singular values by at most that factor —
    detection margins survive.
    """
    u = haar_unitary(rng, n)
    v = haar_unitary(rng, n)
    s = rng.uniform(*SANDWICH_SINGULAR_VALUES, size=n)
    return u @ np.diag(s) @ v


def _random_root(rng: np.random.Generator, interior: bool,
                 radii_in: tuple, radii_out: tuple) -> complex:
    lo, hi = radii_in if interior else radii_out
    return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())


def _root_product(roots: Sequence[complex], shift: int, scale: complex) -> Symbol:
    f = Symbol(S1, {shift: [[scale]]})
    for rho in roots:
        factor = Symbol(S1, {1: [[1.0]], 0: [[-rho]]})
        f = multiply(f, factor)
    return f


def random_scalar_symbol(rng: np.random.Generator) -> tuple[Symbol, int]:
    """Random invertible scalar circle symbol with its winding known by construction.

    Returns (symbol, winding).  Shape: c z^p prod_j (z - rho_j) with at most
    5 roots split between the interior and exterior radius bands, exponent
    window inside [-6, 6], and |c| in [0.7, 1.8]; winding = p + #interior.
    """
    n_roots = int(rng.integers(1, SCALAR_MAX_ROOTS + 1))
    interior_flags = rng.uniform(size=n_roots) < 0.5
    roots = [_random_root(rng, flag, SCALAR_INTERIOR_RADII, SCALAR_EXTERIOR_RADII)
             for flag in interior_flags]
    shift = int(rng.integers(-SCALAR_WINDOW, SCALAR_WINDOW - n_roots + 1))
    scale = rng.uniform(0.7, 1.8) * np.exp(2j * np.pi * rng.uniform())
    f = _root_product(roots, shift, scale)
    winding = shift + int(np.count_nonzero(interior_flags))
    return f, winding


def diag_laurent(entries: Sequence[Symbol]) -> Symbol:
    """Diagonal matrix symbol from scalar circle symbols."""
    out = entries[0]
    for e in entries[1:]:
        out = direct_sum(out, e)
    return out


def random_matrix_symbol(rng: np.random.Generator,
                         rank: int | None = None) -> tuple[Symbol, int]:
    """Random invertible matrix circle symbol with its index known by construction.

    Returns (symbol, index).  Shape: U diag(d_1..d_r) V with U, V Haar
    unitaries and each d_i a root product with at most 2 roots (windows
    inside [-4, 4]), rescaled so its margin on the circle lands in
    [0.55, 1.8].  Constant unitary factors do not move the index, so
    index = -sum_i winding(d_i), and the determinant margin is the product
    of the per-entry margins (unitaries have unimodular determinant).

    rank pins the matrix size (needed for product pairs); by default it is
    drawn uniformly from 1..MATRIX_MAX_RANK.
    """
    rank = int(rng.integers(1, MATRIX_MAX_RANK + 1)) if rank is None else int(rank)
    entries, winding_sum = [], 0
    for _ in range(rank):
        n_roots = int(rng.integers(0, MATRIX_MAX_ROOTS_PER_ENTRY + 1))
        interior_flags = rng.uniform(size=n_roots) < 0.5
        roots = [_random_root(rng, flag, MATRIX_INTERIOR_RADII, MATRIX_EXTERIOR_RADII)
                 for flag in interior_flags]
        shift = int(rng.integers(-MATRIX_WINDOW, MATRIX_WINDOW - n_roots + 1))
        d = _root_product(roots, shift, 1.0)
        margin = invertibility_margin(d, 64)
        target = rng.uniform(0.55, 1.8)
        d = multiply(constant(S1, [[target / margin]]), d)
        entries.append(d)
        winding_sum += shift + int(np.count_nonzero(interior_flags))
    core = diag_laurent(entries)
    u = constant(S1, haar_unitary(rng, rank))
    v = constant(S1, haar_unitary(rng, rank))
    return multiply(u, multiply(core, v)), -winding_sum


def constant_sandwich(a: Symbol, rng: np.random.Generator) -> Symbol:
    """L a R with random well-conditioned constant factors; index is unchanged."""
    left = constant(a.manifold, well_conditioned_matrix(rng, a.rank))
    right = constant(a.manifold, well_conditioned_matrix(rng, a.rank))
    return multiply(left, multiply(a, right))


def homotopy_path(a: Symbol, rng: np.random.Generator):
    """Returns t -> exp(tX) a for a fixed random X with norm HOMOTOPY_STRENGTH.

    A path of symbols through constant invertible factors: every point is
    invertible, so the Fredholm index must be constant along it.
    """
    x = rng.standard_normal((a.rank, a.rank)) + 1j * rng.standard_normal((a.rank, a.rank))
    x *= HOMOTOPY_STRENGTH / np.linalg.norm(x, 2)

    def at(t: float) -> Symbol:
        return multiply(constant(a.manifold, scipy.linalg.expm(float(t) * x)), a)

    return at
