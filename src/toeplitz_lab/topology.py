"""Topological index: winding numbers on S1, odd Chern character on S1 and S3.

Two independent winding oracles are kept deliberately distinct (argument
tracking vs root counting) so they can cross-check each other.  The Chern
character is evaluated by quadrature of the odd Chern form; since the Todd
class of an odd sphere is 1, the index-theorem pairing is just the integral
of that form against the fundamental class.

On S3 the quadrature uses Hopf coordinates, with theta integrated in
t = cos 2 theta; for a pointwise-unitary symbol (Symbol.unitary) the default
node counts come from its degree and make the quadrature exact.  The
coordinate 3-form dtheta ^ dphi1 ^ dphi2 is negatively oriented relative to
the fundamental class the index pairing uses; the constant
S3_ORIENTATION_SIGN = -1 is that orientation correction, calibrated once on
the degree-one unitary family and frozen (see the calibration test, which
pins it against the analytic index from an independent pipeline).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .blas import one_blas_thread
from .errors import NonIntegralChernError, SymbolError, UndersampledError
from .symbols import (S1, S3, Symbol, eval_circle, eval_hopf_grid, laurent_coefficients,
                      pointwise_inverse, pointwise_matmul, require_invertible)

S3_ORIENTATION_SIGN = -1

ZERO_ON_CIRCLE_TOL = 1e-12
ROOT_ON_CIRCLE_TOL = 1e-8
INTEGRALITY_TOL = 1e-4
MAX_PHASE_STEP = np.pi / 2
MAX_DOUBLINGS = 3
THETA_CHUNK = 8  # Gauss-Legendre nodes in t = cos 2 theta per summed block of the S3 quadrature
CHUNK_ENTRIES = 18_432  # most pointwise matrix entries per field in one batch of those nodes
DEFAULT_GRID = 512  # circle quadrature and winding grid points
DEFAULT_NODES = 24  # Hopf nodes in theta and in each phi angle of a non-unitary symbol


def _require_scalar(f: Symbol, what: str) -> None:
    if f.manifold is not S1:
        raise ValueError(f"{what} is defined for circle symbols only")
    if f.rank != 1:
        raise ValueError(
            f"{what} is defined for scalar symbols; got rank {f.rank} "
            f"(take det_laurent first)")


def winding_argument(f: Symbol, grid: int = DEFAULT_GRID) -> int:
    """Winding number of a scalar circle symbol by principal-branch phase tracking.

    Any phase step exceeding pi/2 means the grid cannot certify the branch
    choice; the grid is doubled, up to three times, before giving up with
    UndersampledError.  A value within 1e-12 of zero anywhere is rejected as
    a zero on the circle (SymbolError): no winding number exists.
    """
    _require_scalar(f, "winding_argument")
    grid = int(grid)
    if grid < 8:
        raise ValueError("grid must be at least 8")
    for n in (grid * 2 ** i for i in range(MAX_DOUBLINGS + 1)):
        z = np.exp(2j * np.pi * np.arange(n + 1) / n)
        vals = eval_circle(f, z)[:, 0, 0]
        if np.min(np.abs(vals)) < ZERO_ON_CIRCLE_TOL:
            raise SymbolError(
                "symbol vanishes on the circle (|f| < 1e-12 at a grid point); "
                "winding number undefined")
        steps = np.angle(vals[1:] / vals[:-1])
        if np.max(np.abs(steps)) <= MAX_PHASE_STEP:
            total = float(np.sum(steps))
            return int(round(total / (2 * np.pi)))
    raise UndersampledError(
        f"phase steps above pi/2 persist after {MAX_DOUBLINGS} grid doublings "
        f"(final grid {n}); winding cannot be certified")


def winding_roots(f: Symbol) -> int:
    """Winding number of a scalar circle symbol by root counting.

    f's coefficients over its exponent window [p, q], reversed, are those of
    the polynomial z^-p f(z); the winding equals p plus its number of roots
    in the open unit disk.  Roots within 1e-8 of the circle are rejected
    (SymbolError): the symbol is not safely invertible there.
    """
    _require_scalar(f, "winding_roots")
    roots = np.roots(laurent_coefficients(f)[0, 0, ::-1])
    on_circle = np.abs(1.0 - np.abs(roots)) < ROOT_ON_CIRCLE_TOL
    if np.any(on_circle):
        worst = roots[on_circle][0]
        raise SymbolError(
            f"root of the symbol at |z| = {abs(worst):.12f}, within 1e-8 of the "
            f"unit circle; winding number undefined")
    inside = int(np.count_nonzero(np.abs(roots) < 1.0))
    return f.k_min + inside


@dataclass(frozen=True)
class ChernValue:
    """Chern character pairing with its quadrature-refinement evidence.

    value is the quadrature at the requested resolution, refined the same at
    doubled resolution; rounded is the integer nearest the refined value, and
    the two defects are the refined value's distances from value and rounded.
    """

    value: complex
    refined: complex
    resolution: tuple[int, ...]

    @property
    def rounded(self) -> int:
        return int(round(self.refined.real))

    @property
    def doubling_defect(self) -> float:
        return float(abs(self.refined - self.value))

    @property
    def integrality_defect(self) -> float:
        return float(abs(self.refined - self.rounded))


def _chern_s1_raw(a: Symbol, grid: int) -> complex:
    deriv = {k: 1j * k * c for k, c in a.terms.items() if k != 0}
    if not deriv:
        return 0.0 + 0.0j
    da = Symbol(S1, deriv, rank=a.rank)
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    vals = eval_circle(a, z)
    dvals = eval_circle(da, z)
    try:
        logdiff = np.linalg.solve(vals, dvals)
    except np.linalg.LinAlgError as exc:
        raise SymbolError("symbol is singular at a quadrature node") from exc
    traces = np.trace(logdiff, axis1=-2, axis2=-1)
    integral = np.sum(traces) * (2 * np.pi / grid)
    return complex(-integral / (2j * np.pi))


def chern_s1(a: Symbol, grid: int = DEFAULT_GRID) -> ChernValue:
    """Odd Chern character pairing on the circle: -(1/2 pi i) integral tr(a^-1 da).

    Exact coefficient differentiation, periodic trapezoid quadrature, and a
    mandatory grid-doubling rerun whose difference is reported as the
    doubling defect.  For invertible symbols this equals minus the winding
    of det a.
    """
    if a.manifold is not S1:
        raise ValueError("chern_s1 is defined for circle symbols only")
    grid = int(grid)
    (_, value), (_, refined) = chern_ladder(a, 2, grid=grid)
    return ChernValue(value, refined, (grid,))


def _chern_s3_integrand(a: Symbol, theta: np.ndarray, phi: np.ndarray, unitary: bool,
                        workspace: np.ndarray, out: np.ndarray) -> None:
    """3 tr(A_theta [A_phi1, A_phi2]) on the grid theta x phi x phi, written into out.

    out holds nt n n entries, in the grid's order.  workspace holds ten flat
    buffers (four fields, the inverse, five products), each used through its
    leading r r nt n n entries as one contiguous (r, r, N) stack.
    """
    r, count = a.rank, theta.size * phi.size ** 2
    val, dth, dp1, dp2, inv, a_th, a_p1, a_p2, comm, swapped = (
        buffer[:r * r * count].reshape(r, r, count) for buffer in workspace)
    grid = (r, r, theta.size, phi.size, phi.size)
    eval_hopf_grid(a, theta, phi, phi, partials=True,
                   out=[f.reshape(grid) for f in (val, dth, dp1, dp2)])
    if unitary:
        np.conj(val.transpose(1, 0, 2), out=inv)
    else:
        pointwise_inverse(val, out=inv)
    pointwise_matmul(inv, dth, out=a_th)
    pointwise_matmul(inv, dp1, out=a_p1)
    pointwise_matmul(inv, dp2, out=a_p2)
    pointwise_matmul(a_p1, a_p2, out=comm)
    comm -= pointwise_matmul(a_p2, a_p1, out=swapped)
    np.einsum('ijn,jin->n', a_th, comm, out=out)
    out *= 3.0


def _diagonal_blocks(a: Symbol) -> list[Symbol]:
    """a's square diagonal blocks, after a constant row and column permutation.

    The blocks are the connected components of the graph on a's rows (nodes
    0..r-1) and columns (r..2r-1) linked by the entries of the union of a's
    coefficient patterns, by size, then smallest node, rows and columns
    ascending: the order their values are summed in.  A non-square component
    makes a singular everywhere (SymbolError).
    """
    r, pattern = a.rank, np.any([c != 0 for c in a.terms.values()], axis=0)
    linked = np.block([[np.eye(r, dtype=bool), pattern], [pattern.T, np.eye(r, dtype=bool)]])
    # ceil(log2 2r) squarings close the graph; a node's first reachable node labels it
    label = np.linalg.matrix_power(linked, 1 << (2 * r - 1).bit_length()).argmax(axis=1)
    smallest = np.flatnonzero(label == np.arange(2 * r))  # each component's smallest node
    blocks = sorted(((np.flatnonzero(label[:r] == n), np.flatnonzero(label[r:] == n))
                     for n in smallest), key=lambda block: block[0].size)
    if any(rows.size != cols.size for rows, cols in blocks):
        raise SymbolError("symbol is singular at a quadrature node")
    if len(blocks) == 1:
        return [a]
    return [Symbol(S3, {key: c[np.ix_(rows, cols)] for key, c in a.terms.items()},
                   rank=rows.size)
            for rows, cols in blocks]


def _chern_s3_raw(blocks: list[Symbol], theta_nodes: int, phi_nodes: int,
                  unitary: bool) -> complex:
    """The S3 quadrature of a symbol from its diagonal blocks (_diagonal_blocks): their sum.

    The odd Chern character is additive over direct sums and unchanged by
    constant row and column permutations, so each block is integrated alone
    and the zero blocks between them never enter a pointwise product.
    """
    values = [_chern_s3_block(block, theta_nodes, phi_nodes, unitary) for block in blocks]
    return sum(values[1:], values[0])


@lru_cache(maxsize=32)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], made once per count, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _chern_s3_block(a: Symbol, theta_nodes: int, phi_nodes: int, unitary: bool) -> complex:
    # Gauss-Legendre in t = cos 2 theta, where d theta = dt / (2 sin 2 theta)
    t, weights = _gauss_legendre(theta_nodes)
    theta = np.arccos(t) / 2
    w_theta = weights / (2 * np.sqrt((1.0 - t) * (1.0 + t)))
    phi = np.arange(phi_nodes) * (2 * np.pi / phi_nodes)
    # THETA_CHUNK nodes summed as one integrand, evaluated in batches over one workspace
    plane = phi_nodes ** 2
    batch = max(1, min(THETA_CHUNK, CHUNK_ENTRIES // (a.rank ** 2 * plane)))
    workspace = np.empty((10, a.rank ** 2 * batch * plane), dtype=complex)
    integrand = np.empty(THETA_CHUNK * plane, dtype=complex)
    total = 0.0 + 0.0j
    # eval_hopf_grid's small BLAS products can stall on several OpenBLAS threads
    with one_blas_thread():
        for start in range(0, theta_nodes, THETA_CHUNK):
            chunk = theta[start:start + THETA_CHUNK]
            for first in range(0, chunk.size, batch):
                nodes = chunk[first:first + batch]
                _chern_s3_integrand(a, nodes, phi, unitary, workspace,
                                    integrand[first * plane:(first + nodes.size) * plane])
            total += np.einsum('t,tab->', w_theta[start:start + THETA_CHUNK],
                               integrand[:chunk.size * plane].reshape(-1, phi_nodes, phi_nodes))
    total *= (2 * np.pi / phi_nodes) ** 2
    return complex(S3_ORIENTATION_SIGN * total / (24 * np.pi ** 2))


def _hopf_nodes(a: Symbol, theta_nodes: int | None, phi_nodes: int | None) -> tuple[int, int]:
    """The S3 quadrature's (theta, phi) node counts for a.

    A count that is given is kept.  A missing count is sized from the total
    degree d of a pointwise-unitary symbol (a.unitary), where the
    quadrature is exact: a^-1 = a* makes every term of the integrand a
    trigonometric polynomial of degree at most 6d in each phi angle and,
    after the phi average, sin 2 theta times a polynomial of degree at most
    3d - 1 in t = cos 2 theta.  So ceil(3d/2) Gauss-Legendre nodes in t and
    6d + 1 trapezoid points per angle integrate it exactly (at least 4
    each).  A non-unitary symbol's integrand is rational, and its missing
    counts are DEFAULT_NODES.
    """
    if a.unitary:
        degree = a.total_degree
        sized = (max(4, (3 * degree + 1) // 2), max(4, 6 * degree + 1))
    else:
        sized = (DEFAULT_NODES, DEFAULT_NODES)
    return (sized[0] if theta_nodes is None else int(theta_nodes),
            sized[1] if phi_nodes is None else int(phi_nodes))


def chern_ladder(a: Symbol, steps: int | None = None, grid: int = DEFAULT_GRID,
                 theta_nodes: int | None = None,
                 phi_nodes: int | None = None) -> list[tuple[int, complex]]:
    """Raw Chern quadrature up a doubling resolution ladder, as (size, value) rungs.

    On S1 the rungs are circle grids of grid * 2^i points (4 by default); on
    S3, theta_nodes * 2^i x phi_nodes * 2^i Hopf nodes sized by the theta
    count (3 by default), with pointwise-unitary symbols (a.unitary) inverted
    by their adjoint and split into their diagonal blocks once, before the
    first rung.  Missing node counts come from _hopf_nodes: for a
    pointwise-unitary symbol every rung is then exact, and the rungs differ
    by rounding only.  A circle grid below 16 points, or a Hopf node count
    below 4, raises ValueError.
    """
    if a.manifold is S1:
        resolution, default_steps = (int(grid),), 4
        if resolution[0] < 16:
            raise ValueError("grid must be at least 16")
        quadrature = partial(_chern_s1_raw, a)
    else:
        resolution, default_steps = _hopf_nodes(a, theta_nodes, phi_nodes), 3
        if min(resolution) < 4:
            raise ValueError("node counts must be at least 4")
        # split once: the blocks, and the frequency plans they keep, serve every rung
        quadrature = partial(_chern_s3_raw, _diagonal_blocks(a), unitary=a.unitary)
    steps = default_steps if steps is None else int(steps)
    return [(resolution[0] * 2 ** i, quadrature(*(n * 2 ** i for n in resolution)))
            for i in range(steps)]


def chern_s3(a: Symbol, theta_nodes: int | None = None,
             phi_nodes: int | None = None) -> ChernValue:
    """Odd Chern character pairing on the three-sphere in Hopf coordinates.

    The top Chern form tr((a^-1 da)^3) reduces by cyclicity of the trace to
    3 tr(A_theta [A_phi1, A_phi2]) with A_u = a^-1 d_u a; it is integrated as
    a 3-form in the coordinate measure dtheta dphi1 dphi2 (no round-metric
    Jacobian), by Gauss-Legendre in t = cos 2 theta (node theta_k =
    arccos(t_k) / 2, weight w_k / (2 sin 2 theta_k)) and the periodic
    trapezoid rule in both phi angles, normalized by 1/(24 pi^2) and the
    orientation sign.  Doubling both node counts gives the reported
    refinement defect.

    Missing node counts are sized by _hopf_nodes: from the total degree of a
    pointwise-unitary symbol, where both the value and its refinement are
    exact, and DEFAULT_NODES otherwise.  The quadrature runs once per
    diagonal block of a (see _chern_s3_raw).  Pointwise-unitary symbols
    (a.unitary) use the conjugate transpose for the inverse; everything else
    goes through pointwise_inverse.
    """
    if a.manifold is not S3:
        raise ValueError("chern_s3 is defined for three-sphere symbols only")
    theta_nodes, phi_nodes = _hopf_nodes(a, theta_nodes, phi_nodes)
    (_, value), (_, refined) = chern_ladder(a, 2, theta_nodes=theta_nodes, phi_nodes=phi_nodes)
    return ChernValue(value, refined, (theta_nodes, phi_nodes))


def chern(a: Symbol, grid: int = DEFAULT_GRID, theta_nodes: int | None = None,
          phi_nodes: int | None = None) -> ChernValue:
    """chern_s1 at the circle grid or chern_s3 at the Hopf node counts, by manifold."""
    if a.manifold is S1:
        return chern_s1(a, grid=grid)
    # sized here because the traced benchmark's chern_s3 hook
    # (perfbench/spans.py) reads the node counts as integers
    return chern_s3(a, *_hopf_nodes(a, theta_nodes, phi_nodes))


def topological_index(
    a: Symbol,
    grid: int = DEFAULT_GRID,
    theta_nodes: int | None = None,
    phi_nodes: int | None = None,
) -> ChernValue:
    """Index-theorem pairing (ch(a) cup Td)[M] as a certified integer.

    Dispatches on the manifold (missing S3 node counts sized as chern_s3
    sizes them), gates on the symbol's kept invertibility margin
    (Symbol.margin), and accepts the quadrature only when the refined value
    sits within INTEGRALITY_TOL of an integer (imaginary part included) and
    of the value before refinement.  The Fredholm index of the Toeplitz
    operator equals the rounded value.
    """
    require_invertible(a)
    report = chern(a, grid=grid, theta_nodes=theta_nodes, phi_nodes=phi_nodes)
    if report.integrality_defect > INTEGRALITY_TOL or \
            abs(report.refined.imag) > INTEGRALITY_TOL:
        raise NonIntegralChernError(
            f"Chern quadrature does not certify an integer: refined value "
            f"{report.refined:.6g} has integrality defect "
            f"{report.integrality_defect:.3e} (tolerance {INTEGRALITY_TOL:.0e}); "
            f"raise the resolution or check the symbol")
    # an aliased grid can land near a wrong integer; the doubling defect shows it
    if report.doubling_defect > INTEGRALITY_TOL:
        raise NonIntegralChernError(
            f"Chern quadrature does not certify an integer: value "
            f"{report.value:.6g} and refined value {report.refined:.6g} differ by "
            f"doubling defect {report.doubling_defect:.3e} "
            f"(tolerance {INTEGRALITY_TOL:.0e}); raise the resolution")
    return report
