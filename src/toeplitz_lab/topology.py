"""Topological index: winding numbers on S1, odd Chern character on S1 and S3.

Two independent winding oracles are kept deliberately distinct (argument
tracking vs root counting) so they can cross-check each other.  The Chern
character is evaluated by quadrature of the odd Chern form; since the Todd
class of an odd sphere is 1, the index-theorem pairing is just the integral
of that form against the fundamental class.

On S3 the quadrature uses Hopf coordinates.  The coordinate 3-form
dtheta ^ dphi1 ^ dphi2 is negatively oriented relative to the fundamental
class the index pairing uses; the constant S3_ORIENTATION_SIGN = -1 is that
orientation correction, calibrated once on the degree-one unitary family and
frozen (see the calibration test, which pins it against the analytic index
from an independent pipeline).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NonIntegralChernError, SymbolError, UndersampledError
from .symbols import (S1, S3, UNITARY_TOL, Symbol, eval_circle, eval_hopf_grid,
                      pointwise_matmul, require_invertible, unitarity_defect)

S3_ORIENTATION_SIGN = -1

ZERO_ON_CIRCLE_TOL = 1e-12
ROOT_ON_CIRCLE_TOL = 1e-8
INTEGRALITY_TOL = 1e-4
MAX_PHASE_STEP = np.pi / 2
MAX_DOUBLINGS = 3
THETA_CHUNK = 8  # Gauss-Legendre theta nodes per batch of the S3 quadrature


def _require_scalar(f: Symbol, what: str) -> None:
    if f.manifold is not S1:
        raise ValueError(f"{what} is defined for circle symbols only")
    if f.rank != 1:
        raise ValueError(
            f"{what} is defined for scalar symbols; got rank {f.rank} "
            f"(take det_laurent first)")


def winding_argument(f: Symbol, grid: int = 512) -> int:
    """Winding number of a scalar circle symbol by principal-branch phase tracking.

    Any phase step exceeding pi/2 means the grid cannot certify the branch
    choice; the grid is doubled, up to three times, before giving up with
    UndersampledError.  A value within 1e-12 of zero anywhere is rejected as
    a zero on the circle (SymbolError): no winding number exists.
    """
    _require_scalar(f, "winding_argument")
    n = int(grid)
    if n < 8:
        raise ValueError("grid must be at least 8")
    for _ in range(MAX_DOUBLINGS + 1):
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
        n *= 2
    raise UndersampledError(
        f"phase steps above pi/2 persist after {MAX_DOUBLINGS} grid doublings "
        f"(final grid {n}); winding cannot be certified")


def winding_roots(f: Symbol) -> int:
    """Winding number of a scalar circle symbol by root counting.

    With exponent window [p, q], z^-p f(z) is a polynomial with nonzero
    extreme coefficients; the winding equals p plus its number of roots in
    the open unit disk.  Roots within 1e-8 of the circle are rejected
    (SymbolError): the symbol is not safely invertible there.
    """
    _require_scalar(f, "winding_roots")
    p, q = f.k_min, f.k_max
    coeffs = np.array([complex(f.coeff(k)[0, 0]) for k in range(q, p - 1, -1)])
    if coeffs.size == 1:
        return p
    roots = np.roots(coeffs)
    on_circle = np.abs(1.0 - np.abs(roots)) < ROOT_ON_CIRCLE_TOL
    if np.any(on_circle):
        worst = roots[on_circle][0]
        raise SymbolError(
            f"root of the symbol at |z| = {abs(worst):.12f}, within 1e-8 of the "
            f"unit circle; winding number undefined")
    inside = int(np.count_nonzero(np.abs(roots) < 1.0))
    return p + inside


@dataclass(frozen=True)
class ChernValue:
    """Chern character pairing with its quadrature-refinement evidence.

    value is the quadrature at the requested resolution, refined the same at
    doubled resolution; rounded is the integer nearest the refined value.
    """

    value: complex
    refined: complex
    rounded: int
    doubling_defect: float
    integrality_defect: float
    resolution: tuple[int, ...]


def _chern_report(value: complex, refined: complex, resolution: tuple[int, ...]) -> ChernValue:
    rounded = int(round(refined.real))
    return ChernValue(
        value=value,
        refined=refined,
        rounded=rounded,
        doubling_defect=float(abs(refined - value)),
        integrality_defect=float(abs(refined - rounded)),
        resolution=resolution,
    )


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


def chern_s1(a: Symbol, grid: int = 512) -> ChernValue:
    """Odd Chern character pairing on the circle: -(1/2 pi i) integral tr(a^-1 da).

    Exact coefficient differentiation, periodic trapezoid quadrature, and a
    mandatory grid-doubling rerun whose difference is reported as the
    doubling defect.  For invertible symbols this equals minus the winding
    of det a.
    """
    if a.manifold is not S1:
        raise ValueError("chern_s1 is defined for circle symbols only")
    grid = int(grid)
    if grid < 16:
        raise ValueError("grid must be at least 16")
    (_, value), (_, refined) = chern_ladder(a, 2, grid=grid)
    return _chern_report(value, refined, (grid,))


def six_term_trace(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> complex:
    """tr of the fully antisymmetrized product over all six orderings of (a1, a2, a3)."""
    return complex(
        np.trace(a1 @ a2 @ a3) - np.trace(a1 @ a3 @ a2)
        + np.trace(a2 @ a3 @ a1) - np.trace(a2 @ a1 @ a3)
        + np.trace(a3 @ a1 @ a2) - np.trace(a3 @ a2 @ a1))


def _chern_s3_integrand(a: Symbol, theta: np.ndarray, phi: np.ndarray,
                        unitary: bool) -> np.ndarray:
    """3 tr(A_theta [A_phi1, A_phi2]) on the grid theta x phi x phi, shape (nt, n, n)."""
    r = a.rank
    # eval_hopf_grid's (r, r, nt, n1, n2) buffers as (r, r, N) views, no copy
    val, dth, dp1, dp2 = (np.moveaxis(f, (3, 4), (0, 1)).reshape(r, r, -1)
                          for f in eval_hopf_grid(a, theta, phi, phi, partials=True))
    if unitary:
        inv = np.conj(val.transpose(1, 0, 2))
    else:
        try:
            inv = np.linalg.inv(np.moveaxis(val, -1, 0))
        except np.linalg.LinAlgError as exc:
            raise SymbolError("symbol is singular at a quadrature node") from exc
        # one copy to contiguous point vectors; strided ones halve pointwise_matmul's speed
        inv = np.ascontiguousarray(np.moveaxis(inv, 0, -1))
    a_th = pointwise_matmul(inv, dth)
    a_p1 = pointwise_matmul(inv, dp1)
    a_p2 = pointwise_matmul(inv, dp2)
    comm = pointwise_matmul(a_p1, a_p2) - pointwise_matmul(a_p2, a_p1)
    integrand = 3.0 * np.einsum('ijn,jin->n', a_th, comm)
    return integrand.reshape(theta.size, phi.size, phi.size)


def _chern_s3_raw(a: Symbol, theta_nodes: int, phi_nodes: int, unitary: bool) -> complex:
    nodes, weights = np.polynomial.legendre.leggauss(theta_nodes)
    theta = (nodes + 1.0) * (np.pi / 4)
    w_theta = weights * (np.pi / 4)
    phi = np.arange(phi_nodes) * (2 * np.pi / phi_nodes)
    total = 0.0 + 0.0j
    for start in range(0, theta_nodes, THETA_CHUNK):
        integrand = _chern_s3_integrand(a, theta[start:start + THETA_CHUNK], phi, unitary)
        total += np.einsum('t,tab->', w_theta[start:start + THETA_CHUNK], integrand)
    total *= (2 * np.pi / phi_nodes) ** 2
    return complex(S3_ORIENTATION_SIGN * total / (24 * np.pi ** 2))


def chern_ladder(a: Symbol, steps: int | None = None, grid: int = 512,
                 theta_nodes: int = 24, phi_nodes: int = 24) -> list[tuple[int, complex]]:
    """Raw Chern quadrature up a doubling resolution ladder, as (size, value) rungs.

    On S1 the rungs are circle grids of grid * 2^i points (4 by default); on
    S3, theta_nodes * 2^i x phi_nodes * 2^i Hopf nodes sized by the theta
    count (3 by default), with pointwise-unitary symbols inverted by their
    adjoint.  A node count below 1 raises ValueError.
    """
    if a.manifold is S1:
        resolution, default_steps = (int(grid),), 4
        quadrature = partial(_chern_s1_raw, a)
    else:
        resolution, default_steps = (int(theta_nodes), int(phi_nodes)), 3
        quadrature = partial(_chern_s3_raw, a, unitary=unitarity_defect(a) <= UNITARY_TOL)
    if min(resolution) < 1:
        raise ValueError("node counts must be at least 1")
    steps = default_steps if steps is None else int(steps)
    return [(resolution[0] * 2 ** i, quadrature(*(n * 2 ** i for n in resolution)))
            for i in range(steps)]


def chern_s3(a: Symbol, theta_nodes: int = 24, phi_nodes: int = 24) -> ChernValue:
    """Odd Chern character pairing on the three-sphere in Hopf coordinates.

    The top Chern form tr((a^-1 da)^3) reduces by cyclicity of the trace to
    3 tr(A_theta [A_phi1, A_phi2]) with A_u = a^-1 d_u a; it is integrated as
    a 3-form in the coordinate measure dtheta dphi1 dphi2 (no round-metric
    Jacobian), Gauss-Legendre in theta on [0, pi/2] and periodic trapezoid in
    both phi angles, normalized by 1/(24 pi^2) and the orientation sign.
    Doubling both node counts gives the reported refinement defect.

    Pointwise-unitary symbols (within UNITARY_TOL) use the conjugate transpose
    for the inverse; everything else is inverted directly.
    """
    if a.manifold is not S3:
        raise ValueError("chern_s3 is defined for three-sphere symbols only")
    theta_nodes, phi_nodes = int(theta_nodes), int(phi_nodes)
    if theta_nodes < 4 or phi_nodes < 4:
        raise ValueError("node counts must be at least 4")
    (_, value), (_, refined) = chern_ladder(a, 2, theta_nodes=theta_nodes, phi_nodes=phi_nodes)
    return _chern_report(value, refined, (theta_nodes, phi_nodes))


def chern(a: Symbol, grid: int = 512, theta_nodes: int = 24,
          phi_nodes: int = 24) -> ChernValue:
    """chern_s1 at the circle grid or chern_s3 at the Hopf node counts, by manifold."""
    if a.manifold is S1:
        return chern_s1(a, grid=grid)
    return chern_s3(a, theta_nodes=theta_nodes, phi_nodes=phi_nodes)


def topological_index(
    a: Symbol,
    grid: int = 512,
    theta_nodes: int = 24,
    phi_nodes: int = 24,
) -> ChernValue:
    """Index-theorem pairing (ch(a) cup Td)[M] as a certified integer.

    Dispatches on the manifold, gates on the sampled invertibility margin,
    and accepts the quadrature only when the refined value sits within
    INTEGRALITY_TOL of an integer (imaginary part included).  The Fredholm
    index of the Toeplitz operator equals the rounded value.
    """
    require_invertible(a)
    return _certified_chern(a, grid, theta_nodes, phi_nodes)


def _certified_chern(a: Symbol, grid: int, theta_nodes: int, phi_nodes: int) -> ChernValue:
    """topological_index after its invertibility gate, for callers that gated a already."""
    report = chern(a, grid=grid, theta_nodes=theta_nodes, phi_nodes=phi_nodes)
    if report.integrality_defect > INTEGRALITY_TOL or \
            abs(report.refined.imag) > INTEGRALITY_TOL:
        raise NonIntegralChernError(
            f"Chern quadrature does not certify an integer: refined value "
            f"{report.refined:.6g} has integrality defect "
            f"{report.integrality_defect:.3e} (tolerance {INTEGRALITY_TOL:.0e}); "
            f"raise the resolution or check the symbol")
    return report
