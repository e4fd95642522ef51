"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single CRITERION line on success so a verbose run reads as
a checklist.  Budgets are wall-clock upper bounds with generous headroom over
measured times; the random suites fix their seeds so reruns are deterministic.
"""
import time
import warnings

import numpy as np

from toeplitz_lab.families import (constant_sandwich, homotopy_path,
                                   random_matrix_symbol, random_scalar_symbol,
                                   s3_representative, su2_power, su2_symbol,
                                   z_power)
from toeplitz_lab.hardy_s1 import analytic_index_s1
from toeplitz_lab.hardy_s3 import analytic_index_s3, monomial_norm_sq
from toeplitz_lab.symbols import (S1, HopfPoint, adjoint, direct_sum,
                                  eval_hopf_grid, hopf_partials, identity,
                                  invertibility_margin, multiply)
from toeplitz_lab.topology import (chern_s1, chern_s3, six_term_trace,
                                   topological_index, winding_argument,
                                   winding_roots)
from toeplitz_lab.verify import run_verify, verify_report_json


def test_criterion_1_monomial_index_law_with_exact_dims():
    """index T_{z^m} = -m for m in [-8, 8], with ker/coker split exactly."""
    t0 = time.perf_counter()
    for m in range(-8, 9):
        res = analytic_index_s1(z_power(m), trunc=64)
        assert res.index == -m, (m, res.index)
        assert res.ker_dim == max(-m, 0), (m, res.ker_dim)
        assert res.coker_dim == max(m, 0), (m, res.coker_dim)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"monomial sweep took {elapsed:.2f}s, budget 1s"
    print(f"CRITERION 1: PASS — 17 monomials, exact dims, {elapsed:.2f}s")


def test_criterion_2_scalar_suite_four_route_agreement():
    """100 random invertible scalar symbols: analytic index equals minus the
    winding by both oracles and the rounded Chern value, integrality defect
    below 1e-8 at grid 512."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    margins = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any spectral-gap warning fails the run
        for i in range(100):
            f, w = random_scalar_symbol(rng)
            assert -6 <= f.k_min and f.k_max <= 6, (i, f.k_min, f.k_max)
            margin = invertibility_margin(f, 512)
            assert margin > 0.1, (i, margin)
            margins.append(margin)
            res = analytic_index_s1(f, trunc=64)
            w_roots = winding_roots(f)
            w_arg = winding_argument(f)
            ch = chern_s1(f, grid=512)
            assert w_roots == w_arg == w, (i, w_roots, w_arg, w)
            assert res.index == -w == ch.rounded, (i, res.index, w, ch.rounded)
            assert ch.integrality_defect < 1e-8, (i, ch.integrality_defect)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"scalar suite took {elapsed:.2f}s, budget 10s"
    print(f"CRITERION 2: PASS — 100 symbols, min margin {min(margins):.3f}, "
          f"four routes agree, {elapsed:.2f}s")


def test_criterion_3_matrix_identity_suite():
    """50 random matrix-symbol pairs of equal rank (up to 3): additivity under
    products, antisymmetry under adjoints, stability under identity padding,
    and constancy along 10-sample invertible homotopies — all exact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    margins = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(50):
            rank = int(rng.integers(1, 4))
            a, ia = random_matrix_symbol(rng, rank=rank)
            b, ib = random_matrix_symbol(rng, rank=rank)
            margins += [invertibility_margin(a, 64), invertibility_margin(b, 64)]
            got_a = analytic_index_s1(a, trunc=32).index
            got_b = analytic_index_s1(b, trunc=32).index
            assert got_a == ia and got_b == ib, (i, got_a, ia, got_b, ib)
            got_ab = analytic_index_s1(multiply(a, b), trunc=32).index
            assert got_ab == ia + ib, (i, got_ab, ia, ib)
            got_star = analytic_index_s1(adjoint(a), trunc=32).index
            assert got_star == -ia, (i, got_star, ia)
            padded = direct_sum(a, identity(S1, 2))
            got_pad = analytic_index_s1(padded, trunc=32).index
            assert got_pad == ia, (i, got_pad, ia)
            path = homotopy_path(a, rng)
            for t in np.linspace(0.0, 1.0, 10):
                assert analytic_index_s1(path(float(t)), trunc=32).index == ia, (i, t)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"matrix suite took {elapsed:.2f}s, budget 60s"
    print(f"CRITERION 3: PASS — 50 pairs, min margin {min(margins):.3f}, "
          f"all identities exact, {elapsed:.2f}s")


def test_criterion_4_su2_generator_and_powers():
    """The SU(2) generator has index -1 on both routes (analytic stabilized
    across band cutoffs 8, 12, 16; Chern defect < 1e-6 at 24x24 nodes), and
    its powers k in [-2, 2] give index -k on both routes."""
    t0 = time.perf_counter()
    gamma = su2_symbol()
    res = analytic_index_s3(gamma, sizes=(8, 12, 16))
    assert (res.index, res.ker_dim, res.coker_dim) == (-1, 0, 1)
    ch = chern_s3(gamma, theta_nodes=24, phi_nodes=24)
    assert ch.rounded == -1
    assert abs(ch.refined - (-1.0)) < 1e-6, ch.refined
    assert ch.integrality_defect < 1e-6, ch.integrality_defect
    for k in range(-2, 3):
        sym = su2_power(k)
        sizes = (8, 12) if abs(k) <= 1 else (20, 24)
        got = analytic_index_s3(sym, sizes=sizes).index
        assert got == -k, (k, got)
        topo = topological_index(sym, theta_nodes=24, phi_nodes=24)
        assert topo.rounded == -k, (k, topo)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"SU(2) suite took {elapsed:.2f}s, budget 120s"
    print(f"CRITERION 4: PASS — generator -1 both routes, powers -2..2 "
          f"exact, {elapsed:.2f}s")


def test_criterion_5_every_index_realized_on_s3():
    """The generated symbol family realizes every index in [-3, 3], and the
    analytic and topological routes agree exactly on each representative."""
    realized = {}
    for m in range(-3, 4):
        sym, sizes = s3_representative(m)
        analytic = analytic_index_s3(sym, sizes=sizes).index
        topological = topological_index(sym).rounded
        assert analytic == topological == m, (m, analytic, topological)
        realized[m] = analytic
    assert sorted(realized.values()) == list(range(-3, 4))
    print("CRITERION 5: PASS — indices -3..3 realized, both routes agree")


def test_criterion_6_quadrature_and_determinism_oracles():
    """Internal numerics against independent oracles: Monte Carlo monomial
    norms (1e-3), exact Hopf partials vs central differences (1e-7),
    the six-permutation trace vs its commutator reduction at random nodes,
    and byte-identical verification reports on rerun."""
    # (a) monomial norms: mean of x^a (1-x)^b over uniform points on the
    # sphere (x = |z1|^2) against the closed-form a! b! / (a+b+1)!
    rng = np.random.default_rng(42)
    g = rng.standard_normal((1_000_000, 4))
    sq = g ** 2
    x = (sq[:, 0] + sq[:, 1]) / sq.sum(axis=1)
    for a in range(4):
        for b in range(4):
            mc = np.mean(x ** a * (1.0 - x) ** b)
            assert abs(mc - monomial_norm_sq(a, b)) < 1e-3, (a, b, mc)

    # (b) exact partial derivatives against central finite differences
    rng = np.random.default_rng(99)
    sym = constant_sandwich(su2_power(2), rng)
    h = 1e-5

    def value(th, p1, p2):
        return eval_hopf_grid(sym, np.array([th]), np.array([p1]),
                              np.array([p2]))[0, 0, 0]

    for _ in range(100):
        th = rng.uniform(0.1, 1.47)
        p1 = rng.uniform(0.1, 6.1)
        p2 = rng.uniform(0.1, 6.1)
        dth, dp1, dp2 = hopf_partials(sym, HopfPoint(th, p1, p2))
        fd_th = (value(th + h, p1, p2) - value(th - h, p1, p2)) / (2 * h)
        fd_p1 = (value(th, p1 + h, p2) - value(th, p1 - h, p2)) / (2 * h)
        fd_p2 = (value(th, p1, p2 + h) - value(th, p1, p2 - h)) / (2 * h)
        err = max(np.abs(dth - fd_th).max(), np.abs(dp1 - fd_p1).max(),
                  np.abs(dp2 - fd_p2).max())
        assert err < 1e-7, err

    # (c) the antisymmetrized six-term trace reduces to 3 tr(A[B, C])
    rng = np.random.default_rng(17)
    for _ in range(10):
        th = rng.uniform(0.1, 1.47)
        p1 = rng.uniform(0.1, 6.1)
        p2 = rng.uniform(0.1, 6.1)
        val = value(th, p1, p2)
        dth, dp1, dp2 = hopf_partials(sym, HopfPoint(th, p1, p2))
        inv = np.linalg.inv(val)
        A, B, C = inv @ dth, inv @ dp1, inv @ dp2
        full = six_term_trace(A, B, C)
        reduced = 3.0 * np.trace(A @ (B @ C - C @ B))
        assert abs(full - reduced) <= 1e-12 * max(1.0, abs(full))

    # (d) the bundled verification suite is bit-for-bit reproducible
    first = verify_report_json(run_verify(seed=0))
    second = verify_report_json(run_verify(seed=0))
    assert first == second
    print("CRITERION 6: PASS — MC norms, FD partials, trace expansion, "
          "byte-identical verify")
