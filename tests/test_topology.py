"""Winding oracles, Chern character quadratures, and the index-theorem gate."""
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toeplitz_lab import reports, topology
from toeplitz_lab.errors import (NonIntegralChernError, SymbolError,
                                 UndersampledError)
from toeplitz_lab.families import (constant_sandwich, diag_laurent, haar_unitary,
                                   s3_representative, su2_power, su2_symbol, z_power)
from toeplitz_lab.symbols import (S1, S3, Symbol, adjoint, constant, direct_sum,
                                  det_laurent, multiply, transpose)
from toeplitz_lab.topology import (S3_ORIENTATION_SIGN, ChernValue, _diagonal_blocks,
                                   chern_ladder, chern_s1, chern_s3, topological_index,
                                   winding_argument, winding_roots)

from oracles import (HopfPoint, diagonal_blocks, evaluate, hopf_partials, sample_calls,
                     six_term_trace)


def root_product(shift, roots):
    f = Symbol(S1, {shift: [[1.0]]})
    for rho in roots:
        f = multiply(f, Symbol(S1, {1: [[1.0]], 0: [[-rho]]}))
    return f


class TestWindingOracles:
    def test_monomials(self):
        for m in range(-6, 7):
            assert winding_argument(z_power(m)) == m
            assert winding_roots(z_power(m)) == m

    def test_known_root_configurations(self):
        f = root_product(-2, [0.5, 0.3j, 2.0, -3.0])
        assert winding_argument(f) == 0
        assert winding_roots(f) == 0
        g = root_product(1, [0.5, -0.25])
        assert winding_argument(g) == 3
        assert winding_roots(g) == 3

    @settings(max_examples=25, deadline=None)
    @given(
        shift=st.integers(min_value=-4, max_value=4),
        inner=st.lists(st.tuples(st.floats(0.1, 0.6), st.floats(0, 6.28)), max_size=3),
        outer=st.lists(st.tuples(st.floats(1.5, 3.0), st.floats(0, 6.28)), max_size=3),
    )
    def test_oracles_agree_on_generated_products(self, shift, inner, outer):
        roots = [r * np.exp(1j * t) for r, t in inner] + \
                [r * np.exp(1j * t) for r, t in outer]
        f = root_product(shift, roots)
        expected = shift + len(inner)
        assert winding_roots(f) == expected
        assert winding_argument(f) == expected

    def test_zero_on_circle_rejected(self):
        f = Symbol(S1, {1: [[1.0]], 0: [[-1.0]]})  # z - 1
        with pytest.raises(SymbolError, match="vanishes"):
            winding_argument(f)

    def test_root_near_circle_rejected(self):
        f = Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-9)]]})
        with pytest.raises(SymbolError, match="circle"):
            winding_roots(f)

    def test_undersampled_after_doublings(self):
        with pytest.raises(UndersampledError, match="doublings"):
            winding_argument(z_power(20), grid=8)

    def test_undersampled_error_names_the_last_grid_tried(self):
        # grids 8, 16, 32 and 64 are tried; no fifth is built
        with pytest.raises(UndersampledError, match=r"doublings \(final grid 64\)"):
            winding_argument(z_power(21), grid=8)

    def test_doubling_recovers_fast_phases(self):
        assert winding_argument(z_power(10), grid=8) == 10

    def test_matrix_symbols_refused(self):
        with pytest.raises(ValueError, match="scalar"):
            winding_argument(diag_laurent([z_power(1), z_power(0)]))
        with pytest.raises(ValueError, match="circle"):
            winding_roots(su2_symbol())


class TestChernS1:
    def test_monomials(self):
        for m in (-5, -1, 0, 2, 4):
            ch = chern_s1(z_power(m))
            assert isinstance(ch, ChernValue)
            assert ch.rounded == -m
            assert ch.integrality_defect < 1e-12
            assert ch.doubling_defect < 1e-12

    def test_matches_minus_winding_of_determinant(self):
        a = diag_laurent([z_power(1), root_product(0, [0.4, 2.2])])
        ch = chern_s1(a)
        assert ch.rounded == -winding_roots(det_laurent(a)) == -2

    def test_log_derivative_homomorphism(self):
        f = root_product(2, [0.3])
        g = root_product(-1, [2.5])
        both = chern_s1(multiply(f, g)).refined
        assert both == pytest.approx(chern_s1(f).refined + chern_s1(g).refined, abs=1e-10)

    def test_constant_symbol_is_zero(self):
        ch = chern_s1(Symbol(S1, {0: [[2.0, 1.0], [0.0, 3.0]]}))
        assert ch.refined == 0 and ch.rounded == 0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            chern_s1(z_power(1), grid=8)
        with pytest.raises(ValueError, match="circle"):
            chern_s1(su2_symbol())


class TestChernS3:
    def test_su2_calibration(self):
        assert S3_ORIENTATION_SIGN == -1
        ch = chern_s3(su2_symbol(), theta_nodes=16, phi_nodes=16)
        assert ch.rounded == -1
        assert ch.integrality_defect < 1e-10

    def test_transpose_flips_sign(self):
        ch = chern_s3(transpose(su2_symbol()), theta_nodes=16, phi_nodes=16)
        assert ch.rounded == 1

    def test_adjoint_flips_sign(self):
        ch = chern_s3(adjoint(su2_symbol()), theta_nodes=16, phi_nodes=16)
        assert ch.rounded == 1

    def test_powers_scale_linearly(self):
        for k in (-2, 2):
            ch = chern_s3(su2_power(k), theta_nodes=16, phi_nodes=16)
            assert ch.rounded == -k
            assert ch.integrality_defect < 1e-8

    def test_nonunitary_inverse_path(self):
        # sandwiching by constant invertible factors keeps the class but
        # forces the direct-inverse branch of the quadrature
        rng = np.random.default_rng(11)
        sym = constant_sandwich(su2_symbol(), rng)
        ch = chern_s3(sym, theta_nodes=16, phi_nodes=16)
        assert ch.rounded == -1
        assert ch.integrality_defect < 1e-8

    def test_six_term_expansion_matches_reduced_integrand(self):
        # cyclic reduction used by the quadrature: the full antisymmetrized
        # six-term sum equals 3 tr(A_theta [A_phi1, A_phi2]) at every point
        rng = np.random.default_rng(13)
        sym = constant_sandwich(su2_power(2), rng)
        for _ in range(10):
            point = HopfPoint(rng.uniform(0.05, 1.5), rng.uniform(0, 6.2),
                              rng.uniform(0, 6.2))
            val = evaluate(sym, point)
            inv = np.linalg.inv(val)
            a_th, a_p1, a_p2 = (inv @ d for d in hopf_partials(sym, point))
            reduced = 3.0 * np.trace(a_th @ (a_p1 @ a_p2 - a_p2 @ a_p1))
            full = six_term_trace(a_th, a_p1, a_p2)
            assert np.isclose(full, reduced, rtol=1e-12, atol=1e-12)

    def test_node_validation(self):
        with pytest.raises(ValueError):
            chern_s3(su2_symbol(), theta_nodes=2)
        with pytest.raises(ValueError, match="three-sphere"):
            chern_s3(z_power(1))


class TestTopologicalIndex:
    def test_dispatch(self):
        assert topological_index(z_power(3)).rounded == -3
        assert topological_index(su2_symbol(), theta_nodes=16, phi_nodes=16).rounded == -1

    def test_margin_gate(self):
        with pytest.raises(SymbolError):
            topological_index(Symbol(S1, {1: [[1.0]], 0: [[-1.0]]}))

    def test_integrality_gate(self):
        # a root close to the circle needs more than 16 grid points: the
        # quadrature converges too slowly to certify an integer there
        f = Symbol(S1, {1: [[1.0]], 0: [[-0.96]]})
        with pytest.raises(NonIntegralChernError, match="integer"):
            topological_index(f, grid=16)
        assert topological_index(f, grid=1024).rounded == -1

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_doubling_gate_rejects_an_aliased_phi_grid(self, m):
        # 4 phi nodes alias su2^m: the rungs differ by 2.0, 1.33 and 2.67,
        # and su2^5's refined rung sits near the wrong integer -7
        ch = chern_s3(su2_power(m), theta_nodes=12, phi_nodes=4)
        assert ch.doubling_defect > 1.0 and ch.integrality_defect < 1e-12
        with pytest.raises(NonIntegralChernError, match="doubling defect") as err:
            topological_index(su2_power(m), theta_nodes=12, phi_nodes=4)
        assert f"{ch.value:.6g}" in str(err.value) and f"{ch.refined:.6g}" in str(err.value)
        assert topological_index(su2_power(m)).rounded == -m


def degree_sized_nodes(degree):
    """ceil(3d/2) Legendre nodes in cos 2 theta, 6d + 1 points per phi angle, at least 4."""
    return max(4, math.ceil(3 * degree / 2)), max(4, 6 * degree + 1)


def haar_product(j, k, seed):
    """U su2^j V su2^k W with Haar-random constant unitaries: index -(j + k), degree |j| + |k|."""
    rng = np.random.default_rng(seed)
    u, v, w = (constant(S3, haar_unitary(rng, 2)) for _ in range(3))
    return multiply(u, multiply(su2_power(j), multiply(v, multiply(su2_power(k), w))))


@st.composite
def unitary_symbols(draw):
    """(symbol, index, total degree) of a pointwise-unitary S3 symbol of degree 1 to 8."""
    kind = draw(st.sampled_from(["power", "product", "sum"]))
    if kind == "power":
        m = draw(st.integers(1, 8)) * draw(st.sampled_from([1, -1]))
        return su2_power(m), -m, abs(m)
    if kind == "product":
        j = draw(st.integers(1, 7)) * draw(st.sampled_from([1, -1]))
        k = draw(st.integers(1, 8 - abs(j))) * draw(st.sampled_from([1, -1]))
        return haar_product(j, k, draw(st.integers(0, 2 ** 16))), -(j + k), abs(j) + abs(k)
    # s3_representative(3) is su2^-2 + su2^-1, of degree 2
    m = draw(st.integers(1, 8)) * draw(st.sampled_from([1, -1]))
    return direct_sum(su2_power(m), s3_representative(3)[0]), 3 - m, max(abs(m), 2)


class TestExactQuadrature:
    @settings(max_examples=10, deadline=None)
    @given(case=unitary_symbols())
    @example(case=(su2_power(-8), 8, 8))
    @example(case=(haar_product(5, -3, 7), -2, 8))
    @example(case=(direct_sum(su2_power(8), s3_representative(3)[0]), -5, 8))
    def test_default_nodes_are_sized_from_the_degree_and_exact(self, case):
        a, index, degree = case
        ch = topological_index(a)
        assert ch.rounded == index
        assert ch.resolution == degree_sized_nodes(degree)
        assert ch.doubling_defect <= 1e-10

    def test_non_unitary_symbol_keeps_the_default_nodes(self):
        a = constant_sandwich(su2_symbol(), np.random.default_rng(3))
        ch = topological_index(a)
        assert ch.rounded == -1
        assert ch.resolution == (topology.DEFAULT_NODES, topology.DEFAULT_NODES) == (24, 24)

    def test_explicit_counts_are_kept(self):
        assert topological_index(su2_power(2), theta_nodes=6).resolution == (6, 13)
        assert topological_index(su2_power(2), phi_nodes=16).resolution == (4, 16)

    @pytest.mark.parametrize("run", [
        lambda a: topological_index(a),
        lambda a: reports.convergence_table(a),
        lambda a: reports.compute_index_report(a, trunc=8),
    ], ids=["topological_index", "convergence_table", "compute_index_report"])
    @pytest.mark.parametrize("make", [
        su2_symbol,
        lambda: constant_sandwich(su2_symbol(), np.random.default_rng(3)),
    ], ids=["unitary", "non-unitary"])
    def test_one_unitarity_sample_per_certified_value(self, monkeypatch, run, make):
        # the symbol keeps its sample, so each run needs a fresh one; the
        # gate, the node sizing and the quadrature's inverse all read it
        calls = sample_calls(monkeypatch)
        a = make()
        run(a)
        assert calls == [a]

    def test_the_unitarity_decision_is_not_an_option(self):
        # the adjoint as inverse of this index -1 symbol gives -1.317 with
        # doubling defect 0, so no caller may choose the inverse path
        for function in (chern_s3, chern_ladder):
            assert "unitary" not in inspect.signature(function).parameters
        a = constant_sandwich(su2_symbol(), np.random.default_rng(3))
        assert not a.unitary and abs(chern_s3(a).refined - (-1)) <= 1e-6


def test_gauss_legendre_nodes_are_made_once_per_count(monkeypatch):
    leggauss, counts = np.polynomial.legendre.leggauss, []

    def counted(count):
        counts.append(count)
        return leggauss(count)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    topology._gauss_legendre.cache_clear()
    try:
        # two diagonal blocks, two chern_s3 calls, each at 12 and 24 nodes
        a = constant_sandwich(su2_symbol(), np.random.default_rng(0))
        for _ in range(2):
            chern_s3(direct_sum(a, su2_symbol()), 12, 8)
        assert counts == [12, 24]
        nodes, weights = topology._gauss_legendre(12)
        assert not nodes.flags.writeable and not weights.flags.writeable
        want_nodes, want_weights = leggauss(12)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
    finally:
        topology._gauss_legendre.cache_clear()


def patterned_symbol(pattern, rng, terms=1):
    """An S3 symbol whose coefficients' union pattern is pattern: seeded complex values on it.

    Each entry of the pattern goes to one of `terms` exponent keys, drawn from rng.
    """
    r = len(pattern)
    values = np.where(pattern, rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)), 0)
    owner = rng.integers(terms, size=(r, r))
    keys = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)][:terms]
    return Symbol(S3, {key: np.where(owner == k, values, 0) for k, key in enumerate(keys)},
                  rank=r)


def split_outcome(split, a):
    """split(a)'s diagonal blocks, or SymbolError where it raises one."""
    try:
        return split(a)
    except SymbolError:
        return SymbolError


def assert_split_matches_the_reference(a):
    # lists of blocks compare by Symbol.__eq__, and SymbolError only to itself
    assert split_outcome(_diagonal_blocks, a) == split_outcome(diagonal_blocks, a), a.terms


class TestDiagonalBlocks:
    """topology's own split against the kernel engine's splitter (oracles.diagonal_blocks)."""

    def test_every_pattern_up_to_three_by_three(self):
        rng = np.random.default_rng(18)
        patterns = [np.array(bits, dtype=bool).reshape(r, r) for r in (1, 2, 3)
                    for bits in itertools.product((False, True), repeat=r * r) if any(bits)]
        assert len(patterns) == 527
        for pattern in patterns:
            assert_split_matches_the_reference(patterned_symbol(pattern, rng))

    def test_seeded_patterns_of_rank_four_to_eight(self):
        # rows and columns dealt into up to three groups, entries only within
        # a group: square groups split, others raise, and some stay joined
        rng = np.random.default_rng(31)
        for _ in range(200):
            r, groups = int(rng.integers(4, 9)), int(rng.integers(1, 4))
            rows, cols = rng.permutation(r) % groups, rng.permutation(r) % groups
            pattern = (rows[:, None] == cols) & (rng.random((r, r)) < rng.uniform(0.3, 0.9))
            pattern[rng.integers(r), rng.integers(r)] = True
            assert_split_matches_the_reference(patterned_symbol(pattern, rng, terms=3))

    def test_antidiagonal_is_two_one_by_one_blocks(self):
        # linking row i with column i as well would make this one 2 x 2 block
        a = patterned_symbol(np.array([[0, 1], [1, 0]], dtype=bool), np.random.default_rng(2))
        blocks = _diagonal_blocks(a)
        assert [b.rank for b in blocks] == [1, 1]
        assert_split_matches_the_reference(a)

    def test_non_square_components_are_singular(self):
        # rows {0, 1} on column {0} beside row {2} on columns {1, 2}
        pattern = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 1]], dtype=bool)
        a = patterned_symbol(pattern, np.random.default_rng(3))
        with pytest.raises(SymbolError, match="singular at a quadrature node"):
            _diagonal_blocks(a)
        assert_split_matches_the_reference(a)
