"""Symbol algebra: construction, products, adjoints, determinants, evaluation."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toeplitz_lab
from toeplitz_lab import symbols
from toeplitz_lab.errors import SymbolError
from toeplitz_lab.symbols import (S1, S3, UNITARY_TOL, Symbol, adjoint, constant,
                                  det_laurent, direct_sum, eval_circle,
                                  eval_hopf_grid, identity, invertibility_margin,
                                  laurent_coefficients, margin_grid_size, multiply,
                                  power, require_invertible, transpose,
                                  unitarity_defect)
from toeplitz_lab.families import (constant_sandwich, haar_unitary, random_matrix_symbol,
                                   su2_power, su2_symbol, z_power)
from toeplitz_lab.topology import winding_roots

from oracles import HopfPoint, evaluate, hopf_partials


class TestConstruction:
    def test_scalar_promotion_and_window(self):
        a = Symbol(S1, {-2: 3.0, 1: [[2j]]})
        assert a.rank == 1
        assert (a.k_min, a.k_max) == (-2, 1)
        assert a.bandwidth == 3

    def test_exact_zero_terms_pruned(self):
        a = Symbol(S1, {0: np.eye(2), 5: np.zeros((2, 2))})
        assert list(a.terms) == [0]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            Symbol(S1, {0: np.zeros((2, 2))})

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            Symbol(S1, {0: np.eye(2), 1: np.eye(3)})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Symbol(S1, {0: [[np.inf]]})

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Symbol(S1, {0: np.ones((2, 3))})

    def test_s3_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Symbol(S3, {(1, 0, -1, 0): [[1.0]]})

    def test_coefficients_read_only(self):
        a = z_power(1)
        with pytest.raises(ValueError):
            a.terms[1][0, 0] = 5.0

    def test_s3_degree_and_shift(self):
        a = Symbol(S3, {(2, 0, 0, 1): np.eye(1), (0, 0, 1, 0): np.eye(1)})
        assert a.total_degree == 3
        assert a.max_shift == 1  # 2 - 0 + 0 - 1


class TestAlgebra:
    def test_scalar_product_coefficients(self):
        a = Symbol(S1, {0: 1.0, 1: 2.0})
        b = Symbol(S1, {-1: 4.0, 0: 3.0})
        ab = multiply(a, b)
        assert set(ab.terms) == {-1, 0, 1}
        assert ab.terms[-1][0, 0] == 4.0
        assert ab.terms[0][0, 0] == 11.0
        assert ab.terms[1][0, 0] == 6.0

    def test_product_evaluates_pointwise(self):
        rng = np.random.default_rng(1)
        a = Symbol(S1, {-1: rng.standard_normal((2, 2)), 2: rng.standard_normal((2, 2))})
        b = Symbol(S1, {0: rng.standard_normal((2, 2)), 1: rng.standard_normal((2, 2))})
        z = np.exp(0.731j)
        assert np.allclose(evaluate(multiply(a, b), z), evaluate(a, z) @ evaluate(b, z))

    def test_product_is_noncommutative(self):
        a = constant(S1, [[0, 1], [0, 0]])
        b = constant(S1, [[0, 0], [1, 0]])
        assert multiply(a, b) != multiply(b, a)

    def test_kind_and_rank_mismatches(self):
        with pytest.raises(ValueError, match="manifold"):
            multiply(z_power(1), identity(S3, 1))
        with pytest.raises(ValueError, match="rank"):
            multiply(z_power(1), identity(S1, 2))
        with pytest.raises(ValueError, match="manifold"):
            direct_sum(z_power(1), identity(S3, 1))

    def test_adjoint_is_pointwise_conjugate_transpose(self):
        a = Symbol(S1, {-2: [[1j, 2], [0, 1]], 1: [[0, 0], [3, 1j]]})
        z = np.exp(1.234j)
        assert np.allclose(evaluate(adjoint(a), z), evaluate(a, z).conj().T)
        s = su2_symbol()
        x = HopfPoint(0.7, 1.1, 5.0)
        assert np.allclose(evaluate(adjoint(s), x), evaluate(s, x).conj().T)

    def test_adjoint_involution_exact(self):
        a = Symbol(S1, {-2: [[1j, 2], [0, 1]], 1: [[0, 0], [3, 1j]]})
        assert adjoint(adjoint(a)) == a
        s = su2_symbol()
        assert adjoint(adjoint(s)) == s

    def test_transpose_is_pointwise_transpose(self):
        s = su2_symbol()
        x = HopfPoint(0.4, 2.0, 0.3)
        assert np.allclose(evaluate(transpose(s), x), evaluate(s, x).T)

    def test_direct_sum_blocks(self):
        a = z_power(2)
        b = z_power(-1, rank=2)
        c = direct_sum(a, b)
        assert c.rank == 3
        z = np.exp(0.5j)
        val = evaluate(c, z)
        assert np.allclose(val[:1, :1], evaluate(a, z))
        assert np.allclose(val[1:, 1:], evaluate(b, z))
        assert np.allclose(val[:1, 1:], 0)

    def test_positive_power(self):
        assert power(z_power(1), 3) == z_power(3)

    def test_negative_power_of_unitary(self):
        assert power(z_power(1), -2) == z_power(-2)
        g2 = power(su2_symbol(), -1)
        assert g2 == adjoint(su2_symbol())

    def test_negative_power_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="unitary"):
            power(Symbol(S1, {1: [[2.0]]}), -1)

    def test_negative_power_rejects_a_symbol_unitary_on_32_points(self):
        # |0.7 + 0.3 z^32| is 1 wherever z^32 = 1, and as low as 0.4 between
        a = Symbol(S1, {0: [[0.7]], 32: [[0.3]]})
        with pytest.raises(ValueError, match=r"unitarity defect 8\.\d+e-01 .* on a 136-point grid"):
            power(a, -1)


def structurally_singular(pattern):
    """True when no permutation's entries all lie in the (r, r) nonzero pattern."""
    r = len(pattern)
    return not any(all(pattern[i, p[i]] for i in range(r))
                   for p in itertools.permutations(range(r)))


@st.composite
def sparse_circle_symbols(draw):
    """(symbol, identically singular) for a circle symbol of rank 1 to 4 with sparse terms.

    The exponents are drawn from [-3, 3] and may leave gaps in the window;
    each term fills a random subset of entries, so the union pattern can
    leave a row, a column or every permutation out.  Then the determinant
    is identically zero; otherwise its random values make it a nonzero
    polynomial.
    """
    rank = draw(st.integers(1, 4))
    exponents = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    terms = {}
    for k in exponents:
        mask = np.array(draw(st.lists(st.booleans(), min_size=rank * rank,
                                      max_size=rank * rank))).reshape(rank, rank)
        terms[k] = mask * (rng.standard_normal((rank, rank))
                           + 1j * rng.standard_normal((rank, rank)))
    if not any(np.any(c) for c in terms.values()):
        terms[exponents[0]][0, 0] = 1.0
    a = Symbol(S1, terms, rank=rank)
    pattern = np.any([c != 0 for c in a.terms.values()], axis=0)
    return a, structurally_singular(pattern)


class TestDeterminant:
    def test_triangular(self):
        a = Symbol(S1, {1: [[1, 0], [0, 0]], -1: [[0, 0], [0, 1]], 0: [[0, 1], [0, 0]]})
        # [[z, 1], [0, z^-1]] -> det = 1
        d = det_laurent(a)
        assert d.rank == 1 and set(d.terms) == {0}
        assert d.terms[0][0, 0] == 1.0

    def test_diag(self):
        a = Symbol(S1, {1: [[1, 0], [0, 0]], -2: [[0, 0], [0, 1]]})
        d = det_laurent(a)
        assert set(d.terms) == {-1}

    def test_matches_pointwise_determinant(self):
        rng = np.random.default_rng(3)
        a = Symbol(S1, {k: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                         for k in (-1, 0, 2)})
        d = det_laurent(a)
        for z in np.exp(2j * np.pi * np.array([0.13, 0.47, 0.81])):
            assert np.isclose(evaluate(d, z)[0, 0], np.linalg.det(evaluate(a, z)))

    def test_identically_singular_rejected(self):
        a = Symbol(S1, {1: [[1, 1], [1, 1]]})
        with pytest.raises(ValueError, match="zero"):
            det_laurent(a)

    def test_sphere_symbol_rejected(self):
        for fn in (det_laurent, laurent_coefficients):
            with pytest.raises(ValueError, match=f"{fn.__name__} is defined for circle "
                                                 f"symbols only"):
                fn(su2_symbol())

    def test_coefficients_fill_the_window_with_exact_zeros(self):
        a = Symbol(S1, {-2: [[1, 2], [0, 3]], 1: [[0, 0], [4j, 0]]})
        c = laurent_coefficients(a)
        assert c.shape == (2, 2, 4) and c.dtype == complex
        assert np.array_equal(c[:, :, 0], a.terms[-2])
        assert np.array_equal(c[:, :, 3], a.terms[1])
        assert not np.any(c[:, :, 1:3])

    @settings(max_examples=60, deadline=None)
    @given(case=sparse_circle_symbols())
    @example(case=(Symbol(S1, {3: [[2.0 - 1j]]}), False))
    @example(case=(Symbol(S1, {-1: [[1, 0], [2, 0]], 2: [[0, 0], [1j, 0]]}), True))
    @example(case=(Symbol(S1, {0: [[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3: [[0, 0, 0], [0, 2, 0],
                                                                           [0, 0, 0]]}), False))
    def test_matches_pointwise_determinant_on_sparse_patterns(self, case):
        a, singular = case
        if singular:
            with pytest.raises(ValueError, match="identically zero"):
                det_laurent(a)
            return
        d = det_laurent(a)
        assert d.rank == 1
        z = np.exp(2j * np.pi * np.random.default_rng(a.rank).uniform(size=8))
        values = eval_circle(a, z)
        # relative to Hadamard's bound, the scale of the determinant's terms
        scale = np.prod(np.linalg.norm(values, axis=2), axis=1)
        error = np.abs(eval_circle(d, z)[:, 0, 0] - np.linalg.det(values))
        assert np.all(error <= 1e-10 * scale)

    @settings(max_examples=20, deadline=None)
    @given(rank=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_root_count_of_the_determinant_is_minus_the_index(self, rank, seed):
        a, index = random_matrix_symbol(np.random.default_rng(seed), rank=rank)
        assert winding_roots(det_laurent(a)) == -index


class TestEvaluation:
    def test_eval_circle_matches_pointwise(self):
        a = Symbol(S1, {-1: [[1j, 0], [2, 1]], 3: [[0, 1], [0, 0]]})
        z = np.exp(2j * np.pi * np.linspace(0, 1, 7, endpoint=False))
        batch = eval_circle(a, z)
        for i, zi in enumerate(z):
            assert np.allclose(batch[i], evaluate(a, zi))

    def test_hopf_evaluation(self):
        s = su2_symbol()
        x = HopfPoint(0.6, 1.0, 2.5)
        z1 = np.cos(0.6) * np.exp(1.0j)
        z2 = np.sin(0.6) * np.exp(2.5j)
        expect = np.array([[z1, z2], [-np.conj(z2), np.conj(z1)]])
        assert np.allclose(evaluate(s, x), expect)

    def test_hopf_grid_matches_pointwise(self):
        s = su2_symbol()
        theta = np.array([0.2, 1.3])
        phi1 = np.array([0.0, 2.0, 4.0])
        phi2 = np.array([1.0, 3.0])
        grid = eval_hopf_grid(s, theta, phi1, phi2)
        assert grid.shape == (2, 3, 2, 2, 2)
        assert np.allclose(grid[1, 2, 0], evaluate(s, HopfPoint(1.3, 4.0, 1.0)))

    def test_hopf_partials_match_finite_differences(self):
        s = su2_symbol()
        x = HopfPoint(0.8, 1.2, 4.4)
        dth, dp1, dp2 = hopf_partials(s, x)
        h = 1e-6
        for exact, axis in ((dth, 0), (dp1, 1), (dp2, 2)):
            hi = [x.theta, x.phi1, x.phi2]
            lo = list(hi)
            hi[axis] += h
            lo[axis] -= h
            fd = (evaluate(s, HopfPoint(*hi)) - evaluate(s, HopfPoint(*lo))) / (2 * h)
            assert np.allclose(exact, fd, atol=1e-8)

    def test_hopf_point_validation(self):
        with pytest.raises(ValueError):
            HopfPoint(-0.1, 0, 0)
        with pytest.raises(ValueError):
            HopfPoint(0.3, 7.0, 0)


class TestInvertibility:
    def test_margin_of_monomial_is_one(self):
        assert np.isclose(invertibility_margin(z_power(3), 64), 1.0)

    def test_margin_detects_near_singularity(self):
        f = Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-9)]]})
        margin = invertibility_margin(f, 64)
        assert margin == pytest.approx(1e-9, rel=0.5)

    def test_require_invertible_gates(self):
        f = Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-9)]]})
        with pytest.raises(SymbolError, match="margin"):
            require_invertible(f)
        assert require_invertible(z_power(2)) == pytest.approx(1.0)

    def test_s3_vanishing_symbol_rejected(self):
        z1 = Symbol(S3, {(1, 0, 0, 0): [[1.0]]})
        with pytest.raises(SymbolError):
            require_invertible(z1)

    def test_default_grid_oversamples_window(self):
        assert margin_grid_size(z_power(0)) == 16
        assert margin_grid_size(Symbol(S1, {-6: 1.0, 6: 1.0})) == 4 * 14

    def test_unitarity_defect(self):
        assert unitarity_defect(su2_symbol()) < 1e-12
        assert unitarity_defect(z_power(-4)) < 1e-12
        assert unitarity_defect(Symbol(S1, {1: [[2.0]]})) > 1.0


def dense_gram_defect(a):
    """Max of |a^dagger a - I| on 4 * margin_grid_size(a) points per axis, entry by entry.

    At the n-th roots of unity z^k depends only on k mod n, so a's values at
    n points per angle are the inverse FFT of its coefficients, placed at
    their exponents mod n, times n per angle: an evaluation that shares no
    code with the program's.  S3 runs in chunks of 16 theta rows.
    """
    n, r = 4 * margin_grid_size(a), a.rank
    if a.manifold is S1:
        coeffs = np.zeros((r, r, n), dtype=complex)
        for k, c in a.terms.items():
            coeffs[:, :, k % n] += c
        chunks = [np.fft.ifft(coeffs) * n]
    else:
        theta = np.linspace(0.0, np.pi / 2, n)

        def chunk(th):
            coeffs = np.zeros((r, r, th.size, n, n), dtype=complex)
            for (p, q, s, t), c in a.terms.items():
                radial = np.cos(th) ** (p + s) * np.sin(th) ** (q + t)
                coeffs[:, :, :, (p - s) % n, (q - t) % n] += c[:, :, None] * radial
            return np.fft.ifft2(coeffs) * (n * n)

        chunks = (chunk(theta[i:i + 16]) for i in range(0, n, 16))
    worst = 0.0
    for v in chunks:
        for i, j in np.ndindex(r, r):
            gram = sum(np.conj(v[k, i]) * v[k, j] for k in range(r))
            worst = max(worst, float(np.max(np.abs(gram - (i == j)))))
    return worst


@st.composite
def circle_unitaries(draw):
    """U diag(z^k1, ..., z^kr) with U Haar-unitary, r <= 3 and |k| <= 20."""
    rank = draw(st.integers(1, 3))
    exponents = draw(st.lists(st.integers(-20, 20), min_size=rank, max_size=rank))
    u = haar_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 16))), rank)
    terms: dict = {}
    for i, k in enumerate(exponents):
        terms[k] = terms.get(k, 0) + u * (np.arange(rank) == i)  # column i of U at z^k
    return Symbol(S1, terms)


@st.composite
def sphere_unitaries(draw, max_degree=8):
    """U su2^m with U Haar-unitary and 1 <= |m| <= max_degree."""
    m = draw(st.integers(1, max_degree)) * draw(st.sampled_from([1, -1]))
    u = haar_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 16))), 2)
    return multiply(constant(S3, u), su2_power(m))


@st.composite
def unitarity_cases(draw):
    """(symbol, whether it is pointwise unitary), on S1 up to degree 40 and on S3 up to 8.

    Unitary: Haar constants times diag(z^k) or su2^m, and direct sums of those.
    Not unitary: constant sandwiches of those, and (1 - eps) + eps z^n for
    n >= 32, which is unitary at every 32nd root of unity.
    """
    kind = draw(st.sampled_from(["unitary", "sum", "sandwich", "perturbed"]))
    if kind == "perturbed":
        eps = 10.0 ** -draw(st.floats(0.3, 8.0))
        n = draw(st.integers(32, 40))
        return Symbol(S1, {0: [[1.0 - eps]], n: [[eps]]}), False
    if kind == "sum":
        if draw(st.booleans()):
            return direct_sum(draw(circle_unitaries()), draw(circle_unitaries())), True
        # two rank-2 blocks of degree <= 2 keep the rank-4 reference cheap
        return direct_sum(draw(sphere_unitaries(2)), draw(sphere_unitaries(2))), True
    unitary = draw(st.one_of(circle_unitaries(), sphere_unitaries()))
    if kind == "sandwich":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        return constant_sandwich(unitary, rng), False
    return unitary, True


class TestUnitarity:
    @settings(max_examples=20, deadline=None)
    @given(case=unitarity_cases())
    @example(case=(Symbol(S1, {0: [[0.7]], 32: [[0.3]]}), False))
    @example(case=(su2_power(8), True))
    @example(case=(su2_power(-8), True))
    def test_decision_matches_a_dense_gram_four_times_finer(self, case):
        a, unitary = case
        assert a.unitary is unitary
        assert (dense_gram_defect(a) <= UNITARY_TOL) is unitary

    def test_decision_is_sampled_once_and_kept(self, monkeypatch):
        calls = []

        def counted(symbol):
            calls.append(symbol)
            return unitarity_defect(symbol)

        monkeypatch.setattr(symbols, "unitarity_defect", counted)
        a = su2_symbol()
        assert a.unitary and a.unitary
        assert power(a, -2) == power(adjoint(a), 2)
        assert calls == [a]


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from toeplitz_lab import *", namespace)
    assert set(toeplitz_lab.__all__) <= set(namespace)
    assert namespace["identity"] is identity and namespace["constant"] is constant
