"""Circle Hardy space: truncation structure, image-exactness, analytic index."""
import numpy as np
import pytest

from toeplitz_lab.errors import SymbolError
from toeplitz_lab.families import diag_laurent, z_power
from toeplitz_lab.hardy_s1 import S1Truncation, analytic_index_s1, toeplitz_rect_s1
from toeplitz_lab.symbols import S1, Symbol, adjoint, eval_circle, multiply


class TestTruncationStructure:
    def test_symmetric_band_example(self):
        # a = z + z^-1, domain degrees {0, 1}: codomain must include degree 2
        a = Symbol(S1, {1: [[1.0]], -1: [[1.0]]})
        t = toeplitz_rect_s1(a, 2)
        assert (t.domain_size, t.codomain_size) == (2, 3)
        assert np.array_equal(t.matrix, np.array([[0, 1], [1, 0], [0, 1]], dtype=complex))

    def test_codomain_matches_positive_part_only(self):
        assert toeplitz_rect_s1(z_power(-2), 6).codomain_size == 6
        assert toeplitz_rect_s1(z_power(3), 6).codomain_size == 9

    def test_block_interleaving(self):
        c = np.array([[1, 2], [3, 4]], dtype=complex)
        a = Symbol(S1, {1: c})
        t = toeplitz_rect_s1(a, 2)
        assert t.matrix.shape == (6, 4)
        assert np.array_equal(t.matrix[2:4, 0:2], c)
        assert np.array_equal(t.matrix[4:6, 2:4], c)
        assert np.array_equal(t.matrix[0:2, :], np.zeros((2, 4)))

    def test_prefix_property(self):
        rng = np.random.default_rng(2)
        a = Symbol(S1, {k: rng.standard_normal((2, 2)) for k in (-2, 0, 3)})
        small = toeplitz_rect_s1(a, 4)
        large = toeplitz_rect_s1(a, 9)
        rows, cols = small.matrix.shape
        assert np.array_equal(large.matrix[:rows, :cols], small.matrix)

    def test_adjoint_consistency(self):
        # the adjoint symbol's own truncation contains the conjugate
        # transpose of the original truncation as its leading block, exactly
        rng = np.random.default_rng(4)
        a = Symbol(S1, {k: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                         for k in (-2, 1, 3)})
        n = 5
        t = toeplitz_rect_s1(a, n)
        t_star = toeplitz_rect_s1(adjoint(a), t.codomain_size)
        assert np.array_equal(t_star.matrix[: n * a.rank, :], t.matrix.conj().T)

    def test_spectral_sampling_oracle(self):
        # independent route to the same matrix: sample the symbol on a fine
        # grid, multiply by each basis function, and read Fourier
        # coefficients of the product off an FFT
        rng = np.random.default_rng(7)
        a = Symbol(S1, {k: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                         for k in (-2, -1, 1, 3)})
        n_dom, grid = 5, 128
        t = toeplitz_rect_s1(a, n_dom)
        z = np.exp(2j * np.pi * np.arange(grid) / grid)
        samples = eval_circle(a, z)  # (grid, 2, 2)
        for n in range(n_dom):
            for comp in range(2):
                # column vector of T_a applied to z^n e_comp
                product = samples[:, :, comp] * z[:, None] ** n  # (grid, 2)
                # coefficient of z^m is the m-th forward DFT bin over grid size
                modes = np.fft.fft(product, axis=0) / grid
                expected = modes[: t.codomain_size]
                col = t.matrix[:, n * 2 + comp].reshape(t.codomain_size, 2)
                assert np.allclose(col, expected, atol=1e-12)

    def test_returns_dataclass(self):
        t = toeplitz_rect_s1(z_power(1), 3)
        assert isinstance(t, S1Truncation)
        assert t.rank == 1

    def test_domain_size_validation(self):
        with pytest.raises(ValueError):
            toeplitz_rect_s1(z_power(1), 0)


def loop_rect_s1(a, n_dom):
    """Reference truncation: the per-block loop that toeplitz_rect_s1 vectorizes."""
    r = a.rank
    n_cod = n_dom + max(a.k_max, 0)
    mat = np.zeros((n_cod * r, n_dom * r), dtype=complex)
    for k, c in a.terms.items():
        for n in range(n_dom):
            m = n + k
            if 0 <= m < n_cod:
                mat[m * r:(m + 1) * r, n * r:(n + 1) * r] = c
    return mat


def random_laurent(rank, exponents, seed):
    rng = np.random.default_rng(seed)
    return Symbol(S1, {k: rng.standard_normal((rank, rank))
                        + 1j * rng.standard_normal((rank, rank)) for k in exponents})


# exponent sets: both signs, k_max < 0, k_min > 0, and terms longer than the
# smaller domains, which fall outside the truncation in full
LOOP_EXPONENTS = {
    "mixed": (-2, 0, 3),
    "negative": (-3, -1),
    "positive": (1, 4),
    "wide": (-9, -1, 0, 8),
}


@pytest.mark.parametrize("n_dom", [1, 7, 65])
@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("exponents", sorted(LOOP_EXPONENTS))
def test_truncation_equals_the_per_block_loop(exponents, rank, n_dom):
    a = random_laurent(rank, LOOP_EXPONENTS[exponents], seed=rank)
    matrix = toeplitz_rect_s1(a, n_dom).matrix
    assert type(matrix) is np.ndarray
    assert np.array_equal(matrix, loop_rect_s1(a, n_dom))


class TestAnalyticIndex:
    def test_monomial_dims(self):
        for m in (-4, -1, 0, 2, 5):
            res = analytic_index_s1(z_power(m), trunc=24)
            assert res.index == -m
            assert res.ker_dim == max(-m, 0)
            assert res.coker_dim == max(m, 0)

    def test_default_size_schedule(self):
        assert analytic_index_s1(z_power(1)).sizes == (64, 128)
        res = analytic_index_s1(z_power(1), trunc=24)
        assert res.sizes == (24, 48)

    def test_diagonal_mixed_winding(self):
        a = diag_laurent([z_power(1), z_power(-2)])
        res = analytic_index_s1(a, trunc=24)
        assert (res.index, res.ker_dim, res.coker_dim) == (1, 2, 1)

    def test_root_location_decides_index(self):
        inner = multiply(z_power(0), Symbol(S1, {1: [[1.0]], 0: [[-0.4]]}))
        outer = Symbol(S1, {1: [[1.0]], 0: [[-2.5]]})
        assert analytic_index_s1(inner, trunc=32).index == -1
        assert analytic_index_s1(outer, trunc=32).index == 0

    def test_near_singular_symbol_rejected_by_margin(self):
        # a root a hair outside the circle: truncations would stabilize to
        # dims 0/0, so the invertibility gate is what must catch this
        f = Symbol(S1, {1: [[1.0]], 0: [[-(1 + 1e-9)]]})
        with pytest.raises(SymbolError, match="margin"):
            analytic_index_s1(f, trunc=16)

    def test_kernel_reports_attached(self):
        res = analytic_index_s1(z_power(-2), trunc=16)
        assert res.ker.dim == 2 and res.coker.dim == 0
        assert res.ker.residual <= 1e-12
        assert res.index == res.ker_dim - res.coker_dim
