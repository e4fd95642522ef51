"""Toeplitz operators with matrix symbols on the Hardy spaces of S1 and S3.

The package computes the Fredholm index of T_a = P M_a two independent ways
— analytically, from stabilized SVD kernel detection on image-exact
rectangular truncations, and topologically, from winding numbers and odd
Chern character quadrature — and ships the verification suite that holds
the two routes to exact agreement.
"""
from .errors import (NonIntegralChernError, NumericsError, ParseError,
                     ResidualFailureError, SymbolError, ToeplitzLabError,
                     UndersampledError, UnstabilizedError)
from .families import (diag_laurent, random_matrix_symbol,
                       random_scalar_symbol, s3_representative, su2_power,
                       su2_symbol, z_power)
from .hardy_s1 import analytic_index_s1, toeplitz_rect_s1
from .hardy_s3 import analytic_index_s3, toeplitz_rect_s3
from .kernel import AnalyticIndex, KernelReport, stabilized_kernel_dim
from .reports import IndexReport, compute_index_report, convergence_table
from .symbols import (S1, S3, Symbol, adjoint, constant, det_laurent, direct_sum,
                      identity, invertibility_margin, multiply, power, transpose)
from .symbol_io import load_symbol, parse_symbol, save_symbol, serialize_symbol
from .topology import (ChernValue, chern, chern_s1, chern_s3, topological_index,
                       winding_argument, winding_roots)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "AnalyticIndex", "ChernValue", "IndexReport", "KernelReport",
    "NonIntegralChernError", "NumericsError", "ParseError",
    "ResidualFailureError", "S1", "S3", "Symbol", "SymbolError",
    "ToeplitzLabError", "UndersampledError", "UnstabilizedError", "adjoint",
    "analytic_index_s1", "analytic_index_s3",
    "chern", "chern_s1", "chern_s3", "compute_index_report", "constant",
    "convergence_table", "det_laurent", "diag_laurent", "direct_sum",
    "identity", "invertibility_margin", "load_symbol", "multiply", "parse_symbol",
    "power", "random_matrix_symbol", "random_scalar_symbol", "run_verify",
    "s3_representative", "save_symbol", "serialize_symbol",
    "stabilized_kernel_dim", "su2_power", "su2_symbol", "toeplitz_rect_s1",
    "toeplitz_rect_s3", "topological_index", "transpose", "winding_argument",
    "winding_roots", "z_power",
]
