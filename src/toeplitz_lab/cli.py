"""Command-line front end.

Subcommands: index, chern, winding, verify, convergence.  Every subcommand
reads a symbol file (except verify, which generates its own cases), prints a
human-readable summary on standard output, and optionally writes a
structured document to --out in the chosen --format.

Exit statuses: 0 success (and, for index/winding/verify, agreement), and
1 computed-but-disagreeing, 2 parse failure or option value out of range,
3 symbol rejected as non-invertible on its manifold, 4 numerical failure
(unstabilized kernel, failed residual validation, undersampled winding,
non-integral Chern value, a LAPACK routine that fails to converge, an array
too large to allocate).  main returns every status, argparse's own
included; no output document is written on a parse failure or an
out-of-range option.  An --out path that cannot be written exits 2 after
the summary, leaving no file behind.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import NumericsError, ParseError, SymbolError
from .kernel import DEFAULT_RESIDUAL_TOL, DEFAULT_TOL
from .reports import (compute_index_report, convergence_table,
                      convergence_text, convergence_to_csv,
                      convergence_to_dict, index_report_text,
                      index_report_to_dict)
from .symbols import S1, det_laurent, require_invertible
from .symbol_io import atomic_write_text, document_json, load_symbol
from .topology import (DEFAULT_GRID, topological_index,
                       winding_argument, winding_roots)
from .verify import (run_verify, verify_report_csv, verify_report_json,
                     verify_report_text)


def _dict_to_csv(doc: dict, prefix: str = "") -> list[str]:
    rows: list[str] = []
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_dict_to_csv(value, prefix=f"{name}_"))
        elif isinstance(value, (list, tuple)):
            if len(value) == 2 and all(isinstance(x, float) for x in value):
                rows.append(f"{name}_re,{value[0]!r}")
                rows.append(f"{name}_im,{value[1]!r}")
            else:
                rows.append(f"{name},{' '.join(str(x) for x in value)}")
        elif isinstance(value, bool):
            rows.append(f"{name},{str(value).lower()}")
        else:
            rows.append(f"{name},{value}")
    return rows


def _csv(doc: dict) -> str:
    return "field,value\n" + "\n".join(_dict_to_csv(doc)) + "\n"


def _emit(args, text: str, json_text: str, csv_text: str) -> None:
    """Text summary to stdout; the document in --format to --out (or stdout)."""
    sys.stdout.write(text)
    document = {"json": json_text, "csv": csv_text, "text": text}[args.format]
    if args.out:
        try:
            atomic_write_text(args.out, document)
        except OSError as exc:
            raise ParseError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    elif args.format != "text":
        sys.stdout.write(document)


def tolerance(text: str) -> float:
    """A tolerance option's value; anything but a finite float >= 0 is a parse failure."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a finite non-negative tolerance")
    return value


def _add_common(sub, *, trunc=False, tols=False, grid=False, nodes=False, seed=False):
    if trunc:
        sub.add_argument("--trunc", type=int, default=None,
                         help="base truncation size (domain degrees on S1, bands on S3)")
    if tols:
        sub.add_argument("--tol", type=tolerance, default=DEFAULT_TOL,
                         help="relative singular-value threshold for kernel detection")
        sub.add_argument("--residual-tol", type=tolerance, default=DEFAULT_RESIDUAL_TOL,
                         help="residual bound for kernel candidates on the larger truncation")
    if grid:
        sub.add_argument("--grid", type=int, default=DEFAULT_GRID,
                         help="circle quadrature / winding grid size")
    if nodes:
        sub.add_argument("--theta-nodes", type=int, default=None,
                         help="Gauss-Legendre nodes in t = cos 2 theta for S3 quadrature "
                              "(default: sized from the symbol, exact for a unitary one)")
        sub.add_argument("--phi-nodes", type=int, default=None,
                         help="trapezoid nodes in each phi angle for S3 quadrature "
                              "(default: sized from the symbol, exact for a unitary one)")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="randomness seed")
    sub.add_argument("--out", default=None, help="write the structured document here")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="json",
                     help="format of the structured document (default json)")


def _cmd_index(args) -> int:
    symbol = load_symbol(args.file)
    report = compute_index_report(
        symbol, trunc=args.trunc, tol=args.tol, residual_tol=args.residual_tol,
        grid=args.grid, theta_nodes=args.theta_nodes, phi_nodes=args.phi_nodes)
    doc = index_report_to_dict(report)
    _emit(args, index_report_text(report), document_json(doc), _csv(doc))
    return 0 if report.agreement else 1


def _cmd_chern(args) -> int:
    symbol = load_symbol(args.file)
    ch = topological_index(symbol, grid=args.grid, theta_nodes=args.theta_nodes,
                           phi_nodes=args.phi_nodes)
    doc = {
        "manifold": symbol.manifold.name,
        "rank": symbol.rank,
        "value": [ch.value.real, ch.value.imag],
        "refined": [ch.refined.real, ch.refined.imag],
        "rounded": ch.rounded,
        "doubling_defect": ch.doubling_defect,
        "integrality_defect": ch.integrality_defect,
        "resolution": list(ch.resolution),
    }
    text = (f"chern value         {ch.refined.real:+.12f} {ch.refined.imag:+.3e} i\n"
            f"rounded             {ch.rounded}\n"
            f"doubling defect     {ch.doubling_defect:.3e}\n"
            f"integrality defect  {ch.integrality_defect:.3e}\n")
    _emit(args, text, document_json(doc), _csv(doc))
    return 0


def _cmd_winding(args) -> int:
    symbol = load_symbol(args.file)
    if symbol.manifold is not S1:
        raise ParseError("winding is defined for circle symbols only; "
                         "this file holds a three-sphere symbol")
    require_invertible(symbol)
    scalar = symbol if symbol.rank == 1 else det_laurent(symbol)
    w_arg = winding_argument(scalar, grid=args.grid)
    w_roots = winding_roots(scalar)
    agreement = w_arg == w_roots
    doc = {
        "rank": symbol.rank,
        "via_determinant": symbol.rank > 1,
        "argument": w_arg,
        "roots": w_roots,
        "agreement": agreement,
    }
    text = (f"winding (argument)  {w_arg}\n"
            f"winding (roots)     {w_roots}\n"
            f"agreement           {'yes' if agreement else 'NO'}\n")
    _emit(args, text, document_json(doc), _csv(doc))
    return 0 if agreement else 1


def _cmd_verify(args) -> int:
    report = run_verify(seed=args.seed, tol=args.tol, residual_tol=args.residual_tol)
    _emit(args, verify_report_text(report), verify_report_json(report),
          verify_report_csv(report))
    return 0 if report.all_passed else 1


def _cmd_convergence(args) -> int:
    symbol = load_symbol(args.file)
    rows = convergence_table(symbol, grid=args.grid,
                             theta_nodes=args.theta_nodes, phi_nodes=args.phi_nodes)
    _emit(args, convergence_text(rows), document_json(convergence_to_dict(rows)),
          convergence_to_csv(rows))
    return 0 if rows[-1].delta <= args.tol else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplitz-lab",
        description="Fredholm indices of Toeplitz operators on the Hardy spaces "
                    "of S1 and S3: analytic (stabilized truncation) and "
                    "topological (winding / odd Chern character) routes.")
    commands = parser.add_subparsers(dest="command", required=True)

    p_index = commands.add_parser(
        "index", help="both index routes for one symbol file, with agreement verdict")
    p_index.add_argument("file", help="symbol file (JSON)")
    _add_common(p_index, trunc=True, tols=True, grid=True, nodes=True)
    p_index.set_defaults(func=_cmd_index)

    p_chern = commands.add_parser(
        "chern", help="odd Chern character quadrature with refinement defects")
    p_chern.add_argument("file", help="symbol file (JSON)")
    _add_common(p_chern, grid=True, nodes=True)
    p_chern.set_defaults(func=_cmd_chern)

    p_wind = commands.add_parser(
        "winding", help="both winding oracles (argument tracking and root counting)")
    p_wind.add_argument("file", help="symbol file (JSON, circle symbols)")
    _add_common(p_wind, grid=True)
    p_wind.set_defaults(func=_cmd_winding)

    p_verify = commands.add_parser(
        "verify", help="seeded property suite tying the analytic and topological routes")
    _add_common(p_verify, tols=True, seed=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_conv = commands.add_parser(
        "convergence", help="Chern quadrature along a doubling resolution ladder")
    p_conv.add_argument("file", help="symbol file (JSON)")
    _add_common(p_conv, grid=True, nodes=True)
    p_conv.add_argument("--tol", type=tolerance, default=1e-6,
                        help="required final delta of the ladder (exit 1 above it)")
    p_conv.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's exit: 2 on a parse failure, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, MemoryError) as exc:
        # numerical failures, not bad option values (LinAlgError is a ValueError)
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 4
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymbolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
