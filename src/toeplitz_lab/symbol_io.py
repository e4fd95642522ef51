"""Symbol file format: structured JSON with [re, im] complex entries.

A symbol file is a JSON object with fields
    manifold: "S1" | "S3"
    rank:     positive integer
    terms:    list of term objects
where an S1 term is {"k": <int>, "matrix": <rank x rank array of [re, im]>}
and an S3 term is {"p": .., "q": .., "s": .., "t": .., "matrix": ...} with
non-negative exponents.  Matrices are row-major; every complex number is a
two-element [re, im] array.  Duplicate exponent keys are rejected rather
than merged, so a file is a canonical description of one symbol.

All writes in the package go through atomic_write_text (write to a temporary
file, then rename), so readers never observe a half-written document.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ParseError
from .symbols import S1, S3, Symbol


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temporary file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def document_json(doc: dict) -> str:
    """Canonical JSON of an output document: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _complex_to_pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    return [[_complex_to_pair(entry) for entry in row] for row in np.asarray(matrix)]


def _pair_to_complex(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        raise ParseError(f"{where}: complex entries must be [re, im] number pairs, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _parse_matrix(data, rank: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != rank:
        raise ParseError(f"{where}: matrix must be a {rank}x{rank} row-major array")
    out = np.zeros((rank, rank), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != rank:
            raise ParseError(f"{where}: matrix row {i} must have {rank} entries")
        for j, entry in enumerate(row):
            out[i, j] = _pair_to_complex(entry, f"{where}, entry ({i},{j})")
    return out


def _require_int(data, field: str, where: str, minimum: int | None = None) -> int:
    value = data.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: field '{field}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParseError(f"{where}: field '{field}' must be >= {minimum}, got {value}")
    return value


def symbol_to_dict(symbol: Symbol) -> dict:
    """Canonical JSON-ready document for a symbol (terms in canonical order)."""
    fields = symbol.manifold.key_fields
    terms = [{**dict(zip(fields, key if len(fields) > 1 else (key,))),
              "matrix": _matrix_to_pairs(c)} for key, c in symbol.terms.items()]
    return {"manifold": symbol.manifold.name, "rank": symbol.rank, "terms": terms}


def symbol_from_dict(data) -> Symbol:
    """Parse a symbol document; raises ParseError with a pointed message on any defect."""
    if not isinstance(data, dict):
        raise ParseError(f"symbol document must be an object, got {type(data).__name__}")
    name = data.get("manifold")
    manifold = next((m for m in (S1, S3) if m.name == name), None)
    if manifold is None:
        raise ParseError(f"field 'manifold' must be \"S1\" or \"S3\", got {name!r}")
    rank = _require_int(data, "rank", "symbol document", minimum=1)
    terms = data.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ParseError("field 'terms' must be a non-empty list")
    fields = manifold.key_fields
    parsed: dict = {}
    for idx, term in enumerate(terms):
        where = f"term {idx}"
        if not isinstance(term, dict):
            raise ParseError(f"{where}: must be an object")
        values = tuple(_require_int(term, f, where, minimum=manifold.min_exponent)
                       for f in fields)
        key = values if len(fields) > 1 else values[0]
        extra = set(term) - {*fields, "matrix"}
        if extra:
            raise ParseError(f"{where}: unknown fields {sorted(extra)}")
        if key in parsed:
            raise ParseError(f"{where}: duplicate exponent key {key}")
        parsed[key] = _parse_matrix(term.get("matrix"), rank, where)
    try:
        return Symbol(manifold, parsed, rank=rank)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_symbol(symbol: Symbol) -> str:
    return json.dumps(symbol_to_dict(symbol), indent=2) + "\n"


def parse_symbol(text: str) -> Symbol:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return symbol_from_dict(data)


def load_symbol(path: str) -> Symbol:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read symbol file {path}: {exc}") from exc
    return parse_symbol(text)


def save_symbol(symbol: Symbol, path: str) -> None:
    atomic_write_text(path, serialize_symbol(symbol))
