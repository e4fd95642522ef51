"""Behaviour pins: outputs a change to the program must leave byte for byte.

The verify reports are pinned by the sha256 of their JSON.  The `index`
document of every shipped symbol, without its `timings_ms`, and the exit
status of `toeplitz-lab index` are pinned by a golden file.  A spectral gap
of 1e12 or more is a ratio against a singular value at rounding level, and a
nonzero residual of 1e-12 or less is rounding itself: their digits follow the
BLAS thread count, so only their band is pinned.  Rewrite the golden file
only for a change that means to alter those documents:

    PYTHONPATH=src python tests/test_behaviour_pins.py
"""
import hashlib
import json
import os

import pytest

from toeplitz_lab import cli
from toeplitz_lab.verify import run_verify, verify_report_json

HERE = os.path.dirname(os.path.abspath(__file__))
SYMBOLS = os.path.join(HERE, "..", "symbols")
GOLDEN = os.path.join(HERE, "data", "shipped_index_documents.json")

VERIFY_SHA256 = {
    "seed 0": ({}, "ad83d79014c2c0599ef1f6fdb7aee2e5268389512664afaa11102786a5603ae9"),
    "seed 0, tol 1.0": ({"tol": 1.0},
                        "acd152a112c2366e8a3b2b68b009fc6c6e104e0f018257a145f711c79f1e50f3"),
}


def shipped_symbols():
    return sorted(name for name in os.listdir(SYMBOLS) if name.endswith(".json"))


def index_outcome(name, out_path):
    """Exit status of `toeplitz-lab index` on a shipped symbol and its document sans timings."""
    status = cli.main(["index", os.path.join(SYMBOLS, name), "--out", out_path])
    with open(out_path) as fh:
        document = json.load(fh)
    del document["timings_ms"]
    return {"exit": status, "document": document}


def settled(outcome):
    """The outcome with its rounding-level gaps and residuals reduced to their band."""
    document = outcome["document"]
    gaps = {key: "at least 1e12" if gap is not None and gap >= 1e12 else gap
            for key, gap in document["spectral_gaps"].items()}
    residuals = {key: "at most 1e-12" if 0.0 < residual <= 1e-12 else residual
                 for key, residual in document["residual_maxima"].items()}
    return {"exit": outcome["exit"],
            "document": {**document, "spectral_gaps": gaps, "residual_maxima": residuals}}


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(VERIFY_SHA256))
def test_verify_report_bytes(case):
    kwargs, digest = VERIFY_SHA256[case]
    report = verify_report_json(run_verify(0, **kwargs))
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_golden_file_covers_every_shipped_symbol():
    assert sorted(load_golden()) == shipped_symbols()


@pytest.mark.parametrize("name", shipped_symbols())
def test_shipped_symbol_index_document(name, tmp_path, capsys):
    outcome = index_outcome(name, str(tmp_path / "index.json"))
    assert settled(outcome) == settled(load_golden()[name])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "index.json")
        golden = {}
        for name in shipped_symbols():
            golden[name] = index_outcome(name, out)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
