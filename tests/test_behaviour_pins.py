"""Behaviour pins: outputs a change to the program must leave byte for byte.

The verify reports are pinned by the sha256 of their JSON.  The `index`
document of every shipped symbol, without its `timings_ms`, and the exit
status of `toeplitz-lab index` are pinned by a golden file.  A spectral gap
of 1e12 or more is a ratio against a singular value at rounding level, and a
nonzero residual of 1e-12 or less is rounding itself: their digits follow the
BLAS thread count, so only their band is pinned.  A second golden file pins
the documents and exit statuses of `chern` on every shipped symbol, `winding`
on the circle symbols, and `convergence` on every shipped symbol (the
three-sphere ladders from 8 nodes); those are pinned whole.  Rewrite the
golden files only for a change that means to alter those documents:

    PYTHONPATH=src python tests/test_behaviour_pins.py

It rewrites only the entries whose pinned form moved.  With --diff it writes
nothing and prints, for each of those entries, the fields that moved, the
largest absolute change of a float field, and every change of a field that
is not a float.
"""
import hashlib
import json
import os
import subprocess
import sys

import pytest

from toeplitz_lab import cli
from toeplitz_lab.verify import run_verify, verify_report_json

HERE = os.path.dirname(os.path.abspath(__file__))
SYMBOLS = os.path.join(HERE, "..", "symbols")
GOLDEN = os.path.join(HERE, "data", "shipped_index_documents.json")
SUBCOMMAND_GOLDEN = os.path.join(HERE, "data", "shipped_subcommand_documents.json")

VERIFY_SHA256 = {
    "seed 0": ({}, "ad83d79014c2c0599ef1f6fdb7aee2e5268389512664afaa11102786a5603ae9"),
    "seed 0, tol 1.0": ({"tol": 1.0},
                        "acd152a112c2366e8a3b2b68b009fc6c6e104e0f018257a145f711c79f1e50f3"),
}


def shipped_symbols():
    return sorted(name for name in os.listdir(SYMBOLS) if name.endswith(".json"))


def subcommand_runs():
    """(command, symbol file, extra options) of every pinned chern, winding and convergence run."""
    runs = []
    for name in shipped_symbols():
        circle = name.startswith("s1_")
        runs.append(("chern", name, []))
        if circle:
            runs.append(("winding", name, []))
        runs.append(("convergence", name,
                     [] if circle else ["--theta-nodes", "8", "--phi-nodes", "8"]))
    return runs


def run_id(command, name, options):
    return " ".join([command, name, *options])


def subcommand_outcome(command, name, options, out_path):
    """Exit status of one subcommand run and the JSON document it wrote (None if none)."""
    if os.path.exists(out_path):
        os.unlink(out_path)
    status = cli.main([command, os.path.join(SYMBOLS, name), *options, "--out", out_path])
    document = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            document = json.load(fh)
    return {"exit": status, "document": document}


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


def load_golden(path=GOLDEN):
    with open(path) as fh:
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


def test_subcommand_golden_file_covers_every_run():
    assert sorted(load_golden(SUBCOMMAND_GOLDEN)) == sorted(
        run_id(*run) for run in subcommand_runs())


@pytest.mark.parametrize("run", subcommand_runs(), ids=lambda run: run_id(*run))
def test_shipped_symbol_subcommand_document(run, tmp_path, capsys):
    outcome = subcommand_outcome(*run, str(tmp_path / "document.json"))
    assert outcome == load_golden(SUBCOMMAND_GOLDEN)[run_id(*run)]


def test_index_document_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the engine runs its SVDs on one thread whatever the caller's count, so
    # the rounding-level gap and residual digits match too
    src = os.path.join(HERE, "..", "src")
    documents = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"index-{threads}.json"
        subprocess.run([sys.executable, "-m", "toeplitz_lab", "index",
                        os.path.join(SYMBOLS, "s1_random_rank3.json"), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        document = json.loads(out.read_text())
        del document["timings_ms"]
        documents.append(json.dumps(document, sort_keys=True))
    assert documents[0] == documents[1]


def write_golden(path, golden):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def leaves(value, path=""):
    """(path, value) of every scalar in a JSON value, paths joined by '/'."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}/{i}")
    else:
        yield path, value


def moved_entries(golden, outcomes, pin):
    """Keys of the entries whose pinned form outcomes would change, added and dropped ones too."""
    return sorted(key for key in set(golden) | set(outcomes)
                  if key not in golden or key not in outcomes
                  or pin(golden[key]) != pin(outcomes[key]))


def diff_lines(golden, outcomes, keys):
    """One line per entry of keys, naming the fields that moved between golden and outcomes.

    Each line ends with the largest absolute change of a float field; a
    field whose old or new value is not a float is flagged NON-FLOAT.
    """
    lines = []
    for key in keys:
        old = dict(leaves(golden.get(key)))
        new = dict(leaves(outcomes.get(key)))
        moved = [path for path in sorted(set(old) | set(new)) if old.get(path) != new.get(path)]
        both_float = {path for path in moved
                      if isinstance(old.get(path), float) and isinstance(new.get(path), float)}
        largest = max((abs(new[path] - old[path]) for path in both_float), default=None)
        lines.append(f"{key}: {', '.join(moved)}; "
                     + ("no float change" if largest is None
                        else f"largest float change {largest:.3e}"))
        lines.extend(f"  NON-FLOAT {path}: {old.get(path)!r} -> {new.get(path)!r}"
                     for path in moved if path not in both_float)
    return lines


if __name__ == "__main__":
    # rewrites only the entries whose pinned form moved; with --diff it
    # prints them instead and writes nothing
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        out = os.path.join(tmp, "document.json")
        runs = [(GOLDEN, settled, {name: index_outcome(name, out) for name in shipped_symbols()}),
                (SUBCOMMAND_GOLDEN, lambda outcome: outcome,
                 {run_id(*run): subcommand_outcome(*run, out) for run in subcommand_runs()})]
    for path, pin, outcomes in runs:
        golden = load_golden(path) if os.path.exists(path) else {}
        moved = moved_entries(golden, outcomes, pin)
        if "--diff" in sys.argv[1:]:
            print(f"{os.path.basename(path)}:")
            print("\n".join(diff_lines(golden, outcomes, moved)) or "no entry moves")
        else:
            write_golden(path, {key: outcomes[key] if key in moved else golden[key]
                                for key in outcomes})
