"""Symbol file format: round trips, canonical serialization, parse rejection."""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toeplitz_lab.errors import ParseError
from toeplitz_lab.families import su2_symbol, z_power
from toeplitz_lab.symbol_io import (atomic_write_text, load_symbol,
                                    parse_symbol, save_symbol,
                                    serialize_symbol, symbol_from_dict,
                                    symbol_to_dict)
from toeplitz_lab.symbols import S1, S3, Symbol

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@st.composite
def laurent_symbols(draw):
    rank = draw(st.integers(1, 3))
    ks = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
    terms = {}
    for k in ks:
        re = draw(st.lists(st.lists(finite, min_size=rank, max_size=rank),
                           min_size=rank, max_size=rank))
        terms[k] = np.array(re) + 1j * draw(finite)
    try:
        return Symbol(S1, terms, rank=rank)
    except ValueError:
        return z_power(0, rank=rank)  # all-zero draw: substitute the identity


@st.composite
def s3_symbols(draw):
    rank = draw(st.integers(1, 2))
    keys = draw(st.lists(st.tuples(*(st.integers(0, 2),) * 4),
                         min_size=1, max_size=3, unique=True))
    terms = {}
    for key in keys:
        re = draw(st.lists(st.lists(finite, min_size=rank, max_size=rank),
                           min_size=rank, max_size=rank))
        terms[key] = np.array(re) * (1 + 0.5j)
    try:
        return Symbol(S3, terms, rank=rank)
    except ValueError:
        return Symbol(S3, {(0, 0, 0, 0): np.eye(rank)}, rank=rank)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(laurent_symbols())
    def test_laurent_round_trip_is_exact(self, sym):
        assert parse_symbol(serialize_symbol(sym)) == sym

    @settings(max_examples=40, deadline=None)
    @given(s3_symbols())
    def test_s3_round_trip_is_exact(self, sym):
        assert parse_symbol(serialize_symbol(sym)) == sym

    def test_document_shape(self):
        doc = symbol_to_dict(z_power(-2))
        assert doc == {"manifold": "S1", "rank": 1,
                       "terms": [{"k": -2, "matrix": [[[1.0, 0.0]]]}]}
        doc3 = symbol_to_dict(su2_symbol())
        assert doc3["manifold"] == "S3" and doc3["rank"] == 2
        assert {"p", "q", "s", "t", "matrix"} == set(doc3["terms"][0])

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "sym.json")
        save_symbol(su2_symbol(), path)
        assert load_symbol(path) == su2_symbol()
        # idempotent serialization: saving the reload changes nothing
        text1 = open(path).read()
        save_symbol(load_symbol(path), path)
        assert open(path).read() == text1


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "payload")
        assert open(path).read() == "payload"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_overwrites_in_place(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert open(path).read() == "two"


class TestParseRejection:
    def s1_doc(self, **overrides):
        doc = {"manifold": "S1", "rank": 1,
               "terms": [{"k": 0, "matrix": [[[1.0, 0.0]]]}]}
        doc.update(overrides)
        return doc

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_symbol("{not json")

    def test_non_object(self):
        with pytest.raises(ParseError, match="object"):
            symbol_from_dict([1, 2])

    def test_bad_manifold(self):
        with pytest.raises(ParseError, match="manifold"):
            symbol_from_dict(self.s1_doc(manifold="S2"))

    def test_bad_rank(self):
        with pytest.raises(ParseError, match="rank"):
            symbol_from_dict(self.s1_doc(rank=0))
        with pytest.raises(ParseError, match="rank"):
            symbol_from_dict(self.s1_doc(rank="two"))

    def test_empty_terms(self):
        with pytest.raises(ParseError, match="terms"):
            symbol_from_dict(self.s1_doc(terms=[]))

    def test_duplicate_s1_key(self):
        doc = self.s1_doc(terms=[{"k": 1, "matrix": [[[1.0, 0.0]]]},
                                 {"k": 1, "matrix": [[[2.0, 0.0]]]}])
        with pytest.raises(ParseError, match="duplicate"):
            symbol_from_dict(doc)

    def test_duplicate_s3_key(self):
        term = {"p": 1, "q": 0, "s": 0, "t": 0, "matrix": [[[1.0, 0.0]]]}
        doc = {"manifold": "S3", "rank": 1, "terms": [term, dict(term)]}
        with pytest.raises(ParseError, match="duplicate"):
            symbol_from_dict(doc)

    def test_negative_s3_exponent(self):
        doc = {"manifold": "S3", "rank": 1,
               "terms": [{"p": -1, "q": 0, "s": 0, "t": 0, "matrix": [[[1.0, 0.0]]]}]}
        with pytest.raises(ParseError, match=">= 0"):
            symbol_from_dict(doc)

    def test_wrong_matrix_shape(self):
        doc = self.s1_doc(rank=2)
        with pytest.raises(ParseError, match="2x2"):
            symbol_from_dict(doc)

    def test_malformed_complex_entry(self):
        doc = self.s1_doc(terms=[{"k": 0, "matrix": [[[1.0]]]}])
        with pytest.raises(ParseError, match=r"\[re, im\]"):
            symbol_from_dict(doc)
        doc = self.s1_doc(terms=[{"k": 0, "matrix": [[[1.0, "x"]]]}])
        with pytest.raises(ParseError, match=r"\[re, im\]"):
            symbol_from_dict(doc)

    def test_unknown_term_fields(self):
        doc = self.s1_doc(terms=[{"k": 0, "matrix": [[[1.0, 0.0]]], "extra": 1}])
        with pytest.raises(ParseError, match="unknown"):
            symbol_from_dict(doc)

    def test_all_zero_symbol_rejected_as_parse_error(self):
        doc = self.s1_doc(terms=[{"k": 0, "matrix": [[[0.0, 0.0]]]}])
        with pytest.raises(ParseError, match="nonzero"):
            symbol_from_dict(doc)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_symbol(str(tmp_path / "missing.json"))

    def test_shipped_files_round_trip(self):
        symbols_dir = os.path.join(os.path.dirname(__file__), "..", "symbols")
        names = sorted(os.listdir(symbols_dir))
        assert len(names) == 13
        for name in names:
            path = os.path.join(symbols_dir, name)
            sym = load_symbol(path)
            assert parse_symbol(serialize_symbol(sym)) == sym
            # files are stored in canonical serialization already
            assert serialize_symbol(sym) == open(path).read()

    def test_complex_pairs_follow_re_im_order(self):
        sym = Symbol(S1, {2: [[1.5 - 0.25j]]})
        doc = symbol_to_dict(sym)
        assert doc["terms"][0]["matrix"][0][0] == [1.5, -0.25]
        text = serialize_symbol(sym)
        assert json.loads(text)["terms"][0]["k"] == 2


def test_make_symbols_reproduces_the_shipped_files(tmp_path):
    # scripts/make_symbols.py writes to ../symbols beside itself and imports
    # the package from ../src, so a copy under tmp_path regenerates them there
    repo = os.path.join(os.path.dirname(__file__), "..")
    (tmp_path / "scripts").mkdir()
    shutil.copy(os.path.join(repo, "scripts", "make_symbols.py"), tmp_path / "scripts")
    os.symlink(os.path.abspath(os.path.join(repo, "src")), tmp_path / "src")
    subprocess.run([sys.executable, str(tmp_path / "scripts" / "make_symbols.py")],
                   cwd=tmp_path, check=True, capture_output=True)
    shipped = sorted(os.listdir(os.path.join(repo, "symbols")))
    assert len(shipped) == 13
    assert sorted(os.listdir(tmp_path / "symbols")) == shipped
    for name in shipped:
        with open(os.path.join(repo, "symbols", name), "rb") as handle:
            assert (tmp_path / "symbols" / name).read_bytes() == handle.read(), name
