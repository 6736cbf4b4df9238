"""Tokenizer and word-vector file tests."""
import re
import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passageqa import text
from passageqa.text import (TokenSeq, VectorFileError, VectorTable, embed,
                            load_vectors, save_vectors, tokenize)

import oracles
from fuzzing import draw_damaged


def test_trailing_question_mark_splits():
    seq = tokenize("Who wrote Hamlet?")
    assert seq.tokens == ("Who", "wrote", "Hamlet", "?")
    assert seq.offsets == ((0, 3), (4, 9), (10, 16), (16, 17))


def test_empty_and_whitespace_only():
    assert tokenize("").tokens == ()
    assert tokenize("  \t\n ").tokens == ()


def test_interior_punctuation_stays_attached():
    assert tokenize("state-of-the-art.").tokens == ("state-of-the-art", ".")
    assert tokenize("don't stop").tokens == ("don't", "stop")


def test_leading_and_trailing_punctuation_peel_in_order():
    assert tokenize("(hello)").tokens == ("(", "hello", ")")
    assert tokenize('"quoted," she said.').tokens == (
        '"', "quoted", ",", '"', "she", "said", ".")


def test_all_punctuation_chunk():
    assert tokenize("...").tokens == (".", ".", ".")


def test_span_text_round_trip():
    seq = tokenize("The river Nile is long")
    assert seq.span_text(2, 2) == "Nile"
    assert seq.span_text(1, 3) == "river Nile is"
    with pytest.raises(IndexError):
        seq.span_text(4, 5)
    with pytest.raises(IndexError):
        seq.span_text(3, 2)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_offsets_always_match_source_text(text):
    seq = tokenize(text)
    prev_end = 0
    for tok, (lo, hi) in zip(seq.tokens, seq.offsets):
        assert lo < hi
        assert lo >= prev_end
        assert text[lo:hi] == tok
        assert not tok[0].isspace() and not tok[-1].isspace()
        prev_end = hi


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs")),
               max_size=40))
def test_tokens_cover_all_non_whitespace(text):
    seq = tokenize(text)
    covered = sum(hi - lo for lo, hi in seq.offsets)
    assert covered == sum(1 for ch in text if not ch.isspace())


# Words, with apostrophes and hyphens inside some, punctuation and whitespace.
TEXT_PIECES = st.one_of(
    st.text(st.sampled_from(string.ascii_letters + string.digits), min_size=1, max_size=6),
    st.sampled_from(["don't", "o'clock", "well-known", "x-ray", "rock-'n'-roll"]),
    st.sampled_from(string.punctuation + "«»¿—「」…"),
    st.sampled_from(["\t", "\n", " ", "\u3000"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(TEXT_PIECES, max_size=30).map("".join))
def test_tokenize_matches_character_loop_reference(text):
    assert tokenize(text) == oracles.tokenize(text)


# ---------------------------------------------------------------------------
# vector files


def write(tmp_path, content):
    path = tmp_path / "vectors.txt"
    path.write_text(content, encoding="utf-8")
    return str(path)


def test_load_vectors_round_trip(tmp_path):
    table = VectorTable(3, {"cat": np.array([1.0, 2.0, 3.0], dtype=np.float32),
                            "dog": np.array([-1.5, 0.25, 0.0], dtype=np.float32)})
    path = str(tmp_path / "v.txt")
    save_vectors(path, table)
    loaded = load_vectors(path)
    assert loaded.dim == 3 and len(loaded) == 2
    np.testing.assert_array_equal(loaded.get("cat"), table.get("cat"))
    np.testing.assert_array_equal(loaded.get("dog"), table.get("dog"))


@pytest.mark.parametrize("vectors, message", [
    ({"a b": [1.0, 2.0]}, "'a b': it is empty or holds whitespace"),
    ({"ok": [1.0, 2.0], "x\ny": [1.0, 2.0]}, "'x\\ny': it is empty or holds whitespace"),
    ({"": [1.0, 2.0]}, "'': it is empty or holds whitespace"),
    ({"w": [np.nan, 2.0]}, "vector of 'w': a component is not finite"),
    ({"w": [1.0, -np.inf]}, "vector of 'w': a component is not finite"),
    ({}, "no word vectors")])
def test_save_vectors_refuses_what_load_vectors_rejects(tmp_path, vectors, message):
    path = tmp_path / "v.txt"
    table = VectorTable(2, {w: np.array(v, np.float32) for w, v in vectors.items()})
    with pytest.raises(ValueError, match=re.escape(message)):
        save_vectors(str(path), table)
    assert not path.exists()


def test_out_of_vocabulary_is_zeros(tmp_path):
    path = write(tmp_path, "1 2\nhello 0.5 -0.5\n")
    table = load_vectors(path)
    np.testing.assert_array_equal(table.get("missing"), np.zeros(2, dtype=np.float32))
    assert "missing" not in table
    assert "hello" in table


def test_duplicate_words_keep_first(tmp_path):
    path = write(tmp_path, "2 2\nword 1.0 1.0\nword 9.0 9.0\n")
    table = load_vectors(path)
    np.testing.assert_array_equal(table.get("word"), [1.0, 1.0])


def test_vectors_are_read_only(tmp_path):
    path = write(tmp_path, "1 2\nword 1.0 1.0\n")
    vec = load_vectors(path).get("word")
    with pytest.raises(ValueError):
        vec[0] = 5.0


def test_bad_header_reports_line_one(tmp_path):
    path = write(tmp_path, "not a header at all\n")
    with pytest.raises(VectorFileError, match="line 1"):
        load_vectors(path)
    path = write(tmp_path, "x 3\n")
    with pytest.raises(VectorFileError, match="line 1"):
        load_vectors(path)
    for header in ("1 0", "0 2", "-1 2"):
        path = write(tmp_path, header + "\n")
        with pytest.raises(VectorFileError, match="line 1: COUNT and DIM must be positive"):
            load_vectors(path)


def test_bad_row_reports_its_line_number(tmp_path):
    path = write(tmp_path, "2 3\ngood 1 2 3\nshort 1 2\n")
    with pytest.raises(VectorFileError, match="line 3"):
        load_vectors(path)
    path = write(tmp_path, "1 2\nword 1.0 oops\n")
    with pytest.raises(VectorFileError, match="non-numeric"):
        load_vectors(path)
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2 1\ngood 1\ncaf\xe9 2\n")
    with pytest.raises(VectorFileError, match=r"latin1\.txt: line 3: not UTF-8"):
        load_vectors(str(path))


@pytest.mark.parametrize("value, message", [
    ("nan", "non-finite"), ("inf", "non-finite"), ("-Infinity", "non-finite"),
    ("1e40", "vector component out of range"), ("-1e400", "non-finite")])
def test_non_finite_component_reports_its_line_number(tmp_path, value, message):
    path = write(tmp_path, f"2 3\nbeta 0 1 0\nalpha {value} 0 0\n")
    with pytest.raises(VectorFileError, match=f"line 3: {message}"):
        load_vectors(path)


def test_table_is_one_read_only_matrix_with_zero_row_0():
    table = VectorTable(2, {"a": np.array([1.0, 2.0], dtype=np.float32),
                            "b": np.array([3.0, 4.0], dtype=np.float32)})
    assert table.rows == {"a": 1, "b": 2}
    np.testing.assert_array_equal(table.matrix, [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    assert table.matrix.dtype == np.float32 and not table.matrix.flags.writeable
    assert np.shares_memory(table.get("zzz"), table.matrix[0])


def test_table_dtype_follows_its_vectors():
    assert VectorTable(3).matrix.dtype == np.float32
    assert VectorTable(3).matrix.shape == (1, 3)
    table = VectorTable(2, {"a": np.array([0.1, 0.2])})
    assert table.matrix.dtype == np.float64
    assert table.get("a")[0] == 0.1 and embed(tokenize("a z"), table).dtype == np.float64


def test_embed_stacks_columns():
    table = VectorTable(2, {"a": np.array([1.0, 2.0], dtype=np.float32)})
    seq = tokenize("a b a")
    out = embed(seq, table)
    assert out.shape == (2, 3) and out.dtype == np.float32
    np.testing.assert_array_equal(out[:, 0], [1.0, 2.0])
    np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])
    np.testing.assert_array_equal(out[:, 2], [1.0, 2.0])
    assert embed(tokenize(""), table).shape == (2, 0)


@pytest.mark.parametrize("content", [
    "3 2\nhello 0.5 -0.5\n",                        # cut at a line boundary
    "1 2\nhello 0.5 -0.5\nworld 1 1\n",              # a row past COUNT
    "1 2\nword 1.0 1.0\n\nword 9.0 9.0\n"])          # a duplicate is a row too
def test_row_count_must_match_header(tmp_path, content):
    path = write(tmp_path, content)
    with pytest.raises(VectorFileError, match="line 1: header says"):
        load_vectors(path)


FUZZ_VECTORS = "4 3\nthe 0.5 -0.25 1.0\ncat 1e-3 2.5 -7\nsat 0 0 0\nmat -1.5 3.25 0.125\n"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_damaged_vector_file_is_rejected_or_usable(data):
    """Truncated, bit-flipped or spliced files fail with VectorFileError or load
    into a float32 table whose every vector is finite and embeddable."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/damaged.txt"
        Path(path).write_bytes(draw_damaged(data, FUZZ_VECTORS.encode()))
        try:
            table = load_vectors(path)
        except VectorFileError:
            return
    assert table.matrix.shape == (len(table) + 1, table.dim)
    assert table.matrix.dtype == np.float32 and np.isfinite(table.matrix).all()
    out = embed(TokenSeq("", tuple(table.rows) + ("unseen",), ()), table)
    assert out.shape == (table.dim, len(table) + 1) and not out[:, -1].any()


# Number fields that float() and np.loadtxt read alike; then the odd ones:
# what only float() reads ("1_0", non-ASCII digits), what neither reads, the
# NaN, infinite and out-of-float32-range values load_vectors rejects, and
# padding that float() strips or refuses.
NUMBER = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-3.4e38, max_value=3.4e38)
    .map(lambda x: "%.9g" % x),
    st.sampled_from(["1e-3", "2E+5", "-7e-45", "+1", ".5", "5.", "-0", "0",
                     "3.4028235e38", "3.40282356e38"]))
ODD_NUMBER = st.tuples(
    st.sampled_from(["", "", "\t", "\xa0", "\x1c"]),
    st.sampled_from(["1_0", "1__0", "\u0661\u0662", "\uff11", "nan", "-inf", "Infinity", "1e40",
                     "-1e400", "3.4028236e38", "", "x", "0x1", "1e"]) | NUMBER,
    st.sampled_from(["", "", "\t", "\u2000", "\x1f"])).map("".join)
WORD = st.one_of(st.sampled_from(["the", "cat", "\xdcn\xef", "", "a\rb", "x\x1cy", "\u0661"]),
                 st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=" \n"),
                         min_size=1, max_size=4))


@st.composite
def vector_files(draw):
    """A vector file as bytes, mostly sound rows with some blank lines, CRLF
    line ends, odd number fields, rows with a wrong field count, a bad UTF-8
    byte, and a header COUNT one off from the rows."""
    dim = draw(st.integers(1, 4))
    body = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 8 + ["odd"] * 4
                                    + ["blank", "blank", "short", "long", "latin1"]))
        if kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "\xa0", "\r"])).encode()
        else:
            n_values = dim + {"short": -1, "long": 1}.get(kind, 0)
            values = ODD_NUMBER if kind == "odd" else NUMBER
            line = " ".join([draw(WORD)] + [draw(values) for _ in range(n_values)]).encode()
            if kind == "latin1":
                line = line + b"\xe9"
        body.append(line + draw(st.sampled_from([b"\n", b"\n", b"\r\n"])))
    n_rows = sum(1 for line in body if line.strip())
    count = max(1, n_rows + draw(st.sampled_from([0, 0, 0, -1, 1])))
    return f"{count} {dim}\n".encode() + b"".join(body)


def _same_outcome(raw: bytes, block_bytes: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/vectors.txt"
        Path(path).write_bytes(raw)
        try:
            expected = oracles.load_vectors(path)
        except VectorFileError as exc:
            expected = str(exc)
        with mock.patch.object(text, "_BLOCK_BYTES", block_bytes):
            try:
                table = load_vectors(path)
            except VectorFileError as exc:
                assert str(exc) == expected
                return
    assert not isinstance(expected, str), f"loaded a file the reference rejects: {expected}"
    assert table.dim == expected.dim and table.rows == expected.rows
    assert table.matrix.dtype == np.float32 and not table.matrix.flags.writeable
    assert table.matrix.tobytes() == expected.matrix.tobytes()


@settings(max_examples=400, deadline=None)
@given(vector_files(), st.one_of(st.integers(1, 64), st.just(text._BLOCK_BYTES)))
def test_load_vectors_matches_row_by_row_reference(raw, block_bytes):
    """Same table bytes as float() per value, or the same first bad line and message."""
    _same_outcome(raw, block_bytes)


@pytest.mark.parametrize("raw", [
    b"3 2\ngood 1 2\nshort 1\nx 1 2\ncaf\xe9 1 2\n",     # a short row before a bad byte
    b"3 2\na 1 nan\nb 1e40 x\nc 1 2\n",                  # non-finite before non-numeric
    b"1 2\nw 1e40 nan\n",                                # out of range wins in a row
    b"4 2\r\na 1_0 2\r\n\r\nb \xd9\xa1\xd9\xa2 .5\r\na -0 5.\r\nc +1 2E-3\r\n",
    "2 3\nw 1\x1c 2 3\n\nv 4 5 6\n".encode()])
@pytest.mark.parametrize("block_bytes", [1, 12, 1 << 20])
def test_load_vectors_matches_reference_on_known_cases(raw, block_bytes):
    _same_outcome(raw, block_bytes)
