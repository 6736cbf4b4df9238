"""Tokenization and pretrained word vectors.

The tokenizer is deliberately simple and fully deterministic: split on
whitespace, then peel leading and trailing punctuation characters off each
chunk into their own tokens.  Punctuation inside a chunk (hyphens,
apostrophes) stays attached.  Every token carries character offsets into the
original string so answer spans can be mapped back to text exactly.

Word vectors are one read-only matrix whose row 0 is all zeros: an
out-of-vocabulary word is row 0, so embedding a sequence is one gather.  The
table sets the dtype: everything embedded from it (embeddings, masks, the
match channel) has its matrix's dtype, float32 when read from a file.

A vector file is read in blocks of whole lines, and np.loadtxt parses each
block's numbers in one call, with the bits float() gives (see load_vectors).
"""
from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass

import numpy as np


class VectorFileError(ValueError):
    """Raised for malformed word vector files; carries the path and line number."""

    def __init__(self, path: str, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"{path}: line {line_no}: {message}")


@functools.cache
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


_CHUNK = re.compile(r"\S+")


def utf8_encodable(text: str) -> bool:
    """False for text holding a lone surrogate, which UTF-8 cannot encode; the
    retriever hashes UTF-8 bytes, so loaders reject such text."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@dataclass(frozen=True)
class TokenSeq:
    """Tokens of one string plus their (start, end) character offsets."""

    text: str
    tokens: tuple[str, ...]
    offsets: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def span_text(self, start_tok: int, end_tok: int) -> str:
        """Original text covered by tokens start_tok..end_tok inclusive."""
        if not 0 <= start_tok <= end_tok < len(self.tokens):
            raise IndexError(f"span ({start_tok}, {end_tok}) out of range for {len(self.tokens)} tokens")
        return self.text[self.offsets[start_tok][0]:self.offsets[end_tok][1]]


def tokenize(text: str) -> TokenSeq:
    """Whitespace split with leading/trailing punctuation peeled off."""
    tokens: list[str] = []
    offsets: list[tuple[int, int]] = []

    def emit(start: int, end: int) -> None:
        tokens.append(text[start:end])
        offsets.append((start, end))

    for m in _CHUNK.finditer(text):
        lo, hi = m.start(), m.end()
        while lo < hi and _is_punct(text[lo]):
            emit(lo, lo + 1)
            lo += 1
        trailing: list[int] = []
        while hi > lo and _is_punct(text[hi - 1]):
            trailing.append(hi - 1)
            hi -= 1
        if lo < hi:
            emit(lo, hi)
        for pos in reversed(trailing):
            emit(pos, pos + 1)
    return TokenSeq(text, tuple(tokens), tuple(offsets))


class VectorTable:
    """Fixed word vectors: `rows` maps each (case-sensitive) word to its row of
    the read-only `matrix` (len + 1, dim), whose row 0 of zeros is every miss."""

    def __init__(self, dim: int, vectors: dict[str, np.ndarray] | None = None):
        vectors = vectors or {}
        self.dim = dim
        self.rows = {word: row for row, word in enumerate(vectors, start=1)}
        self.matrix = np.concatenate([np.zeros(dim, np.float32), *vectors.values()]
                                     ).reshape(len(vectors) + 1, dim)
        self.matrix.setflags(write=False)

    @classmethod
    def from_matrix(cls, rows: dict[str, int], matrix: np.ndarray) -> VectorTable:
        """A table over `matrix` as it is; its row 0 must be zeros."""
        table = cls.__new__(cls)
        table.dim, table.rows, table.matrix = matrix.shape[1], rows, matrix
        matrix.setflags(write=False)
        return table

    def __contains__(self, word: str) -> bool:
        return word in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def get(self, word: str) -> np.ndarray:
        return self.matrix[self.rows.get(word, 0)]


# load_vectors reads whole lines in blocks of about this many bytes, so its
# memory stays bounded on a file of any size.
_BLOCK_BYTES = 8 << 20


def load_vectors(path: str) -> VectorTable:
    """Read a text vector file: header "COUNT DIM", then COUNT "word v1 .. vDIM" rows.

    Vectors are float32.  Duplicate words keep the first occurrence but count
    as rows.  A malformed or non-UTF-8 row, or one with a NaN, infinite or
    out-of-range component, raises VectorFileError with the path and its
    line number; a row count other than COUNT raises it for line 1.

    The rows are read in blocks of whole lines.  np.loadtxt parses a block's
    numbers to float64 in one call, which are then checked and cast to float32
    at once: the same bits as float() then np.float32 per value.  A block with
    a fault, or with a number only float() reads (such as "1_0"), is read
    again one row at a time with float(), which names the first bad line.
    """
    rows: dict[str, int] = {}
    blocks = []
    n_rows = 0
    with open(path, "rb") as fh:
        try:
            header = fh.readline().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise VectorFileError(path, 1, f"not UTF-8: {exc}") from None
        parts = header.split()
        if len(parts) != 2:
            raise VectorFileError(path, 1, f"expected 'COUNT DIM' header, got {header.strip()!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise VectorFileError(path, 1,
                                  f"non-integer header fields: {header.strip()!r}") from None
        if count <= 0 or dim <= 0:
            raise VectorFileError(path, 1, f"COUNT and DIM must be positive, got {count} {dim}")
        line_no = 2
        while lines := fh.readlines(_BLOCK_BYTES):
            words, vectors = _parse_block(lines, dim) or _parse_rows(path, lines, line_no, dim)
            line_no += len(lines)
            n_rows += len(words)
            first = []
            for i, word in enumerate(words):
                if word not in rows:
                    rows[word] = len(rows) + 1
                    first.append(i)
            blocks.append(vectors[first])
    if n_rows != count:
        raise VectorFileError(path, 1, f"header says {count} rows, file has {n_rows}")
    return VectorTable.from_matrix(rows, np.concatenate([np.zeros((1, dim), np.float32),
                                                         *blocks]))


def _to_float32(values: np.ndarray) -> tuple[np.ndarray, str | None]:
    """float64 rows (n, dim) cast to float32, and the fault of the first row
    with a NaN, infinite or out-of-range component (None if no row has one)."""
    finite = np.isfinite(values)
    with np.errstate(over="ignore"):
        vectors = values.astype(np.float32)
    overflow = (finite & np.isinf(vectors)).any(axis=1)
    bad = np.flatnonzero(overflow | ~finite.all(axis=1))
    if not bad.size:
        return vectors, None
    return vectors, ("vector component out of range" if overflow[bad[0]]
                     else "non-finite vector component")


# Bytes that float() reads in no number, but that np.loadtxt strips from
# around a number as whitespace.
_LOADTXT_ONLY = b"\x1c\x1d\x1e\x1f"


def _parse_block(lines: list[bytes], dim: int) -> tuple[list[str], np.ndarray] | None:
    """Words and float32 vectors of a block's rows through one np.loadtxt call,
    or None when a row has a fault or a field np.loadtxt cannot read as float() does."""
    if any(byte in raw for raw in lines for byte in _LOADTXT_ONLY):
        return None
    texts, words = [], []
    try:
        for raw in lines:
            line = raw.decode("utf-8")
            if line.strip():
                if line.count(" ") != dim:
                    return None
                texts.append(line)
                words.append(line[:line.index(" ")])
        if not texts:
            return words, np.empty((0, dim), np.float32)
        values = np.loadtxt(texts, dtype=np.float64, delimiter=" ", comments=None,
                            quotechar=None, usecols=range(1, dim + 1), ndmin=2)
    except ValueError:      # UnicodeDecodeError too
        return None
    vectors, fault = _to_float32(values)
    return None if fault else (words, vectors)


def _parse_rows(path: str, lines: list[bytes], line_no: int,
                dim: int) -> tuple[list[str], np.ndarray]:
    """A block's rows one at a time with float(): raises VectorFileError for the
    first bad line, or returns the words and vectors np.loadtxt could not read."""
    words, vectors = [], [np.empty((0, dim), np.float32)]
    for line_no, raw in enumerate(lines, start=line_no):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise VectorFileError(path, line_no, f"not UTF-8: {exc}") from None
        if not line.strip():
            continue
        fields = line.rstrip("\n").split(" ")
        if len(fields) != dim + 1:
            raise VectorFileError(
                path, line_no, f"expected 1 word + {dim} values, got {len(fields)} fields")
        try:
            values = np.array([[float(x) for x in fields[1:]]])
        except ValueError:
            raise VectorFileError(path, line_no, "non-numeric vector component") from None
        vector, fault = _to_float32(values)
        if fault:
            raise VectorFileError(path, line_no, fault)
        words.append(fields[0])
        vectors.append(vector)
    return words, np.concatenate(vectors)


def save_vectors(path: str, table: VectorTable) -> None:
    """Inverse of load_vectors, mainly for building test fixtures.

    Raises ValueError, before opening the file, for a table load_vectors could
    not read back: one with no words, an empty word or one holding whitespace,
    or a NaN or infinite component.
    """
    if not table.rows:
        raise ValueError("no word vectors to save")
    for word, row in table.rows.items():
        if word.split() != [word]:
            raise ValueError(f"cannot save word {word!r}: it is empty or holds whitespace")
        if not np.isfinite(table.matrix[row]).all():
            raise ValueError(f"cannot save the vector of {word!r}: a component is not finite")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, row in table.rows.items():
            values = " ".join(repr(float(x)) for x in table.matrix[row])
            fh.write(f"{word} {values}\n")


def embed(seq: TokenSeq, table: VectorTable) -> np.ndarray:
    """Embedding matrix (dim x len(seq)), one gather; out-of-vocabulary columns are zero."""
    return table.matrix[[table.rows.get(tok, 0) for tok in seq.tokens]].T
