"""Tokenization and pretrained word vectors.

The tokenizer is deliberately simple and fully deterministic: split on
whitespace, then peel leading and trailing punctuation characters off each
chunk into their own tokens.  Punctuation inside a chunk (hyphens,
apostrophes) stays attached.  Every token carries character offsets into the
original string so answer spans can be mapped back to text exactly.

`tokenize` finds a text's tokens and their offsets in one compiled-regex
pass.  The regex's punctuation class is cached and grows with the characters
seen: a new character is classified, and the class recompiled, before it
counts as seen, so a text's tokens never depend on what was tokenized before.

Word vectors are one read-only matrix whose row 0 is all zeros: an
out-of-vocabulary word is row 0, so `model.encode_batch` embeds a whole
batch with one gather.  The table sets the dtype: everything embedded from
it (embeddings, masks, the match channel) has its matrix's dtype, float32
when read from a file.

A vector file is read in blocks of whole lines, and np.loadtxt parses each
block's numbers in one call, with the bits float() gives (see load_vectors).
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from itertools import accumulate

import numpy as np


class VectorFileError(ValueError):
    """Raised for malformed word vector files; carries the path and line number."""

    def __init__(self, path: str, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"{path}: line {line_no}: {message}")


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _token_pattern(punct: frozenset[str]) -> re.Pattern:
    """One capturing group for a token: a whitespace chunk's core, from its
    first to its last non-punctuation character, or one punctuation character
    outside it.  `split` then alternates gaps of whitespace with tokens."""
    p = "".join(map(re.escape, sorted(punct)))
    return re.compile(f"([^{p}\\s]+(?:[{p}]+[^{p}\\s]+)*|[{p}])")


def _extend(classes, chars: set[str]):
    """`classes` (seen, punctuation among them, token pattern) with `chars` seen."""
    seen, punct, pattern = classes
    new_punct = punct.union(filter(_is_punct, chars))
    if new_punct != punct:
        pattern = _token_pattern(new_punct)
    return seen.union(chars), new_punct, pattern


# One tuple, read once per call and replaced whole, so a call that runs beside
# another uses a pattern that classifies every character it has seen.  ASCII
# is classified up front, so the class is never empty.
_classes = _extend((frozenset(), frozenset(), None), set(map(chr, range(128))))


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
    """Whitespace split with leading/trailing punctuation peeled off.

    One regex pass: `split` gives [gap, token, gap, ..., token, gap], so the
    running sums of the parts' lengths are each token's start and end.  The
    pattern's punctuation class is cached; the text's unseen characters are
    classified first, so the tokens never depend on earlier calls.
    """
    global _classes
    classes = _classes
    if not classes[0].issuperset(text):
        classes = _classes = _extend(classes, set(text) - classes[0])
    parts = classes[2].split(text)
    ends = list(accumulate(map(len, parts)))
    return TokenSeq(text, tuple(parts[1::2]), tuple(zip(ends[::2], ends[1::2])))


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
    as rows.  A malformed or non-UTF-8 row, one whose word is empty or holds
    whitespace, or one with a NaN, infinite or out-of-range component, raises
    VectorFileError with the path and its line number; a row count other than
    COUNT raises it for line 1.

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
                word = line[:line.find(" ")]
                if line.count(" ") != dim or word.split() != [word]:
                    return None
                texts.append(line)
                words.append(word)
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
        if not fields[0]:
            raise VectorFileError(path, line_no, "empty word")
        if fields[0].split() != [fields[0]]:
            raise VectorFileError(path, line_no, "word holds whitespace")
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
