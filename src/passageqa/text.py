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
"""
from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass

import numpy as np


class VectorFileError(ValueError):
    """Raised for malformed word vector files; carries the path and line number."""

    def __init__(self, path: str, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"{path}: line {line_no}: {message}")


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


_CHUNK = re.compile(r"\S+")


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

    def __contains__(self, word: str) -> bool:
        return word in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def get(self, word: str) -> np.ndarray:
        return self.matrix[self.rows.get(word, 0)]


def load_vectors(path: str) -> VectorTable:
    """Read a text vector file: header "COUNT DIM", then COUNT "word v1 .. vDIM" rows.

    Vectors are float32.  Duplicate words keep the first occurrence but count
    as rows.  A malformed or non-UTF-8 row, or one with a NaN, infinite or
    out-of-range component, raises VectorFileError with the path and its
    line number; a row count other than COUNT raises it for line 1.
    """
    def decoded(fh):
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise VectorFileError(path, line_no, f"not UTF-8: {exc}") from None

    vectors: dict[str, np.ndarray] = {}
    n_rows = 0
    # over="raise": a value beyond float32's range raises FloatingPointError.
    with open(path, "rb") as fh, np.errstate(over="raise"):
        lines = decoded(fh)
        _, header = next(lines, (1, ""))
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
        for line_no, line in lines:
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dim + 1:
                raise VectorFileError(
                    path, line_no, f"expected 1 word + {dim} values, got {len(fields)} fields")
            word = fields[0]
            try:
                values = list(map(float, fields[1:]))
                vec = np.array(values, dtype=np.float32)
            except ValueError:
                raise VectorFileError(path, line_no, "non-numeric vector component") from None
            except FloatingPointError:
                raise VectorFileError(path, line_no, "vector component out of range") from None
            if not math.isfinite(sum(values)):      # a nan or inf component
                raise VectorFileError(path, line_no, "non-finite vector component")
            n_rows += 1
            vectors.setdefault(word, vec)
    if n_rows != count:
        raise VectorFileError(path, 1, f"header says {count} rows, file has {n_rows}")
    return VectorTable(dim, vectors)


def save_vectors(path: str, table: VectorTable) -> None:
    """Inverse of load_vectors, mainly for building test fixtures."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, row in table.rows.items():
            values = " ".join(repr(float(x)) for x in table.matrix[row])
            fh.write(f"{word} {values}\n")


def embed(seq: TokenSeq, table: VectorTable) -> np.ndarray:
    """Embedding matrix (dim x len(seq)), one gather; out-of-vocabulary columns are zero."""
    return table.matrix[[table.rows.get(tok, 0) for tok in seq.tokens]].T
