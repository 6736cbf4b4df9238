"""Tokenization and pretrained word vectors.

The tokenizer is deliberately simple and fully deterministic: split on
whitespace, then peel leading and trailing punctuation characters off each
chunk into their own tokens.  Punctuation inside a chunk (hyphens,
apostrophes) stays attached.  Every token carries character offsets into the
original string so answer spans can be mapped back to text exactly.
"""
from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field

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


@dataclass
class VectorTable:
    """Fixed word vectors; lookups are case-sensitive, misses give zeros."""

    dim: int
    _vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, word: str) -> np.ndarray:
        vec = self._vectors.get(word)
        if vec is None:
            return np.zeros(self.dim, dtype=self._dtype())
        return vec

    def _dtype(self):
        for vec in self._vectors.values():
            return vec.dtype
        return np.float32


def load_vectors(path: str, dtype=np.float32) -> VectorTable:
    """Read a text vector file: header "COUNT DIM", then "word v1 .. vDIM".

    Duplicate words keep the first occurrence.  A malformed or non-UTF-8 row,
    or one with a NaN, infinite or out-of-range component, raises
    VectorFileError with the path and its line number.
    """
    def decoded(fh):
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise VectorFileError(path, line_no, f"not UTF-8: {exc}") from None

    vectors: dict[str, np.ndarray] = {}
    # over="raise": a value beyond the dtype's range raises FloatingPointError.
    with open(path, "rb") as fh, np.errstate(over="raise"):
        lines = decoded(fh)
        _, header = next(lines, (1, ""))
        parts = header.split()
        if len(parts) != 2:
            raise VectorFileError(path, 1, f"expected 'COUNT DIM' header, got {header.strip()!r}")
        try:
            _count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise VectorFileError(path, 1,
                                  f"non-integer header fields: {header.strip()!r}") from None
        if dim <= 0:
            raise VectorFileError(path, 1, f"dimension must be positive, got {dim}")
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
                vec = np.array(values, dtype=dtype)
            except ValueError:
                raise VectorFileError(path, line_no, "non-numeric vector component") from None
            except FloatingPointError:
                raise VectorFileError(path, line_no, "vector component out of range") from None
            if not math.isfinite(sum(values)):      # a nan or inf component
                raise VectorFileError(path, line_no, "non-finite vector component")
            if word not in vectors:
                vec.setflags(write=False)
                vectors[word] = vec
    return VectorTable(dim, vectors)


def save_vectors(path: str, table: VectorTable) -> None:
    """Inverse of load_vectors, mainly for building test fixtures."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in table._vectors.items():
            values = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{word} {values}\n")


def embed(seq: TokenSeq, table: VectorTable) -> np.ndarray:
    """Embedding matrix (dim x len(seq)); out-of-vocabulary columns are zero."""
    out = np.zeros((table.dim, len(seq)), dtype=table._dtype())
    for i, tok in enumerate(seq.tokens):
        out[:, i] = table.get(tok)
    return out
