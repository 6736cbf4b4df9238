"""Hashed bigram TF-IDF passage retrieval.

Features are unigrams plus adjacent bigrams, hashed with 64-bit FNV-1a into a
fixed number of buckets.  Term weights are ln(1 + tf) * idf with
idf = max(0, ln((N - df + 0.5) / (df + 0.5))), and passages are ranked by
cosine similarity against the query vector.
"""
from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .text import TokenSeq, tokenize

# Joins the two halves of a bigram key; cannot occur inside a token because
# the tokenizer splits on whitespace and U+001F is whitespace-adjacent control.
BIGRAM_SEP = "\x1f"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_BUCKETS = 2 ** 24

INDEX_MAGIC = b"PQIX"
INDEX_VERSION = 1


class IndexFormatError(ValueError):
    """Raised when an index file fails validation on load."""


class CorpusError(ValueError):
    """Raised for malformed corpora (bad or duplicate ids, empty passages, bad rows)."""


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a; the fixed feature hash used for bucket assignment."""
    acc = _FNV_OFFSET
    for byte in data:
        acc ^= byte
        acc = (acc * _FNV_PRIME) & _MASK64
    return acc


def ngram_keys(tokens: tuple[str, ...] | list[str]) -> list[str]:
    """Raw unigram and adjacent-bigram keys, before hashing."""
    keys = list(tokens)
    keys.extend(tokens[i] + BIGRAM_SEP + tokens[i + 1] for i in range(len(tokens) - 1))
    return keys


def ngram_features(tokens: tuple[str, ...] | list[str],
                   n_buckets: int = DEFAULT_BUCKETS) -> Counter[int]:
    """Bucketed term-frequency counts for unigrams + adjacent bigrams."""
    counts: Counter[int] = Counter()
    for key in ngram_keys(tokens):
        counts[fnv1a_64(key.encode("utf-8")) % n_buckets] += 1
    return counts


@dataclass
class PassageRecord:
    """One retrievable passage with a stable integer id."""

    passage_id: int
    article_id: int
    text: str
    _tokens: TokenSeq | None = field(default=None, repr=False, compare=False)

    @property
    def tokens(self) -> TokenSeq:
        if self._tokens is None:
            self._tokens = tokenize(self.text)
        return self._tokens


class Corpus:
    """Ordered collection of passages with unique ids."""

    def __init__(self, records: list[PassageRecord]):
        self.records: list[PassageRecord] = []
        self._by_id: dict[int, PassageRecord] = {}
        for rec in records:
            self._add(rec)

    def _add(self, rec: PassageRecord) -> None:
        # Ids are stored as u64 in the index, so only those are accepted.
        for what, value in (("passage id", rec.passage_id), ("article id", rec.article_id)):
            if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2 ** 64:
                raise CorpusError(f"{what} must be an integer in [0, 2**64), got {value!r}")
        if rec.passage_id in self._by_id:
            raise CorpusError(f"duplicate passage id {rec.passage_id}")
        if not isinstance(rec.text, str):
            raise CorpusError(f"passage {rec.passage_id} text must be a string, "
                              f"got {type(rec.text).__name__}")
        if not rec.text.strip():
            raise CorpusError(f"passage {rec.passage_id} has empty text")
        self._by_id[rec.passage_id] = rec
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, passage_id: int) -> PassageRecord:
        try:
            return self._by_id[passage_id]
        except KeyError:
            raise KeyError(f"no passage with id {passage_id}") from None

    def __contains__(self, passage_id: int) -> bool:
        return passage_id in self._by_id

    def save_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                row = {"passage_id": rec.passage_id, "article_id": rec.article_id,
                       "text": rec.text}
                fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")

    @classmethod
    def load_jsonl(cls, path: str) -> "Corpus":
        """Read `save_jsonl` output; a malformed row raises CorpusError naming its line."""
        corpus = cls([])
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    if not isinstance(row, dict):
                        raise CorpusError("expected a JSON object")
                    corpus._add(PassageRecord(row["passage_id"], row["article_id"],
                                              row["text"]))
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"{path}:{line_no}: invalid JSON: {exc}") from None
                except KeyError as exc:
                    raise CorpusError(f"{path}:{line_no}: missing field {exc}") from None
                except CorpusError as exc:
                    raise CorpusError(f"{path}:{line_no}: {exc}") from None
        return corpus


@dataclass
class RankedList:
    """Descending-score ranking; ties broken by ascending passage id."""

    entries: list[tuple[int, float]]
    warning: str | None = None

    def ids(self) -> list[int]:
        return [pid for pid, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def top(self, k: int) -> "RankedList":
        return RankedList(self.entries[:k], self.warning)


class TfIdfIndex:
    """Inverted index over hashed n-gram buckets.

    After construction the index is immutable, so concurrent readers need no
    locking.  doc_freq maps bucket -> number of passages containing it;
    postings maps bucket -> list of (passage_id, term_frequency) sorted by
    passage id; norms maps passage_id -> Euclidean norm of its weight vector.
    """

    def __init__(self, n_buckets: int, n_docs: int,
                 doc_freq: dict[int, int],
                 postings: dict[int, list[tuple[int, int]]],
                 norms: dict[int, float]):
        self.n_buckets = n_buckets
        self.n_docs = n_docs
        self.doc_freq = doc_freq
        self.postings = postings
        self.norms = norms

    def idf(self, bucket: int) -> float:
        df = self.doc_freq.get(bucket, 0)
        return max(0.0, float(np.log((self.n_docs - df + 0.5) / (df + 0.5))))

    def weight(self, tf: int, bucket: int) -> float:
        return float(np.log1p(tf)) * self.idf(bucket)


def build_index(corpus: Corpus, n_buckets: int = DEFAULT_BUCKETS) -> TfIdfIndex:
    """Index every passage in the corpus; ids must be unique (Corpus enforces)."""
    if n_buckets < 1:
        raise ValueError(f"bucket count must be positive, got {n_buckets}")
    per_passage: dict[int, Counter[int]] = {}
    doc_freq: dict[int, int] = {}
    for rec in corpus:
        counts = ngram_features(rec.tokens.tokens, n_buckets)
        per_passage[rec.passage_id] = counts
        for bucket in counts:
            doc_freq[bucket] = doc_freq.get(bucket, 0) + 1

    index = TfIdfIndex(n_buckets, len(corpus), doc_freq, {}, {})
    postings: dict[int, list[tuple[int, int]]] = {}
    norms: dict[int, float] = {}
    for rec in corpus:
        counts = per_passage[rec.passage_id]
        sq = 0.0
        for bucket, tf in counts.items():
            postings.setdefault(bucket, []).append((rec.passage_id, tf))
            sq += index.weight(tf, bucket) ** 2
        # Norms are stored as float32 on disk; round here so that scores are
        # bit-identical before and after a save/load round trip.
        norms[rec.passage_id] = float(np.float32(np.sqrt(sq)))
    for plist in postings.values():
        plist.sort()
    index.postings = postings
    index.norms = norms
    return index


def query_weights(index: TfIdfIndex, tokens) -> dict[int, float]:
    """Bucket -> tf-idf weight for a query, using corpus document frequencies."""
    counts = ngram_features(tokens, index.n_buckets)
    return {bucket: index.weight(tf, bucket) for bucket, tf in counts.items()}


def _cosine_scores(index: TfIdfIndex, weights: dict[int, float]) -> dict[int, float]:
    qnorm = float(np.sqrt(sum(w * w for w in weights.values())))
    if qnorm == 0.0:
        return {}
    dots: dict[int, float] = {}
    for bucket, qw in weights.items():
        if qw == 0.0:
            continue
        for pid, tf in index.postings.get(bucket, ()):
            dots[pid] = dots.get(pid, 0.0) + qw * index.weight(tf, bucket)
    scores = {}
    for pid, dot in dots.items():
        pnorm = index.norms[pid]
        if pnorm > 0.0 and dot != 0.0:
            scores[pid] = dot / (qnorm * pnorm)
    return scores


def _ranked(scores: dict[int, float], k: int, warning: str | None = None) -> RankedList:
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return RankedList(ordered[:k], warning)


def top_k(index: TfIdfIndex, tokens, k: int) -> RankedList:
    """Top passages by cosine similarity; zero-score passages are dropped.

    An empty or all-out-of-corpus query gives an empty list with a warning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    weights = query_weights(index, tokens)
    if not weights:
        return RankedList([], warning="query produced no features")
    scores = _cosine_scores(index, weights)
    if not scores:
        return RankedList([], warning="query shares no weighted features with the corpus")
    return _ranked(scores, k)


def similar_passages(index: TfIdfIndex, passage: PassageRecord, m: int = 15) -> RankedList:
    """Most similar other passages to an indexed passage (self excluded)."""
    if passage.passage_id not in index.norms:
        raise KeyError(f"passage {passage.passage_id} is not in the index")
    weights = query_weights(index, passage.tokens.tokens)
    scores = _cosine_scores(index, weights)
    scores.pop(passage.passage_id, None)
    return _ranked(scores, m)


# ---------------------------------------------------------------------------
# binary serialization
#
# Layout (all integers little-endian, floats IEEE-754 binary32 LE):
#   magic "PQIX" | u32 version | u64 n_buckets | u64 n_docs
#   section: document frequencies  u64 byte_len | u64 count | count * (u64 bucket, u32 df)
#   section: postings              u64 byte_len | u64 n_bucket_rows |
#                                  rows of (u64 bucket, u32 len, len * (u64 pid, u32 tf))
#   section: norms                 u64 byte_len | u64 count | count * (u64 pid, f32 norm)
# Buckets and passage ids are written in ascending order, so identical
# indexes serialize to identical bytes.


def save_index(path: str, index: TfIdfIndex) -> None:
    df_body = bytearray(struct.pack("<Q", len(index.doc_freq)))
    for bucket in sorted(index.doc_freq):
        df_body += struct.pack("<QI", bucket, index.doc_freq[bucket])

    post_body = bytearray(struct.pack("<Q", len(index.postings)))
    for bucket in sorted(index.postings):
        plist = index.postings[bucket]
        post_body += struct.pack("<QI", bucket, len(plist))
        for pid, tf in plist:
            post_body += struct.pack("<QI", pid, tf)

    norm_body = bytearray(struct.pack("<Q", len(index.norms)))
    for pid in sorted(index.norms):
        norm_body += struct.pack("<Qf", pid, index.norms[pid])

    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<I", INDEX_VERSION))
        fh.write(struct.pack("<QQ", index.n_buckets, index.n_docs))
        for body in (df_body, post_body, norm_body):
            fh.write(struct.pack("<Q", len(body)))
            fh.write(body)


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise IndexFormatError(f"{self.path}: truncated index file")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out


def load_index(path: str) -> TfIdfIndex:
    with open(path, "rb") as fh:
        data = fh.read()
    rd = _Reader(data, path)
    magic = data[:4]
    rd.pos = 4
    if magic != INDEX_MAGIC:
        raise IndexFormatError(f"{path}: not a passage index (bad magic {magic!r})")
    (version,) = rd.take("<I")
    if version != INDEX_VERSION:
        raise IndexFormatError(f"{path}: unsupported index version {version}")
    n_buckets, n_docs = rd.take("<QQ")

    (df_len,) = rd.take("<Q")
    (df_count,) = rd.take("<Q")
    doc_freq: dict[int, int] = {}
    for _ in range(df_count):
        bucket, df = rd.take("<QI")
        doc_freq[bucket] = df

    (post_len,) = rd.take("<Q")
    (row_count,) = rd.take("<Q")
    postings: dict[int, list[tuple[int, int]]] = {}
    for _ in range(row_count):
        bucket, length = rd.take("<QI")
        plist = []
        for _ in range(length):
            pid, tf = rd.take("<QI")
            plist.append((pid, tf))
        postings[bucket] = plist

    (norm_len,) = rd.take("<Q")
    (norm_count,) = rd.take("<Q")
    norms: dict[int, float] = {}
    for _ in range(norm_count):
        pid, norm = rd.take("<Qf")
        norms[pid] = norm
    if rd.pos != len(data):
        raise IndexFormatError(f"{path}: {len(data) - rd.pos} trailing bytes")
    return TfIdfIndex(n_buckets, n_docs, doc_freq, postings, norms)
