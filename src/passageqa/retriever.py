"""Hashed bigram TF-IDF passage retrieval.

Features are unigrams plus adjacent bigrams, hashed with 64-bit FNV-1a into a
fixed number of buckets.  Term weights are ln(1 + tf) * idf with
idf = max(0, ln((N - df + 0.5) / (df + 0.5))), and passages are ranked by
cosine similarity against the query vector.

Hashing is vectorised: `hash_keys` joins the keys' UTF-8 bytes into one
buffer and runs FNV-1a one byte position at a time over every key that long,
in uint64 arrays.  `build_index` hashes the whole corpus in one call and
counts each (passage, bucket) pair with one sort.  Each passage's features
keep the order of their first occurrence, as a per-passage Counter would:
that order is the order in which a passage's norm is summed, so it fixes the
bits of the norms written to disk.
"""
from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .text import TokenSeq, tokenize, utf8_encodable

# Joins the two halves of a bigram key; cannot occur inside a token because
# the tokenizer splits on whitespace and U+001F is whitespace-adjacent control.
BIGRAM_SEP = "\x1f"

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

DEFAULT_BUCKETS = 2 ** 24

INDEX_MAGIC = b"PQIX"
INDEX_VERSION = 1


class IndexFormatError(ValueError):
    """Raised when an index file fails validation on load."""


class CorpusError(ValueError):
    """Raised for malformed corpora (bad or duplicate ids, empty passages, bad rows)."""


def hash_keys(keys: list[str]) -> np.ndarray:
    """64-bit FNV-1a of each key's UTF-8 bytes, as a uint64 array.

    Keys are hashed side by side, one byte position at a time, longest first,
    so the keys still live at a position are a prefix of the accumulator.
    Each key's bytes are found from the lead bytes of the joined buffer, one
    per character, so ASCII and multi-byte text take the same path.
    In-place uint64 array arithmetic wraps mod 2**64, as FNV-1a needs.
    """
    # A closing NUL is one more lead byte, so the end has an offset too.
    data = np.frombuffer("".join(keys).encode("utf-8") + b"\0", np.uint8)
    chars = np.fromiter(map(len, keys), np.int64, len(keys))
    # Byte offset of each character (its UTF-8 lead byte), taken at key starts.
    bounds = np.flatnonzero((data & 0xC0) != 0x80)[np.append(np.cumsum(chars) - chars,
                                                             chars.sum())]
    lengths = np.diff(bounds)
    order = np.argsort(-lengths, kind="stable")
    at = bounds[:-1][order]
    live = np.cumsum(np.bincount(lengths)[::-1])[::-1]    # live[i]: keys of >= i bytes
    acc = np.full(len(keys), _FNV_OFFSET)
    for pos in range(int(lengths.max(initial=0))):
        n = live[pos + 1]
        acc[:n] ^= data[at[:n] + pos]
        acc[:n] *= _FNV_PRIME
    out = np.empty_like(acc)
    out[order] = acc
    return out


def ngram_keys(tokens: tuple[str, ...] | list[str]) -> list[str]:
    """Raw unigram and adjacent-bigram keys, before hashing."""
    keys = list(tokens)
    keys.extend(tokens[i] + BIGRAM_SEP + tokens[i + 1] for i in range(len(tokens) - 1))
    return keys


def ngram_features(tokens: tuple[str, ...] | list[str],
                   n_buckets: int = DEFAULT_BUCKETS) -> Counter[int]:
    """Bucketed term-frequency counts for unigrams + adjacent bigrams, keyed in
    order of first occurrence."""
    return Counter((hash_keys(ngram_keys(tokens)) % np.uint64(n_buckets)).tolist())


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
        if not utf8_encodable(rec.text):
            raise CorpusError(f"passage {rec.passage_id} text is not encodable as UTF-8")
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
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, 1):
                try:
                    line = raw.decode("utf-8")
                    if not line.strip():
                        continue
                    row = json.loads(line)
                except ValueError as exc:   # also an integer beyond int()'s digit limit
                    raise CorpusError(f"{path}:{line_no}: invalid JSON: {exc}") from None
                try:
                    if not isinstance(row, dict):
                        raise CorpusError("expected a JSON object")
                    corpus._add(PassageRecord(row["passage_id"], row["article_id"],
                                              row["text"]))
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


def _idf(n_docs: int, df: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, np.log((n_docs - df + 0.5) / (df + 0.5)))


def _find(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `wanted` sits in the ascending `keys`, and whether it is there.
    Both are uint64: numpy compares uint64 with int64 through float64."""
    pos = np.searchsorted(keys, wanted)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == wanted[hit]
    return pos, hit


class TfIdfIndex:
    """Inverted index over hashed n-gram buckets, in flat arrays (CSR).

    pids: passage ids, ascending (uint64); norms: each one's weight-vector
    norm (float32).  buckets: the non-empty buckets, ascending (uint64); row r
    owns postings ptr[r]:ptr[r + 1], so df is np.diff(ptr).  Per posting: docs,
    a row into pids (ascending within a bucket); tfs (uint32); weights,
    ln(1 + tf) * idf.  The index is immutable, so readers need no locking.
    """

    def __init__(self, n_buckets: int, n_docs: int, buckets: np.ndarray, ptr: np.ndarray,
                 docs: np.ndarray, tfs: np.ndarray, pids: np.ndarray, norms: np.ndarray):
        self.n_buckets = n_buckets
        self.n_docs = n_docs
        self.buckets = buckets
        self.ptr = ptr
        self.docs = docs
        self.tfs = tfs
        self.pids = pids
        self.norms = norms
        df = np.diff(ptr)
        self.weights = np.log1p(tfs.astype(np.float64)) * np.repeat(_idf(n_docs, df), df)

    def idf(self, buckets: np.ndarray) -> np.ndarray:
        """idf of each bucket in a uint64 array; a bucket no passage holds has df 0."""
        pos, hit = _find(self.buckets, buckets)
        df = np.zeros(len(buckets), np.int64)
        df[hit] = self.ptr[pos[hit] + 1] - self.ptr[pos[hit]]
        return _idf(self.n_docs, df)


def passage_features(token_lists, n_buckets: int = DEFAULT_BUCKETS
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, bucket, tf) arrays with one entry per (passage, bucket) pair: the
    items of each token list's `ngram_features`, back to back, in their order."""
    keys = [ngram_keys(tokens) for tokens in token_lists]
    owner = np.repeat(np.arange(len(keys)), np.fromiter(map(len, keys), np.int64, len(keys)))
    features = hash_keys(list(chain.from_iterable(keys))) % np.uint64(n_buckets)
    # Runs of equal (passage, bucket) after a stable sort.  Each run's length,
    # its tf, goes to the run's first occurrence, so reading the tfs in key
    # order keeps each passage's buckets in first-occurrence order.
    by_pair = np.lexsort((features, owner))
    pair_owner, pair_feature = owner[by_pair], features[by_pair]
    new_run = np.ones(len(by_pair), bool)
    new_run[1:] = (pair_owner[1:] != pair_owner[:-1]) | (pair_feature[1:] != pair_feature[:-1])
    starts = np.flatnonzero(new_run)
    tf_at = np.zeros(len(by_pair), np.uint32)
    tf_at[by_pair[starts]] = np.diff(starts, append=len(by_pair))
    firsts = np.flatnonzero(tf_at)
    return owner[firsts], features[firsts], tf_at[firsts]


def build_index(corpus: Corpus, n_buckets: int = DEFAULT_BUCKETS) -> TfIdfIndex:
    """Index every passage in the corpus; ids must be unique (Corpus enforces)."""
    if n_buckets < 1:
        raise ValueError(f"bucket count must be positive, got {n_buckets}")
    n_docs = len(corpus)
    owner, features, tfs = passage_features([rec.tokens.tokens for rec in corpus], n_buckets)
    buckets, bucket_of, df = np.unique(features, return_inverse=True, return_counts=True)
    weights = np.log1p(tfs.astype(np.float64)) * _idf(n_docs, df)[bucket_of]
    # bincount sums each passage's squares in its feature order, as a loop
    # would.  Norms are stored as float32 on disk; round here so that scores
    # are bit-identical before and after a save/load round trip.
    norms = np.sqrt(np.bincount(owner, weights=weights * weights, minlength=n_docs))
    ids = np.fromiter((rec.passage_id for rec in corpus), np.uint64, n_docs)
    order = np.argsort(ids)
    docs = np.argsort(order)[owner]    # each passage's row in the sorted ids
    by_bucket = np.lexsort((docs, bucket_of))
    return TfIdfIndex(n_buckets, n_docs, buckets, np.concatenate(([0], np.cumsum(df))),
                      docs[by_bucket], tfs[by_bucket], ids[order],
                      norms[order].astype(np.float32))


def query_weights(index: TfIdfIndex, tokens) -> dict[int, float]:
    """Bucket -> tf-idf weight for a query, using corpus document frequencies."""
    counts = ngram_features(tokens, index.n_buckets)
    tfs = np.fromiter(counts.values(), np.float64, len(counts))
    idf = index.idf(np.fromiter(counts, np.uint64, len(counts)))
    return dict(zip(counts, (np.log1p(tfs) * idf).tolist()))


def _cosine_scores(index: TfIdfIndex, weights: dict[int, float]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Ascending rows of index.pids with a nonzero cosine to the query, and the cosines."""
    qnorm = float(np.sqrt(sum(w * w for w in weights.values())))
    qw = np.fromiter(weights.values(), np.float64, len(weights))
    pos, hit = _find(index.buckets, np.fromiter(weights, np.uint64, len(weights)))
    hit &= qw != 0.0
    starts = index.ptr[pos[hit]]
    lengths = index.ptr[pos[hit] + 1] - starts
    # The query buckets' postings back to back, in query-feature order, so
    # bincount sums each passage's dot product in the order a loop would.
    at = np.repeat(starts + lengths - np.cumsum(lengths), lengths) + np.arange(lengths.sum())
    dots = np.bincount(index.docs[at], weights=np.repeat(qw[hit], lengths) * index.weights[at])
    norms = index.norms[:len(dots)].astype(np.float64)
    rows = np.flatnonzero((dots != 0.0) & (norms > 0.0))
    return rows, dots[rows] / (qnorm * norms[rows])


def _ranked(index: TfIdfIndex, rows: np.ndarray, scores: np.ndarray, k: int) -> RankedList:
    # Rows ascend with the passage id, so a stable sort breaks ties by id.
    best = np.argsort(-scores, kind="stable")[:k]
    return RankedList(list(zip(index.pids[rows[best]].tolist(), scores[best].tolist())))


def top_k(index: TfIdfIndex, tokens, k: int, among: list[int] | None = None) -> RankedList:
    """Top passages by cosine similarity; zero-score passages are dropped.

    With `among`, passage ids, only those passages are ranked.  An empty or
    all-out-of-corpus query gives an empty list with a warning.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    weights = query_weights(index, tokens)
    if not weights:
        return RankedList([], warning="query produced no features")
    rows, scores = _cosine_scores(index, weights)
    if not len(rows):
        return RankedList([], warning="query shares no weighted features with the corpus")
    if among is not None:
        pos, hit = _find(index.pids, np.fromiter(among, np.uint64))
        keep = np.isin(rows, pos[hit])
        rows, scores = rows[keep], scores[keep]
    return _ranked(index, rows, scores, k)


def similar_passages(index: TfIdfIndex, passage: PassageRecord, m: int = 15) -> RankedList:
    """Most similar other passages to an indexed passage (self excluded)."""
    pid = passage.passage_id
    pos, hit = _find(index.pids, np.array([pid] if 0 <= pid < 2 ** 64 else [], np.uint64))
    if not hit.any():
        raise KeyError(f"passage {pid} is not in the index")
    rows, scores = _cosine_scores(index, query_weights(index, passage.tokens.tokens))
    keep = rows != pos[0]
    return _ranked(index, rows[keep], scores[keep], m)


# ---------------------------------------------------------------------------
# binary serialization
#
# Layout (all integers little-endian, floats IEEE-754 binary32 LE):
#   magic "PQIX" | u32 version | u64 n_buckets | u64 n_docs
# then three sections, each u64 byte_len | u64 count | one array of 12-byte
# records, so byte_len = 8 + 12 * records:
#   document frequencies  count buckets, records (u64 bucket, u32 df)
#   postings              count bucket rows; each row is its (bucket, df)
#                         record followed by df records (u64 pid, u32 tf)
#   norms                 count passages, records (u64 pid, f32 norm)
# Buckets and passage ids (also within a bucket) ascend, so identical indexes
# serialize to identical bytes.

_HEADER = struct.Struct("<4sIQQ")
_INT_RECORD = np.dtype([("key", "<u8"), ("value", "<u4")])
_FLOAT_RECORD = np.dtype([("key", "<u8"), ("value", "<f4")])


def _records(dtype: np.dtype, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.empty(len(keys), dtype)
    out["key"], out["value"] = keys, values
    return out


def save_index(path: str, index: TfIdfIndex) -> None:
    df = _records(_INT_RECORD, index.buckets, np.diff(index.ptr))
    # each row's (bucket, df) record goes right before the row's first posting
    postings = np.insert(_records(_INT_RECORD, index.pids[index.docs], index.tfs),
                         index.ptr[:-1], df)
    norms = _records(_FLOAT_RECORD, index.pids, index.norms)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(INDEX_MAGIC, INDEX_VERSION, index.n_buckets, index.n_docs))
        for count, records in ((len(df), df), (len(df), postings), (len(norms), norms)):
            fh.write(struct.pack("<QQ", 8 + records.nbytes, count))
            fh.write(records.tobytes())


def _section(data: bytes, pos: int, dtype: np.dtype, path: str, name: str
             ) -> tuple[int, np.ndarray, int]:
    """The count and the records of the section at `pos`, and where it ends."""
    if len(data) < pos + 16:
        raise IndexFormatError(f"{path}: truncated index file")
    byte_len, count = struct.unpack_from("<QQ", data, pos)
    n_records, rest = divmod(byte_len - 8, dtype.itemsize)
    if byte_len < 8 or rest:
        raise IndexFormatError(f"{path}: {name} section length {byte_len} is not "
                               f"8 + 12 * records")
    if len(data) < pos + 8 + byte_len:
        raise IndexFormatError(f"{path}: truncated index file")
    return count, np.frombuffer(data, dtype, n_records, pos + 16), pos + 8 + byte_len


def load_index(path: str) -> TfIdfIndex:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != INDEX_MAGIC:
        raise IndexFormatError(f"{path}: not a passage index (bad magic {data[:4]!r})")
    if len(data) < _HEADER.size:
        raise IndexFormatError(f"{path}: truncated index file")
    _, version, n_buckets, n_docs = _HEADER.unpack_from(data)
    if version != INDEX_VERSION:
        raise IndexFormatError(f"{path}: unsupported index version {version}")
    n_df, df, pos = _section(data, _HEADER.size, _INT_RECORD, path, "document frequency")
    n_rows, postings, pos = _section(data, pos, _INT_RECORD, path, "postings")
    n_norms, norms, pos = _section(data, pos, _FLOAT_RECORD, path, "norms")
    if pos != len(data):
        raise IndexFormatError(f"{path}: {len(data) - pos} trailing bytes")

    def invalid(problem: str) -> IndexFormatError:
        return IndexFormatError(f"{path}: {problem}")

    if not (n_df == n_rows == len(df) and n_norms == n_docs == len(norms)):
        raise invalid(f"counts disagree: {len(df)} df records counted as {n_df} for "
                      f"{n_rows} postings rows, {len(norms)} norms counted as {n_norms} "
                      f"for {n_docs} passages")
    ptr = np.concatenate(([0], np.cumsum(df["value"], dtype=np.int64)))
    if len(postings) != n_rows + int(ptr[-1]):
        raise invalid(f"{len(postings)} postings records for {n_rows} rows holding "
                      f"{ptr[-1]} postings")
    heads = ptr[:-1] + np.arange(n_rows)   # row r follows r earlier row heads
    if not np.array_equal(postings[heads], df):
        raise invalid("postings row heads differ from the document frequencies")
    buckets, pids = df["key"].astype(np.uint64), norms["key"].astype(np.uint64)
    if np.any(buckets[1:] <= buckets[:-1]) or np.any(pids[1:] <= pids[:-1]):
        raise invalid("buckets or passage ids are not strictly ascending")
    if n_buckets < 1 or len(buckets) and buckets[-1] >= n_buckets:
        raise invalid(f"buckets out of range for a bucket count of {n_buckets}")
    entries = np.delete(postings, heads)
    docs, known = _find(pids, entries["key"].astype(np.uint64))
    if not known.all():
        raise invalid(f"a posting names passage {entries['key'][~known][0]}, which has no norm")
    row_of = np.repeat(np.arange(n_rows), np.diff(ptr))
    if np.any((row_of[1:] == row_of[:-1]) & (docs[1:] <= docs[:-1])):
        raise invalid("posting passage ids are not strictly ascending within a bucket")
    values = norms["value"].astype(np.float32)
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise invalid("a norm is non-finite or negative")
    return TfIdfIndex(n_buckets, n_docs, buckets, ptr, docs, entries["value"].astype(np.uint32),
                      pids, values)
