"""TF-IDF index tests: hashing, weighting, ranking, serialization."""
import collections
import functools
import hashlib
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from passageqa.retriever import (BIGRAM_SEP, DEFAULT_BUCKETS, Corpus, CorpusError,
                                 IndexFormatError, PassageRecord, TfIdfIndex, build_index,
                                 load_index, passage_features, query_weights, save_index,
                                 similar_passages, top_k)

import oracles
from fuzzing import draw_damaged


def corpus_of(texts):
    return Corpus([PassageRecord(i, 0, t) for i, t in enumerate(texts)])


def idf_of(index, bucket):
    return float(index.idf(np.array([bucket], np.uint64))[0])


def bucket_of(word):
    return oracles.fnv1a_64(word.encode("utf-8")) % DEFAULT_BUCKETS


def query_weight_map(index, tokens):
    """query_weights as a bucket -> weight dict, after checking its arrays."""
    buckets, weights = query_weights(index, tokens)
    assert buckets.dtype == np.uint64 and weights.dtype == np.float64
    return dict(zip(buckets.tolist(), weights.tolist()))


# ---------------------------------------------------------------------------
# hashing and features


def test_fnv1a_64_known_vectors():
    assert oracles.fnv1a_64(b"") == 0xCBF29CE484222325
    assert oracles.fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert oracles.fnv1a_64(b"foobar") == 0x85944171F73967E8
    # Below 2**64 - 1 buckets a hash is its own bucket.
    _, buckets, _ = passage_features([["a"], ["foobar"]], 2 ** 64 - 1)
    assert buckets.tolist() == [0xAF63DC4C8601EC8C, 0x85944171F73967E8]


def test_ngram_keys_order_and_separator():
    assert oracles.ngram_keys(["a", "b", "c"]) == ["a", "b", "c",
                                                   f"a{BIGRAM_SEP}b", f"b{BIGRAM_SEP}c"]
    assert oracles.ngram_keys(["solo"]) == ["solo"]
    assert oracles.ngram_keys([]) == []


# Tokens of 1- to 4-byte UTF-8 characters, a few of them frequent so that
# keys repeat within a passage; passages of 0 to 30 tokens.
TOKEN = st.text(st.one_of(st.sampled_from("aé日😀"),
                          st.characters(max_codepoint=0x7F),
                          st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
                          st.characters(min_codepoint=0x800, max_codepoint=0xFFFF,
                                        exclude_categories=("Cs",)),
                          st.characters(min_codepoint=0x10000)), min_size=1, max_size=4)
TOKEN_LISTS = st.lists(st.lists(TOKEN, max_size=30), max_size=6)


@settings(max_examples=300, deadline=None)
@given(TOKEN_LISTS, st.sampled_from([1, 7, 2 ** 16, DEFAULT_BUCKETS, 2 ** 63 + 1, 2 ** 64 - 1]))
@example([], DEFAULT_BUCKETS)
@example([[], ["solo"], [], ["a", "a", "a"]], DEFAULT_BUCKETS)
@example([["é", "—"], ["日本", "😀", "日本", "😀"], [f"a{BIGRAM_SEP}b", "c"]], 7)
@example([["x" * 300, "é" * 200, "y"], ["a", "\x00", "\x7f", "z"]], 2 ** 64 - 1)
def test_passage_features_match_string_keyed_fnv1a(token_lists, n_buckets):
    """Owners, buckets in first-occurrence order and tfs equal those of the
    joined string keys hashed one byte at a time."""
    want = []
    for row, tokens in enumerate(token_lists):
        counts = collections.Counter(oracles.fnv1a_64(key.encode("utf-8")) % n_buckets
                                     for key in oracles.ngram_keys(tokens))
        want += [(row, bucket, tf) for bucket, tf in counts.items()]
    owner, buckets, tfs = passage_features(token_lists, n_buckets)
    assert buckets.dtype == np.uint64 and tfs.dtype == np.uint32
    assert list(zip(owner.tolist(), buckets.tolist(), tfs.tolist())) == want


def test_single_bucket_collapses_all_features():
    _, buckets, tfs = passage_features([["x", "y"]], n_buckets=1)
    assert dict(zip(buckets.tolist(), tfs.tolist())) == {0: 3}  # two unigrams + one bigram


def test_forced_collision_merges_document_frequencies():
    """Hunt down two distinct words sharing a bucket at a tiny bucket count."""
    n_buckets = 1024
    seen = {}
    pair = None
    i = 0
    while pair is None:
        word = f"w{i}"
        b = oracles.fnv1a_64(word.encode()) % n_buckets
        if b in seen:
            pair = (seen[b], word, b)
        seen[b] = word
        i += 1
    first, second, bucket = pair
    index = build_index(corpus_of([first, second]), n_buckets=n_buckets)
    row = index.buckets.tolist().index(bucket)
    assert np.diff(index.ptr)[row] == 2  # both docs land in the shared bucket


# ---------------------------------------------------------------------------
# weighting


def test_idf_frozen_value():
    texts = ["zebra"] + [f"filler{i}" for i in range(9)]
    index = build_index(corpus_of(texts))
    bucket = bucket_of("zebra")
    assert math.isclose(idf_of(index, bucket), math.log(9.5 / 1.5), rel_tol=1e-12)


def test_idf_clamps_common_terms_to_zero():
    index = build_index(corpus_of(["shared apple", "shared banana"]))
    shared_bucket = bucket_of("shared")
    assert idf_of(index, shared_bucket) == 0.0      # df == N: raw idf negative
    apple_bucket = bucket_of("apple")
    assert idf_of(index, apple_bucket) == 0.0       # df=1, N=2: ln(1.5/1.5)


def test_term_weight_log_scales_frequency():
    index = build_index(corpus_of(["rare word here"] + [f"f{i}" for i in range(7)]))
    bucket = bucket_of("rare")
    idf = idf_of(index, bucket)
    assert math.isclose(query_weight_map(index, ["rare"])[bucket], math.log(2.0) * idf,
                        rel_tol=1e-12)
    assert math.isclose(query_weight_map(index, ["rare"] * 3)[bucket], math.log(4.0) * idf,
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# ranking


# df=2 at N=5 keeps idf positive; smaller corpora would clamp it to zero
TWIN_TEXTS = ["the cat sat", "the cat sat",
              "dogs bark loud", "fish swim deep", "birds fly south"]


def test_identical_passages_tie_by_ascending_id():
    index = build_index(corpus_of(TWIN_TEXTS))
    ranked = top_k(index, ["cat", "sat"], 5)
    assert ranked.ids() == [0, 1]
    assert ranked.entries[0][1] == ranked.entries[1][1]
    assert 2 not in ranked.ids()  # shares no weighted feature with the query


def test_self_similarity_is_mutual_rank_one():
    corpus = corpus_of(TWIN_TEXTS)
    index = build_index(corpus)
    sim = similar_passages(index, corpus[0], 5)
    assert sim.ids()[0] == 1
    assert sim.entries[0][1] == pytest.approx(1.0, rel=1e-5)
    assert similar_passages(index, corpus[1], 5).ids()[0] == 0


def test_unique_vocabulary_passage_has_no_neighbors():
    corpus = corpus_of(["qwxyzzy flumph", "apple banana fruit", "banana fruit salad"])
    index = build_index(corpus)
    assert similar_passages(index, corpus[0], 5).entries == []


def test_similar_passages_requires_indexed_passage():
    corpus = corpus_of(["a b", "c d"])
    index = build_index(corpus)
    with pytest.raises(KeyError):
        similar_passages(index, PassageRecord(99, 0, "zz"), 5)


def test_zero_weight_query_gives_warning():
    index = build_index(corpus_of(["shared apple", "shared banana"]))
    ranked = top_k(index, ["shared"], 3)   # idf 0 everywhere -> no scores
    assert ranked.entries == []
    assert "no weighted features" in ranked.warning


def test_empty_query_gives_warning():
    index = build_index(corpus_of(["a b"]))
    ranked = top_k(index, [], 3)
    assert ranked.entries == []
    assert "no features" in ranked.warning


def test_top_k_rejects_bad_k():
    index = build_index(corpus_of(["a b"]))
    with pytest.raises(ValueError, match="k"):
        top_k(index, ["a"], 0)


def test_scores_match_string_keyed_reference_exactly():
    """Hashed scores must be bit-identical to unhashed ones (no collisions)."""
    rng = np.random.default_rng(21)
    pool = [f"word{i:03d}" for i in range(60)]
    texts = [" ".join(rng.choice(pool, size=rng.integers(4, 12)))
             for _ in range(30)]
    queries = [list(rng.choice(pool, size=rng.integers(2, 5))) for _ in range(12)]

    corpus = corpus_of(texts)
    token_lists = [list(rec.tokens.tokens) for rec in corpus]
    assert oracles.bucket_collisions(token_lists + queries, DEFAULT_BUCKETS) == {}

    index = build_index(corpus)
    reference = oracles.PlainTfIdf({rec.passage_id: list(rec.tokens.tokens)
                                    for rec in corpus})
    for q in queries:
        got = top_k(index, q, 10).entries
        want = reference.top_k(q, 10)
        assert got == want  # same ids, same floats, same order


# Few words, so unigrams and bigrams repeat within and across passages.
PASSAGES = st.lists(st.lists(st.sampled_from(["a", "b", "c", "dé", "e,"]), min_size=1,
                             max_size=12).map(" ".join), min_size=1, max_size=8)


@settings(max_examples=100, deadline=None)
@given(PASSAGES, st.sampled_from([1, 2, 7, 64, DEFAULT_BUCKETS]))
@example(["a b a b c a b", "c c b a", "b a b a"], 7)
def test_features_and_index_match_counter_reference(tmp_path_factory, texts, n_buckets):
    """Few buckets, so distinct keys share one (at 7, "a" and "b\x1fc" do); a
    wrong tf merge or a feature order other than each passage's first
    occurrences shows up here."""
    corpus = corpus_of(texts)
    token_lists = [rec.tokens.tokens for rec in corpus]
    reference = oracles.PlainTfIdf(dict(enumerate(token_lists)), n_buckets)
    owner, buckets, tfs = passage_features(token_lists, n_buckets)
    assert list(zip(owner.tolist(), buckets.tolist(), tfs.tolist())) == [
        (row, bucket, tf) for row, counts in enumerate(reference.doc_counts.values())
        for bucket, tf in counts.items()]

    index = build_index(corpus, n_buckets)
    assert index.norms.tolist() == [reference.norms[pid] for pid in range(len(texts))]
    assert index.tfs.tolist() == [tf for bucket in sorted(reference.postings)
                                  for _, tf in reference.postings[bucket]]
    path = tmp_path_factory.mktemp("collide") / "index.pqix"
    save_index(str(path), index)
    assert path.read_bytes() == reference.to_bytes()


# ---------------------------------------------------------------------------
# corpus container


def test_corpus_rejects_duplicate_ids_and_empty_text():
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus([PassageRecord(1, 0, "a"), PassageRecord(1, 0, "b")])
    with pytest.raises(CorpusError, match="empty"):
        Corpus([PassageRecord(1, 0, "   ")])
    with pytest.raises(CorpusError, match="passage id"):
        Corpus([PassageRecord(2 ** 64, 0, "a")])


@pytest.mark.parametrize("line, message", [
    ('{"passage_id": 1, "text": "a"}', "missing field 'article_id'"),
    ('{"passage_id": 1, "article_id": 0, "text": 5}', "text must be a string"),
    ('{"passage_id": "x", "article_id": 0, "text": "a"}', "passage id must be an integer"),
    ('{"passage_id": -1, "article_id": 0, "text": "a"}', "passage id must be an integer"),
    ('{"passage_id": true, "article_id": 0, "text": "a"}', "passage id must be an integer"),
    ('{"passage_id": 1, "article_id": 1.5, "text": "a"}', "article id must be an integer"),
    ('[1, "a"]', "expected a JSON object"),
    ('{nope', "invalid JSON"),
    (b'{"passage_id": 1, "article_id": 0, "text": "\xff"}', "invalid JSON"),
    pytest.param('{"passage_id": ' + "1" * 5000 + ', "article_id": 0, "text": "a"}',
                 "invalid JSON", id="5000-digit-integer"),
    pytest.param('{"passage_id": 1, "article_id": 0, "text": "a \\ud800 b"}',
                 "text is not encodable as UTF-8", id="lone-surrogate"),
])
def test_load_jsonl_names_line_of_bad_row(tmp_path, line, message):
    path = tmp_path / "passages.jsonl"
    bad = line if isinstance(line, bytes) else line.encode("utf-8")
    path.write_bytes(b'{"passage_id": 0, "article_id": 0, "text": "fine"}\n' + bad + b"\n")
    with pytest.raises(CorpusError, match=rf"passages\.jsonl:2: .*{re.escape(message)}"):
        Corpus.load_jsonl(str(path))


def test_corpus_lookup_and_jsonl_round_trip(tmp_path):
    corpus = corpus_of(["first passage", "second passage"])
    assert corpus[1].text == "second passage"
    assert 0 in corpus and 7 not in corpus
    with pytest.raises(KeyError, match="no passage"):
        corpus[7]
    path = str(tmp_path / "passages.jsonl")
    corpus.save_jsonl(path)
    loaded = Corpus.load_jsonl(path)
    assert len(loaded) == 2
    assert [r.text for r in loaded] == [r.text for r in corpus]


# ---------------------------------------------------------------------------
# serialization


def assert_same_index(got: TfIdfIndex, want: TfIdfIndex) -> None:
    """Equal counts, and every array equal in dtype and bytes."""
    assert (got.n_buckets, got.n_docs) == (want.n_buckets, want.n_docs)
    for name in ("buckets", "ptr", "docs", "tfs", "pids", "norms", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_index_round_trip_preserves_everything(task, task_index, tmp_path):
    path = str(tmp_path / "task.idx")
    save_index(path, task_index)
    loaded = load_index(path)
    assert_same_index(loaded, task_index)
    for ex in task.examples[:5]:
        before = top_k(task_index, ex.question.tokens, 5).entries
        after = top_k(loaded, ex.question.tokens, 5).entries
        assert before == after


def test_round_trip_bytes_are_deterministic(task, task_index, tmp_path):
    a, b = str(tmp_path / "a.idx"), str(tmp_path / "b.idx")
    save_index(a, task_index)
    save_index(b, build_index(task.corpus))
    assert open(a, "rb").read() == open(b, "rb").read()


def test_index_bytes_are_golden(task_index, tmp_path):
    path = tmp_path / "task.idx"
    save_index(str(path), task_index)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "8cecc9e02bdc4b527cace5adf9eb3d0a64c73c90ca8bdf3a3b63ce7c29b7f1aa"


# Accents, CJK, emoji (one with a zero-width joiner), astral letters and
# non-ASCII spaces, so that the golden pins bytes beyond ASCII.
MULTILINGUAL = ["Café au lait, s'il vous plaît : déjà vu à Noël.",
                "東京は日本の首都です。 東京 タワー、 東京 駅",
                "🎉 party 🎉 time! 👩\u200d💻 codes 😀😀",
                "naïve\u00a0façade\u2003résumé\u3000naïve\u202fNoël",
                "Ελληνικά και русский текст — «цитата»",
                "𝄞 music 𐍈 gothic, and 中文 «東京»"]


def test_multilingual_index_bytes_are_golden(tmp_path):
    corpus = corpus_of(MULTILINGUAL)
    path = tmp_path / "multilingual.idx"
    save_index(str(path), build_index(corpus))
    token_lists = [rec.tokens.tokens for rec in corpus]
    assert oracles.bucket_collisions(token_lists, DEFAULT_BUCKETS) == {}
    assert path.read_bytes() == oracles.PlainTfIdf(dict(enumerate(token_lists)),
                                                   DEFAULT_BUCKETS).to_bytes()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "e63cec5e59385a7b24bc4bf660ccdb92cd2156d1906d95d21bd0e3a13f279968"


def test_ids_above_2_to_the_53_survive(tmp_path):
    """Ids stay exact u64 values; a float64 detour would merge 2**53 and 2**53 + 1."""
    big = [2 ** 53, 2 ** 53 + 1, 2 ** 64 - 1]
    # fillers keep N large enough that the shared words get a positive idf
    records = [PassageRecord(pid, 0, "alpha beta gamma") for pid in big]
    records += [PassageRecord(i, 0, f"filler{i} word{i}") for i in range(7)]
    corpus = Corpus(records)
    index = build_index(corpus)
    path = str(tmp_path / "big.idx")
    save_index(path, index)
    for idx in (index, load_index(path)):
        for pid in big:
            assert similar_passages(idx, corpus[pid], 5).ids() == [p for p in big if p != pid]
        ranked = top_k(idx, ["alpha", "beta"], 5)
        assert ranked.ids() == big
        assert len({score for _, score in ranked.entries}) == 1


def pqix(n_buckets=16, n_docs=3, df=((2, 2), (5, 1)),
         rows=((2, ((10, 1), (11, 2))), (5, ((12, 1),))),
         norms=((10, 1.0), (11, 2.0), (12, 0.5)),
         counts=(None, None, None), len_error=(0, 0, 0)):
    """PQIX v1 bytes written field by field: `counts` replaces the count of a
    section and `len_error` is added to its byte length."""
    bodies = [b"".join(struct.pack("<QI", *rec) for rec in df),
              b"".join(struct.pack("<QI", bucket, len(plist))
                       + b"".join(struct.pack("<QI", *p) for p in plist)
                       for bucket, plist in rows),
              b"".join(struct.pack("<Qf", *rec) for rec in norms)]
    out = b"PQIX" + struct.pack("<IQQ", 1, n_buckets, n_docs)
    for body, n, count, err in zip(bodies, (len(df), len(rows), len(norms)), counts,
                                   len_error):
        out += struct.pack("<QQ", 8 + len(body) + err, n if count is None else count) + body
    return out


# pqix() arguments that break one consistency rule each, and the error they give
INCONSISTENT = {
    "df section length": (dict(len_error=(-4, 0, 0)), "document frequency section length"),
    "postings section length": (dict(len_error=(0, 5, 0)), "postings section length"),
    "norms section length": (dict(len_error=(0, 0, 4)), "norms section length"),
    "df count": (dict(counts=(3, None, None)), "2 df records counted as 3"),
    "postings row count": (dict(counts=(None, 1, None)), "for 1 postings rows"),
    "norms count": (dict(counts=(None, None, 2)), "3 norms counted as 2"),
    "n_docs 99": (dict(n_docs=99), "for 99 passages"),
    "df sum": (dict(df=((2, 2), (5, 2))), "postings records"),
    "row heads": (dict(df=((2, 1), (5, 2))), "row heads"),
    "zero buckets": (dict(n_buckets=0), "bucket count of 0"),
    "bucket out of range": (dict(n_buckets=5), "out of range for a bucket count of 5"),
    "bucket order": (dict(df=((5, 1), (2, 2)), rows=((5, ((12, 1),)), (2, ((10, 1), (11, 2))))),
                     "not strictly ascending"),
    "pid order": (dict(norms=((11, 2.0), (10, 1.0), (12, 0.5))), "not strictly ascending"),
    "posting order": (dict(rows=((2, ((11, 2), (10, 1))), (5, ((12, 1),)))), "within a bucket"),
    "posting repeat": (dict(rows=((2, ((10, 1), (10, 2))), (5, ((12, 1),)))),
                       "within a bucket"),
    "pid without norm": (dict(rows=((2, ((10, 1), (11, 2))), (5, ((77, 1),)))),
                         "passage 77, which has no norm"),
    "nan norm": (dict(norms=((10, 1.0), (11, float("nan")), (12, 0.5))), "non-finite"),
    "inf norm": (dict(norms=((10, 1.0), (11, float("inf")), (12, 0.5))), "non-finite"),
    "negative norm": (dict(norms=((10, 1.0), (11, -2.0), (12, 0.5))), "or negative"),
}


def test_load_rejects_corrupt_files(tmp_path):
    index = build_index(corpus_of(["a b c"]))
    path = str(tmp_path / "x.idx")
    save_index(path, index)
    raw = open(path, "rb").read()

    bad_magic = tmp_path / "bad_magic.idx"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(IndexFormatError, match="magic"):
        load_index(str(bad_magic))

    bad_version = tmp_path / "bad_version.idx"
    bad_version.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(IndexFormatError, match="version"):
        load_index(str(bad_version))

    truncated = tmp_path / "truncated.idx"
    truncated.write_bytes(raw[:-6])
    with pytest.raises(IndexFormatError, match="truncated"):
        load_index(str(truncated))

    padded = tmp_path / "padded.idx"
    padded.write_bytes(raw + b"\x00\x00")
    with pytest.raises(IndexFormatError, match="trailing"):
        load_index(str(padded))

    written = tmp_path / "written.idx"
    written.write_bytes(pqix())
    loaded = load_index(str(written))   # the file pqix() writes by default is valid
    assert loaded.pids.tolist() == [10, 11, 12]
    assert top_k(loaded, ["a"], 3).entries == []
    for changes, message in INCONSISTENT.values():
        written.write_bytes(pqix(**changes))
        with pytest.raises(IndexFormatError, match=re.escape(message)):
            load_index(str(written))


FUZZ_CORPUS = corpus_of(["the cat sat on the mat", "the dog sat", "a cat and a dog",
                         "birds fly south", "fish swim"])


@functools.cache
def fuzz_index_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        save_index(f"{tmp}/fuzz.idx", build_index(FUZZ_CORPUS, n_buckets=64))
        return Path(f"{tmp}/fuzz.idx").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_damaged_index_is_rejected_or_usable(data):
    """Truncated, bit-flipped or spliced files fail with IndexFormatError or load
    into an index that can serve queries."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(f"{tmp}/damaged.idx").write_bytes(draw_damaged(data, fuzz_index_bytes()))
        try:
            index = load_index(f"{tmp}/damaged.idx")
        except IndexFormatError:
            return
    for rec in FUZZ_CORPUS:
        top_k(index, rec.tokens.tokens, 3)
        if rec.passage_id in index.pids.tolist():
            similar_passages(index, rec, 3)
        else:
            with pytest.raises(KeyError):
                similar_passages(index, rec, 3)


@st.composite
def indexes(draw):
    """Valid indexes, in the arrays `load_index` gives: ascending distinct
    u64 passage ids, each with a finite non-negative float32 norm; ascending
    distinct buckets below the bucket count, each holding postings to
    ascending distinct passages, with u32 term frequencies of at least 1."""
    pids = sorted(draw(st.sets(st.integers(0, 2 ** 64 - 1), max_size=6)))
    norms = draw(st.lists(st.floats(0, allow_infinity=False, width=32), min_size=len(pids),
                          max_size=len(pids)))
    n_buckets = draw(st.integers(1, 2 ** 64 - 1))
    buckets = sorted(draw(st.sets(st.integers(0, n_buckets - 1), max_size=5))) if pids else []
    ptr, docs, tfs = [0], [], []
    for _ in buckets:
        held = sorted(draw(st.sets(st.integers(0, len(pids) - 1), min_size=1)))
        docs += held
        tfs += draw(st.lists(st.integers(1, 2 ** 32 - 1), min_size=len(held),
                             max_size=len(held)))
        ptr.append(len(docs))
    return TfIdfIndex(n_buckets, len(pids), np.array(buckets, np.uint64),
                      np.array(ptr, np.int64), np.array(docs, np.intp),
                      np.array(tfs, np.uint32), np.array(pids, np.uint64),
                      np.array(norms, np.float32))


@settings(max_examples=200, deadline=None)
@given(indexes())
def test_saved_index_loads_back_equal(index):
    with tempfile.TemporaryDirectory() as tmp:
        save_index(f"{tmp}/x.idx", index)
        loaded = load_index(f"{tmp}/x.idx")
    assert_same_index(loaded, index)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_loaded_index_saves_and_loads_back_equal(data):
    """Any PQIX file that loads, generated, built from a corpus, damaged or
    written field by field, is saved by save_index and reads back as the
    same index, in the same bytes."""
    source = data.draw(st.sampled_from(["generated", "built", "fields"]))
    with tempfile.TemporaryDirectory() as tmp:
        if source == "fields":
            raw = pqix(**data.draw(st.sampled_from(list(INCONSISTENT.values())))[0])
        else:
            index = data.draw(indexes()) if source == "generated" else build_index(
                FUZZ_CORPUS, n_buckets=data.draw(st.integers(1, 64)))
            save_index(f"{tmp}/in.idx", index)
            raw = Path(f"{tmp}/in.idx").read_bytes()
        if data.draw(st.booleans()):
            raw = draw_damaged(data, raw)
        Path(f"{tmp}/in.idx").write_bytes(raw)
        try:
            index = load_index(f"{tmp}/in.idx")
        except IndexFormatError:
            return
        save_index(f"{tmp}/out.idx", index)
        again = load_index(f"{tmp}/out.idx")
        saved = Path(f"{tmp}/out.idx").read_bytes()
        save_index(f"{tmp}/again.idx", again)
        assert Path(f"{tmp}/again.idx").read_bytes() == saved
    assert_same_index(again, index)


@functools.cache
def fuzz_corpus_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        corpus_of(["the cat sat", "café au lait", "a dog"]).save_jsonl(f"{tmp}/p.jsonl")
        return Path(f"{tmp}/p.jsonl").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_damaged_passages_jsonl_is_rejected_or_usable(data):
    """Truncated, bit-flipped or spliced passage files fail with CorpusError or
    load into a corpus that indexes and serves queries."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(f"{tmp}/p.jsonl").write_bytes(draw_damaged(data, fuzz_corpus_bytes()))
        try:
            corpus = Corpus.load_jsonl(f"{tmp}/p.jsonl")
        except CorpusError:
            return
    index = build_index(corpus, n_buckets=64)
    for rec in corpus:
        top_k(index, rec.tokens.tokens, 3)
        similar_passages(index, rec, 3)


def corpora():
    """Valid corpora: unique u64 passage ids, u64 article ids, texts that are
    not blank and hold no lone surrogate."""
    ids = st.integers(0, 2 ** 64 - 1)
    texts = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                    max_size=30).filter(str.strip)
    rows = st.lists(st.tuples(ids, ids, texts), max_size=6, unique_by=lambda row: row[0])
    return rows.map(lambda rows: Corpus([PassageRecord(*row) for row in rows]))


def passage_rows():
    """One JSON line of a passages file, often valid, sometimes not: ids of
    other types or out of range, odd texts, extra fields."""
    value = st.one_of(st.integers(-1, 2 ** 64), st.booleans(), st.floats(), st.none(),
                      st.text(max_size=3))
    ids = st.one_of(st.integers(0, 2 ** 64 - 1), value)
    texts = st.one_of(st.text(max_size=20), st.sampled_from(["a\nb", " x ", "\u2028",
                                                            "\ud800", "caf\u00e9"]), value)
    row = st.fixed_dictionaries({"passage_id": ids, "article_id": ids, "text": texts},
                                optional={"extra": value})
    return st.builds(lambda row, ascii: json.dumps(row, ensure_ascii=ascii),
                     row, st.booleans())


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_saved_corpus_loads_back_equal(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        corpus.save_jsonl(f"{tmp}/p.jsonl")
        loaded = Corpus.load_jsonl(f"{tmp}/p.jsonl")
    assert loaded.records == corpus.records


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_loaded_corpus_saves_and_loads_back_equal(data):
    """Any passages file that loads, generated or damaged, is saved by
    save_jsonl and reads back as the same records."""
    if data.draw(st.booleans()):
        with tempfile.TemporaryDirectory() as tmp:
            data.draw(corpora()).save_jsonl(f"{tmp}/p.jsonl")
            raw = Path(f"{tmp}/p.jsonl").read_bytes()
    else:
        lines = data.draw(st.lists(st.one_of(passage_rows(), st.just("")), max_size=5))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        raw = newline.join(lines).encode("utf-8", "surrogatepass")   # a surrogate: bad UTF-8
    if raw and data.draw(st.booleans()):
        raw = draw_damaged(data, raw)
    with tempfile.TemporaryDirectory() as tmp:
        Path(f"{tmp}/in.jsonl").write_bytes(raw)
        try:
            corpus = Corpus.load_jsonl(f"{tmp}/in.jsonl")
        except CorpusError:
            return
        corpus.save_jsonl(f"{tmp}/out.jsonl")
        again = Corpus.load_jsonl(f"{tmp}/out.jsonl")
    assert again.records == corpus.records


def test_query_weights_uses_corpus_frequencies():
    index = build_index(corpus_of(["alpha beta", "gamma delta", "epsilon zeta"]))
    weights = query_weight_map(index, ["alpha", "unseen"])
    alpha_bucket = bucket_of("alpha")
    unseen_bucket = bucket_of("unseen")
    assert weights[alpha_bucket] == pytest.approx(
        math.log(2.0) * math.log(2.5 / 1.5), rel=1e-12)
    # df=0 terms still get a (large) idf; they just match no postings
    assert weights[unseen_bucket] == pytest.approx(
        math.log(2.0) * math.log(3.5 / 0.5), rel=1e-12)
