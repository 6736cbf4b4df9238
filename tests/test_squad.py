"""Dataset ingestion: span alignment, stats, and the examples file."""
import functools
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from passageqa.squad import (DatasetFormatError, align_span, ingest_dataset,
                             load_examples, save_examples)
from passageqa.text import tokenize
from passageqa.training import QuestionExample
from fuzzing import draw_damaged
from synthtask import ingest_round_trip


CONTEXT = "The river Alba flows north, past Dorem."


def test_align_span_exact_token_boundaries():
    passage = tokenize(CONTEXT)
    assert align_span(passage, "Alba", CONTEXT.index("Alba")) == (2, 2)
    assert align_span(passage, "river Alba", CONTEXT.index("river")) == (1, 2)
    # spans may cover punctuation tokens
    start = CONTEXT.index("north")
    assert align_span(passage, "north,", start) == (4, 5)


def test_align_span_rejects_partial_tokens():
    passage = tokenize(CONTEXT)
    assert align_span(passage, "lba", CONTEXT.index("Alba") + 1) is None
    assert align_span(passage, "riv", CONTEXT.index("river")) is None
    # right text, wrong offset
    assert align_span(passage, "Alba", 0) is None


def write_dataset(tmp_path, doc):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def qa(qid, question, answers):
    return {"id": qid, "question": question, "answers": answers}


def test_ingest_counts_and_alignment(tmp_path):
    ctx1 = "Rivet City sits on the bay."
    ctx2 = "Old Harbor lies further south."
    doc = {"data": [{"title": "t", "paragraphs": [
        {"context": ctx1, "qas": [
            qa("q1", "Where does Rivet City sit?",
               [{"text": "the bay", "answer_start": ctx1.index("the bay")}]),
            # first answer straddles a token, second aligns
            qa("q2", "What city?",
               [{"text": "ivet", "answer_start": 1},
                {"text": "Rivet City", "answer_start": 0}]),
            # nothing aligns: question dropped
            qa("q3", "Hopeless?", [{"text": "its on", "answer_start": 7}]),
        ]},
        {"context": ctx2, "qas": [
            # aligned answer but an empty question: dropped
            qa("q4", "", [{"text": "Old Harbor", "answer_start": 0}]),
        ]},
    ]}]}
    corpus, examples, stats = ingest_dataset(write_dataset(tmp_path, doc))

    assert stats.n_articles == 1
    assert stats.n_passages == 2
    assert stats.n_questions == 4
    assert stats.n_examples == 2
    assert stats.n_unaligned_answers == 2
    assert stats.n_skipped_questions == 2

    assert [rec.passage_id for rec in corpus] == [0, 1]
    assert corpus[0].text == ctx1 and corpus[1].text == ctx2

    by_qid = {ex.qid: ex for ex in examples}
    assert set(by_qid) == {"q1", "q2"}
    assert by_qid["q1"].span == (4, 5)          # "the bay"
    assert by_qid["q2"].span == (0, 1)          # from the second answer
    assert by_qid["q2"].answer_texts == ("ivet", "Rivet City")
    assert all(ex.relevance == 1 for ex in examples)


def test_ingest_integer_qids_become_strings(tmp_path):
    ctx = "Plain text here."
    doc = {"data": [{"title": "t", "paragraphs": [
        {"context": ctx, "qas": [qa(57, "What?",
                                    [{"text": "Plain", "answer_start": 0}])]}]}]}
    _, examples, _ = ingest_dataset(write_dataset(tmp_path, doc))
    assert examples[0].qid == "57"


@pytest.mark.parametrize("doc,where", [
    ({"data": {}}, r"\$\.data"),
    ({"data": [{"paragraphs": [{"context": 5, "qas": []}]}]}, "context"),
    ({"data": [{"paragraphs": [{"context": "x", "qas": [{"id": "a"}]}]}]},
     "question"),
    ({"data": [{"paragraphs": [{"context": "x", "qas": [
        qa("a", "q?", [{"text": "x"}])]}]}]}, "answer_start"),
    ({"data": [{"paragraphs": [{"context": "  ", "qas": []}]}]}, "empty passage"),
    ({"data": [{"paragraphs": [{"context": "x", "qas": [{"question": "q?"}]}]}]},
     r"qas\[0\]\.id: expected str or int"),
    ({"data": [{"paragraphs": [{"context": "a \ud800 b", "qas": []}]}]},
     r"paragraphs\[0\]\.context: text is not encodable as UTF-8"),
    ({"data": [{"paragraphs": [{"context": "x", "qas": [
        qa("a", "why \udfff ?", [{"text": "x", "answer_start": 0}])]}]}]},
     r"qas\[0\]\.question: text is not encodable as UTF-8"),
])
def test_ingest_reports_path_of_bad_field(tmp_path, doc, where):
    with pytest.raises(DatasetFormatError, match=where):
        ingest_dataset(write_dataset(tmp_path, doc))


def test_ingest_rejects_invalid_json(tmp_path):
    path = tmp_path / "data.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="invalid JSON"):
        ingest_dataset(str(path))
    path.write_bytes(b'{"data": "caf\xe9"}')
    with pytest.raises(DatasetFormatError, match="invalid JSON"):
        ingest_dataset(str(path))
    path.write_text('{"version": ' + "1" * 5000 + "}", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="invalid JSON"):
        ingest_dataset(str(path))


def test_examples_file_round_trip(tmp_path):
    examples = [
        QuestionExample("q1", tokenize("who is it ?"), 3, 1, (2, 5), ("a", "b")),
        QuestionExample("q2", tokenize("unicode héh ?"), 0, 0),
    ]
    path = str(tmp_path / "examples.jsonl")
    save_examples(path, examples)
    loaded = load_examples(path)
    assert len(loaded) == 2
    for orig, back in zip(examples, loaded):
        assert back.qid == orig.qid
        assert back.question.tokens == orig.question.tokens
        assert back.passage_id == orig.passage_id
        assert back.relevance == orig.relevance
        assert back.span == orig.span
        assert back.answer_texts == orig.answer_texts


GOOD_ROW = {"qid": "q1", "question": "who ?", "passage_id": 0, "relevance": 1,
            "span": [0, 0], "answers": ["a"]}


@pytest.mark.parametrize("row, message", [
    ({k: v for k, v in GOOD_ROW.items() if k != "span"}, "missing fields ['span']"),
    (dict(GOOD_ROW, span=None), "needs an answer span"),
    (dict(GOOD_ROW, relevance=2), "relevance must be 0 or 1"),
    (dict(GOOD_ROW, relevance=True), ".relevance: expected int"),
    (dict(GOOD_ROW, span=[1]), ".span: expected 2 items"),
    (dict(GOOD_ROW, span=["a", 1]), ".span: expected int"),
    (dict(GOOD_ROW, question=5), ".question: expected str"),
    (dict(GOOD_ROW, answers="a"), ".answers: expected list"),
    (dict(GOOD_ROW, answers=[1]), ".answers: expected str"),
    (dict(GOOD_ROW, passage_id=-1), ".passage_id: negative id"),
    (dict(GOOD_ROW, passage_id="0"), ".passage_id: expected int"),
    (dict(GOOD_ROW, qid=7), ".qid: expected str"),
    ([GOOD_ROW], "expected dict"),
    (dict(GOOD_ROW, question=" \t "), ".question: no tokens"),
    (b'{"qid": "caf\xe9"}', "invalid JSON"),
    pytest.param(b'{"passage_id": ' + b"1" * 5000 + b"}", "invalid JSON",
                 id="5000-digit-integer"),
    pytest.param(dict(GOOD_ROW, question="who \ud800 ?"),
                 ".question: text is not encodable as UTF-8", id="lone-surrogate"),
])
def test_load_examples_names_line_of_bad_row(tmp_path, row, message):
    path = tmp_path / "examples.jsonl"
    bad = row if isinstance(row, bytes) else json.dumps(row).encode("utf-8")
    path.write_bytes(json.dumps(GOOD_ROW).encode("utf-8") + b"\n" + bad + b"\n")
    with pytest.raises(DatasetFormatError, match=r"examples\.jsonl:2"):
        load_examples(str(path))
    with pytest.raises(DatasetFormatError, match=re.escape(message)):
        load_examples(str(path))


def test_fixture_dataset_round_trips_through_ingest(task, tmp_path):
    corpus, examples, stats = ingest_round_trip(task, tmp_path)
    assert stats.n_passages == len(task.corpus)
    assert stats.n_examples == len(task.examples)
    assert stats.n_skipped_questions == 0 and stats.n_unaligned_answers == 0
    for rec, orig in zip(corpus, task.corpus):
        assert rec.text == orig.text and rec.passage_id == orig.passage_id
    for back, orig in zip(examples, task.examples):
        assert (back.qid, back.passage_id, back.span) == \
               (orig.qid, orig.passage_id, orig.span)
        assert back.question.tokens == orig.question.tokens


@functools.cache
def fuzz_examples_bytes() -> bytes:
    examples = [QuestionExample("q1", tokenize("Where is Alba ?"), 0, 1, (2, 2), ("Alba",)),
                QuestionExample("q2", tokenize("Qui est là ?"), 3, 0, None, ("là", "ici"))]
    with tempfile.TemporaryDirectory() as tmp:
        save_examples(f"{tmp}/e.jsonl", examples)
        return Path(f"{tmp}/e.jsonl").read_bytes()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_damaged_examples_jsonl_is_rejected_or_usable(data):
    """Truncated, bit-flipped or spliced examples files fail with
    DatasetFormatError or load into well-formed examples."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(f"{tmp}/e.jsonl").write_bytes(draw_damaged(data, fuzz_examples_bytes()))
        try:
            examples = load_examples(f"{tmp}/e.jsonl")
        except DatasetFormatError:
            return
    for ex in examples:
        assert isinstance(ex.qid, str) and len(ex.question) > 0
        assert ex.relevance in (0, 1) and (ex.relevance == 0 or ex.span is not None)
        assert all(isinstance(a, str) for a in ex.answer_texts)
