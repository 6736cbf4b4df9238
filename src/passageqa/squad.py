"""Ingestion of SQuAD-style JSON datasets.

The expected shape is {"data": [{"title", "paragraphs": [{"context",
"qas": [{"id", "question", "answers": [{"text", "answer_start"}]}]}]}]}.
Paragraphs become passages with sequential integer ids.  Answer character
offsets are mapped onto token boundaries; an answer whose characters do not
line up with token boundaries is skipped (and counted).
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

from .retriever import Corpus, PassageRecord
from .text import TokenSeq, tokenize, utf8_encodable
from .training import QuestionExample

logger = logging.getLogger(__name__)


class DatasetFormatError(ValueError):
    """Malformed dataset JSON; the message carries a path into the document."""


@dataclass
class IngestStats:
    n_articles: int = 0
    n_passages: int = 0
    n_questions: int = 0
    n_examples: int = 0
    n_unaligned_answers: int = 0
    n_skipped_questions: int = 0


def _expect(value, kind, where: str):
    """`value` if it is an instance of `kind`, a type or a tuple of types."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise DatasetFormatError(f"{where}: expected {names}, got {type(value).__name__}")
    return value


def _expect_text(value, where: str) -> str:
    """`value` if it is a string the retriever can hash (encodable as UTF-8)."""
    if not utf8_encodable(_expect(value, str, where)):
        raise DatasetFormatError(f"{where}: text is not encodable as UTF-8")
    return value


def align_span(passage: TokenSeq, answer_text: str, answer_start: int
               ) -> tuple[int, int] | None:
    """Token span whose characters exactly cover the answer, or None."""
    answer_end = answer_start + len(answer_text)
    start_tok = end_tok = None
    for i, (lo, hi) in enumerate(passage.offsets):
        if lo == answer_start:
            start_tok = i
        if hi == answer_end:
            end_tok = i
    if start_tok is None or end_tok is None or end_tok < start_tok:
        return None
    if passage.text[answer_start:answer_end] != answer_text:
        return None
    return start_tok, end_tok


def ingest_dataset(path: str) -> tuple[Corpus, list[QuestionExample], IngestStats]:
    """Parse a dataset file into a passage corpus and question examples.

    Every returned example is a positive: it points at its gold passage and
    carries the first answer that aligned to token boundaries, plus the full
    list of reference answer texts for evaluation.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:   # also an integer beyond int()'s digit limit
            raise DatasetFormatError(f"{path}: invalid JSON: {exc}") from None

    _expect(doc, dict, "$")
    articles = _expect(doc.get("data"), list, "$.data")
    stats = IngestStats()
    records: list[PassageRecord] = []
    examples: list[QuestionExample] = []
    passage_id = 0
    for a_i, article in enumerate(articles):
        where_a = f"$.data[{a_i}]"
        _expect(article, dict, where_a)
        paragraphs = _expect(article.get("paragraphs"), list, f"{where_a}.paragraphs")
        stats.n_articles += 1
        for p_i, para in enumerate(paragraphs):
            where_p = f"{where_a}.paragraphs[{p_i}]"
            _expect(para, dict, where_p)
            context = _expect_text(para.get("context"), f"{where_p}.context")
            qas = _expect(para.get("qas"), list, f"{where_p}.qas")
            if not context.strip():
                raise DatasetFormatError(f"{where_p}.context: empty passage text")
            record = PassageRecord(passage_id, a_i, context)
            records.append(record)
            stats.n_passages += 1
            passage_tokens = record.tokens
            for q_i, qa in enumerate(qas):
                where_q = f"{where_p}.qas[{q_i}]"
                _expect(qa, dict, where_q)
                qid = str(_expect(qa.get("id"), (str, int), f"{where_q}.id"))
                question = _expect_text(qa.get("question"), f"{where_q}.question")
                answers = _expect(qa.get("answers"), list, f"{where_q}.answers")
                stats.n_questions += 1
                span = None
                texts: list[str] = []
                for an_i, answer in enumerate(answers):
                    where_an = f"{where_q}.answers[{an_i}]"
                    _expect(answer, dict, where_an)
                    text = _expect(answer.get("text"), str, f"{where_an}.text")
                    start = _expect(answer.get("answer_start"), int,
                                    f"{where_an}.answer_start")
                    texts.append(text)
                    if span is None:
                        span = align_span(passage_tokens, text, start)
                        if span is None:
                            stats.n_unaligned_answers += 1
                if span is None:
                    stats.n_skipped_questions += 1
                    continue
                question_tokens = tokenize(question)
                if len(question_tokens) == 0:
                    stats.n_skipped_questions += 1
                    continue
                examples.append(QuestionExample(
                    qid=qid, question=question_tokens, passage_id=passage_id,
                    relevance=1, span=span, answer_texts=tuple(texts)))
                stats.n_examples += 1
            passage_id += 1
    if stats.n_unaligned_answers:
        logger.info("skipped %d answers that did not align to token boundaries",
                    stats.n_unaligned_answers)
    return Corpus(records), examples, stats


def save_examples(path: str, examples: list[QuestionExample]) -> None:
    """One JSON object per line; token spans are recomputable but stored."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            row = {
                "qid": ex.qid,
                "question": ex.question.text,
                "passage_id": ex.passage_id,
                "relevance": ex.relevance,
                "span": list(ex.span) if ex.span else None,
                "answers": list(ex.answer_texts),
            }
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def _expect_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatasetFormatError(f"{where}: expected int, got {type(value).__name__}")
    return value


def load_examples(path: str) -> list[QuestionExample]:
    """Read `save_examples` output; a malformed row raises DatasetFormatError naming its line."""
    examples = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            where = f"{path}:{line_no}"
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                row = json.loads(line)
            except ValueError as exc:   # also an integer beyond int()'s digit limit
                raise DatasetFormatError(f"{where}: invalid JSON: {exc}") from None
            _expect(row, dict, where)
            missing = {"qid", "question", "passage_id", "relevance", "span", "answers"} - set(row)
            if missing:
                raise DatasetFormatError(f"{where}: missing fields {sorted(missing)}")
            span = row["span"]
            if span is not None:
                _expect(span, list, f"{where}.span")
                if len(span) != 2:
                    raise DatasetFormatError(f"{where}.span: expected 2 items, got {len(span)}")
                span = tuple(_expect_int(v, f"{where}.span") for v in span)
            answers = _expect(row["answers"], list, f"{where}.answers")
            for answer in answers:
                _expect(answer, str, f"{where}.answers")
            passage_id = _expect_int(row["passage_id"], f"{where}.passage_id")
            if passage_id < 0:
                raise DatasetFormatError(f"{where}.passage_id: negative id {passage_id}")
            qid = _expect(row["qid"], str, f"{where}.qid")
            question = tokenize(_expect_text(row["question"], f"{where}.question"))
            if len(question) == 0:
                raise DatasetFormatError(f"{where}.question: no tokens")
            relevance = _expect_int(row["relevance"], f"{where}.relevance")
            try:
                examples.append(QuestionExample(qid, question, passage_id, relevance, span,
                                                tuple(answers)))
            except ValueError as exc:
                raise DatasetFormatError(f"{where}: {exc}") from None
    return examples


def check_examples(path: str, examples: list[QuestionExample], corpus: Corpus) -> None:
    """Raise DatasetFormatError for an example whose passage the corpus lacks or
    whose answer span lies outside that passage's tokens."""
    for ex in examples:
        if ex.passage_id not in corpus:
            raise DatasetFormatError(
                f"{path}: question {ex.qid}: no passage {ex.passage_id} in the corpus")
        if ex.span is not None:
            n_tokens = len(corpus[ex.passage_id].tokens)
            if not 0 <= ex.span[0] <= ex.span[1] < n_tokens:
                raise DatasetFormatError(
                    f"{path}: question {ex.qid}: span {ex.span} outside passage "
                    f"{ex.passage_id} of {n_tokens} tokens")
