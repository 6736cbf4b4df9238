"""A small synthetic geography QA task for end-to-end tests.

Twenty template passages describe invented towns.  Each passage also names
the next town in a ring as its "nearest town", so every town name occurs in
exactly two passages: once as the subject and once as a neighbour mention.
Questions only ever mention the town, which leaves lexical retrieval with a
coin flip between the two mentions; telling them apart requires reading the
context around the name.  Months repeat across passages so that every
passage has lexically similar non-gold passages to sample negatives from.

Question phrasing avoids sharing any informative n-gram with the passages
beyond the town name itself (checked in tests): shared unigrams like "the"
or "mayor" occur in every passage and carry zero idf.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from passageqa.retriever import Corpus, PassageRecord
from passageqa.squad import ingest_dataset
from passageqa.text import TokenSeq, VectorTable, tokenize
from passageqa.training import QuestionExample

SYLLABLES = ["ba", "do", "ke", "lu", "mi", "no", "pa", "ri",
             "sa", "tu", "ve", "zo", "ga", "he", "fi"]
MONTHS = ("January", "February", "March", "April", "May", "June")

QUESTION_FORMS = {
    "river": ("Which river runs by {city} ?", 8),
    "mayor": ("Who is the mayor of the town {city} ?", 13),
    "month": ("When does the town {city} hold its festival ?", 20),
}


def _invent_names(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    names = []
    while len(names) < count:
        parts = [SYLLABLES[int(rng.integers(len(SYLLABLES)))] for _ in range(3)]
        name = "".join(parts).capitalize()
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


@dataclass
class SynthTask:
    corpus: Corpus
    examples: list[QuestionExample]      # positives only
    table: VectorTable
    cities: list[str]
    vocab: list[str]
    dataset: dict                        # same content in dataset-file shape


def build_task(seed: int = 0, n_passages: int = 20, emb_dim: int = 16) -> SynthTask:
    rng = np.random.default_rng(seed)
    taken = set(MONTHS)
    cities = _invent_names(rng, n_passages, taken)
    rivers = _invent_names(rng, n_passages, taken)
    mayors = _invent_names(rng, n_passages, taken)
    festivals = _invent_names(rng, n_passages, taken)

    records = []
    passages_tokens = []
    for pid in range(n_passages):
        tokens = ("The town of {c} lies beside the river {r} . Its mayor is {m} . "
                  "The {f} festival happens each {mo} . The nearest town is {n} ."
                  ).format(c=cities[pid], r=rivers[pid], m=mayors[pid],
                           f=festivals[pid], mo=MONTHS[pid % len(MONTHS)],
                           n=cities[(pid + 1) % n_passages]).split()
        text = " ".join(tokens)
        records.append(PassageRecord(pid, 0, text))
        passages_tokens.append(tokens)
    corpus = Corpus(records)

    examples = []
    paragraphs = []
    for pid in range(n_passages):
        kinds = ["river", "mayor", "month"] if pid < n_passages // 2 else ["river", "mayor"]
        qas = []
        context = records[pid].text
        for kind in kinds:
            form, answer_pos = QUESTION_FORMS[kind]
            question_text = form.format(city=cities[pid])
            answer = passages_tokens[pid][answer_pos]
            start = context.find(answer)
            assert start >= 0 and context.find(answer, start + 1) == -1, answer
            qid = f"q{pid:02d}-{kind}"
            examples.append(QuestionExample(
                qid=qid, question=tokenize(question_text), passage_id=pid,
                relevance=1, span=(answer_pos, answer_pos), answer_texts=(answer,)))
            qas.append({"id": qid, "question": question_text,
                        "answers": [{"text": answer, "answer_start": start}]})
        paragraphs.append({"context": context, "qas": qas})
    dataset = {"data": [{"title": "Invented towns", "paragraphs": paragraphs}]}

    vocab_set = set()
    for tokens in passages_tokens:
        vocab_set.update(tokens)
    for ex in examples:
        vocab_set.update(ex.question.tokens)
    vocab = sorted(vocab_set)
    vectors = {word: (rng.standard_normal(emb_dim) * 0.5).astype(np.float32)
               for word in vocab}
    table = VectorTable(emb_dim, vectors)

    return SynthTask(corpus, examples, table, cities, vocab, dataset)


def write_files(task: SynthTask, directory) -> tuple[str, str]:
    """dataset.json + vectors.txt inside `directory`; returns both paths."""
    data_path = str(directory / "dataset.json")
    vec_path = str(directory / "vectors.txt")
    with open(data_path, "w", encoding="utf-8") as fh:
        json.dump(task.dataset, fh, ensure_ascii=False, indent=1)
    save_vectors(vec_path, task.table)
    return data_path, vec_path


def ingest_round_trip(task: SynthTask, directory):
    """Ingest the written dataset file; sanity helper for fixture tests."""
    data_path, _ = write_files(task, directory)
    return ingest_dataset(data_path)


def save_vectors(path: str, table: VectorTable) -> None:
    """Inverse of load_vectors, for building test fixtures.

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
