"""Chain parsing, telescoped retrieval, answer voting, and metrics."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import passageqa.autodiff as ad
import passageqa.evaluation as evaluation
from passageqa.cli import blas_description
from passageqa.evaluation import (SCORE_BATCH, AnswerCandidate, ChainSpecError,
                                  ChainStage, EvaluationError, NeuralScorer,
                                  RankerChain, VoteEntry, answer_question,
                                  evaluate_ir, evaluate_mrs, evaluate_rc,
                                  exact_match, f1_score, group_questions,
                                  mrr_at_k, normalize_answer, parse_chain,
                                  success_at_k, telescope, vote_answers)
from passageqa.model import (Hyperparams, ModelWeights, encode_batch, encode_sequences,
                             forward_batch, init_weights, read, select_span)
from passageqa.retriever import PassageRecord, top_k
from passageqa.text import tokenize
from passageqa.training import QuestionExample


def cand(answer, relevance, pid=0, span=(0, 0), span_score=0.5):
    return AnswerCandidate(passage_id=pid, answer=answer, span=span,
                           span_score=span_score, relevance=relevance)


# ---------------------------------------------------------------------------
# answer normalization and scoring


def test_normalize_answer_frozen():
    assert normalize_answer("The Answer!") == "answer"
    assert normalize_answer("a  cat,  an Apple; the END") == "cat apple end"
    assert normalize_answer("Mother-in-law's") == "motherinlaws"
    assert normalize_answer("  ") == ""


def test_exact_match_normalizes():
    assert exact_match("The Eiffel Tower.", ["eiffel tower"]) == 1.0
    assert exact_match("eiffel", ["eiffel tower"]) == 0.0
    assert exact_match(None, ["x"]) == 0.0
    # both sides normalize to the empty string
    assert exact_match("an", ["the"]) == 1.0
    assert exact_match("Napoleon", ["Wellington", "napoleon!"]) == 1.0


def test_f1_frozen_values():
    assert math.isclose(f1_score("x y", ["y z"]), 0.5)
    # "a" is an article: the prediction reduces to "b", giving p=1, r=1/2
    assert math.isclose(f1_score("a b", ["b c"]), 2 / 3)
    assert f1_score("x y z", ["p q"]) == 0.0
    assert f1_score("exact phrase", ["exact phrase"]) == 1.0
    # best over references
    assert f1_score("alpha beta", ["gamma", "alpha beta gamma"]) == pytest.approx(0.8)
    # repeated tokens use multiset overlap: one shared "x" of 2 vs 1
    assert f1_score("x x", ["x y"]) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="reference"):
        f1_score("x", [])


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=30), st.text(max_size=30))
def test_answer_metrics_properties(a, b):
    f1 = f1_score(a, [b])
    assert 0.0 <= f1 <= 1.0
    assert f1_score(a, [a]) == 1.0
    assert exact_match(a, [a]) == 1.0
    if exact_match(a, [b]) == 1.0:
        assert f1 == 1.0


# ---------------------------------------------------------------------------
# retrieval metrics


def test_success_and_mrr_exact():
    rankings = [[1, 2, 3], [9, 8, 7], [4, 5, 6]]
    relevant = [{1}, {7}, {99}]
    assert success_at_k(rankings, relevant, 1) == pytest.approx(1 / 3)
    assert success_at_k(rankings, relevant, 5) == pytest.approx(2 / 3)
    assert mrr_at_k(rankings, relevant, 5) == pytest.approx((1.0 + 1 / 3) / 3)
    assert mrr_at_k(rankings, relevant, 1) == pytest.approx(1 / 3)
    # relevance outside the cutoff scores zero
    assert success_at_k([[1, 2, 3]], [{3}], 2) == 0.0
    assert mrr_at_k([[1, 2, 3]], [{3}], 2) == 0.0


def test_retrieval_metric_validation():
    with pytest.raises(ValueError, match="k"):
        success_at_k([[1]], [{1}], 0)
    with pytest.raises(ValueError, match="k"):
        mrr_at_k([[1]], [{1}], 0)
    with pytest.raises(ValueError, match="per ranking"):
        success_at_k([[1], [2]], [{1}], 5)
    with pytest.raises(ValueError, match="no queries"):
        mrr_at_k([], [], 5)


# ---------------------------------------------------------------------------
# chain parsing


def test_parse_chain_basic():
    chain = parse_chain("tfidf:200,neural:5")
    assert chain.stages == (ChainStage("tfidf", 200), ChainStage("neural", 5))
    assert chain.final_k == 5
    assert parse_chain("tfidf:10", final_k=3).final_k == 3
    assert parse_chain(" tfidf: 20 , neural:3 ").stages[0].cut == 20


@pytest.mark.parametrize("spec", [
    "tfidf:200,,neural:5",     # empty stage
    "tfidf200",                # no colon
    "tfidf:two",               # non-integer cut
    "bm25:3",                  # unknown kind
    "tfidf:0",                 # cut below 1
    "tfidf:5,neural:5",        # cuts must strictly decrease
    "neural:9,tfidf:10",
])
def test_parse_chain_rejects_bad_specs(spec):
    with pytest.raises(ChainSpecError):
        parse_chain(spec)


def test_chain_final_k_bounds():
    with pytest.raises(ChainSpecError, match="final k"):
        parse_chain("tfidf:10,neural:4", final_k=5)
    with pytest.raises(ChainSpecError, match="final k"):
        parse_chain("tfidf:10", final_k=0)
    with pytest.raises(ChainSpecError, match="at least one stage"):
        RankerChain((), 1)


# ---------------------------------------------------------------------------
# voting


def test_vote_single_candidate():
    result = vote_answers([cand("Paris", 0.6)], temperature=0.05)
    assert result.answer == "Paris"
    [entry] = result.table
    assert entry.n_votes == 1
    assert entry.log_weight == pytest.approx(12.0)
    assert entry.weight() == pytest.approx(math.exp(12.0))
    assert entry.best_relevance == 0.6


def test_vote_single_strong_candidate_beats_pooled_pair():
    # log weights at temp 0.05: logaddexp(12, 10) = 12.13 < 14
    result = vote_answers([cand("a", 0.6), cand("a", 0.5), cand("b", 0.7)],
                          temperature=0.05)
    assert result.answer == "b"
    assert [e.answer for e in result.table] == ["b", "a"]
    assert result.table[1].n_votes == 2
    assert result.table[1].log_weight == pytest.approx(np.logaddexp(12.0, 10.0))


def test_vote_pooling_can_overtake_a_single_vote():
    # at temp 1: logaddexp(0.5, 0.5) = 0.5 + ln 2 = 1.19 > 0.52
    result = vote_answers([cand("a", 0.5), cand("a", 0.5), cand("b", 0.52)],
                          temperature=1.0)
    assert result.answer == "a"


def test_vote_tie_breaks_by_best_single_relevance():
    solo_rel = 0.5 + math.log(2.0)  # makes the pooled log weights equal floats
    result = vote_answers([cand("pool", 0.5), cand("pool", 0.5),
                           cand("solo", solo_rel)], temperature=1.0)
    pool = next(e for e in result.table if e.answer == "pool")
    solo = next(e for e in result.table if e.answer == "solo")
    assert pool.log_weight == solo.log_weight
    assert result.answer == "solo"


def test_vote_tie_breaks_lexicographically():
    result = vote_answers([cand("zebra", 0.5), cand("aardvark", 0.5)],
                          temperature=1.0)
    assert result.answer == "aardvark"


def test_vote_answers_pool_by_raw_string():
    # "Paris" and "paris" are distinct vote keys even though EM would merge them
    result = vote_answers([cand("Paris", 0.5), cand("paris", 0.5)], 1.0)
    assert len(result.table) == 2


def test_vote_shift_invariance():
    rng = np.random.default_rng(60)
    rels = rng.uniform(-1.0, 1.0, size=8)
    answers = ["w", "x", "w", "y", "z", "x", "w", "q"]
    base = vote_answers([cand(a, r) for a, r in zip(answers, rels)], 0.1)
    shifted = vote_answers([cand(a, r + 3.7) for a, r in zip(answers, rels)], 0.1)
    assert base.answer == shifted.answer
    assert [e.answer for e in base.table] == [e.answer for e in shifted.table]


def test_vote_tiny_temperature_stays_in_log_space():
    # exp(0.9999/1e-6) overflows a float; the log-domain compare still works
    result = vote_answers([cand("runner-up", 0.9999), cand("runner-up", 0.9999),
                           cand("winner", 1.0)], temperature=1e-6)
    assert result.answer == "winner"
    assert result.table[0].weight() == math.inf
    assert math.isfinite(result.table[0].log_weight)


def test_vote_validation_and_empty():
    with pytest.raises(ValueError, match="temperature"):
        vote_answers([cand("a", 0.5)], 0.0)
    with pytest.raises(ValueError, match="temperature"):
        vote_answers([cand("a", 0.5)], -1.0)
    empty = vote_answers([], 0.05)
    assert empty.answer is None and empty.warning is not None


def test_vote_entry_weight_overflow():
    assert VoteEntry("x", 1000.0, 1.0, 1).weight() == math.inf
    assert VoteEntry("x", 0.0, 1.0, 1).weight() == 1.0


# ---------------------------------------------------------------------------
# telescoping (random init network; eval mode is deterministic)


@pytest.fixture(scope="module")
def scorer(task):
    hp = Hyperparams(hidden=4, attn_dim=4, dropout=0.0)
    weights = init_weights(np.random.default_rng(3), task.table.dim, 4, 4)
    return NeuralScorer(weights, hp, task.table)


def varied_records(task, n=40, offset=0):
    """n records of distinct lengths and texts cut from the fixture's passages."""
    records = []
    for i in range(n):
        words = task.corpus.records[(i + offset) % len(task.corpus)].text.split()
        records.append(PassageRecord(i, 0, " ".join(words[:6 + (7 * i) % 22])))
    return records


def float64_scorer(task):
    hp = Hyperparams(hidden=4, attn_dim=4, dropout=0.0)
    weights = init_weights(np.random.default_rng(3), task.table.dim, 4, 4,
                           dtype=np.float64)
    return NeuralScorer(weights, hp, task.table)


def scores_alone(scorer, question, records):
    out = []
    for rec in records:
        batch = encode_batch([question], [rec.tokens], scorer.table)
        state = forward_batch(scorer.weights, scorer.hp, batch, heads=("relevance",))
        out.append(float(state.relevance.value[0]))
    return out


def test_scorer_keeps_input_order_and_matches_single_passage_forward(task):
    scorer = float64_scorer(task)
    question = task.examples[0].question
    records = varied_records(task)
    assert len(records) > SCORE_BATCH
    alone = scores_alone(scorer, question, records)
    np.testing.assert_allclose(scorer.relevance_scores(question, records), alone,
                               rtol=1e-9, atol=1e-12)
    picked = records[::-7]
    cands = scorer.read_candidates(question, picked)
    assert [c.passage_id for c in cands] == [r.passage_id for r in picked]
    for cand, rec in zip(cands, picked):
        batch = encode_batch([question], [rec.tokens], scorer.table)
        state = forward_batch(scorer.weights, scorer.hp, batch)
        assert cand.relevance == pytest.approx(float(state.relevance.value[0]), rel=1e-9)
        assert cand.span[1] < len(rec.tokens)


def test_scorer_warm_call_reuses_encodings_bit_for_bit(task, monkeypatch):
    hp = Hyperparams(hidden=4, attn_dim=4, dropout=0.0)
    scorer = NeuralScorer(init_weights(np.random.default_rng(3), task.table.dim, 4, 4),
                          hp, task.table)
    question = task.examples[2].question
    records = varied_records(task)
    cold_cands = scorer.read_candidates(question, records[:7])
    cold = scorer.relevance_scores(question, records)
    encoded_rows = []
    original = evaluation.encode_sequences

    def counting(weights, sequences, *args, **kwargs):
        encoded_rows.extend(emb.shape[0] for emb, _ in sequences)
        return original(weights, sequences, *args, **kwargs)

    monkeypatch.setattr(evaluation, "encode_sequences", counting)
    assert scorer.relevance_scores(question, records) == cold
    assert scorer.read_candidates(question, records[:7]) == cold_cands
    # The question's encoding is cached with the passages', so nothing is encoded.
    assert encoded_rows == []


def test_scorer_encodes_a_question_once_to_rank_and_read(task, monkeypatch):
    scorer = float64_scorer(task)
    question = task.examples[4].question
    records = varied_records(task)
    assert len(records) > SCORE_BATCH
    encoded_rows = []
    original = evaluation.encode_sequences

    def counting(weights, sequences, *args, **kwargs):
        encoded_rows.extend(emb.shape[0] for emb, _ in sequences)
        return original(weights, sequences, *args, **kwargs)

    monkeypatch.setattr(evaluation, "encode_sequences", counting)
    scores = scorer.relevance_scores(question, records)
    best = sorted(range(len(records)), key=lambda i: -scores[i])[:5]
    scorer.read_candidates(question, [records[i] for i in best])
    # One row for the question in the first chunk, then each chunk's passages;
    # reading finds the question and its passages cached.
    assert encoded_rows == [1, SCORE_BATCH, len(records) - SCORE_BATCH]


def test_scorer_cache_is_keyed_by_text_not_id(task):
    scorer = float64_scorer(task)
    question = task.examples[1].question
    first = varied_records(task, n=10)
    second = varied_records(task, n=10, offset=10)
    assert [r.passage_id for r in first] == [r.passage_id for r in second]
    assert not {r.text for r in first} & {r.text for r in second}
    first_scores = scorer.relevance_scores(question, first)
    second_scores = scorer.relevance_scores(question, second)
    assert first_scores == float64_scorer(task).relevance_scores(question, first)
    assert second_scores == float64_scorer(task).relevance_scores(question, second)
    assert first_scores != second_scores


def test_scorer_cache_stays_within_its_byte_bound(task, monkeypatch):
    question = task.examples[3].question
    records = varied_records(task)
    unbounded = float64_scorer(task).relevance_scores(question, records)
    bound = 5 * 8 * 8 * 20              # five 20-token float64 encodings at hidden 4
    monkeypatch.setattr(evaluation, "ENCODING_CACHE_BYTES", bound)
    scorer = float64_scorer(task)
    for _ in range(2):
        scores = scorer.relevance_scores(question, records)
        cached = sum(arr.nbytes for entry in scorer._encodings.values() for arr in entry)
        assert 0 < cached <= bound
        np.testing.assert_allclose(scores, unbounded, rtol=1e-9, atol=1e-12)


def test_scorer_rejects_empty_question_or_passage(task, scorer):
    records = varied_records(task, n=3)
    with pytest.raises(ValueError, match="empty question"):
        scorer.relevance_scores(tokenize(""), records)
    with pytest.raises(ValueError, match="empty passage"):
        scorer.relevance_scores(task.examples[0].question,
                                records + [PassageRecord(99, 0, "  ")])
    with pytest.raises(ValueError, match="empty passage"):
        scorer.read_candidates(task.examples[0].question, [PassageRecord(99, 0, "")])


def test_scorer_raises_on_non_finite_output(task):
    """Every weight times 1e38 is finite in float32 but overflows the forward pass."""
    weights = init_weights(np.random.default_rng(3), task.table.dim, 4, 4)
    huge = ModelWeights(weights.embed_dim, weights.hidden, weights.attn_dim,
                        {name: arr * np.float32(1e38) for name, arr in weights.arrays.items()})
    assert all(np.isfinite(arr).all() for arr in huge.arrays.values())
    scorer = NeuralScorer(huge, Hyperparams(hidden=4, attn_dim=4, dropout=0.0), task.table)
    question, records = task.examples[0].question, varied_records(task, n=5)
    with pytest.raises(EvaluationError, match="non-finite relevance or span probability"):
        scorer.relevance_scores(question, records)
    with pytest.raises(EvaluationError, match="non-finite relevance or span probability"):
        scorer.read_candidates(question, records)


def hidden16_scorer(task):
    """A float32 scorer at the benchmark's hidden width."""
    hp = Hyperparams(hidden=16, attn_dim=16, dropout=0.0)
    weights = init_weights(np.random.default_rng(11), task.table.dim, 16, 16)
    return NeuralScorer(weights, hp, task.table)


def scorer_outputs(scorer, question, records):
    """Relevance scores, then each candidate's span, span score and relevance."""
    scores = scorer.relevance_scores(question, records)
    cands = scorer.read_candidates(question, records)
    return scores, [(c.span, c.span_score, c.relevance) for c in cands]


# sha256 of repr(scorer_outputs) for hidden16_scorer, task.examples[5] and
# varied_records(task, n=70): three chunks of 32, 32 and 6 rows.
GOLDEN_SCORER_SHA256 = "8dede8c67fd2a78fe86a8e3c97272a4a6bb10b30fa48c218a75380d2c5649c60"


def test_scorer_outputs_keep_their_golden_bits(task):
    outputs = scorer_outputs(hidden16_scorer(task), task.examples[5].question,
                             varied_records(task, n=70))
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == GOLDEN_SCORER_SHA256, (
        f"scorer outputs moved; the golden was taken on BLAS SkylakeX, 1 thread, "
        f"this run had BLAS {blas_description()}")


def test_scorer_equals_read_chunk_by_chunk(task):
    """One read over all chunks gives each chunk the bits of a read of its own."""
    scorer = hidden16_scorer(task)
    weights = scorer.weights
    question, records = task.examples[6].question, varied_records(task, n=70)
    order = sorted(range(len(records)), key=lambda i: len(records[i].tokens))
    scores, cands = [None] * len(records), [None] * len(records)
    for start in range(0, len(order), SCORE_BATCH):
        rows = order[start:start + SCORE_BATCH]
        batch = encode_batch([question] * len(rows), [records[i].tokens for i in rows],
                             scorer.table)
        if start == 0:
            [ctx_question] = encode_sequences(
                weights, [(batch.question_emb[:1], batch.question_mask[:1])])
        [encoded] = encode_sequences(weights, [(batch.passage_emb, batch.passage_mask)])
        # The scorer pads cached encodings with +0.0.
        passages = np.zeros_like(encoded.value)
        for j, i in enumerate(rows):
            length = len(records[i].tokens)
            passages[j, :, :length] = encoded.value[j, :, :length]
        questions = np.repeat(ctx_question.value, len(rows), axis=0)
        [state] = read(weights, [(ad.constant(passages), ad.constant(questions), batch)])
        for j, i in enumerate(rows):
            length = len(records[i].tokens)
            t1, t2, score = select_span(state.start_probs.value[j, :length],
                                        state.end_probs.value[j, :length])
            scores[i] = float(state.relevance.value[j])
            cands[i] = ((t1, t2), score, scores[i])
    assert len(order) > 2 * SCORE_BATCH
    assert scorer_outputs(scorer, question, records) == (scores, cands)


def test_one_passage_read_equals_forward_batch(task):
    """`evaluate_rc` reads one passage at a time: ranked, then read from what
    the rank pass kept, it has the bits of `forward_batch` with both heads."""
    for ex in task.examples[:6]:
        scorer = hidden16_scorer(task)
        rec = task.corpus[ex.passage_id]
        [got] = scorer.read_candidates(ex.question, [rec])
        batch = encode_batch([ex.question], [rec.tokens], scorer.table)
        state = forward_batch(scorer.weights, scorer.hp, batch)
        t1, t2, score = select_span(state.start_probs.value[0], state.end_probs.value[0])
        assert (got.span, got.span_score, got.relevance) == (
            (t1, t2), score, float(state.relevance.value[0]))


def test_scorer_runs_one_loop_per_bilstm_layer_for_all_chunks(task, monkeypatch):
    scorer = hidden16_scorer(task)
    question, records = task.examples[5].question, varied_records(task, n=70)
    groups_per_call = []
    original = ad.bilstm_scan

    def counting(groups, *weights):
        groups_per_call.append(len(groups))
        return original(groups, *weights)

    monkeypatch.setattr(ad, "bilstm_scan", counting)
    scorer.relevance_scores(question, records)
    # ctx: the question, then each chunk's passages; then fusion and rel once.
    assert groups_per_call == [1, 1, 1, 1, 3, 3]
    groups_per_call.clear()
    scorer.relevance_scores(question, records)
    assert groups_per_call == [3, 3]


@pytest.mark.parametrize("waves", [[1, 1, 1], [2, 1]])
def test_scorer_reads_the_same_bytes_in_smaller_waves(task, monkeypatch, waves):
    question, records = task.examples[5].question, varied_records(task, n=70)
    whole = scorer_outputs(hidden16_scorer(task), question, records)
    lengths = sorted(len(rec.tokens) for rec in records)
    chunk_bytes = [SCORE_BATCH * lengths[k * SCORE_BATCH + SCORE_BATCH - 1] * 8 * 16 * 4
                   for k in range(2)]
    monkeypatch.setattr(evaluation, "WAVE_BYTES", 1 if waves[0] == 1 else sum(chunk_bytes))
    chunks_per_read = []
    original = evaluation.read

    def counting(weights, chunks, *args, **kwargs):
        chunks_per_read.append(len(chunks))
        return original(weights, chunks, *args, **kwargs)

    monkeypatch.setattr(evaluation, "read", counting)
    assert scorer_outputs(hidden16_scorer(task), question, records) == whole
    assert chunks_per_read == waves * 2


def counting_reads(monkeypatch) -> list[int]:
    """Patch evaluation.read to record the chunk count of each call."""
    calls = []
    original = evaluation.read

    def counting(weights, chunks, *args, **kwargs):
        calls.append(len(chunks))
        return original(weights, chunks, *args, **kwargs)

    monkeypatch.setattr(evaluation, "read", counting)
    return calls


@pytest.mark.parametrize("spec", ["tfidf:20,neural:5", "neural:5",
                                  "tfidf:20,neural:12,neural:5"])
def test_telescoped_ask_reads_its_finalists_from_the_rank_pass(task, task_index,
                                                               monkeypatch, spec):
    """Each candidate's relevance is its ranked score, bit for bit, and the
    read runs no attention, fusion or rel head: `read` runs only to rank."""
    chain = parse_chain(spec)
    for ex in task.examples[:4]:
        scorer = hidden16_scorer(task)
        ranked = telescope(ex.question, chain, task_index, task.corpus, scorer)
        records = [task.corpus[pid] for pid in ranked.ids()]
        with monkeypatch.context() as patch:
            reads = counting_reads(patch)
            vote, kept = answer_question(ex.question, chain, task_index, task.corpus, scorer)
        assert len(reads) == sum(stage.kind == "neural" for stage in chain.stages)
        assert kept.entries == ranked.entries
        assert [c.relevance for c in vote.candidates] == [score for _, score in kept.entries]
        # A fresh read of the same records agrees but for an ulp or so.
        fresh = hidden16_scorer(task).read_candidates(ex.question, records)
        assert [c.span for c in vote.candidates] == [c.span for c in fresh]
        np.testing.assert_allclose([c.span_score for c in vote.candidates],
                                   [c.span_score for c in fresh], rtol=1e-5)
        np.testing.assert_allclose([c.relevance for c in vote.candidates],
                                   [c.relevance for c in fresh], rtol=1e-5)


def test_finalists_are_a_running_top_k_over_waves(task, monkeypatch):
    """With WAVE_BYTES at 1 each of the three chunks is a wave of its own;
    the finalists kept across them read as they do from one wave."""
    question, records = task.examples[5].question, varied_records(task, n=70)

    def held_read(k):
        scorer = hidden16_scorer(task)
        scores = scorer.relevance_scores(question, records, k)
        best = sorted(range(len(records)), key=lambda i: (-scores[i], records[i].passage_id))
        with monkeypatch.context() as patch:
            reads = counting_reads(patch)
            cands = scorer.read_candidates(question, [records[i] for i in best[:k]])
        assert reads == []
        assert [c.relevance for c in cands] == [scores[i] for i in best[:k]]
        return cands

    whole = held_read(5), held_read(40)
    monkeypatch.setattr(evaluation, "WAVE_BYTES", 1)
    assert (held_read(5), held_read(40)) == whole


def test_a_record_not_held_is_ranked_then_read(task, monkeypatch):
    """A finalist's kept states serve only its own question and passage text;
    anything else is ranked first, all of it kept, then read from what it
    kept, with the bits of a scorer that kept nothing."""
    question, other = task.examples[5].question, task.examples[6].question
    records = varied_records(task, n=40)
    scorer = hidden16_scorer(task)
    scores = scorer.relevance_scores(question, records, 3)
    best = sorted(range(len(records)), key=lambda i: (-scores[i], i))
    finalists = [records[i] for i in best[:3]]
    renamed = [PassageRecord(finalists[0].passage_id, 0, finalists[1].text)]
    cases = [(other, finalists), (question, finalists + [records[best[3]]]), (question, renamed)]
    for asked, chosen in cases:
        with monkeypatch.context() as patch:
            reads = counting_reads(patch)
            got = scorer.read_candidates(asked, chosen)
        assert reads == [1]
        assert got == hidden16_scorer(task).read_candidates(asked, chosen)
    # Scoring without finalists, as a chain ending in tfidf does, keeps none.
    scorer.relevance_scores(question, records, 3)
    scorer.relevance_scores(question, records)
    reads = counting_reads(monkeypatch)
    scorer.read_candidates(question, finalists)
    assert reads == [1]
    # Finalists are kept by passage id and text, so two texts may share an id.
    both = finalists[:1] + renamed
    assert scorer.read_candidates(question, both) == hidden16_scorer(task).read_candidates(
        question, both)


def test_held_read_raises_on_non_finite_span_probability(task, monkeypatch):
    """An infinite start weight makes the span heads' output non-finite but
    leaves ranking finite, so the held read meets it."""
    weights = init_weights(np.random.default_rng(3), task.table.dim, 4, 4)
    arrays = dict(weights.arrays, start_weight=np.full_like(weights.arrays["start_weight"],
                                                            np.inf))
    scorer = NeuralScorer(ModelWeights(weights.embed_dim, 4, 4, arrays),
                          Hyperparams(hidden=4, attn_dim=4, dropout=0.0), task.table)
    question, records = task.examples[0].question, varied_records(task, n=5)
    scores = scorer.relevance_scores(question, records, 2)
    assert all(math.isfinite(score) for score in scores)
    best = sorted(range(len(records)), key=lambda i: (-scores[i], i))[:2]
    reads = counting_reads(monkeypatch)
    with pytest.raises(EvaluationError, match="non-finite relevance or span probability"):
        scorer.read_candidates(question, [records[i] for i in best])
    assert reads == []


def test_token_numbers_leave_the_cache_with_their_encoding(task, monkeypatch):
    """A text's numbers live in its encoding's cache entry: once evicted, the
    text is numbered again, to the same numbers, and the vocabulary does not
    grow."""
    question, records = task.examples[3].question, varied_records(task)
    monkeypatch.setattr(evaluation, "ENCODING_CACHE_BYTES", 5 * (8 * 4 + 8) * 20)
    scorer = float64_scorer(task)
    scorer.relevance_scores(question, records)
    cache = scorer._encodings
    assert scorer._encoded_bytes == sum(arr.nbytes for entry in cache.values() for arr in entry)
    for text, (ids, states) in cache.items():
        assert len(ids) == states.shape[1] == len(tokenize(text))
    evicted = [rec for rec in records if rec.text not in cache]
    kept = [rec for rec in records if rec.text in cache and rec.text != question.text]
    assert evicted and kept
    before = {rec.text: scorer.vocabulary.ids(rec.tokens) for rec in (evicted[0], kept[0])}
    size = len(scorer.vocabulary)
    numbered = []
    original = evaluation.Vocabulary.ids

    def spying(self, seq):
        numbered.append(seq.text)
        return original(self, seq)

    monkeypatch.setattr(evaluation.Vocabulary, "ids", spying)
    assert (scorer.vocabulary.ids(evicted[0].tokens) == before[evicted[0].text]).all()
    assert (scorer.vocabulary.ids(kept[0].tokens) == before[kept[0].text]).all()
    assert numbered == [evicted[0].text]
    assert len(scorer.vocabulary) == size


def test_vocabulary_grows_only_with_distinct_surface_tokens(task):
    scorer = hidden16_scorer(task)
    question, records = task.examples[2].question, varied_records(task)
    scorer.relevance_scores(question, records)
    words = {tok for seq in [question] + [rec.tokens for rec in records] for tok in seq.tokens}
    assert set(scorer.vocabulary.numbers) == words
    assert sorted(scorer.vocabulary.numbers.values()) == list(range(1, len(words) + 1))
    upper = [PassageRecord(99, 0, records[0].text.upper())]
    scorer.relevance_scores(question, records + upper)
    grown = words | set(upper[0].tokens.tokens)
    assert len(scorer.vocabulary) == len(grown) > len(words)


def test_scorer_vocabulary_stays_within_its_bound(task, monkeypatch):
    """Over many distinct words, a chunk never numbers into a vocabulary past
    VOCABULARY_WORDS, and every output equals an unbounded scorer's."""
    bound = 300
    question = task.examples[3].question
    calls = [[PassageRecord(rec.passage_id, 0, rec.text + "".join(
                  f" c{k}r{rec.passage_id}w{j}" for j in range(5)))
              for rec in varied_records(task, n=40, offset=k)] for k in range(6)]
    unbounded = hidden16_scorer(task)
    expected = [scorer_outputs(unbounded, question, records) for records in calls]
    monkeypatch.setattr(evaluation, "VOCABULARY_WORDS", bound)
    sizes = []
    original = evaluation.encode_batch

    def counting(questions, passages, table, vocabulary):
        sizes.append(len(vocabulary))
        return original(questions, passages, table, vocabulary)

    monkeypatch.setattr(evaluation, "encode_batch", counting)
    scorer = hidden16_scorer(task)
    assert [scorer_outputs(scorer, question, records) for records in calls] == expected
    assert len(unbounded.vocabulary) > 4 * bound and max(sizes) <= bound
    assert sum(after < before for before, after in zip(sizes, sizes[1:])) >= 3
    # The cache starts afresh with the vocabulary: its numbers are the new ones.
    numbers = scorer.vocabulary.numbers
    assert scorer._encodings
    for text, (ids, _) in scorer._encodings.items():
        assert ids.tolist() == [numbers[tok] for tok in tokenize(text).tokens]


def test_telescope_tfidf_only_matches_top_k(task, task_index):
    question = task.examples[0].question
    chain = parse_chain("tfidf:7")
    ranked = telescope(question, chain, task_index, task.corpus, None)
    assert ranked.entries == top_k(task_index, question.tokens, 7).entries


def test_telescope_survivors_are_a_subset(task, task_index, scorer):
    question = task.examples[0].question
    chain = parse_chain("tfidf:8,neural:3")
    stage1 = top_k(task_index, question.tokens, 8)
    final = telescope(question, chain, task_index, task.corpus, scorer)
    assert len(final.entries) <= 3
    ids = final.ids()
    assert len(ids) == len(set(ids))
    assert set(ids) <= set(stage1.ids())


def test_telescope_neural_order_matches_relevance_sort(task, task_index, scorer):
    question = task.examples[5].question
    chain = parse_chain("tfidf:8,neural:4")
    stage1 = top_k(task_index, question.tokens, 8)
    records = [task.corpus[pid] for pid in stage1.ids()]
    scores = scorer.relevance_scores(question, records)
    want = sorted(zip(stage1.ids(), scores), key=lambda p: (-p[1], p[0]))[:4]
    got = telescope(question, chain, task_index, task.corpus, scorer)
    assert got.entries == want


def test_telescope_tfidf_can_rerank_neural_survivors(task, task_index, scorer):
    question = task.examples[0].question
    chain = parse_chain("neural:6,tfidf:2")
    final = telescope(question, chain, task_index, task.corpus, scorer)
    neural_ids = set(telescope(question, parse_chain("neural:6"), task_index,
                               task.corpus, scorer).ids())
    assert set(final.ids()) <= neural_ids
    # survivors keep global TF-IDF order
    tfidf_order = top_k(task_index, question.tokens, len(task.corpus)).ids()
    kept = [pid for pid in tfidf_order if pid in neural_ids][:2]
    assert final.ids() == kept


@pytest.mark.parametrize("spec", ["neural:6,tfidf:2", "tfidf:12,neural:6,tfidf:3",
                                  "tfidf:10,tfidf:4", "neural:20,tfidf:19"])
def test_later_tfidf_stage_equals_filtering_the_full_ranking(task, task_index, scorer,
                                                             spec):
    """Ranking only the survivors gives the list that filtering the whole
    corpus's TF-IDF ranking down to them gives, float scores included."""
    chain = parse_chain(spec)
    earlier = RankerChain(chain.stages[:-1], chain.stages[-2].cut)
    for ex in task.examples[:8]:
        survivors = telescope(ex.question, earlier, task_index, task.corpus, scorer)
        full = top_k(task_index, ex.question.tokens, len(task.corpus))
        allowed = set(survivors.ids())
        entries = [(pid, sc) for pid, sc in full.entries if pid in allowed]
        got = telescope(ex.question, chain, task_index, task.corpus, scorer)
        assert got.entries == entries[:chain.stages[-1].cut]
        assert got.warning == full.warning


def test_telescope_neural_stage_needs_scorer(task, task_index):
    with pytest.raises(ValueError, match="scorer"):
        telescope(task.examples[0].question, parse_chain("neural:3"),
                  task_index, task.corpus, None)


def test_answer_question_reads_final_k(task, task_index, scorer):
    question = task.examples[0].question
    chain = parse_chain("tfidf:6,neural:3")
    vote, kept = answer_question(question, chain, task_index, task.corpus, scorer)
    assert len(kept.entries) <= 3
    assert len(vote.candidates) == len(kept.entries)
    assert vote.answer is not None
    vote1, kept1 = answer_question(question, parse_chain("tfidf:6,neural:3", final_k=1),
                                   task_index, task.corpus, scorer)
    assert len(kept1.entries) == 1 and len(vote1.candidates) == 1


def test_answer_question_empty_retrieval(task, task_index, scorer):
    question = tokenize("zyxgrobble weffle ?")
    chain = parse_chain("tfidf:5,neural:2")
    vote, kept = answer_question(question, chain, task_index, task.corpus, scorer)
    assert vote.answer is None
    assert vote.warning is not None
    assert kept.entries == []


# ---------------------------------------------------------------------------
# evaluation drivers


def test_group_questions_collapses_by_qid():
    q = tokenize("who ?")
    examples = [
        QuestionExample("q1", q, 0, 1, (0, 0), ("a",)),
        QuestionExample("q1", q, 3, 1, (1, 1), ("a",)),
        QuestionExample("q1", q, 5, 0),
        QuestionExample("q2", q, 2, 1, (0, 0), ("b",)),
    ]
    cases = group_questions(examples)
    assert [(c.qid, c.relevant) for c in cases] == [("q1", {0, 3}), ("q2", {2})]
    assert cases[0].answers == ("a",)


AGGREGATE_KEYS = {"success_at_1", "success_at_5", "mrr_at_5", "em", "f1",
                  "n_queries"}
QUERY_KEYS = {"qid", "question", "retrieved", "answer", "em", "f1"}


def test_evaluate_ir_report_shape(task, task_index):
    examples = task.examples[:5]
    report = evaluate_ir(examples, parse_chain("tfidf:5"), task_index,
                         task.corpus, None)
    agg = report["aggregate"]
    assert set(agg) == AGGREGATE_KEYS
    assert agg["em"] is None and agg["f1"] is None
    assert agg["n_queries"] == 5
    for metric in ("success_at_1", "success_at_5", "mrr_at_5"):
        assert 0.0 <= agg[metric] <= 1.0
    for row in report["queries"]:
        assert set(row) == QUERY_KEYS
        assert row["answer"] is None and row["em"] is None
        assert len(row["retrieved"]) <= 5
    # gold is always reachable on this fixture at k=5
    assert agg["success_at_5"] == 1.0


def test_evaluate_ir_order_invariant(task, task_index):
    examples = list(task.examples[:8])
    chain = parse_chain("tfidf:5")
    fwd = evaluate_ir(examples, chain, task_index, task.corpus, None)
    rev = evaluate_ir(examples[::-1], chain, task_index, task.corpus, None)
    assert fwd["aggregate"] == rev["aggregate"]


def test_evaluate_rc_report_shape(task, scorer):
    examples = task.examples[:4]
    report = evaluate_rc(examples, task.corpus, scorer)
    agg = report["aggregate"]
    assert set(agg) == AGGREGATE_KEYS
    assert agg["success_at_1"] is None and agg["mrr_at_5"] is None
    assert agg["n_queries"] == 4
    assert 0.0 <= agg["em"] <= agg["f1"] <= 1.0
    for row, ex in zip(report["queries"], examples):
        assert row["retrieved"] == [ex.passage_id]
        assert isinstance(row["answer"], str)
    with pytest.raises(EvaluationError, match="no positive"):
        evaluate_rc([QuestionExample("q", tokenize("a"), 0, 0)], task.corpus,
                    scorer)


def test_evaluations_of_nothing_raise_evaluation_error(task, task_index, scorer):
    negatives = [QuestionExample("q", tokenize("a"), 0, 0)]
    chain = parse_chain("tfidf:5,neural:2")
    for examples in ([], negatives):
        with pytest.raises(EvaluationError, match="no questions"):
            evaluate_ir(examples, chain, task_index, task.corpus, scorer)
        with pytest.raises(EvaluationError, match="no questions"):
            evaluate_mrs(examples, chain, task_index, task.corpus, scorer)
        with pytest.raises(EvaluationError, match="no positive"):
            evaluate_rc(examples, task.corpus, scorer)


def test_evaluate_mrs_report_shape(task, task_index, scorer):
    examples = task.examples[:4]
    report = evaluate_mrs(examples, parse_chain("tfidf:5,neural:2", final_k=1), task_index,
                          task.corpus, scorer)
    agg = report["aggregate"]
    assert set(agg) == AGGREGATE_KEYS
    assert all(agg[m] is not None for m in AGGREGATE_KEYS)
    assert agg["n_queries"] == 4
    for row in report["queries"]:
        assert set(row) == QUERY_KEYS
        assert len(row["retrieved"]) <= 2
        assert row["em"] in (0.0, 1.0)
