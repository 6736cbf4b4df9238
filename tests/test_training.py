"""Loss identities, optimizer math, negative sampling, and the train loop."""
import hashlib
import math

import numpy as np
import pytest

import passageqa.autodiff as ad
from passageqa.autodiff import constant
from passageqa.cli import blas_description
from passageqa.model import ForwardState, Hyperparams, named_arrays
from passageqa.retriever import build_index
from passageqa.training import (Batch, OptimizerError, QuestionExample, TrainMode,
                                build_targets, ema_update, graph_loss,
                                make_negative, relevance_loss, sgd_momentum_step,
                                span_loss, train)
from passageqa.text import tokenize

from oracles import joint_loss
from synthtask import build_task


def positive(qid="q", pid=0, span=(0, 0)):
    return QuestionExample(qid=qid, question=tokenize("who is it ?"),
                           passage_id=pid, relevance=1, span=span,
                           answer_texts=("x",))


def negative(qid="q", pid=1):
    return QuestionExample(qid=qid, question=tokenize("who is it ?"),
                           passage_id=pid, relevance=0)


def onehot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# example and batch validation


def test_positive_requires_span():
    with pytest.raises(ValueError, match="span"):
        QuestionExample(qid="q", question=tokenize("a"), passage_id=0, relevance=1)
    with pytest.raises(ValueError, match="relevance"):
        QuestionExample(qid="q", question=tokenize("a"), passage_id=0, relevance=2)


def test_batch_counts():
    batch = Batch([positive(), negative(), negative()])
    assert batch.size == 3 and batch.n_positive == 1
    with pytest.raises(ValueError, match="empty"):
        Batch([])


def test_build_targets_layout():
    batch = Batch([positive(span=(1, 2)), negative()])
    targets = build_targets(batch, 4, dtype=np.float64)
    np.testing.assert_array_equal(targets.relevance, [1.0, 0.0])
    np.testing.assert_array_equal(targets.start_onehot[0], [0, 1, 0, 0])
    np.testing.assert_array_equal(targets.end_onehot[0], [0, 0, 1, 0])
    np.testing.assert_array_equal(targets.start_onehot[1], np.zeros(4))
    assert targets.n_positive == 1
    with pytest.raises(ValueError, match="span"):
        build_targets(Batch([positive(span=(2, 5))]), 4)


# ---------------------------------------------------------------------------
# reference loss identities


def test_joint_loss_zero_for_perfect_predictions():
    batch = Batch([positive(span=(1, 1)), positive(span=(0, 2)),
                   negative(), negative()])
    outputs = [(onehot(4, 1), onehot(4, 1), 1.0),
               (onehot(4, 0), onehot(4, 2), 1.0),
               (onehot(4, 0), onehot(4, 0), 0.0),
               (onehot(4, 0), onehot(4, 0), 0.0)]
    assert abs(joint_loss(outputs, batch, ir_weight=1.0)) < 1e-9


def test_joint_loss_log2_for_coinflip_relevance():
    batch = Batch([positive(span=(1, 1)), positive(span=(0, 2)),
                   negative(), negative()])
    outputs = [(onehot(4, 1), onehot(4, 1), 0.5),
               (onehot(4, 0), onehot(4, 2), 0.5),
               (onehot(4, 0), onehot(4, 0), 0.5),
               (onehot(4, 0), onehot(4, 0), 0.5)]
    assert math.isclose(joint_loss(outputs, batch, 1.0), math.log(2.0),
                        rel_tol=1e-9)


def test_joint_loss_frozen_single_positive():
    batch = Batch([positive(span=(0, 1))])
    start = np.array([0.5, 0.25, 0.25])
    end = np.array([0.25, 0.25, 0.5])
    outputs = [(start, end, 1.0)]
    # -(ln 0.5 + ln 0.25) = ln 8
    assert math.isclose(joint_loss(outputs, batch, 1.0), math.log(8.0),
                        rel_tol=1e-9)


def test_joint_loss_weighting_splits_tasks():
    batch = Batch([positive(span=(0, 0)), negative()])
    outputs = [(onehot(2, 0), onehot(2, 0), 0.5), (onehot(2, 0), onehot(2, 0), 0.5)]
    # span part perfect: only BCE remains, scaled by ir_weight
    assert math.isclose(joint_loss(outputs, batch, 0.25), 0.25 * math.log(2.0),
                        rel_tol=1e-9)
    assert joint_loss(outputs, batch, 0.0) == 0.0


def test_joint_loss_ignores_negative_span_predictions():
    batch = Batch([positive(span=(0, 0)), negative()])
    base = [(onehot(2, 0), onehot(2, 0), 0.9), (onehot(2, 0), onehot(2, 0), 0.1)]
    perturbed = [(base[0][0], base[0][1], 0.9),
                 (np.array([0.123, 0.877]), np.array([0.6, 0.4]), 0.1)]
    assert joint_loss(base, batch, 1.0) == joint_loss(perturbed, batch, 1.0)


def test_joint_loss_requires_a_positive():
    with pytest.raises(ValueError, match="positive"):
        joint_loss([(onehot(2, 0), onehot(2, 0), 0.5)], Batch([negative()]), 1.0)
    with pytest.raises(ValueError, match="one output"):
        joint_loss([], Batch([positive()]), 1.0)


# ---------------------------------------------------------------------------
# graph losses


def fabricated_state(start_logits, end_logits, rel_logits, mask):
    return ForwardState(
        ctx_passage=None, ctx_question=None, similarity=None, attended=None,
        fused=None, passage_mask=mask, question_mask=None,
        start_logits=constant(start_logits), end_logits=constant(end_logits),
        relevance_logit=constant(rel_logits) if rel_logits is not None else None)


def test_graph_loss_matches_reference_loss():
    rng = np.random.default_rng(50)
    mask = np.ones((3, 5))
    start_logits = rng.standard_normal((3, 5))
    end_logits = rng.standard_normal((3, 5))
    rel_logits = rng.standard_normal(3)
    batch = Batch([positive(span=(1, 3)), positive(span=(0, 0)), negative()])
    targets = build_targets(batch, 5, dtype=np.float64)
    state = fabricated_state(start_logits, end_logits, rel_logits, mask)

    def softmax(row):
        e = np.exp(row - row.max())
        return e / e.sum()

    outputs = []
    for i, ex in enumerate(batch.examples):
        rel_p = 1.0 / (1.0 + math.exp(-rel_logits[i]))
        outputs.append((softmax(start_logits[i]), softmax(end_logits[i]), rel_p))

    for weight in (1.0, 0.3):
        got = graph_loss(state, targets, weight, TrainMode.MULTI_TASK).value
        want = joint_loss(outputs, batch, weight)
        assert math.isclose(float(got), want, rel_tol=1e-9)


def test_span_loss_invariant_to_negative_logits():
    rng = np.random.default_rng(51)
    mask = np.ones((2, 4))
    start = rng.standard_normal((2, 4))
    end = rng.standard_normal((2, 4))
    batch = Batch([positive(span=(2, 3)), negative()])
    targets = build_targets(batch, 4, dtype=np.float64)
    base = span_loss(fabricated_state(start, end, None, mask), targets).value

    start2, end2 = start.copy(), end.copy()
    start2[1] = 99.0  # the negative row
    end2[1] = -7.0
    changed = span_loss(fabricated_state(start2, end2, None, mask), targets).value
    assert float(base) == float(changed)


def test_span_loss_respects_passage_mask():
    # putting huge logits at masked positions must not change the loss
    mask = np.array([[1, 1, 0, 0]], dtype=np.float64)
    start = np.array([[1.0, 2.0, 500.0, 500.0]])
    end = np.array([[0.5, 1.5, 500.0, 500.0]])
    batch = Batch([positive(span=(1, 1))])
    targets = build_targets(batch, 4, dtype=np.float64)
    got = span_loss(fabricated_state(start, end, None, mask), targets).value
    want = (-math.log(math.exp(2.0) / (math.exp(1.0) + math.exp(2.0)))
            - math.log(math.exp(1.5) / (math.exp(0.5) + math.exp(1.5))))
    assert math.isclose(float(got), want, rel_tol=1e-12)


def test_relevance_loss_stays_finite_at_saturation():
    mask = np.ones((2, 1))
    state = fabricated_state(np.zeros((2, 1)), np.zeros((2, 1)),
                             np.array([500.0, -500.0]), mask)
    batch = Batch([positive(span=(0, 0)), negative()])
    targets = build_targets(batch, 1, dtype=np.float64)
    value = float(relevance_loss(state, targets).value)
    assert math.isfinite(value)
    assert value < 1e-12  # both predictions are (saturated) correct


def test_multi_task_with_zero_weight_equals_span_only():
    rng = np.random.default_rng(52)
    mask = np.ones((2, 3))
    state = fabricated_state(rng.standard_normal((2, 3)),
                             rng.standard_normal((2, 3)),
                             rng.standard_normal(2), mask)
    batch = Batch([positive(span=(0, 2)), positive(qid="r", span=(1, 1))])
    targets = build_targets(batch, 3, dtype=np.float64)
    mtl = graph_loss(state, targets, 0.0, TrainMode.MULTI_TASK).value
    rc = graph_loss(state, targets, 1.0, TrainMode.READING_ONLY).value
    assert float(mtl) == float(rc)


def test_span_loss_requires_positive():
    mask = np.ones((1, 2))
    state = fabricated_state(np.zeros((1, 2)), np.zeros((1, 2)), None, mask)
    targets = build_targets(Batch([negative()]), 2, dtype=np.float64)
    with pytest.raises(ValueError, match="positive"):
        span_loss(state, targets)


# ---------------------------------------------------------------------------
# optimizer and averaging


def test_sgd_first_step_is_plain_gradient_descent():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, -1.0])}
    velocity = {"w": np.zeros(2)}
    sgd_momentum_step(params, grads, velocity, lr=0.1, momentum=0.9)
    np.testing.assert_allclose(params["w"], [0.95, 2.1], atol=1e-15)
    np.testing.assert_array_equal(velocity["w"], grads["w"])


def test_sgd_momentum_accumulates():
    params = {"w": np.array([0.0])}
    grads = {"w": np.array([1.0])}
    velocity = {"w": np.zeros(1)}
    sgd_momentum_step(params, grads, velocity, lr=1.0, momentum=0.9)
    sgd_momentum_step(params, grads, velocity, lr=1.0, momentum=0.9)
    # steps: -1, then -(0.9 + 1) => -2.9 total
    np.testing.assert_allclose(params["w"], [-2.9], atol=1e-15)


def test_sgd_rejects_non_finite_gradient_by_name():
    params = {"good": np.zeros(2), "bad": np.zeros(2)}
    grads = {"good": np.zeros(2), "bad": np.array([1.0, np.nan])}
    velocity = {k: np.zeros(2) for k in params}
    with pytest.raises(OptimizerError, match="'bad'"):
        sgd_momentum_step(params, grads, velocity, lr=0.1)


def test_ema_update_blends():
    shadow = {"w": np.array([1.0])}
    params = {"w": np.array([2.0])}
    ema_update(shadow, params, decay=0.99)
    np.testing.assert_allclose(shadow["w"], [1.0 + 0.01], atol=1e-15)
    ema_update(shadow, params, decay=0.0)
    np.testing.assert_array_equal(shadow["w"], params["w"])
    before = shadow["w"].copy()
    ema_update(shadow, params, decay=1.0)
    np.testing.assert_array_equal(shadow["w"], before)


def test_ema_stays_inside_envelope():
    rng = np.random.default_rng(53)
    shadow = {"w": rng.standard_normal(4)}
    lo = np.minimum(shadow["w"], -2.0)
    hi = np.maximum(shadow["w"], 2.0)
    for _ in range(100):
        params = {"w": rng.uniform(-2.0, 2.0, size=4)}
        ema_update(shadow, params, decay=0.9)
        assert np.all(shadow["w"] >= lo) and np.all(shadow["w"] <= hi)


# ---------------------------------------------------------------------------
# negative sampling


def test_make_negative_avoids_gold_and_stays_in_pool(task, task_index):
    from passageqa.retriever import similar_passages
    rng = np.random.default_rng(54)
    ex = task.examples[0]
    pool = {pid for pid, _ in
            similar_passages(task_index, task.corpus[ex.passage_id], 15).entries}
    seen = set()
    for _ in range(500):
        neg = make_negative(ex, task_index, task.corpus, rng)
        assert neg is not None
        assert neg.relevance == 0 and neg.span is None
        assert neg.passage_id != ex.passage_id
        assert neg.passage_id in pool
        assert neg.question is ex.question
        seen.add(neg.passage_id)
    assert seen == pool  # uniform sampling reaches every candidate


def test_make_negative_respects_extra_exclusions(task, task_index):
    from passageqa.retriever import similar_passages
    rng = np.random.default_rng(55)
    ex = task.examples[0]
    pool = [pid for pid, _ in
            similar_passages(task_index, task.corpus[ex.passage_id], 15).entries]
    exclude = set(pool[:-1]) | {ex.passage_id}
    for _ in range(20):
        neg = make_negative(ex, task_index, task.corpus, rng, relevant_ids=exclude)
        assert neg.passage_id == pool[-1]


def test_make_negative_returns_none_without_candidates():
    from passageqa.retriever import Corpus, PassageRecord, build_index
    corpus = Corpus([PassageRecord(0, 0, "qwxyzzy flumph"),
                     PassageRecord(1, 0, "apple banana")])
    index = build_index(corpus)
    ex = QuestionExample(qid="q", question=tokenize("qwxyzzy ?"), passage_id=0,
                         relevance=1, span=(0, 0))
    assert make_negative(ex, index, corpus, np.random.default_rng(0)) is None


def test_train_never_draws_another_gold_passage_as_negative(monkeypatch):
    """Passages 0-3 are each other's only TF-IDF neighbours; question q has gold
    passages 0 and 1, so its negatives come from 2 and 3 alone."""
    from passageqa import training
    from passageqa.retriever import Corpus, PassageRecord, build_index
    from passageqa.text import VectorTable
    corpus = Corpus([PassageRecord(i, 0, f"red fox number{i}" if i < 4 else f"blue owl{i}")
                     for i in range(10)])
    drawn = []

    def recording(*args, **kwargs):
        neg = make_negative(*args, **kwargs)
        drawn.append(neg.passage_id)
        return neg

    monkeypatch.setattr(training, "make_negative", recording)
    table = VectorTable(4, {"red": np.ones(4, np.float32)})
    train([positive("q", 0), positive("q", 1)], corpus, build_index(corpus), table,
          small_hp(epochs=10, batch_positives=2, batch_negatives=2))
    assert len(drawn) == 20
    assert set(drawn) == {2, 3}


def test_train_ranks_each_gold_passage_once_across_epochs(monkeypatch):
    """The TF-IDF pool of a gold passage is computed on its first negative and
    reused in later epochs; every negative still comes from that pool minus
    the question's gold passages."""
    from passageqa import training
    from passageqa.retriever import Corpus, PassageRecord, build_index, similar_passages
    from passageqa.text import VectorTable
    corpus = Corpus([PassageRecord(i, 0, ("red fox", "blue owl", "green cat")[i % 3]
                                   + f" number{i}") for i in range(12)])
    index = build_index(corpus)
    positives = [positive("a", 0), positive("a", 3), positive("b", 1),
                 positive("c", 2), positive("d", 4)]
    gold = {"a": {0, 3}, "b": {1}, "c": {2}, "d": {4}}
    ranked, drawn = [], []

    def counting(index_, passage, k):
        ranked.append(passage.passage_id)
        return similar_passages(index_, passage, k)

    def recording(*args, **kwargs):
        neg = make_negative(*args, **kwargs)
        drawn.append((args[0], neg.passage_id))
        return neg

    monkeypatch.setattr(training, "similar_passages", counting)
    monkeypatch.setattr(training, "make_negative", recording)
    table = VectorTable(4, {"red": np.ones(4, np.float32)})
    train(positives, corpus, index, table,
          small_hp(epochs=6, batch_positives=5, batch_negatives=5))
    assert len(drawn) == 30
    assert sorted(ranked) == [0, 1, 2, 3, 4]
    for pos_ex, pid in drawn:
        pool = set(similar_passages(index, corpus[pos_ex.passage_id], 15).ids())
        assert pid in pool - gold[pos_ex.qid]


# ---------------------------------------------------------------------------
# the training loop


# sha256 of two mtl steps with dropout 0.2 (losses, then raw weights by name),
# taken with the bi-LSTM gates' sigmoid in its tanh form, 0.5*tanh(x/2) + 0.5.
GOLDEN_MTL_STEPS = "da0740119f49fbfbbbc34fb41b14a2b640fc584470a4325232125b02e443e977"


def small_hp(**over):
    base = dict(hidden=4, attn_dim=4, dropout=0.0, learning_rate=0.05,
                lr_decay=0.9, epochs=2, batch_positives=6, batch_negatives=6,
                seed=7)
    base.update(over)
    return Hyperparams(**base)


def test_train_loss_decreases_on_tiny_task(task, task_index):
    hp = small_hp(epochs=5, learning_rate=0.1)
    result = train(task.examples[:6], task.corpus, task_index, task.table, hp)
    assert len(result.history) == 5
    assert result.history[-1].mean_loss < result.history[0].mean_loss


def test_train_learning_rate_schedule(task, task_index):
    hp = small_hp(epochs=3, learning_rate=0.2, lr_decay=0.5)
    result = train(task.examples[:4], task.corpus, task_index, task.table, hp)
    assert [round(h.learning_rate, 10) for h in result.history] == [0.2, 0.1, 0.05]
    assert [h.epoch for h in result.history] == [1, 2, 3]


def test_train_is_bit_reproducible(task, task_index):
    hp = small_hp()
    r1 = train(task.examples[:5], task.corpus, task_index, task.table, hp)
    r2 = train(task.examples[:5], task.corpus, task_index, task.table, hp)
    for name, arr in named_arrays(r1.weights).items():
        np.testing.assert_array_equal(arr, named_arrays(r2.weights)[name])
        np.testing.assert_array_equal(r1.ema[name], r2.ema[name])
    assert [h.mean_loss for h in r1.history] == [h.mean_loss for h in r2.history]


def result_digest(result) -> str:
    digest = hashlib.sha256()
    for stats in result.history:
        digest.update(stats.mean_loss.hex().encode())
    for name, arr in named_arrays(result.weights).items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def test_mtl_steps_are_golden(task, task_index):
    """Two mtl steps with dropout: losses and final weights pin the RNG draw order."""
    hp = small_hp(dropout=0.2)
    result = train(task.examples[:6], task.corpus, task_index, task.table, hp)
    assert [h.n_batches for h in result.history] == [1, 1]
    assert result_digest(result) == GOLDEN_MTL_STEPS, (
        f"mtl steps moved; the golden was taken on BLAS SkylakeX, 1 thread, "
        f"this run had BLAS {blas_description()}")


# sha256 of one stl-rc step on one example at hidden 100, float32, digested
# as above, taken on the one OpenBLAS thread the program sets
# (cli.one_blas_thread): its end-LSTM input product is large enough for
# OpenBLAS to thread.
GOLDEN_ONE_ROW_STEP = "f882ec7b04a57a6c0e3ca52de8fa8d02fe84de3754c736d33dde992372bcb7e8"


def test_one_row_step_at_paper_width_is_golden(task, task_index):
    """A one-row batch scans each sequence alone: at hidden >= 64 a row's
    float32 product takes other bits when it shares a step with another."""
    hp = small_hp(hidden=100, attn_dim=100, dropout=0.2, epochs=1,
                  batch_positives=1, batch_negatives=0)
    result = train(task.examples[:1], task.corpus, task_index, task.table, hp,
                   mode=TrainMode.READING_ONLY)
    assert [h.n_batches for h in result.history] == [1]
    assert result_digest(result) == GOLDEN_ONE_ROW_STEP, (
        f"one-row step moved; the golden was taken on BLAS SkylakeX, 1 thread, "
        f"this run had BLAS {blas_description()}")


# sha256 of three mtl steps at the bench's train_mtl width, digested as above.
# The bench's own training digests hash losses only, which can hold while
# weight bits move; this one hashes the raw weights too.
GOLDEN_MTL_BENCH_WIDTH = "68429aa236b11a4980b3b8e608b24804766e189aad463ddb43adfe7980a0c0ad"


def test_mtl_steps_at_bench_width_are_golden():
    """Embed 32, hidden 16, attn 16, 10 positives and 10 negatives a step."""
    wide = build_task(seed=0, emb_dim=32)
    hp = small_hp(hidden=16, attn_dim=16, dropout=0.2, epochs=3,
                  batch_positives=10, batch_negatives=10)
    result = train(wide.examples[:10], wide.corpus, build_index(wide.corpus), wide.table, hp)
    assert [h.n_batches for h in result.history] == [1, 1, 1]
    assert result_digest(result) == GOLDEN_MTL_BENCH_WIDTH, (
        f"bench-width mtl steps moved; the golden was taken on BLAS SkylakeX, 1 thread, "
        f"this run had BLAS {blas_description()}")


def test_train_writes_per_epoch_checkpoints(task, task_index, tmp_path):
    from passageqa.checkpoint import load_checkpoint
    hp = small_hp(epochs=2)
    train(task.examples[:4], task.corpus, task_index, task.table, hp,
          checkpoint_dir=str(tmp_path))
    assert (tmp_path / "epoch_001.ckpt").exists()
    assert (tmp_path / "epoch_002.ckpt").exists()
    loaded_hp, weights, ema = load_checkpoint(str(tmp_path / "epoch_002.ckpt"))
    assert loaded_hp == hp
    assert set(named_arrays(weights)) == set(ema)


def test_train_epoch_callback_can_stop_early(task, task_index):
    hp = small_hp(epochs=50)
    calls = []

    def callback(epoch, weights, ema, stats):
        calls.append(epoch)
        return epoch >= 3

    result = train(task.examples[:4], task.corpus, task_index, task.table, hp,
                   epoch_callback=callback)
    assert calls == [1, 2, 3]
    assert len(result.history) == 3


def test_train_ema_differs_from_raw_weights(task, task_index):
    hp = small_hp(epochs=2)
    result = train(task.examples[:4], task.corpus, task_index, task.table, hp)
    raw = named_arrays(result.weights)
    assert any(not np.array_equal(result.ema[name], raw[name]) for name in raw)


def test_train_validates_inputs(task, task_index):
    with pytest.raises(ValueError, match="no training examples"):
        train([], task.corpus, task_index, task.table, small_hp())
    neg = negative()
    with pytest.raises(ValueError, match="positive"):
        train([neg], task.corpus, task_index, task.table, small_hp())


def test_train_refuses_a_span_past_its_own_passage():
    """A span inside the batch's padded length but past its own passage's
    tokens is refused before any step, naming the question and the passage."""
    from passageqa.retriever import Corpus, PassageRecord, build_index
    from passageqa.text import VectorTable
    corpus = Corpus([PassageRecord(0, 0, "one two three four"),
                     PassageRecord(1, 0, " ".join(f"w{i}" for i in range(30)))])
    table = VectorTable(4, {"one": np.ones(4, np.float32)})
    examples = [positive("long", 1, (2, 3)), positive("short", 0, (20, 21))]
    with pytest.raises(ValueError, match=r"question short: span \(20, 21\) outside "
                                         r"passage 0 of 4 tokens"):
        train(examples, corpus, build_index(corpus), table,
              small_hp(epochs=1, batch_positives=2), mode=TrainMode.READING_ONLY)


def test_train_mode_stl_rc_needs_no_negatives(task, task_index):
    hp = small_hp(epochs=1)
    result = train(task.examples[:4], task.corpus, task_index, task.table, hp,
                   mode=TrainMode.READING_ONLY)
    assert len(result.history) == 1
    assert math.isfinite(result.history[0].mean_loss)


def test_train_mode_stl_ir_runs(task, task_index):
    hp = small_hp(epochs=1)
    result = train(task.examples[:4], task.corpus, task_index, task.table, hp,
                   mode=TrainMode.RETRIEVAL_ONLY)
    assert math.isfinite(result.history[0].mean_loss)
    # BCE of a near-chance classifier sits near ln 2
    assert 0.2 < result.history[0].mean_loss < 1.5
