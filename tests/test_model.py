"""Network tests: shapes, attention identities, heads, span selection."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import passageqa.autodiff as ad
from passageqa.cli import blas_description
from passageqa.model import (Hyperparams, encode_batch, forward_batch, init_weights,
                             named_arrays, param_shapes, select_span, weights_from_named)
from passageqa.text import TokenSeq, VectorTable, tokenize

import oracles


def make_table(rng, words, dim, dtype=np.float64):
    return VectorTable(dim, {w: rng.standard_normal(dim).astype(dtype)
                             for w in words})


def seqs(*texts):
    return [tokenize(t) for t in texts]


def tiny_setup(seed=30, embed=4, hidden=3, attn=2, dtype=np.float64):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(10)]
    table = make_table(rng, words, embed, dtype)
    weights = init_weights(rng, embed, hidden, attn, dtype=dtype)
    hp = Hyperparams(hidden=hidden, attn_dim=attn, dropout=0.0)
    return rng, table, weights, hp


# ---------------------------------------------------------------------------
# hyperparameters and weight plumbing


def test_hyperparams_partial_dict_round_trip():
    hp = Hyperparams.from_dict({"hidden": 7, "dropout": 0.1})
    assert hp.hidden == 7 and hp.dropout == 0.1
    assert hp.attn_dim == 100  # untouched default
    assert Hyperparams.from_dict(hp.to_dict()) == hp


def test_hyperparams_reject_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        Hyperparams.from_dict({"hidden": 7, "typo_field": 1})


@pytest.mark.parametrize("raw, message", [
    ({"epochs": "3"}, "epochs must be int"),
    ({"hidden": True}, "hidden must be int"),
    ({"hidden": 4.0}, "hidden must be int"),
    ({"dropout": False}, "dropout must be float"),
    ({"vote_temperature": "x"}, "vote_temperature must be float"),
    ({"learning_rate": float("nan")}, "learning_rate must be finite"),
    ({"momentum": float("inf")}, "momentum must be finite"),
    ({"vote_temperature": 0}, "vote_temperature must be positive"),
    ({"vote_temperature": -0.5}, "vote_temperature must be positive"),
    ({"seed": -1}, "seed must be non-negative"),
    ({"epochs": 0}, "epochs must be at least 1"),
    ({"hidden": 0}, "hidden must be at least 1"),
    ({"hidden": -1}, "hidden must be at least 1"),
    ({"attn_dim": 0}, "attn_dim must be at least 1"),
    ({"batch_positives": 0}, "batch_positives must be at least 1"),
    ({"batch_negatives": -1}, "batch_negatives must be non-negative"),
    ({"dropout": 1.0}, r"dropout must be in \[0, 1\)"),
    ({"dropout": -0.1}, r"dropout must be in \[0, 1\)"),
    ({"ema_decay": 2.0}, r"ema_decay must be in \[0, 1\]"),
    ({"ema_decay": -0.5}, r"ema_decay must be in \[0, 1\]"),
])
def test_hyperparams_check_field_types(raw, message):
    with pytest.raises(ValueError, match=message):
        Hyperparams.from_dict(raw)


def test_hyperparams_range_edges_are_accepted():
    hp = Hyperparams.from_dict({"hidden": 1, "attn_dim": 1, "batch_positives": 1,
                                "batch_negatives": 0, "dropout": 0, "ema_decay": 1})
    assert (hp.hidden, hp.batch_negatives, hp.dropout, hp.ema_decay) == (1, 0, 0, 1)
    assert Hyperparams.from_dict({"ema_decay": 0.0, "dropout": 0.999}).ema_decay == 0.0


def test_hyperparams_float_fields_take_ints():
    hp = Hyperparams.from_dict({"learning_rate": 1, "vote_temperature": 2})
    assert hp.learning_rate == 1 and hp.vote_temperature == 2


def test_weight_naming_and_reconstruction():
    _, _, weights, _ = tiny_setup()
    named = named_arrays(weights)
    for expected in ("highway.0.transform.weight", "highway.1.gate.bias",
                     "ctx_fwd.w_in", "fusion_bwd.w_rec", "sim_weight",
                     "start_weight", "end_weight", "rel_fwd.bias",
                     "attn_proj.weight", "attn_context", "rel_weight"):
        assert expected in named
    rebuilt = weights_from_named(4, 3, 2, named)
    assert list(rebuilt.arrays) == list(named)
    for name, arr in named_arrays(rebuilt).items():
        assert arr is named[name]


def test_weights_from_named_rejects_bad_maps():
    _, _, weights, _ = tiny_setup()
    named = named_arrays(weights)
    partial = dict(named)
    del partial["sim_weight"]
    with pytest.raises(ValueError, match="missing"):
        weights_from_named(4, 3, 2, partial)
    wrong = dict(named)
    wrong["sim_weight"] = np.zeros(5)
    with pytest.raises(ValueError, match="shape"):
        weights_from_named(4, 3, 2, wrong)
    extra = dict(named, stray=np.zeros(1))
    with pytest.raises(ValueError, match="extra"):
        weights_from_named(4, 3, 2, extra)
    for dims in (("4", 3, 2), (4, "3", 2), (4, 3, 2.0), (4, -1, 2), (0, 3, 2),
                 (True, 3, 2), (4, 3, None)):
        with pytest.raises(ValueError, match="positive integer"):
            weights_from_named(*dims, named)


def test_expected_parameter_shapes():
    _, _, w, _ = tiny_setup(embed=4, hidden=3, attn=2)
    named = named_arrays(w)
    assert len(named) == 45
    assert {k: v.shape for k, v in named.items()} == param_shapes(4, 3, 2)
    assert named["highway.1.gate.weight"].shape == (4, 4)
    assert named["highway.1.gate.bias"].shape == (4, 1)
    assert named["ctx_bwd.w_in"].shape == (4, 12)
    assert named["ctx_bwd.w_rec"].shape == (3, 12)
    assert named["ctx_bwd.bias"].shape == (12,)
    assert named["sim_weight"].shape == (18,)        # 6d
    assert named["start_weight"].shape == (30,)      # 10d
    assert named["end_weight"].shape == (30,)
    assert named["fusion_fwd.w_in"].shape == (24, 12)   # 8d -> 4*hidden
    assert named["end_fwd.w_in"].shape == (42, 12)      # 14d
    assert named["rel_fwd.w_in"].shape == (7, 12)       # 2d + match bit
    assert named["attn_proj.weight"].shape == (2, 6)
    assert named["attn_proj.bias"].shape == (2, 1)
    assert named["rel_weight"].shape == (6,)
    biases = [name for name in named if name.endswith(".bias")]
    assert len(biases) == 15
    for name in biases:
        assert not named[name].any(), name


# ---------------------------------------------------------------------------
# batch encoding


def test_encode_batch_padding_and_masks():
    rng = np.random.default_rng(31)
    table = make_table(rng, ["a", "b", "c", "q"], 4)
    batch = encode_batch(seqs("q a", "q"), seqs("a b c", "b"), table)
    assert batch.passage_emb.shape == (2, 4, 3)
    assert batch.question_emb.shape == (2, 4, 2)
    np.testing.assert_array_equal(batch.passage_mask, [[1, 1, 1], [1, 0, 0]])
    np.testing.assert_array_equal(batch.question_mask, [[1, 1], [1, 0]])
    assert batch.passage_mask.sum(axis=1).tolist() == [3, 1]
    # padding columns are zero
    np.testing.assert_array_equal(batch.passage_emb[1, :, 1:], np.zeros((4, 2)))
    np.testing.assert_array_equal(batch.match_channel[0, 0], [1.0, 0.0, 0.0])


def test_encode_batch_validates_inputs():
    rng = np.random.default_rng(32)
    table = make_table(rng, ["a"], 4)
    with pytest.raises(ValueError, match="pair"):
        encode_batch(seqs("a"), seqs("a", "a"), table)
    with pytest.raises(ValueError, match="empty batch"):
        encode_batch([], [], table)
    with pytest.raises(ValueError, match="empty question"):
        encode_batch(seqs(""), seqs("a"), table)


def test_exact_match_channel_is_case_sensitive():
    table = VectorTable(2)

    def channel(question, passage):
        return encode_batch(seqs(question), seqs(passage), table).match_channel[0]

    np.testing.assert_array_equal(channel("cat", "the cat"), [[0.0, 1.0]])
    np.testing.assert_array_equal(channel("cat", "the Cat"), [[0.0, 0.0]])
    np.testing.assert_array_equal(channel("a b", "b a b"), [[1.0, 1.0, 1.0]])


# sha256 of encode_batch's five arrays (dtype, then bytes) for the batch
# below, taken before the vector table became one matrix.
GOLDEN_EMBEDDINGS = {
    np.float32: "1d72fc4a5ce8b0c142462ee5a0835a8d22b5b391f077a7a0547f1a8724113c8b",
    np.float64: "32eb37ac12bc5d9bda440a0f41d05868f212df03572f3e082db901f4360df4c4",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_encode_batch_bytes_are_golden(dtype):
    """Out-of-vocabulary words, padding and the match channel, byte for byte;
    every array is C-ordered and has the table's dtype."""
    rng = np.random.default_rng(44)
    table = make_table(rng, [f"w{i}" for i in range(12)], 5, dtype)
    batch = encode_batch(seqs("w1 w2 w3 ?", "w4 zz", "w0"),
                         seqs("w5 w1 w6 w7 oov w2 .", "w8 w4", "w9 w10 w11 w0 w3"), table)
    digest = hashlib.sha256()
    for arr in (batch.passage_emb, batch.question_emb, batch.passage_mask,
                batch.question_mask, batch.match_channel):
        assert arr.flags.c_contiguous and arr.dtype == dtype
        digest.update(arr.dtype.str.encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == GOLDEN_EMBEDDINGS[dtype], (
        f"{np.dtype(dtype)} embeddings moved; the golden was taken on BLAS SkylakeX, 1 thread, "
        f"this run had BLAS {blas_description()}")


# Case variants, punctuation tokens, non-ASCII words; the table holds a drawn
# subset, so the rest are out of vocabulary.
BATCH_WORDS = ["cat", "Cat", "CAT", "the", "sat", ".", "?", ",", "(", "naïve",
               "Straße", "東京", "café", "x1", "oov"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_encode_batch_equals_row_by_row_reference(data):
    """Byte for byte, in all five arrays, the per-row builder's output."""
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    known = data.draw(st.lists(st.sampled_from(BATCH_WORDS), unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    table = make_table(rng, known, data.draw(st.integers(1, 5)), dtype)
    tokens = st.lists(st.sampled_from(BATCH_WORDS), min_size=1, max_size=12)
    # A small pool of sequences, so rows repeat questions and passages.
    pool = [TokenSeq(" ".join(toks), tuple(toks), ())
            for toks in data.draw(st.lists(tokens, min_size=1, max_size=4))]
    rows = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                              min_size=1, max_size=6))
    questions, passages = [q for q, _ in rows], [p for _, p in rows]
    batch = encode_batch(questions, passages, table)
    got = (batch.passage_emb, batch.question_emb, batch.passage_mask,
           batch.question_mask, batch.match_channel)
    for arr, ref in zip(got, oracles.encode_batch_rows(questions, passages, table)):
        assert (arr.dtype, arr.shape) == (ref.dtype, ref.shape)
        assert arr.flags.c_contiguous and ref.flags.c_contiguous
        assert arr.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# forward pass shapes and identities


def test_forward_shapes_at_reference_dims():
    rng = np.random.default_rng(33)
    d = 100
    table = make_table(rng, ["a", "b", "c", "d", "e"], 50, dtype=np.float32)
    weights = init_weights(rng, 50, d, d, dtype=np.float32)
    hp = Hyperparams(hidden=d, attn_dim=d, dropout=0.0)
    batch = encode_batch(seqs("a b c"), seqs("a b c d e"), table)
    state = forward_batch(weights, hp, batch)
    assert state.ctx_passage.value.shape == (1, 2 * d, 5)
    assert state.ctx_question.value.shape == (1, 2 * d, 3)
    assert state.similarity.value.shape == (1, 5, 3)
    assert state.attended.value.shape == (1, 8 * d, 5)
    assert state.fused.value.shape == (1, 2 * d, 5)
    assert state.start_probs.value.shape == (1, 5)
    assert state.end_probs.value.shape == (1, 5)
    assert state.relevance.value.shape == (1,)


def test_zero_similarity_weight_gives_uniform_attention():
    _, table, weights, hp = tiny_setup()
    weights.arrays["sim_weight"] = np.zeros_like(weights.arrays["sim_weight"])
    batch = encode_batch(seqs("w1 w2"), seqs("w3 w4 w5"), table)
    state = forward_batch(weights, hp, batch, heads=())
    d2 = 2 * hp.hidden
    np.testing.assert_array_equal(state.similarity.value, np.zeros((1, 3, 2)))
    # question-aware blend collapses to the plain mean over question positions
    question_mean = state.ctx_question.value.mean(axis=2, keepdims=True)
    np.testing.assert_allclose(state.attended.value[:, d2:2 * d2, :],
                               np.repeat(question_mean, 3, axis=2), atol=1e-12)
    # passage-aware blend collapses to (mean over passage positions) * passage
    passage_mean = state.ctx_passage.value.mean(axis=2, keepdims=True)
    np.testing.assert_allclose(state.attended.value[:, 3 * d2:, :],
                               state.ctx_passage.value * passage_mean, atol=1e-12)


def test_single_question_token_blend_is_that_token():
    _, table, weights, hp = tiny_setup(seed=34)
    batch = encode_batch(seqs("w7"), seqs("w1 w2 w3 w4"), table)
    state = forward_batch(weights, hp, batch, heads=())
    d2 = 2 * hp.hidden
    blend = state.attended.value[:, d2:2 * d2, :]
    only = state.ctx_question.value[:, :, 0:1]
    np.testing.assert_allclose(blend, np.repeat(only, 4, axis=2), atol=1e-12)


def test_zero_relevance_weight_gives_half_probability():
    _, table, weights, hp = tiny_setup(seed=35)
    weights.arrays["rel_weight"] = np.zeros_like(weights.arrays["rel_weight"])
    batch = encode_batch(seqs("w1"), seqs("w2 w3"), table)
    state = forward_batch(weights, hp, batch, heads=("relevance",))
    assert state.relevance.value[0] == 0.5
    assert state.start_probs is None  # span head skipped


def test_zero_attention_context_gives_uniform_summary_weights():
    _, table, weights, hp = tiny_setup(seed=36)
    weights.arrays["attn_context"] = np.zeros_like(weights.arrays["attn_context"])
    batch = encode_batch(seqs("w1", "w1"), seqs("w2 w3 w4", "w5 w6"), table)
    state = forward_batch(weights, hp, batch, heads=("relevance",))
    np.testing.assert_allclose(state.rel_attention.value[0], [1 / 3] * 3, atol=1e-12)
    np.testing.assert_allclose(state.rel_attention.value[1], [0.5, 0.5, 0.0],
                               atol=1e-12)


def test_span_distributions_sum_to_one_and_respect_padding():
    _, table, weights, hp = tiny_setup(seed=37)
    batch = encode_batch(seqs("w1 w2", "w3"), seqs("w4 w5 w6 w7", "w8 w9"), table)
    state = forward_batch(weights, hp, batch)
    for probs in (state.start_probs.value, state.end_probs.value):
        np.testing.assert_allclose(probs.sum(axis=1), [1.0, 1.0], atol=1e-12)
        assert np.all(probs[1, 2:] == 0.0)
        assert np.all(probs[0] > 0.0)


def test_forward_rejects_unknown_heads():
    _, table, weights, hp = tiny_setup(seed=38)
    batch = encode_batch(seqs("w1"), seqs("w2"), table)
    with pytest.raises(ValueError, match="unknown heads"):
        forward_batch(weights, hp, batch, heads=("span", "reading"))


def test_forward_is_deterministic_in_eval():
    _, table, weights, hp = tiny_setup(seed=39)
    batch = encode_batch(seqs("w1 w2"), seqs("w3 w4 w5"), table)
    a = forward_batch(weights, hp, batch)
    b = forward_batch(weights, hp, batch)
    np.testing.assert_array_equal(a.start_probs.value, b.start_probs.value)
    np.testing.assert_array_equal(a.end_probs.value, b.end_probs.value)
    np.testing.assert_array_equal(a.relevance.value, b.relevance.value)


def test_dropout_changes_training_forward_only():
    _, table, weights, _ = tiny_setup(seed=40)
    hp = Hyperparams(hidden=3, attn_dim=2, dropout=0.4)
    batch = encode_batch(seqs("w1 w2"), seqs("w3 w4 w5"), table)
    eval_state = forward_batch(weights, hp, batch)
    with ad.KeepFactors(np.random.default_rng(5), hp.dropout, np.float64) as stream:
        train_state = forward_batch(weights, hp, batch, stream)
    assert not np.array_equal(train_state.start_probs.value,
                              eval_state.start_probs.value)


@pytest.mark.parametrize("heads, picked", [
    (("span", "relevance"), range(13)),
    (("span",), range(11)),
    (("relevance",), [*range(7), 11, 12]),
])
def test_dropout_draws_in_a_fixed_order(monkeypatch, heads, picked):
    """The training rng stream follows the order of the dropout calls: the
    passage's highway layers, the question's, the ctx input of each, fusion,
    then each head's LSTM and output inputs.  The widths differ (embed 5,
    2d 6, 2d+1 7, 8d 24, 10d 30, 14d 42), so each call's input shape names it."""
    _, table, weights, _ = tiny_setup(seed=42, embed=5, hidden=3)
    hp = Hyperparams(hidden=3, attn_dim=2, dropout=0.3)
    batch = encode_batch(seqs("w1 w2", "w3"), seqs("w4 w5 w6 w7", "w8 w9"), table)
    shapes = []
    original = ad.dropout

    def recording(node, rate, keep_factors):
        shapes.append(node.value.shape)
        return original(node, rate, keep_factors)

    monkeypatch.setattr(ad, "dropout", recording)
    with ad.KeepFactors(np.random.default_rng(6), hp.dropout, np.float64) as stream:
        forward_batch(weights, hp, batch, stream, heads=heads)
    every = [(2, 5, 4), (2, 5, 4), (2, 5, 2), (2, 5, 2),   # highway x2: passage, question
             (2, 5, 4), (2, 5, 2),                           # ctx: passage, question
             (2, 24, 4),                                     # fusion
             (2, 6, 4), (2, 30, 4),                          # start LSTM, start output
             (2, 42, 4), (2, 30, 4),                         # end LSTM, end output
             (2, 7, 4), (2, 6)]                              # rel LSTM, rel summary
    assert shapes == [every[i] for i in picked]


def test_full_forward_matches_scalar_reference():
    """One question/passage pair, every output, against pure-python math."""
    _, table, weights, hp = tiny_setup(seed=41)
    question = tokenize("w1 w2 w7")
    passage = tokenize("w3 w1 w4 w5 w6")
    batch = encode_batch([question], [passage], table)
    state = forward_batch(weights, hp, batch)
    ref = oracles.full_forward(weights, list(question.tokens),
                               list(passage.tokens), table)
    np.testing.assert_allclose(state.similarity.value[0],
                               np.array(ref["similarity"]), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(state.start_probs.value[0], ref["start_probs"],
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(state.end_probs.value[0], ref["end_probs"],
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(state.rel_attention.value[0], ref["rel_attention"],
                               rtol=1e-9, atol=1e-12)
    assert state.relevance.value[0] == pytest.approx(ref["relevance"], rel=1e-9)


# ---------------------------------------------------------------------------
# span selection


def test_select_span_prefers_joint_probability():
    t1, t2, score = select_span(np.array([0.9, 0.1]), np.array([0.2, 0.8]))
    assert (t1, t2) == (0, 1)
    assert score == pytest.approx(0.72, rel=1e-12)


def test_select_span_peaked_distributions():
    for i in range(4):
        start = np.full(4, 0.01)
        end = np.full(4, 0.01)
        start[i] = end[i] = 0.97
        assert select_span(start, end)[:2] == (i, i)


def test_select_span_breaks_ties_earliest():
    start = np.array([0.5, 0.5])
    end = np.array([0.5, 0.5])
    assert select_span(start, end)[:2] == (0, 0)
    # equal everywhere: smallest start, then smallest end
    assert select_span(np.full(3, 1 / 3), np.full(3, 1 / 3))[:2] == (0, 0)


def test_select_span_never_puts_end_before_start():
    start = np.array([0.0, 0.0, 1.0])
    end = np.array([1.0, 0.0, 0.0])
    t1, t2, _ = select_span(start, end)
    assert t1 <= t2
    assert (t1, t2) == (0, 0)  # 0*1 ties 1*0 at score 0; earliest wins


def test_select_span_validates_input():
    with pytest.raises(ValueError):
        select_span(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        select_span(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        select_span(np.zeros(0), np.zeros(0))


def test_select_span_agrees_with_quadratic_search():
    rng = np.random.default_rng(42)
    for trial in range(1000):
        n = int(rng.integers(1, 41))
        if trial % 2 == 0:
            start = rng.dirichlet(np.ones(n)).astype(np.float32)
            end = rng.dirichlet(np.ones(n)).astype(np.float32)
        else:
            # coarse quantized probabilities produce heavy ties
            start = rng.integers(0, 5, n).astype(np.float32)
            end = rng.integers(0, 5, n).astype(np.float32)
            if start.sum() == 0:
                start[0] = 1.0
            if end.sum() == 0:
                end[0] = 1.0
            start /= start.sum()
            end /= end.sum()
        got = select_span(start, end)
        want = oracles.best_span_quadratic(start, end)
        assert got[:2] == want[:2], (trial, got, want)
        assert got[2] == want[2]
