"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single PASS line (visible with -s) after its assertions;
pytest -v shows the same outcomes as PASSED/FAILED per test.  Tolerances and
time limits are pinned in the asserts.
"""
import json
import math
import time

import numpy as np
import pytest

import oracles
from passageqa import autodiff as ad
from passageqa.checkpoint import load_checkpoint, save_checkpoint
from passageqa.evaluation import (AnswerCandidate, NeuralScorer, evaluate_ir,
                                  evaluate_mrs, evaluate_rc, exact_match,
                                  f1_score, mrr_at_k, parse_chain,
                                  success_at_k, vote_answers)
from passageqa.model import (Hyperparams, as_param_nodes, encode_batch,
                             forward_batch, init_weights, named_arrays,
                             select_span, weights_from_named)
from passageqa.retriever import (Corpus, DEFAULT_BUCKETS, PassageRecord,
                                 build_index, load_index, save_index, top_k)
from passageqa.text import VectorTable, tokenize
from passageqa.training import (Batch, QuestionExample, TrainMode,
                                build_targets, graph_loss, span_loss, train)
from oracles import joint_loss
from test_training import fabricated_state


def report_pass(name: str, detail: str) -> None:
    print(f"PASS  {name}: {detail}")


# 1 -------------------------------------------------------------------------


def test_full_model_gradients_match_finite_differences():
    """Joint multi-task loss vs central differences, 64-bit, < 60 s.

    The step is 2e-3: heavily attenuated paths carry gradients around 1e-9,
    and at smaller steps the difference quotient's rounding noise
    (ulp(loss)/2h ~ 4e-11 at h=1e-5) dominates those entries.  Truncation
    error stays negligible because those paths attenuate curvature equally.
    """
    rng = np.random.default_rng(17)
    words = [f"w{i}" for i in range(8)]
    table = VectorTable(4, {w: rng.standard_normal(4) * 0.5 for w in words})
    hp = Hyperparams(hidden=4, attn_dim=4, dropout=0.0, ir_weight=1.0)
    weights = init_weights(rng, embed_dim=4, hidden=4, attn_dim=4,
                           dtype=np.float64)
    params = named_arrays(weights)
    questions = [tokenize("w0 w3 w5"), tokenize("w3 w6")]
    passages = [tokenize("w1 w0 w4 w2 w7 w3"), tokenize("w5 w6 w2 w0 w1")]
    batch = Batch([QuestionExample("a", questions[0], 0, 1, (1, 3)),
                   QuestionExample("a", questions[1], 1, 0)])
    encoded = encode_batch(questions, passages, table)
    targets = build_targets(batch, encoded.passage_emb.shape[2],
                            dtype=np.float64)

    def build():
        node_weights, leaves = as_param_nodes(weights)
        state = forward_batch(node_weights, hp, encoded)
        loss = graph_loss(state, targets, hp.ir_weight, TrainMode.MULTI_TASK)
        return loss, leaves

    t0 = time.perf_counter()
    err = ad.gradient_check(build, params, step=2e-3)
    elapsed = time.perf_counter() - t0
    assert err < 1e-4, f"max relative gradient error {err:.3e} >= 1e-4"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s (limit 60s)"
    n = sum(a.size for a in params.values())
    report_pass("gradient fidelity",
                f"max rel err {err:.2e} over {n} parameters "
                f"(tol 1e-4) in {elapsed:.1f}s (limit 60s)")


# 2 -------------------------------------------------------------------------


def test_span_selection_matches_quadratic_brute_force():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        t = int(rng.integers(1, 41))
        if trial % 2:
            start = rng.dirichlet(np.ones(t))
            end = rng.dirichlet(np.ones(t))
        else:
            # coarse integer grid makes tied products common
            start = rng.integers(0, 4, size=t).astype(np.float64)
            end = rng.integers(0, 4, size=t).astype(np.float64)
            start /= max(start.sum(), 1.0)
            end /= max(end.sum(), 1.0)
        got = select_span(start, end)
        want = oracles.best_span_quadratic(list(start), list(end))
        assert got == want, f"trial {trial}: {got} != {want}"
    report_pass("span-selection oracle",
                "exact agreement with quadratic brute force on 1000 trials "
                "(T <= 40, ties included)")


# 3 -------------------------------------------------------------------------


def test_hashed_retrieval_matches_exact_cosine_oracle():
    # seed frozen at a value with zero hash collisions in the default space
    rng = np.random.default_rng(102)
    pool = [f"term{i:03d}" for i in range(300)]
    passages = [[pool[int(rng.integers(300))]
                 for _ in range(int(rng.integers(20, 41)))]
                for _ in range(200)]
    queries = [[pool[int(rng.integers(300))]
                for _ in range(int(rng.integers(3, 9)))]
               for _ in range(50)]
    collisions = oracles.bucket_collisions(passages + queries, DEFAULT_BUCKETS)
    assert collisions == {}, f"hash collisions present: {collisions}"

    t0 = time.perf_counter()
    corpus = Corpus([PassageRecord(i, 0, " ".join(t))
                     for i, t in enumerate(passages)])
    index = build_index(corpus)
    reference = oracles.PlainTfIdf({i: t for i, t in enumerate(passages)})
    for q_i, query in enumerate(queries):
        got = top_k(index, query, 5).entries
        want = reference.top_k(query, 5)
        assert got == want, f"query {q_i}: {got} != {want}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"retrieval oracle took {elapsed:.1f}s (limit 10s)"
    report_pass("retrieval oracle",
                f"top-5 bit-identical to explicit cosine on 200 passages x "
                f"50 queries, 0 collisions, {elapsed:.2f}s (limit 10s)")


# 4 -------------------------------------------------------------------------


def test_loss_identities_and_negative_invariance():
    def onehot(n, i):
        v = np.zeros(n)
        v[i] = 1.0
        return v

    pos = QuestionExample("p", tokenize("q ?"), 0, 1, (1, 1))
    pos2 = QuestionExample("p2", tokenize("q ?"), 1, 1, (0, 2))
    neg = QuestionExample("n", tokenize("q ?"), 2, 0)
    neg2 = QuestionExample("n2", tokenize("q ?"), 3, 0)

    batch = Batch([pos, pos2, neg, neg2])
    perfect = [(onehot(4, 1), onehot(4, 1), 1.0),
               (onehot(4, 0), onehot(4, 2), 1.0),
               (onehot(4, 0), onehot(4, 0), 0.0),
               (onehot(4, 0), onehot(4, 0), 0.0)]
    v0 = joint_loss(perfect, batch, ir_weight=1.0)
    assert abs(v0) < 1e-9, f"perfect-prediction loss {v0} != 0"

    coinflip = [(s, e, 0.5) for s, e, _ in perfect]
    v1 = joint_loss(coinflip, batch, ir_weight=1.0)
    assert abs(v1 - math.log(2.0)) < 1e-9 * math.log(2.0) + 1e-12

    single = Batch([QuestionExample("s", tokenize("q ?"), 0, 1, (0, 1))])
    v2 = joint_loss([(np.array([0.5, 0.25, 0.25]),
                      np.array([0.25, 0.25, 0.5]), 1.0)], single, 1.0)
    assert abs(v2 - math.log(8.0)) < 1e-9 * math.log(8.0)

    # span loss provably ignores negatives: numeric and graph forms
    two = Batch([pos, neg])
    base = [(np.array([0.3, 0.7]), np.array([0.2, 0.8]), 0.9),
            (onehot(2, 1), onehot(2, 1), 0.1)]
    poked = [base[0], (np.array([0.42, 0.58]), np.array([0.9, 0.1]), 0.1)]
    span_of = lambda outs, b: joint_loss(outs, b, ir_weight=0.0)
    assert math.isfinite(span_of(base, two))
    assert span_of(base, two) == span_of(poked, two)

    rng = np.random.default_rng(44)
    mask = np.ones((2, 4))
    start_logits = rng.standard_normal((2, 4))
    end_logits = rng.standard_normal((2, 4))
    targets = build_targets(Batch([QuestionExample("p", tokenize("q ?"), 0, 1,
                                                   (1, 2)), neg]), 4,
                            dtype=np.float64)
    a = span_loss(fabricated_state(start_logits, end_logits, None, mask),
                  targets).value
    start_logits2 = start_logits.copy()
    start_logits2[1] = 77.0
    b = span_loss(fabricated_state(start_logits2, end_logits, None, mask),
                  targets).value
    assert float(a) == float(b)
    report_pass("loss identities",
                "0 / ln 2 / ln 8 reproduced to 1e-9; negatives leave the "
                "span loss bit-identical")


# 5 -------------------------------------------------------------------------


def test_training_overfits_the_fixture(task, task_index):
    hp = Hyperparams(hidden=20, attn_dim=20, dropout=0.0, learning_rate=0.1,
                     lr_decay=0.99, epochs=300, batch_positives=10,
                     batch_negatives=10, seed=13)
    chain = parse_chain("tfidf:20,neural:1")
    latest = {"em": 0.0, "s1": 0.0, "epoch": 0}

    def callback(epoch, weights, ema, stats):
        if epoch % 10 != 0:
            return False
        averaged = weights_from_named(task.table.dim, hp.hidden, hp.attn_dim,
                                      ema)
        scorer = NeuralScorer(averaged, hp, task.table)
        em = evaluate_rc(task.examples, task.corpus,
                         scorer)["aggregate"]["em"]
        s1 = evaluate_ir(task.examples, chain, task_index, task.corpus,
                         scorer)["aggregate"]["success_at_1"]
        latest.update(em=em, s1=s1, epoch=epoch)
        return em >= 0.95 and s1 >= 0.9

    t0 = time.perf_counter()
    train(task.examples, task.corpus, task_index, task.table, hp,
          mode=TrainMode.MULTI_TASK, epoch_callback=callback)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"overfit run took {elapsed:.0f}s (limit 600s)"
    assert latest["em"] >= 0.95, f"train EM {latest['em']:.3f} < 0.95"
    assert latest["s1"] >= 0.9, f"chain S@1 {latest['s1']:.3f} < 0.9"
    report_pass("overfit gate",
                f"EM {latest['em']:.2f} (>= 0.95), S@1 {latest['s1']:.2f} "
                f"(>= 0.9) after {latest['epoch']} epochs in {elapsed:.0f}s "
                f"(limit 600s)")


# 6 -------------------------------------------------------------------------


def test_multi_task_vs_retrieval_only_comparison_report(task, task_index,
                                                        tmp_path):
    """Directional check: the report is the deliverable and is always
    written; a failed inequality is flagged, not hidden."""
    chain = parse_chain("tfidf:20,neural:1")
    seeds = (1, 2, 3, 4, 5)
    per_seed = []
    for seed in seeds:
        row = {"seed": seed}
        for mode, key in ((TrainMode.MULTI_TASK, "mtl_s_at_1"),
                          (TrainMode.RETRIEVAL_ONLY, "stl_ir_s_at_1")):
            hp = Hyperparams(hidden=20, attn_dim=20, dropout=0.0,
                             learning_rate=0.1, lr_decay=0.99, epochs=40,
                             batch_positives=10, batch_negatives=10,
                             seed=seed)
            result = train(task.examples, task.corpus, task_index, task.table,
                           hp, mode=mode)
            averaged = weights_from_named(task.table.dim, hp.hidden,
                                          hp.attn_dim, result.ema)
            scorer = NeuralScorer(averaged, hp, task.table)
            row[key] = evaluate_ir(task.examples, chain, task_index,
                                   task.corpus,
                                   scorer)["aggregate"]["success_at_1"]
        per_seed.append(row)

    mean_mtl = float(np.mean([r["mtl_s_at_1"] for r in per_seed]))
    mean_stl = float(np.mean([r["stl_ir_s_at_1"] for r in per_seed]))
    held = mean_mtl >= mean_stl
    report = {
        "fixture": "20 passages / 50 questions, invented towns",
        "chain": "tfidf:20,neural:1",
        "epochs": 40,
        "per_seed": per_seed,
        "mean_mtl_s_at_1": mean_mtl,
        "mean_stl_ir_s_at_1": mean_stl,
        "directional_check_passed": held,
    }
    report_path = tmp_path / "mtl_vs_stl.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")

    written = json.loads(report_path.read_text())
    assert len(written["per_seed"]) == len(seeds)
    assert all(0.0 <= r["mtl_s_at_1"] <= 1.0
               and 0.0 <= r["stl_ir_s_at_1"] <= 1.0 for r in written["per_seed"])
    assert written["directional_check_passed"] == \
           (written["mean_mtl_s_at_1"] >= written["mean_stl_ir_s_at_1"])
    verdict = ("direction held" if held
               else "direction FAILED, flagged in report")
    report_pass("multi-task comparison",
                f"mean S@1 mtl {mean_mtl:.2f} vs stl-ir {mean_stl:.2f} over "
                f"{len(seeds)} seeds; report written; {verdict}")


# 7 -------------------------------------------------------------------------


def test_answer_and_ranking_metric_conformance():
    assert exact_match("The Cat sat", ["cat sat"]) == 1.0
    assert abs(f1_score("The Cat sat", ["cat sat"]) - 1.0) < 1e-9
    assert abs(f1_score("x y", ["y z"]) - 0.5) < 1e-9
    assert f1_score("p q", ["r s"]) == 0.0
    assert exact_match("p q", ["r s"]) == 0.0
    assert abs(f1_score("an answer", ["answer"]) - 1.0) < 1e-9

    assert success_at_k([[1], [2], [3]], [{1}, {2}, {3}], 1) == 1.0
    assert mrr_at_k([[1], [2], [3]], [{1}, {2}, {3}], 5) == 1.0
    assert success_at_k([[9, 8, 3]], [{3}], 1) == 0.0
    assert mrr_at_k([[9, 8, 3]], [{3}], 5) == 1 / 3
    assert success_at_k([[9, 8, 3]], [{7}], 5) == 0.0
    assert mrr_at_k([[9, 8, 3]], [{7}], 5) == 0.0
    report_pass("metric conformance",
                "EM/F1 unit vectors to 1e-9; S@k and MRR@k definitional "
                "cases exact")


# 8 -------------------------------------------------------------------------


def test_vote_weights_match_direct_exponentials():
    rng = np.random.default_rng(88)
    grid = np.linspace(0.0, 1.0, 2001)  # spacing 5e-4 keeps maxima unambiguous
    for trial in range(100):
        n = int(rng.integers(2, 9))
        rels = rng.choice(grid, size=n, replace=False)
        answers = [f"ans{int(rng.integers(4))}" for _ in range(n)]
        cands = [AnswerCandidate(i, answers[i], (0, 0), 0.5, float(rels[i]))
                 for i in range(n)]

        result = vote_answers(cands, temperature=1e-6)
        assert result.answer == answers[int(np.argmax(rels))], f"trial {trial}"
        for entry in result.table:
            votes = [r / 1e-6 for a, r in zip(answers, rels) if a == entry.answer]
            m = max(votes)
            expected = m + math.log(math.fsum(math.exp(v - m) for v in votes))
            assert abs(entry.log_weight - expected) <= 1e-6 * abs(expected)

        # at a representable temperature the pooled weight itself matches
        warm = vote_answers(cands, temperature=0.05)
        for entry in warm.table:
            direct = math.fsum(math.exp(r / 0.05)
                               for a, r in zip(answers, rels) if a == entry.answer)
            assert abs(entry.weight() - direct) <= 1e-6 * direct
    report_pass("vote weighting",
                "tau=1e-6 winner = argmax relevance on 100 random sets; "
                "pooled weights match direct exponentials to 1e-6 relative")


# 9 -------------------------------------------------------------------------


def test_persistence_round_trips_reproduce_eval_bitwise(task, task_index,
                                                        tmp_path):
    examples = task.examples[:10]
    chain = parse_chain("tfidf:6,neural:2", final_k=1)
    hp = Hyperparams(hidden=4, attn_dim=4, dropout=0.0)
    weights = init_weights(np.random.default_rng(31), task.table.dim, 4, 4)
    ema = {name: arr.copy() for name, arr in named_arrays(weights).items()}

    index_path = str(tmp_path / "round.idx")
    save_index(index_path, task_index)
    loaded_index = load_index(index_path)
    ckpt_path = str(tmp_path / "round.ckpt")
    save_checkpoint(ckpt_path, hp, weights, ema)
    hp2, weights2, ema2 = load_checkpoint(ckpt_path)

    scorer = NeuralScorer(weights, hp, task.table)
    scorer2 = NeuralScorer(
        weights_from_named(task.table.dim, hp2.hidden, hp2.attn_dim, ema2),
        hp2, task.table)
    before = evaluate_mrs(examples, chain, task_index, task.corpus, scorer)
    after = evaluate_mrs(examples, chain, loaded_index, task.corpus, scorer2)
    blob1 = json.dumps(before, sort_keys=True)
    blob2 = json.dumps(after, sort_keys=True)
    assert blob1 == blob2
    report_pass("persistence round trips",
                f"index + checkpoint reload reproduce an end-to-end report "
                f"byte-for-byte over {len(examples)} queries")
