"""Command-line entry points.

Commands: ingest, build-index, train, eval-ir, eval-rc, eval-mrs, ask.
Settings come from an optional JSON config file (--config); flags override
config values.  One seed drives every source of randomness, so runs with the
same inputs and seed produce byte-identical outputs.

Exit codes: 0 success, 2 usage or configuration error, 3 missing input file,
4 malformed data or artifact, 1 unexpected failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .evaluation import (ChainSpecError, NeuralScorer, answer_question,
                         evaluate_ir, evaluate_mrs, evaluate_rc, parse_chain)
from .model import Hyperparams, weights_from_named
from .retriever import (DEFAULT_BUCKETS, Corpus, CorpusError, IndexFormatError,
                        build_index, load_index, save_index)
from .squad import (DatasetFormatError, check_examples, ingest_dataset, load_examples,
                    save_examples)
from .text import VectorFileError, load_vectors, tokenize
from .training import TrainMode, train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_DATA = 4

CONFIG_KEYS = {"corpus", "dataset", "vectors", "index", "checkpoint", "report",
               "seed", "chain", "k", "tau", "mode", "epochs", "buckets",
               "hyperparams"}

PASSAGES_FILE = "passages.jsonl"
EXAMPLES_FILE = "examples.jsonl"


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    return raw


def _setting(args: argparse.Namespace, config: dict, key: str, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    return config.get(key, default)


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"missing required setting: {what}")
    return value


def _require_file(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _load_corpus_dir(corpus_dir: str) -> Corpus:
    path = Path(corpus_dir) / PASSAGES_FILE
    _require_file(str(path), "passage store")
    return Corpus.load_jsonl(str(path))


# Settings that override a hyperparameter, and the field each one sets.
HYPERPARAM_SETTINGS = {"seed": "seed", "epochs": "epochs", "tau": "vote_temperature"}


def _load_examples(corpus_dir: str, corpus: Corpus) -> list:
    """The examples next to the passage store, checked against its passages."""
    path = str(Path(corpus_dir) / EXAMPLES_FILE)
    examples = load_examples(_require_file(path, "examples file"))
    check_examples(path, examples, corpus)
    return examples


def _hyperparams(config: dict, args: argparse.Namespace, base: dict,
                 keys) -> Hyperparams:
    """`base` with the settings named in `keys` folded in, checked by Hyperparams.from_dict."""
    raw = dict(base)
    for key in keys:
        value = _setting(args, config, key)
        if value is not None:
            raw[HYPERPARAM_SETTINGS[key]] = value
    try:
        return Hyperparams.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hyperparameters: {exc}") from None


def _build_scorer(config: dict, args: argparse.Namespace) -> tuple[NeuralScorer, Hyperparams]:
    ckpt_path = _require(_setting(args, config, "checkpoint"), "checkpoint")
    if Path(ckpt_path).is_dir():
        ckpt_path = str(Path(ckpt_path) / "final.ckpt")
    _require_file(ckpt_path, "checkpoint")
    vectors_path = _require(_setting(args, config, "vectors"), "vectors")
    _require_file(vectors_path, "vector file")
    hp, weights, ema = load_checkpoint(ckpt_path)
    table = load_vectors(vectors_path)
    if table.dim != weights.embed_dim:
        raise DatasetFormatError(
            f"vector dimension {table.dim} does not match checkpoint embed_dim "
            f"{weights.embed_dim}")
    hp = _hyperparams(config, args, hp.to_dict(), ("tau",))
    # Inference uses the averaged weights.
    try:
        averaged = weights_from_named(weights.embed_dim, hp.hidden, hp.attn_dim, ema)
    except ValueError as exc:
        raise CheckpointFormatError(f"{ckpt_path}: {exc}") from None
    return NeuralScorer(averaged, hp, table), hp


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
        print(f"wrote report to {path}")


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args, config) -> int:
    dataset = _require(_setting(args, config, "dataset"), "dataset")
    _require_file(dataset, "dataset")
    corpus_dir = Path(_require(_setting(args, config, "corpus"), "corpus"))
    corpus_dir.mkdir(parents=True, exist_ok=True)
    corpus, examples, stats = ingest_dataset(dataset)
    corpus.save_jsonl(str(corpus_dir / PASSAGES_FILE))
    save_examples(str(corpus_dir / EXAMPLES_FILE), examples)
    print(f"articles: {stats.n_articles}")
    print(f"passages: {stats.n_passages}")
    print(f"questions: {stats.n_questions}")
    print(f"examples kept: {stats.n_examples}")
    print(f"answers not on token boundaries: {stats.n_unaligned_answers}")
    print(f"questions skipped: {stats.n_skipped_questions}")
    return EXIT_OK


def cmd_build_index(args, config) -> int:
    corpus_dir = _require(_setting(args, config, "corpus"), "corpus")
    index_path = _require(_setting(args, config, "index"), "index")
    buckets = _setting(args, config, "buckets", DEFAULT_BUCKETS)
    if isinstance(buckets, bool) or not isinstance(buckets, int) or not 1 <= buckets < 2 ** 64:
        raise ConfigError(f"buckets must be an integer in [1, 2**64), got {buckets!r}")
    corpus = _load_corpus_dir(corpus_dir)
    index = build_index(corpus, buckets)
    save_index(index_path, index)
    print(f"indexed {index.n_docs} passages into {len(index.buckets)} buckets "
          f"(space {index.n_buckets})")
    return EXIT_OK


def cmd_train(args, config) -> int:
    corpus_dir = _require(_setting(args, config, "corpus"), "corpus")
    vectors_path = _require(_setting(args, config, "vectors"), "vectors")
    index_path = _require(_setting(args, config, "index"), "index")
    out_dir = Path(_require(_setting(args, config, "checkpoint"), "checkpoint"))
    _require_file(vectors_path, "vector file")
    _require_file(index_path, "index")
    corpus = _load_corpus_dir(corpus_dir)
    positives = [ex for ex in _load_examples(corpus_dir, corpus) if ex.relevance == 1]
    table = load_vectors(vectors_path)
    index = load_index(index_path)
    block = config.get("hyperparams") or {}
    if not isinstance(block, dict):
        raise ConfigError("hyperparams must be a JSON object")
    hp = _hyperparams(config, args, block, HYPERPARAM_SETTINGS)
    mode_name = _setting(args, config, "mode", "mtl")
    try:
        mode = TrainMode(mode_name)
    except ValueError:
        raise ConfigError(f"unknown training mode {mode_name!r} (choose from "
                          f"{[m.value for m in TrainMode]})") from None
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train(positives, corpus, index, table, hp, mode,
                   checkpoint_dir=str(out_dir))
    final = out_dir / "final.ckpt"
    save_checkpoint(str(final), hp, result.weights, result.ema)
    for stats in result.history:
        print(f"epoch {stats.epoch}: loss {stats.mean_loss:.4f}")
    print(f"saved final checkpoint to {final}")
    return EXIT_OK


def _eval_common(args, config):
    corpus_dir = _require(_setting(args, config, "corpus"), "corpus")
    corpus = _load_corpus_dir(corpus_dir)
    examples = _load_examples(corpus_dir, corpus)
    scorer, hp = _build_scorer(config, args)
    return corpus, examples, scorer, hp


def cmd_eval_ir(args, config) -> int:
    corpus, examples, scorer, _ = _eval_common(args, config)
    index_path = _require_file(_require(_setting(args, config, "index"), "index"), "index")
    index = load_index(index_path)
    chain = parse_chain(_setting(args, config, "chain", "tfidf:200,neural:5"))
    report = evaluate_ir(examples, chain, index, corpus, scorer)
    agg = report["aggregate"]
    print(f"S@1 {agg['success_at_1']:.4f}  S@5 {agg['success_at_5']:.4f}  "
          f"MRR@5 {agg['mrr_at_5']:.4f}  over {agg['n_queries']} queries")
    _write_report(report, _setting(args, config, "report"))
    return EXIT_OK


def cmd_eval_rc(args, config) -> int:
    corpus, examples, scorer, _ = _eval_common(args, config)
    report = evaluate_rc(examples, corpus, scorer)
    agg = report["aggregate"]
    print(f"EM {agg['em']:.4f}  F1 {agg['f1']:.4f}  over {agg['n_queries']} questions")
    _write_report(report, _setting(args, config, "report"))
    return EXIT_OK


def cmd_eval_mrs(args, config) -> int:
    corpus, examples, scorer, hp = _eval_common(args, config)
    index_path = _require_file(_require(_setting(args, config, "index"), "index"), "index")
    index = load_index(index_path)
    chain = parse_chain(_setting(args, config, "chain", "tfidf:200,neural:5"))
    k = _setting(args, config, "k")
    report = evaluate_mrs(examples, chain, index, corpus, scorer,
                          k=int(k) if k is not None else None,
                          temperature=hp.vote_temperature)
    agg = report["aggregate"]
    print(f"EM {agg['em']:.4f}  F1 {agg['f1']:.4f}  S@1 {agg['success_at_1']:.4f}  "
          f"MRR@5 {agg['mrr_at_5']:.4f}  over {agg['n_queries']} queries")
    _write_report(report, _setting(args, config, "report"))
    return EXIT_OK


def cmd_ask(args, config) -> int:
    corpus_dir = _require(_setting(args, config, "corpus"), "corpus")
    corpus = _load_corpus_dir(corpus_dir)
    index_path = _require_file(_require(_setting(args, config, "index"), "index"), "index")
    index = load_index(index_path)
    scorer, hp = _build_scorer(config, args)
    chain = parse_chain(_setting(args, config, "chain", "tfidf:200,neural:5"))
    question_text = args.question
    if question_text is None:
        question_text = sys.stdin.readline().strip()
    if not question_text:
        raise ConfigError("no question given (use --question or pipe one line)")
    question = tokenize(question_text)
    k = _setting(args, config, "k")
    vote, ranked = answer_question(question, chain, index, corpus, scorer,
                                   k=int(k) if k is not None else None,
                                   temperature=hp.vote_temperature)
    for pos, (pid, score) in enumerate(ranked.entries, start=1):
        snippet = corpus[pid].text
        if len(snippet) > 70:
            snippet = snippet[:67] + "..."
        print(f"{pos}. passage {pid}  relevance {score:.4f}  {snippet}")
    if vote.answer is None:
        print(f"no answer ({vote.warning})")
    else:
        print(f"answer: {vote.answer}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--seed", type=int, help="seed for all randomness")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passageqa",
        description="question answering over a passage corpus")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="dataset JSON -> passage store + examples")
    _add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--corpus", help="output directory")
    p.set_defaults(func=cmd_ingest)

    p = commands.add_parser("build-index", help="passage store -> TF-IDF index")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--index", help="output index file")
    p.add_argument("--buckets", type=int)
    p.set_defaults(func=cmd_build_index)

    p = commands.add_parser("train", help="train the neural reader/ranker")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--vectors")
    p.add_argument("--index")
    p.add_argument("--checkpoint", help="output directory for checkpoints")
    p.add_argument("--mode", choices=[m.value for m in TrainMode])
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train)

    for name, fn, help_text in [
        ("eval-ir", cmd_eval_ir, "retrieval metrics over a chain"),
        ("eval-rc", cmd_eval_rc, "reading metrics on gold passages"),
        ("eval-mrs", cmd_eval_mrs, "end-to-end retrieve-and-read metrics"),
    ]:
        p = commands.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--corpus")
        p.add_argument("--vectors")
        p.add_argument("--index")
        p.add_argument("--checkpoint")
        p.add_argument("--chain")
        p.add_argument("--k", type=int)
        p.add_argument("--tau", type=float)
        p.add_argument("--report", help="write the JSON report here")
        p.set_defaults(func=fn)

    p = commands.add_parser("ask", help="answer one question")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--vectors")
    p.add_argument("--index")
    p.add_argument("--checkpoint")
    p.add_argument("--chain")
    p.add_argument("--k", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--question")
    p.set_defaults(func=cmd_ask)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (ConfigError, ChainSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (DatasetFormatError, VectorFileError, IndexFormatError,
            CheckpointFormatError, CorpusError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
