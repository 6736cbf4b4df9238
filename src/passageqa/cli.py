"""Command-line entry points.

Commands: ingest, build-index, train, eval-ir, eval-rc, eval-mrs, ask.
`SETTINGS` is the one listing of the settings: each has a type, a default
and a help text, and may be given as a flag or as a key of an optional JSON
config file (--config); a flag overrides the config value, which overrides
the default.  Every config value is type-checked before any command runs,
whichever command it is.  One seed drives every source of randomness, so
runs with the same inputs and seed produce byte-identical outputs on one
BLAS kernel.

numpy's OpenBLAS rounds a large float32 product by its thread count and its
kernel.  `main` sets it to one thread, whatever OPENBLAS_NUM_THREADS says,
and warns when it cannot; the second core is autodiff's helper thread's
(a paper-width training step took 331 ms on one BLAS thread and 393 ms on
two, on a 2-core x86-64 host).  The kernel is chosen for the CPU, so another
CPU may still give other checkpoint bytes and move scores by an ulp; the
tests' goldens hold on SkylakeX, and `train` logs the kernel it runs on.
`blas_description` reads the set-up without changing it.

Exit codes: 0 success, 2 usage or configuration error, 3 missing input file,
4 malformed data or artifact (also a checkpoint whose outputs are not finite,
an index built from another passage store, no positive example to train on,
or a training run whose loss or gradient stops being finite), 1 unexpected
failure.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint, save_checkpoint
from .evaluation import (ChainSpecError, EvaluationError, NeuralScorer,
                         answer_question, evaluate_ir, evaluate_mrs, evaluate_rc,
                         parse_chain)
from .model import Hyperparams, weights_from_named
from .retriever import (DEFAULT_BUCKETS, Corpus, CorpusError, IndexFormatError,
                        TfIdfIndex, build_index, load_index, save_index)
from .squad import (DatasetFormatError, check_examples, ingest_dataset, load_examples,
                    save_examples)
from .text import VectorFileError, load_vectors, tokenize, utf8_encodable
from .training import OptimizerError, TrainMode, train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_DATA = 4

PASSAGES_FILE = "passages.jsonl"
EXAMPLES_FILE = "examples.jsonl"


@dataclass(frozen=True)
class Setting:
    kind: type                  # str, int, float (an int is accepted) or dict
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    hyperparam: str | None = None   # the Hyperparams field the setting overrides


SETTINGS = {
    "corpus": Setting(str, help="passage store directory (ingest writes it)"),
    "dataset": Setting(str, help="SQuAD-style dataset JSON"),
    "vectors": Setting(str, help="word vector text file"),
    "index": Setting(str, help="TF-IDF index file (build-index writes it)"),
    "checkpoint": Setting(str, help="checkpoint file or directory (train writes the "
                                    "directory)"),
    "report": Setting(str, help="write the JSON report here"),
    "seed": Setting(int, help="seed for all randomness", hyperparam="seed"),
    "chain": Setting(str, "tfidf:200,neural:5", help="ranker chain, kind:cut,..."),
    "k": Setting(int, help="passages read and voted on (default: the last cut)"),
    "tau": Setting(float, help="vote temperature", hyperparam="vote_temperature"),
    "mode": Setting(str, "mtl", help="training mode",
                    choices=tuple(m.value for m in TrainMode)),
    "epochs": Setting(int, help="training epochs", hyperparam="epochs"),
    "buckets": Setting(int, DEFAULT_BUCKETS, help="hash space of the index"),
    "hyperparams": Setting(dict, {}),   # config only
}

CONFIG_KEYS = frozenset(SETTINGS)


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(_require_file(path, "config file"), encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:   # also an integer beyond int()'s digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    return raw


def resolve_settings(args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """`args` with each setting's flag, else config value, else default.

    Flag and config values alike, also one a flag overrides, must have the
    setting's type (bool is not an int; an int is accepted for a float) and
    be one of its choices, if any; null counts as not given.  Raises
    ConfigError otherwise.
    """
    resolved = argparse.Namespace(**vars(args))
    for name, setting in SETTINGS.items():
        given = [v for v in (getattr(args, name, None), config.get(name)) if v is not None]
        allowed = (int, float) if setting.kind is float else setting.kind
        for value in given:
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(f"{name} must be {setting.kind.__name__}, got {value!r}")
            if setting.choices and value not in setting.choices:
                raise ConfigError(f"{name} must be one of {list(setting.choices)}, "
                                  f"got {value!r}")
        setattr(resolved, name, given[0] if given else setting.default)
    return resolved


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"missing required setting: {what}")
    return value


def _require_file(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _check_output(path: str | Path | None, setting: str, directory: bool) -> None:
    """Refuse an output setting that names a path below a file, a directory
    where the command writes a file, a file where it writes a directory, or a
    file in a directory that does not exist, before any work is done."""
    if path is None:
        return
    path = Path(path)
    for ancestor in path.parents:
        if ancestor.exists() and not ancestor.is_dir():
            raise ConfigError(f"{setting} must name a path below directories only, "
                              f"but {path} lies below the file {ancestor}")
    if path.exists() and path.is_dir() != directory:
        want, found = ("a directory", "a file") if directory else ("a file", "a directory")
        raise ConfigError(f"{setting} must name {want}, but {path} is {found}")
    if not directory and not path.parent.is_dir():
        raise ConfigError(f"{setting} must name a file in an existing directory, "
                          f"but {path} is not in one")


def _load_corpus_dir(corpus_dir: str) -> Corpus:
    path = Path(corpus_dir) / PASSAGES_FILE
    _require_file(str(path), "passage store")
    return Corpus.load_jsonl(str(path))


def _load_examples(corpus_dir: str, corpus: Corpus) -> list:
    """The examples next to the passage store, checked against its passages."""
    path = str(Path(corpus_dir) / EXAMPLES_FILE)
    examples = load_examples(_require_file(path, "examples file"))
    check_examples(path, examples, corpus)
    return examples


def _hyperparams(s: argparse.Namespace, base: dict, names) -> Hyperparams:
    """`base` with the settings named in `names` folded in, checked by Hyperparams.from_dict."""
    raw = dict(base)
    for name in names:
        if getattr(s, name) is not None:
            raw[SETTINGS[name].hyperparam] = getattr(s, name)
    try:
        return Hyperparams.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad hyperparameters: {exc}") from None


def _build_scorer(s: argparse.Namespace) -> NeuralScorer:
    ckpt_path = _require(s.checkpoint, "checkpoint")
    if Path(ckpt_path).is_dir():
        ckpt_path = str(Path(ckpt_path) / "final.ckpt")
    _require_file(ckpt_path, "checkpoint")
    vectors_path = _require(s.vectors, "vectors")
    _require_file(vectors_path, "vector file")
    hp, weights, ema = load_checkpoint(ckpt_path)
    table = load_vectors(vectors_path)
    if table.dim != weights.embed_dim:
        raise DatasetFormatError(
            f"vector dimension {table.dim} does not match checkpoint embed_dim "
            f"{weights.embed_dim}")
    hp = _hyperparams(s, hp.to_dict(), ("tau",))
    # Inference uses the averaged weights.
    return NeuralScorer(weights_from_named(weights.embed_dim, hp.hidden, hp.attn_dim, ema),
                        hp, table)


def _load_index(s: argparse.Namespace, corpus: Corpus) -> TfIdfIndex:
    """The index file, which must index exactly the corpus's passages."""
    path = _require_file(_require(s.index, "index"), "index")
    index = load_index(path)
    if index.pids.tolist() != sorted(rec.passage_id for rec in corpus):
        raise IndexFormatError(f"{path}: indexes other passages than the passage store "
                               f"holds; rebuild it with build-index")
    return index


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
        print(f"wrote report to {path}")


@functools.cache
def _openblas() -> dict | None:
    """The thread and kernel calls of numpy's bundled OpenBLAS, typed and keyed
    by name, or None when no such library or call is found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        try:
            return {name: ctypes.CFUNCTYPE(*types)((f"scipy_openblas_{name}64_", lib))
                    for name, types in (("set_num_threads", (None, ctypes.c_int)),
                                        ("get_num_threads", (ctypes.c_int,)),
                                        ("get_corename", (ctypes.c_char_p,)))}
        except AttributeError:
            continue
    return None


def blas_description() -> str | None:
    """numpy's OpenBLAS set-up as "<kernel>, <n> thread(s)", read without
    changing it, or None when its calls are not found."""
    openblas = _openblas()
    if openblas is None:
        return None
    threads = openblas["get_num_threads"]()
    kernel = openblas["get_corename"]().decode()
    return f"{kernel}, {threads} thread{'' if threads == 1 else 's'}"


def one_blas_thread() -> str | None:
    """Set numpy's OpenBLAS to one thread, which OPENBLAS_NUM_THREADS cannot
    do once numpy has loaded it; returns the `blas_description` then, or None
    when its thread calls are not found."""
    openblas = _openblas()
    if openblas is None:
        return None
    openblas["set_num_threads"](1)
    return blas_description()


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(s) -> int:
    dataset = _require_file(_require(s.dataset, "dataset"), "dataset")
    corpus_dir = Path(_require(s.corpus, "corpus"))
    _check_output(corpus_dir, "corpus", directory=True)
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


def cmd_build_index(s) -> int:
    corpus_dir = _require(s.corpus, "corpus")
    index_path = _require(s.index, "index")
    _check_output(index_path, "index", directory=False)
    if not 1 <= s.buckets < 2 ** 64:
        raise ConfigError(f"buckets must be an integer in [1, 2**64), got {s.buckets!r}")
    corpus = _load_corpus_dir(corpus_dir)
    index = build_index(corpus, s.buckets)
    save_index(index_path, index)
    print(f"indexed {index.n_docs} passages into {len(index.buckets)} buckets "
          f"(space {index.n_buckets})")
    return EXIT_OK


def cmd_train(s) -> int:
    corpus_dir = _require(s.corpus, "corpus")
    vectors_path = _require(s.vectors, "vectors")
    out_dir = Path(_require(s.checkpoint, "checkpoint"))
    _check_output(out_dir, "checkpoint", directory=True)
    _require_file(vectors_path, "vector file")
    corpus = _load_corpus_dir(corpus_dir)
    index = _load_index(s, corpus)
    positives = [ex for ex in _load_examples(corpus_dir, corpus) if ex.relevance == 1]
    if not positives:
        raise DatasetFormatError(
            f"{Path(corpus_dir) / EXAMPLES_FILE}: no positive examples to train on")
    table = load_vectors(vectors_path)
    hp = _hyperparams(s, s.hyperparams,
                      [name for name, setting in SETTINGS.items() if setting.hyperparam])
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train(positives, corpus, index, table, hp, TrainMode(s.mode),
                   checkpoint_dir=str(out_dir))
    final = out_dir / "final.ckpt"
    save_checkpoint(str(final), hp, result.weights, result.ema)
    for stats in result.history:
        print(f"epoch {stats.epoch}: loss {stats.mean_loss:.4f}")
    print(f"saved final checkpoint to {final}")
    return EXIT_OK


def _eval_common(s):
    _check_output(s.report, "report", directory=False)
    corpus_dir = _require(s.corpus, "corpus")
    corpus = _load_corpus_dir(corpus_dir)
    examples = _load_examples(corpus_dir, corpus)
    return corpus, examples, _build_scorer(s)


def cmd_eval_ir(s) -> int:
    corpus, examples, scorer = _eval_common(s)
    index = _load_index(s, corpus)
    report = evaluate_ir(examples, parse_chain(s.chain), index, corpus, scorer)
    agg = report["aggregate"]
    print(f"S@1 {agg['success_at_1']:.4f}  S@5 {agg['success_at_5']:.4f}  "
          f"MRR@5 {agg['mrr_at_5']:.4f}  over {agg['n_queries']} queries")
    _write_report(report, s.report)
    return EXIT_OK


def cmd_eval_rc(s) -> int:
    corpus, examples, scorer = _eval_common(s)
    report = evaluate_rc(examples, corpus, scorer)
    agg = report["aggregate"]
    print(f"EM {agg['em']:.4f}  F1 {agg['f1']:.4f}  over {agg['n_queries']} questions")
    _write_report(report, s.report)
    return EXIT_OK


def cmd_eval_mrs(s) -> int:
    corpus, examples, scorer = _eval_common(s)
    index = _load_index(s, corpus)
    chain = parse_chain(s.chain, final_k=s.k)
    report = evaluate_mrs(examples, chain, index, corpus, scorer)
    agg = report["aggregate"]
    print(f"EM {agg['em']:.4f}  F1 {agg['f1']:.4f}  S@1 {agg['success_at_1']:.4f}  "
          f"MRR@5 {agg['mrr_at_5']:.4f}  over {agg['n_queries']} queries")
    _write_report(report, s.report)
    return EXIT_OK


def cmd_ask(s) -> int:
    corpus = _load_corpus_dir(_require(s.corpus, "corpus"))
    index = _load_index(s, corpus)
    scorer = _build_scorer(s)
    chain = parse_chain(s.chain, final_k=s.k)
    question_text = s.question
    if question_text is None:
        question_text = sys.stdin.readline().strip()
    if not utf8_encodable(question_text):
        raise ConfigError("question text is not encodable as UTF-8")
    question = tokenize(question_text)
    if len(question) == 0:
        raise ConfigError("no question given (use --question or pipe one line with a word in it)")
    vote, ranked = answer_question(question, chain, index, corpus, scorer)
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

# name -> (handler, help, flags besides --config and --seed); a flag is a
# setting's name, except --question.  A command takes only the flags it reads.
COMMANDS = {
    "ingest": (cmd_ingest, "dataset JSON -> passage store + examples", ("dataset", "corpus")),
    "build-index": (cmd_build_index, "passage store -> TF-IDF index",
                    ("corpus", "index", "buckets")),
    "train": (cmd_train, "train the neural reader/ranker",
              ("corpus", "vectors", "index", "checkpoint", "mode", "epochs")),
    "eval-ir": (cmd_eval_ir, "retrieval metrics over a chain",
                ("corpus", "vectors", "index", "checkpoint", "chain", "report")),
    "eval-rc": (cmd_eval_rc, "reading metrics on gold passages",
                ("corpus", "vectors", "checkpoint", "report")),
    "eval-mrs": (cmd_eval_mrs, "end-to-end retrieve-and-read metrics",
                 ("corpus", "vectors", "index", "checkpoint", "chain", "k", "tau", "report")),
    "ask": (cmd_ask, "answer one question",
            ("corpus", "vectors", "index", "checkpoint", "chain", "k", "tau", "question")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passageqa",
        description="question answering over a passage corpus")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        p = commands.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for flag in ("seed",) + flags:
            if flag == "question":
                p.add_argument("--question", help="the question (default: one line of stdin)")
            else:
                setting = SETTINGS[flag]
                p.add_argument(f"--{flag}", type=setting.kind, choices=setting.choices,
                               help=setting.help)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    blas = one_blas_thread()
    if blas is None:
        logger.warning("numpy's OpenBLAS thread calls not found: the BLAS thread "
                       "count is not pinned, and it may change output bits")
    elif args.command == "train":    # its checkpoint bytes depend on the kernel
        logger.info("BLAS: %s", blas)
    try:
        return args.func(resolve_settings(args, load_config(args.config)))
    except (ConfigError, ChainSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (DatasetFormatError, VectorFileError, IndexFormatError,
            CheckpointFormatError, CorpusError, EvaluationError, OptimizerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
