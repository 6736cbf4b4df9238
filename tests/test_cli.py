"""End-to-end command-line runs on a small generated dataset.

Every test drives cli.main(argv) in process and checks exit codes, printed
summaries, and produced artifacts; the BLAS thread-count test also runs
`python -m passageqa.cli train` in subprocesses.
"""
import argparse
import io
import json
import logging
import math
import os
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from passageqa import cli
from passageqa.checkpoint import load_checkpoint, save_checkpoint
from passageqa.model import ModelWeights
from passageqa.retriever import load_index
from synthtask import SynthTask, build_task, write_files


def run(argv):
    """main() with captured stdout; returns (exit_code, text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass
class Workspace:
    task: SynthTask
    root: object
    dataset: str = ""
    vectors: str = ""
    corpus_dir: str = ""
    index_path: str = ""
    ckpt_dir: str = ""
    train_config: str = ""
    output: dict = field(default_factory=dict)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Ingest, index, and briefly train on an 8-passage corpus."""
    root = tmp_path_factory.mktemp("cli")
    task = build_task(seed=0, n_passages=8, emb_dim=8)
    dataset, vectors = write_files(task, root)
    space = Workspace(task=task, root=root, dataset=dataset, vectors=vectors,
                      corpus_dir=str(root / "corpus"),
                      index_path=str(root / "passages.idx"),
                      ckpt_dir=str(root / "ckpt"))

    code, out = run(["ingest", "--dataset", dataset, "--corpus", space.corpus_dir])
    assert code == 0, out
    space.output["ingest"] = out

    code, out = run(["build-index", "--corpus", space.corpus_dir,
                     "--index", space.index_path])
    assert code == 0, out
    space.output["build-index"] = out

    config = {
        "corpus": space.corpus_dir,
        "vectors": vectors,
        "index": space.index_path,
        "checkpoint": space.ckpt_dir,
        "hyperparams": {"hidden": 4, "attn_dim": 4, "dropout": 0.0,
                        "learning_rate": 0.05, "batch_positives": 10,
                        "batch_negatives": 10, "seed": 11, "epochs": 2},
    }
    space.train_config = str(root / "train.json")
    with open(space.train_config, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    code, out = run(["train", "--config", space.train_config])
    assert code == 0, out
    space.output["train"] = out
    return space


def eval_args(ws, extra):
    """`extra` plus the workspace's inputs; eval-rc reads no index."""
    index = [] if extra[0] == "eval-rc" else ["--index", ws.index_path]
    return extra + ["--corpus", ws.corpus_dir, "--vectors", ws.vectors,
                    "--checkpoint", ws.ckpt_dir] + index


# ---------------------------------------------------------------------------
# BLAS set-up

SRC = Path(cli.__file__).resolve().parents[1]
# The variables OpenBLAS reads its thread count from when it loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_session_runs_on_one_blas_thread():
    """conftest.py pins the session to the program's one OpenBLAS thread, so
    the goldens do not depend on the core count.  First in this file: the
    in-process main() calls below pin it as well."""
    blas = cli.blas_description()
    if blas is None:
        pytest.skip("numpy's OpenBLAS thread calls not found")
    assert blas.endswith(", 1 thread"), f"the session runs OpenBLAS on {blas}"


def test_blas_description_reads_the_thread_count_it_finds():
    """The description the goldens' failure messages print reads the set-up
    as it is: on two threads it says so, where one_blas_thread() would first
    set one."""
    openblas = cli._openblas()
    if openblas is None:
        pytest.skip("numpy's OpenBLAS thread calls not found")
    try:
        openblas["set_num_threads"](2)
        assert cli.blas_description().endswith(", 2 threads")
    finally:
        openblas["set_num_threads"](1)
    assert cli.blas_description().endswith(", 1 thread")


def test_train_bytes_do_not_depend_on_openblas_num_threads(tmp_path):
    """main sets one OpenBLAS thread after numpy has loaded the library, so
    OPENBLAS_NUM_THREADS (unset: the core count) does not decide the
    checkpoint bytes of one stl-rc step at hidden 100, a width whose products
    OpenBLAS threads; train logs the BLAS set-up once."""
    blas = cli.one_blas_thread()
    if blas is None:
        pytest.skip("numpy's OpenBLAS thread calls not found")
    task = build_task(seed=0, n_passages=4)
    dataset, vectors = write_files(task, tmp_path)
    corpus, index = str(tmp_path / "corpus"), str(tmp_path / "passages.idx")
    assert run(["ingest", "--dataset", dataset, "--corpus", corpus])[0] == 0
    assert run(["build-index", "--corpus", corpus, "--index", index])[0] == 0
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    written = {}
    for threads in ("1", "2", None):
        config = tmp_path / f"train-{threads}.json"
        config.write_text(json.dumps({
            "corpus": corpus, "vectors": vectors, "index": index, "mode": "stl-rc",
            "checkpoint": str(tmp_path / f"ckpt-{threads}"),
            "hyperparams": {"hidden": 100, "attn_dim": 100, "epochs": 1, "seed": 3,
                            "batch_positives": len(task.examples), "batch_negatives": 0}}))
        proc = subprocess.run(
            [sys.executable, "-m", "passageqa.cli", "train", "--config", str(config)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads) if threads else env,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("BLAS") == 1, proc.stderr
        assert f"INFO __main__: BLAS: {blas}\n" in proc.stderr, proc.stderr
        written[threads] = (tmp_path / f"ckpt-{threads}" / "final.ckpt").read_bytes()
    assert written["2"] == written["1"], "OPENBLAS_NUM_THREADS=2 moved the checkpoint bytes"
    assert written[None] == written["1"], "an unset OPENBLAS_NUM_THREADS moved the bytes"


@pytest.mark.parametrize("command", ["build-index", "ingest"])
def test_unfound_blas_thread_calls_log_one_warning(ws, tmp_path, monkeypatch, caplog, capsys,
                                                   command):
    """Without numpy's OpenBLAS thread calls main warns once that the thread
    count is not pinned, then runs the command as before: the same exit code
    and output (exit 0, and exit 3 for a missing input), no traceback."""
    argv = {"build-index": ["build-index", "--corpus", ws.corpus_dir,
                            "--index", str(tmp_path / "i.idx")],
            "ingest": ["ingest", "--dataset", str(tmp_path / "missing.json"),
                       "--corpus", str(tmp_path / "corpus")]}[command]
    pinned = run(argv)
    caplog.clear()
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert run(argv) == pinned
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, "numpy's OpenBLAS thread calls not found: the BLAS thread count "
                          "is not pinned, and it may change output bits")]
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# happy paths


def test_ingest_reports_counts(ws):
    out = ws.output["ingest"]
    assert "passages: 8" in out
    assert "questions: 20" in out
    assert "examples kept: 20" in out
    assert "questions skipped: 0" in out
    assert (ws.root / "corpus" / "passages.jsonl").is_file()
    assert (ws.root / "corpus" / "examples.jsonl").is_file()


def test_ingest_is_deterministic(ws, tmp_path):
    code, _ = run(["ingest", "--dataset", ws.dataset, "--corpus", str(tmp_path)])
    assert code == 0
    for name in ("passages.jsonl", "examples.jsonl"):
        assert (tmp_path / name).read_bytes() == \
               (ws.root / "corpus" / name).read_bytes()


def test_build_index_reports_and_round_trips(ws, tmp_path):
    assert "indexed 8 passages" in ws.output["build-index"]
    index = load_index(ws.index_path)
    assert index.n_docs == 8
    again = tmp_path / "again.idx"
    code, _ = run(["build-index", "--corpus", ws.corpus_dir, "--index", str(again)])
    assert code == 0
    assert again.read_bytes() == (ws.root / "passages.idx").read_bytes()


def test_build_index_flag_overrides_config_buckets(ws, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"corpus": ws.corpus_dir, "buckets": 1024}))
    from_config = tmp_path / "a.idx"
    code, _ = run(["build-index", "--config", str(config),
                   "--index", str(from_config)])
    assert code == 0
    assert load_index(str(from_config)).n_buckets == 1024
    from_flag = tmp_path / "b.idx"
    code, _ = run(["build-index", "--config", str(config), "--buckets", "2048",
                   "--index", str(from_flag)])
    assert code == 0
    assert load_index(str(from_flag)).n_buckets == 2048


def test_train_writes_checkpoints_and_loss_lines(ws):
    out = ws.output["train"]
    assert "epoch 1: loss" in out and "epoch 2: loss" in out
    assert (ws.root / "ckpt" / "final.ckpt").is_file()
    assert (ws.root / "ckpt" / "epoch_001.ckpt").is_file()
    assert (ws.root / "ckpt" / "epoch_002.ckpt").is_file()


def test_eval_rc_writes_report(ws, tmp_path):
    report_path = tmp_path / "rc.json"
    code, out = run(eval_args(ws, ["eval-rc", "--report", str(report_path)]))
    assert code == 0
    assert "EM " in out and "F1 " in out
    report = json.loads(report_path.read_text())
    agg = report["aggregate"]
    assert agg["n_queries"] == 20
    assert isinstance(agg["em"], float) and agg["success_at_1"] is None
    assert len(report["queries"]) == 20


def test_eval_ir_writes_report(ws, tmp_path):
    report_path = tmp_path / "ir.json"
    code, out = run(eval_args(ws, ["eval-ir", "--chain", "tfidf:5,neural:2",
                                   "--report", str(report_path)]))
    assert code == 0
    assert "S@1" in out
    agg = json.loads(report_path.read_text())["aggregate"]
    assert agg["em"] is None
    assert 0.0 <= agg["success_at_5"] <= 1.0


def test_eval_mrs_writes_report(ws, tmp_path):
    report_path = tmp_path / "mrs.json"
    code, out = run(eval_args(ws, ["eval-mrs", "--chain", "tfidf:5,neural:2",
                                   "--k", "1", "--report", str(report_path)]))
    assert code == 0
    agg = json.loads(report_path.read_text())["aggregate"]
    assert all(agg[key] is not None for key in agg)
    for row in json.loads(report_path.read_text())["queries"]:
        assert len(row["retrieved"]) <= 2


def test_eval_report_to_stdout_when_no_path(ws):
    code, out = run(eval_args(ws, ["eval-rc"]))
    assert code == 0
    body = out[out.index("{"):]
    assert json.loads(body)["aggregate"]["n_queries"] == 20


def test_ask_prints_rankings_and_answer(ws):
    question = f"Which river runs by {ws.task.cities[0]} ?"
    code, out = run(eval_args(ws, ["ask", "--question", question, "--k", "2",
                                   "--chain", "tfidf:5,neural:2"]))
    assert code == 0
    assert "1. passage" in out
    assert "answer:" in out or "no answer" in out


def test_ask_reads_stdin(ws, monkeypatch):
    question = f"Who is the mayor of the town {ws.task.cities[1]} ?\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(question))
    code, out = run(eval_args(ws, ["ask", "--k", "1"]))
    assert code == 0
    assert "answer:" in out or "no answer" in out


# ---------------------------------------------------------------------------
# failure modes


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_missing_input_file_exits_3(ws, tmp_path):
    code, _ = run(["ingest", "--dataset", str(tmp_path / "nope.json"),
                   "--corpus", str(tmp_path)])
    assert code == 3
    code, _ = run(["build-index", "--corpus", str(tmp_path),
                   "--index", str(tmp_path / "i.idx")])
    assert code == 3  # corpus dir lacks passages.jsonl
    code, _ = run(["build-index", "--config", str(tmp_path)])
    assert code == 3  # a directory is not a config file


def test_each_subcommand_takes_its_flags():
    common = {"-h", "--help", "--config", "--seed"}
    scorer = {"--corpus", "--vectors", "--checkpoint"}
    retrieve = scorer | {"--index", "--chain"}
    expected = {
        "ingest": {"--dataset", "--corpus"},
        "build-index": {"--corpus", "--index", "--buckets"},
        "train": {"--corpus", "--vectors", "--index", "--checkpoint", "--mode",
                  "--epochs"},
        "eval-ir": retrieve | {"--report"},
        "eval-rc": scorer | {"--report"},
        "eval-mrs": retrieve | {"--k", "--tau", "--report"},
        "ask": retrieve | {"--k", "--tau", "--question"},
    }
    [subcommands] = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert set(subcommands.choices) == set(expected)
    for name, parser in subcommands.choices.items():
        flags = {opt for action in parser._actions for opt in action.option_strings}
        assert flags == common | expected[name], name
    # a flag the command would not read is a usage error, not a silent no-op
    for argv in (["eval-ir", "--k", "0"], ["eval-rc", "--index", "i.idx"],
                 ["eval-rc", "--chain", "bogus"], ["eval-rc", "--k", "0"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv


@pytest.mark.parametrize("command, setting, kind", [
    ("eval-ir", "report", "directory"), ("eval-rc", "report", "directory"),
    ("eval-mrs", "report", "directory"), ("build-index", "index", "directory"),
    ("train", "checkpoint", "file"), ("ingest", "corpus", "file"),
    ("eval-ir", "report", "missing"), ("eval-rc", "report", "missing"),
    ("eval-mrs", "report", "missing"), ("build-index", "index", "missing"),
    ("ingest", "corpus", "below a file"), ("train", "checkpoint", "below a file"),
    ("eval-mrs", "report", "below a file"), ("build-index", "index", "below a file")])
def test_output_setting_naming_the_wrong_kind_exits_2(ws, tmp_path, capsys, command,
                                                      setting, kind):
    """A file output that names a directory, a directory output that names a
    file, a file output in a missing directory, or any output below a file,
    is refused before the command does any work."""
    target = tmp_path / "out"
    if kind == "directory":
        target.mkdir()
    elif kind == "file":
        target.write_text("keep")
    elif kind == "missing":
        target = tmp_path / "missing" / "out"
    else:
        target.write_text("keep")
        target = target / "sub" / "out"
    inputs = {"ingest": ["--dataset", ws.dataset], "build-index": ["--corpus", ws.corpus_dir],
              "train": ["--config", ws.train_config]}
    argv = ([command] + inputs[command] if command in inputs
            else eval_args(ws, [command]))
    code, out = run(argv + [f"--{setting}", str(target)])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"error: {setting} must name" in err and str(target) in err, err
    assert "Traceback" not in err


def test_missing_required_setting_exits_2(tmp_path):
    code, _ = run(["build-index", "--index", str(tmp_path / "i.idx")])
    assert code == 2


def test_bad_config_exits_2(ws, tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert run(["build-index", "--config", str(bad_json)])[0] == 2

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert run(["build-index", "--config", str(not_object)])[0] == 2

    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"bogus": 1}))
    assert run(["build-index", "--config", str(unknown_key)])[0] == 2

    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"report": "caf\xe9"}')
    assert run(["build-index", "--config", str(not_utf8)])[0] == 2

    # past the 4,300 digits int() converts, json raises a plain ValueError
    huge_int = tmp_path / "huge.json"
    huge_int.write_text('{"k": ' + "1" * 5000 + "}")
    assert run(["build-index", "--config", str(huge_int)])[0] == 2

    train_args = ["--corpus", ws.corpus_dir, "--vectors", ws.vectors,
                  "--index", ws.index_path, "--checkpoint", str(tmp_path / "out")]
    cases = [{"hyperparams": block} for block in (
        {"bogus": 3}, {"vote_temperature": "x"}, {"epochs": "3"}, {"hidden": True},
        {"vote_temperature": 0}, {"seed": -1}, {"epochs": 0}, {"hidden": 0}, {"hidden": -1},
        {"attn_dim": 0}, {"batch_positives": 0}, {"batch_negatives": -1}, {"dropout": 1.0},
        {"ema_decay": 2.0})]
    cases += [{"tau": "x"}, {"epochs": "x"}, {"epochs": -2}, {"seed": "abc"}, {"seed": -1},
              {"hyperparams": [1, 2]}, {"hyperparams": []}]
    argvs = [["train"] + train_args] * len(cases)
    # Every config value is type-checked, also where a flag overrides it or
    # the command does not use it.
    wrong_types = [{"k": "x"}, {"chain": 5}, {"report": 7}, {"corpus": 1}, {"mode": 3},
                   {"buckets": "x"}]
    cases += wrong_types
    argvs += [eval_args(ws, ["eval-mrs"])] * len(wrong_types)
    for config, argv in zip(cases, argvs):
        bad = tmp_path / "bad_settings.json"
        bad.write_text(json.dumps(config))
        code, _ = run(argv + ["--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 2, config
        assert "error:" in err and "Traceback" not in err, (config, err)

    flag_cases = [["train", "--seed", "-1"] + train_args,
                  ["train", "--epochs", "0"] + train_args]
    flag_cases += [eval_args(ws, ["eval-mrs", "--tau", tau]) for tau in ("0", "-1", "nan")]
    flag_cases += [eval_args(ws, command + ["--chain", "tfidf:5,neural:2", "--k", k])
                   for command in (["eval-mrs"], ["ask", "--question", "who ?"])
                   for k in ("0", "-3", "7")]
    flag_cases += [["build-index", "--corpus", ws.corpus_dir, "--index",
                    str(tmp_path / "i.idx"), "--buckets", "0"]]
    for buckets in ("x", 1.5, 0, True):
        bad = tmp_path / "bad_buckets.json"
        bad.write_text(json.dumps({"buckets": buckets}))
        flag_cases.append(["build-index", "--config", str(bad), "--corpus", ws.corpus_dir,
                           "--index", str(tmp_path / "i.idx")])
    for argv in flag_cases:
        code, _ = run(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "error:" in err and "Traceback" not in err, (argv, err)
    assert not (tmp_path / "i.idx").exists()


def test_bad_chain_exits_2(ws):
    code, _ = run(eval_args(ws, ["eval-ir", "--chain", "tfidf"]))
    assert code == 2
    code, _ = run(eval_args(ws, ["eval-ir", "--chain", "tfidf:2,neural:5"]))
    assert code == 2


def test_bad_train_mode_from_config_exits_2(ws, tmp_path):
    config = json.loads((ws.root / "train.json").read_text())
    config["mode"] = "bogus"
    config["checkpoint"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, _ = run(["train", "--config", str(path)])
    assert code == 2


@pytest.mark.parametrize("keep", ["nothing", "negatives"])
def test_nothing_to_train_on_exits_4(ws, tmp_path, capsys, keep):
    """Checked before the vectors are read: this vector file is malformed."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    source = ws.root / "corpus"
    (corpus_dir / "passages.jsonl").write_bytes((source / "passages.jsonl").read_bytes())
    rows = [] if keep == "nothing" else [
        json.dumps(dict(json.loads(line), relevance=0, span=None, answers=[]))
        for line in (source / "examples.jsonl").read_text(encoding="utf-8").splitlines()]
    (corpus_dir / "examples.jsonl").write_text("".join(r + "\n" for r in rows),
                                               encoding="utf-8")
    vectors = tmp_path / "bad.vec"
    vectors.write_text("not a vector file\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _ = run(["train", "--config", ws.train_config, "--corpus", str(corpus_dir),
                   "--vectors", str(vectors), "--checkpoint", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 4
    assert "examples.jsonl: no positive examples to train on" in err, err
    assert "Traceback" not in err and not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_training_run_exits_4(ws, tmp_path, capsys):
    config = json.loads(Path(ws.train_config).read_text(encoding="utf-8"))
    config["hyperparams"]["learning_rate"] = 1e30
    config["checkpoint"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out = run(["train", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert "error: non-finite" in err and "Traceback" not in err, err
    assert "RuntimeWarning" not in err and "saved final checkpoint" not in out


def test_corrupt_index_exits_4(ws, tmp_path, capsys):
    real = (ws.root / "passages.idx").read_bytes()
    cases = {
        "garbage": b"garbage bytes here",
        "zero buckets": real[:8] + struct.pack("<Q", 0) + real[16:],
        "n_docs 99": real[:16] + struct.pack("<Q", 99) + real[24:],
        "trailing bytes": real + b"\x00",
    }
    for what, data in cases.items():
        bad = tmp_path / "bad.idx"
        bad.write_bytes(data)
        code, _ = run(["eval-ir", "--corpus", ws.corpus_dir, "--vectors", ws.vectors,
                       "--index", str(bad), "--checkpoint", ws.ckpt_dir])
        err = capsys.readouterr().err
        assert code == 4, what
        assert "error:" in err and "Traceback" not in err, (what, err)


@pytest.mark.parametrize("command", ["train", "eval-ir", "eval-mrs", "ask"])
def test_index_of_another_corpus_exits_4(ws, tmp_path, capsys, command):
    """The workspace's index against a store whose passage ids are all moved by 100."""
    corpus_dir = tmp_path / "moved"
    corpus_dir.mkdir()
    for name in ("passages.jsonl", "examples.jsonl"):
        rows = [json.loads(line) for line in
                (ws.root / "corpus" / name).read_text(encoding="utf-8").splitlines()]
        (corpus_dir / name).write_text(
            "".join(json.dumps(dict(row, passage_id=row["passage_id"] + 100)) + "\n"
                    for row in rows), encoding="utf-8")
    if command == "train":
        argv = ["train", "--config", ws.train_config, "--checkpoint", str(tmp_path / "out")]
    else:
        argv = [command, "--vectors", ws.vectors, "--index", ws.index_path,
                "--checkpoint", ws.ckpt_dir]
        argv += ["--question", "what is it ?"] if command == "ask" else []
    code, _ = run(argv + ["--corpus", str(corpus_dir)])
    err = capsys.readouterr().err
    assert code == 4
    assert "error:" in err and ws.index_path in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


def with_settings(real: bytes, **changes) -> bytes:
    """Checkpoint bytes with keys of the JSON settings block replaced."""
    (length,) = struct.unpack_from("<I", real, 8)
    settings = json.loads(real[12:12 + length])
    settings.update(changes)
    blob = json.dumps(settings).encode("utf-8")
    return real[:8] + struct.pack("<I", len(blob)) + blob + real[12 + length:]


def with_tensor(real: bytes, name: str, array) -> bytes:
    """Checkpoint bytes with the tensor called `name` replaced by `array`."""
    (length,) = struct.unpack_from("<I", real, 8)
    pos = 12 + length + 4
    while True:
        start = pos
        (name_len,) = struct.unpack_from("<H", real, pos)
        found = real[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        (rank,) = struct.unpack_from("<B", real, pos)
        dims = struct.unpack_from(f"<{rank}I", real, pos + 1)
        pos += 1 + 4 * rank + 4 * math.prod(dims)
        if found == name:
            break
    encoded = name.encode("utf-8")
    tensor = (struct.pack("<H", len(encoded)) + encoded
              + struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape)
              + array.astype("<f4").tobytes())
    return real[:start] + tensor + real[pos:]


def test_corrupt_checkpoint_exits_4(ws, tmp_path, capsys):
    real = (ws.root / "ckpt" / "final.ckpt").read_bytes()
    (length,) = struct.unpack_from("<I", real, 8)
    first_name = 12 + length + 4 + 2       # tensor count, then u16 name length
    (name_len,) = struct.unpack_from("<H", real, first_name - 2)
    first_rank = first_name + name_len
    _, weights, ema = load_checkpoint(str(ws.root / "ckpt" / "final.ckpt"))
    nan_weight = weights.arrays["rel_weight"].copy()
    nan_weight[0] = np.nan
    inf_shadow = ema["sim_weight"].copy()
    inf_shadow[-1] = np.inf
    huge_seed = real[12:11 + length] + b', "seed": ' + b"1" * 5000 + b"}"
    cases = {
        "bad magic": b"XXXX" + real[4:],
        "non-UTF-8 tensor name": (real[:first_name] + b"\xff"
                                  + real[first_name + 1:]),
        "trailing bytes": real + b"junk",
        "string embed_dim": with_settings(real, embed_dim="8"),
        "string hidden": with_settings(real, hidden="4"),
        "negative hidden": with_settings(real, hidden=-1),
        "string vote_temperature": with_settings(real, vote_temperature="x"),
        "string epochs": with_settings(real, epochs="3"),
        "bool hidden": with_settings(real, hidden=True),
        "zero vote_temperature": with_settings(real, vote_temperature=0),
        "zero attn_dim": with_settings(real, attn_dim=0),
        "dropout of 1": with_settings(real, dropout=1.0),
        "ema_decay above 1": with_settings(real, ema_decay=2.0),
        "wrong-shaped EMA shadow": with_tensor(real, "ema/sim_weight", np.zeros(7)),
        "NaN raw weight": with_tensor(real, "rel_weight", nan_weight),
        "inf EMA shadow": with_tensor(real, "ema/sim_weight", inf_shadow),
        "settings integer of 5,000 digits": (real[:8] + struct.pack("<I", len(huge_seed))
                                              + huge_seed + real[12 + length:]),
        "settings not an object": (real[:8] + struct.pack("<I", 2) + b"[]"
                                   + real[12 + length:]),
        # 2**64 items: an int64 product of these dims wraps to zero
        "dims overflow": (real[:first_rank] + struct.pack("<B4I", 4, *[2 ** 16] * 4)
                          + real[first_rank + 1:]),
        # no items, so the size check passes; numpy cannot shape them
        "rank 70 of zero dims": (real[:first_rank] + struct.pack("<B70I", 70, *[0] * 70)
                                 + real[first_rank + 1:]),
        "zero dim times 2**93": (real[:first_rank]
                                 + struct.pack("<B4I", 4, 0, *[2 ** 31] * 3)
                                 + real[first_rank + 1:]),
    }
    for what, data in cases.items():
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data)
        code, _ = run(["eval-rc", "--corpus", ws.corpus_dir, "--vectors", ws.vectors,
                       "--checkpoint", str(bad)])
        err = capsys.readouterr().err
        assert code == 4, what
        assert "error:" in err and "Traceback" not in err, (what, err)


def test_malformed_jsonl_row_exits_4(ws, tmp_path, capsys):
    source = ws.root / "corpus"
    cases = {
        "passages.jsonl": '{"passage_id": 0, "text": "no article id"}',
        "examples.jsonl": json.dumps({"qid": "q", "question": "who ?", "passage_id": 0,
                                      "relevance": 1, "answers": []}),
    }
    for bad_file, row in cases.items():
        corpus_dir = tmp_path / bad_file.split(".")[0]
        corpus_dir.mkdir()
        for name in cases:
            lines = (source / name).read_text(encoding="utf-8")
            if name == bad_file:
                lines += row + "\n"
            (corpus_dir / name).write_text(lines, encoding="utf-8")
        code, _ = run(["eval-rc", "--corpus", str(corpus_dir), "--vectors", ws.vectors,
                       "--checkpoint", ws.ckpt_dir])
        err = capsys.readouterr().err
        assert code == 4, bad_file
        assert f"{bad_file}:" in err and "error:" in err and "Traceback" not in err, err


@pytest.mark.parametrize("command", ["eval-rc", "train"])
@pytest.mark.parametrize("change, message", [
    ({"question": "   "}, "question: no tokens"),
    ({"passage_id": 999}, "no passage 999"),
    ({"span": [500, 600]}, "span (500, 600) outside passage"),
], ids=["blank-question", "unknown-passage", "span-outside-passage"])
def test_example_the_corpus_cannot_serve_exits_4(ws, tmp_path, capsys, command, change,
                                                message):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    source = ws.root / "corpus"
    (corpus_dir / "passages.jsonl").write_bytes((source / "passages.jsonl").read_bytes())
    lines = (source / "examples.jsonl").read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])
    row.update(change)
    lines.append(json.dumps(row))
    (corpus_dir / "examples.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--corpus", str(corpus_dir), "--vectors", ws.vectors]
    if command == "train":
        argv += ["--index", ws.index_path, "--checkpoint", str(tmp_path / "out"),
                 "--config", ws.train_config]
    else:
        argv += ["--checkpoint", ws.ckpt_dir]
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert "error:" in err and message in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


def test_vector_dimension_mismatch_exits_4(ws, tmp_path):
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("2 3\nfoo 0.1 0.2 0.3\nbar 1 2 3\n")
    code, _ = run(["eval-rc", "--corpus", ws.corpus_dir,
                   "--vectors", str(wrong), "--checkpoint", ws.ckpt_dir])
    assert code == 4


def test_non_finite_vector_exits_4(ws, tmp_path, capsys):
    lines = Path(ws.vectors).read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(" ")
    lines[1] = " ".join([fields[0], "nan"] + fields[2:])
    bad = tmp_path / "nan.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _ = run(["eval-rc", "--corpus", ws.corpus_dir,
                   "--vectors", str(bad), "--checkpoint", ws.ckpt_dir])
    err = capsys.readouterr().err
    assert code == 4
    assert "line 2: non-finite" in err and "Traceback" not in err, err


def test_vector_file_short_of_its_header_count_exits_4(ws, tmp_path, capsys):
    lines = Path(ws.vectors).read_text(encoding="utf-8").splitlines()
    cut = tmp_path / "cut.txt"
    cut.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    code, _ = run(["eval-rc", "--corpus", ws.corpus_dir,
                   "--vectors", str(cut), "--checkpoint", ws.ckpt_dir])
    err = capsys.readouterr().err
    assert code == 4
    assert "line 1: header says" in err and "Traceback" not in err, err


@pytest.mark.parametrize("command", ["eval-ir", "eval-rc", "eval-mrs"])
@pytest.mark.parametrize("keep", ["nothing", "negatives"])
def test_nothing_to_evaluate_exits_4(ws, tmp_path, capsys, command, keep):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    source = ws.root / "corpus"
    (corpus_dir / "passages.jsonl").write_bytes((source / "passages.jsonl").read_bytes())
    rows = []
    if keep == "negatives":
        for line in (source / "examples.jsonl").read_text(encoding="utf-8").splitlines():
            rows.append(json.dumps(dict(json.loads(line), relevance=0, span=None,
                                        answers=[])))
    (corpus_dir / "examples.jsonl").write_text("".join(r + "\n" for r in rows),
                                               encoding="utf-8")
    argv = eval_args(ws, [command])
    argv[argv.index("--corpus") + 1] = str(corpus_dir)
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert "error:" in err and "to evaluate" in err and "Traceback" not in err, err


def test_lone_surrogate_in_passage_text_exits_4(ws, tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "passages.jsonl").write_text(
        '{"passage_id": 0, "article_id": 0, "text": "a \\ud800 b"}\n', encoding="utf-8")
    code, _ = run(["build-index", "--corpus", str(corpus_dir),
                   "--index", str(tmp_path / "out.idx")])
    err = capsys.readouterr().err
    assert code == 4
    assert "passages.jsonl:1: passage 0 text is not encodable as UTF-8" in err, err
    assert "Traceback" not in err and not (tmp_path / "out.idx").exists()


def test_lone_surrogate_in_question_exits_2(ws, capsys):
    # a non-UTF-8 byte in argv decodes to a lone surrogate
    code, _ = run(eval_args(ws, ["ask", "--question", "where is \udcff ?"]))
    err = capsys.readouterr().err
    assert code == 2
    assert "question text is not encodable as UTF-8" in err and "Traceback" not in err, err


def test_ask_with_overflowing_weights_exits_4(ws, tmp_path, capsys):
    """Every weight times 1e38 is finite in float32 but overflows the forward pass."""
    hp, weights, ema = load_checkpoint(str(ws.root / "ckpt" / "final.ckpt"))
    huge = {name: arr * np.float32(1e38) for name, arr in ema.items()}
    path = str(tmp_path / "huge.ckpt")
    save_checkpoint(path, hp, ModelWeights(weights.embed_dim, weights.hidden,
                                           weights.attn_dim, huge), huge)
    argv = eval_args(ws, ["ask", "--question", f"Which river runs by {ws.task.cities[0]} ?"])
    argv[argv.index("--checkpoint") + 1] = path
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert "non-finite relevance or span probability" in err and "Traceback" not in err, err
    assert "RuntimeWarning" not in err and "answer:" not in out


def test_ask_without_question_exits_2(ws, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
    code, _ = run(eval_args(ws, ["ask"]))
    assert code == 2


@pytest.mark.parametrize("chain", [None, "neural:3"])
@pytest.mark.parametrize("question", [" ", "\t"])
def test_ask_with_a_question_of_no_tokens_exits_2(ws, capsys, question, chain):
    argv = ["ask", "--question", question] + (["--chain", chain] if chain else [])
    code, out = run(eval_args(ws, argv))
    err = capsys.readouterr().err
    assert code == 2
    assert "error: no question given" in err and "Traceback" not in err, err
    assert "answer" not in out


# ---------------------------------------------------------------------------
# generated argv

DOCUMENTED_EXITS = {0, 2, 3, 4}
# (command, setting) pairs the command writes; every other path setting is read
OUTPUTS = {("ingest", "corpus"), ("build-index", "index"), ("train", "checkpoint"),
           ("eval-ir", "report"), ("eval-rc", "report"), ("eval-mrs", "report")}
TEXT_VALUES = ["", "0", "1", "-1", "2", "1.5", "nan", "inf", "1e400", "x", "--k", "tfidf:2",
               "tfidf:200,neural:5", "neural:3", "tfidf:0", "tfidf:3,neural:9", "bogus:1",
               "mtl", "stl-ir", "stl-rc", "18446744073709551616", " ", "\ud800"]
# values that keep a drawn training run short
EPOCH_VALUES = ["", "0", "1", "-1", "2", "1.5", "x"]
JSON_VALUES = [None, True, 0, 2, -2, 1.5, float("nan"), "x", "tfidf:2,neural:1", [], {}]


def _scratch_paths(scratch: Path) -> list[str]:
    """Output candidates in `scratch`: a file, a directory, a new path, a path
    in a missing directory and one below a file."""
    (scratch / "afile").write_text("keep")
    (scratch / "adir").mkdir()
    return [str(scratch / name) for name in
            ("afile", "adir", "new", "nodir/out", "afile/sub/out")]


def _draw_config(data, command, path_values, outputs) -> dict:
    """Drawn settings; a train config always holds small hyperparameters."""
    config = {}
    for key in data.draw(st.lists(st.sampled_from(sorted(cli.SETTINGS) + ["unknown"]),
                                  max_size=5, unique=True)):
        if (command, key) in OUTPUTS:
            pool = outputs
        elif key in ("corpus", "vectors", "index", "checkpoint", "dataset"):
            pool = path_values + JSON_VALUES
        else:
            pool = JSON_VALUES
        config[key] = data.draw(st.sampled_from(pool))
    if command == "train":
        config["hyperparams"] = {"hidden": 4, "attn_dim": 4, "epochs": 1,
                                 "batch_positives": 10, "batch_negatives": 10}
        config["hyperparams"].update(data.draw(st.dictionaries(
            st.sampled_from(["dropout", "learning_rate", "seed", "ir_weight", "bogus"]),
            st.sampled_from(JSON_VALUES), max_size=2)))
    return config


def _base_argv(ws, command: str, outputs: list[str]) -> dict:
    """The flags of a run of `command` that succeeds on the workspace."""
    scorer = {"corpus": ws.corpus_dir, "vectors": ws.vectors, "checkpoint": ws.ckpt_dir}
    return {"ingest": {"dataset": ws.dataset, "corpus": outputs[2]},
            "build-index": {"corpus": ws.corpus_dir, "index": outputs[2]},
            "train": dict(scorer, index=ws.index_path, checkpoint=outputs[2]),
            "eval-ir": dict(scorer, index=ws.index_path, report=outputs[2]),
            "eval-rc": scorer,
            "eval-mrs": dict(scorer, index=ws.index_path),
            "ask": dict(scorer, index=ws.index_path, question="Which river runs by it ?"),
            }.get(command, {})


def _draw_argv(data, ws, scratch: Path) -> list[str]:
    """A run that succeeds on the workspace, with up to four drawn edits: a
    flag dropped, or set (now and then one the command does not take) to a
    value drawn from the workspace's files, outputs in `scratch` and odd
    text; maybe a drawn config file or another file as config; now and then
    no command or an unknown one.  A command's outputs go to `scratch` only:
    the workspace is never written."""
    outputs = _scratch_paths(scratch)
    path_values = [ws.corpus_dir, ws.vectors, ws.index_path, ws.ckpt_dir,
                   str(Path(ws.ckpt_dir) / "final.ckpt"), ws.dataset] + outputs
    command = data.draw(st.sampled_from(sorted(cli.COMMANDS) * 3 + ["", "nope", "--help"]))
    every_flag = sorted({flag for spec in cli.COMMANDS.values() for flag in spec[2]}
                        | {"seed", "unknown"})
    takes = ["seed", *cli.COMMANDS[command][2]] if command in cli.COMMANDS else every_flag
    flags = _base_argv(ws, command, outputs)
    for _ in range(data.draw(st.integers(0, 4))):
        flag = data.draw(st.sampled_from(takes) | st.sampled_from(every_flag))
        if data.draw(st.integers(0, 3)) == 0:
            flags.pop(flag, None)
        elif flag == "question":
            flags[flag] = data.draw(st.sampled_from(TEXT_VALUES) | st.text(max_size=12))
        elif flag == "epochs":
            flags[flag] = data.draw(st.sampled_from(EPOCH_VALUES))
        elif flag in ("seed", "buckets", "k", "tau", "chain", "mode", "unknown"):
            flags[flag] = data.draw(st.sampled_from(TEXT_VALUES))
        elif (command, flag) in OUTPUTS:
            flags[flag] = data.draw(st.sampled_from(outputs))
        else:
            flags[flag] = data.draw(st.sampled_from(path_values + TEXT_VALUES))
    argv = [command] if command else []
    for flag, value in flags.items():
        argv += [f"--{flag}", value]
    config = data.draw(st.sampled_from(["drawn", "none", "other"]))
    if config == "other":       # no file of these is a config this program takes
        argv += ["--config", data.draw(st.sampled_from(path_values + TEXT_VALUES))]
    elif command == "train" or config == "drawn":
        path = scratch / "config.json"
        path.write_text(json.dumps(_draw_config(data, command, path_values, outputs)))
        argv += ["--config", str(path)]
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_generated_argv_exits_with_a_documented_code(ws, data):
    """Whatever the argv, main returns or exits with a documented code; a
    failure prints one `error:` line and no traceback."""
    with tempfile.TemporaryDirectory(dir=ws.root) as tmp:
        argv = _draw_argv(data, ws, Path(tmp))
        stdin = data.draw(st.sampled_from(["", "\n", " \n", "Which river runs by it ?\n"]))
        out, err = io.StringIO(), io.StringIO()
        saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:       # argparse: usage errors and --help
                    code = exc.code
        finally:
            sys.stdin = saved_stdin
    err = err.getvalue()
    assert code in DOCUMENTED_EXITS, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == (code != 0), (argv, code, err)
