"""Spans and counts recorded by wrapping passageqa's public functions.

The wrappers are installed from outside the package: each traced function is
replaced at every module binding its callers look it up through (a name
imported with ``from .model import forward_batch`` is a separate binding in
the importing module).  Nothing is installed unless a traced run asks for it,
and ``uninstall`` puts every original object back.

Spans live in memory with parent links and are written out at the end.  The
benchmark opens one root span per operation (an ask, a training step) or per
set-up phase; every wrapped call made inside it becomes a child span.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable


def _count_graph_nodes(root) -> int:
    """Distinct autodiff nodes reachable from `root` through Node.parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _passages_arg(args, kwargs):
    return kwargs["records"] if "records" in kwargs else args[2]


def _count_passages(counts, args, kwargs, result):
    counts["evaluation.passages_scored"] += len(_passages_arg(args, kwargs))


def _count_positions(counts, args, kwargs, result):
    mask = result.passage_mask
    counts["model.positions"] += int(mask.size)
    counts["model.real_positions"] += int(mask.sum())


def _count_graph(counts, args, kwargs, result):
    counts["autodiff.graph_nodes"] += _count_graph_nodes(result)


def _count_negative(counts, args, kwargs, result):
    counts["training.negatives"] += result is not None


@dataclass(frozen=True)
class Target:
    """One traced function: its metric name and every binding to replace."""

    name: str
    bindings: tuple[str, ...]      # "module:attribute[.attribute]"
    per_op: bool = True            # report .ms/.calls per operation
    setup: bool = False            # report .s per set-up phase
    self_time: bool = False        # also report .self_ms
    count: Callable | None = None  # hook(counts, args, kwargs, result)


TARGETS: tuple[Target, ...] = (
    Target("evaluation.telescope", ("evaluation:telescope",), self_time=True),
    Target("evaluation.NeuralScorer.relevance_scores",
           ("evaluation:NeuralScorer.relevance_scores",), self_time=True,
           count=_count_passages),
    Target("evaluation.NeuralScorer.read_candidates",
           ("evaluation:NeuralScorer.read_candidates",), self_time=True,
           count=_count_passages),
    Target("evaluation.vote_answers", ("evaluation:vote_answers",)),
    Target("model.forward_batch", ("model:forward_batch", "evaluation:forward_batch",
                                   "training:forward_batch"), self_time=True),
    Target("model.attention_flow", ("model:attention_flow",)),
    Target("model.encode_batch", ("model:encode_batch", "evaluation:encode_batch",
                                  "training:encode_batch"), count=_count_positions),
    Target("layers.bilstm_encode", ("layers:bilstm_encode", "model:bilstm_encode")),
    Target("layers.highway_forward", ("layers:highway_forward", "model:highway_forward")),
    Target("autodiff.backward", ("autodiff:backward",)),
    Target("training.make_negative", ("training:make_negative",), self_time=True,
           count=_count_negative),
    Target("training.graph_loss", ("training:graph_loss",), count=_count_graph),
    Target("training.sgd_momentum_step", ("training:sgd_momentum_step",)),
    Target("training.ema_update", ("training:ema_update",)),
    Target("retriever.similar_passages", ("retriever:similar_passages",
                                          "training:similar_passages")),
    Target("retriever.top_k", ("retriever:top_k", "evaluation:top_k")),
    Target("retriever.build_index", ("retriever:build_index",), per_op=False, setup=True),
    Target("retriever.save_index", ("retriever:save_index",), per_op=False, setup=True),
    Target("retriever.load_index", ("retriever:load_index",), per_op=False, setup=True),
    Target("text.tokenize", ("text:tokenize", "retriever:tokenize", "squad:tokenize"),
           setup=True),
    Target("text.load_vectors", ("text:load_vectors",), per_op=False, setup=True),
    Target("checkpoint.load_checkpoint", ("checkpoint:load_checkpoint",),
           per_op=False, setup=True),
    Target("checkpoint.save_checkpoint", ("checkpoint:save_checkpoint",
                                          "training:save_checkpoint")),
    Target("squad.load_examples", ("squad:load_examples",), per_op=False, setup=True),
)

COUNT_NAMES = ("evaluation.passages_scored", "model.positions", "model.real_positions",
               "autodiff.graph_nodes", "training.negatives")
# Reported count -> the traced function whose results it is read from.
COUNT_SOURCES = {"evaluation.passages_scored": "evaluation.NeuralScorer.relevance_scores",
                 "model.positions": "model.encode_batch",
                 "autodiff.graph_nodes": "training.graph_loss",
                 "training.negatives": "training.make_negative"}


@dataclass
class Op:
    """Root span: one operation or one set-up phase."""

    kind: str
    start: float
    end: float = 0.0
    traced: bool = False
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNT_NAMES, 0))


class Tracer:
    """Installs wrappers on demand and keeps every span in memory."""

    def __init__(self):
        self.ops: list[Op] = []
        # span rows: [name, parent span index or -1, op index, start, end]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._current = [-1]          # index of the open root span, -1 if none
        self._saved: list[tuple[object, str, object]] = []

    # -- operations ---------------------------------------------------------

    def begin(self, kind: str) -> Op:
        op = Op(kind, time.perf_counter(), traced=self.installed)
        self.ops.append(op)
        self._current[0] = len(self.ops) - 1
        return op

    def end(self) -> Op:
        op = self.ops[-1]
        op.end = time.perf_counter()
        self._current[0] = -1
        return op

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # -- wrapping -----------------------------------------------------------

    def _resolve(self, binding: str):
        module_name, _, path = binding.partition(":")
        owner = importlib.import_module(f"passageqa.{module_name}")
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def _wrap(self, target: Target, original):
        spans, stack, ops, current = self.spans, self._stack, self.ops, self._current
        name, hook = target.name, target.count
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = [name, stack[-1] if stack else -1, current[0], clock(), 0.0]
            spans.append(row)
            stack.append(len(spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                row[4] = clock()
                stack.pop()
            if hook is not None and row[2] >= 0:
                hook(ops[row[2]].counts, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every binding of every target; warn about missing names."""
        if self.installed:
            return
        self.missing = []
        for target in TARGETS:
            found = False
            for binding in target.bindings:
                try:
                    owner, attr = self._resolve(binding)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                found = True
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(target, original))
            if not found:
                self.missing.append(target.name)
                print(f"warning: traced name {target.name} not found; its metrics "
                      f"are reported as absent", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- reporting ----------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON object per root operation and per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, op in enumerate(self.ops):
                fh.write(json.dumps({"op": i, "kind": op.kind, "start": op.start,
                                     "end": op.end, "traced": op.traced,
                                     "counts": op.counts}) + "\n")
            for i, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "parent": parent,
                                     "op": op, "start": start, "end": end}) + "\n")

    def _per_op(self, ops: list[int]):
        """Per op index: {name: [inclusive s, self s, calls]} over outermost spans."""
        wanted = set(ops)
        table = {i: {} for i in ops}
        children: dict[int, float] = {}
        for name, parent, op, start, end in self.spans:
            if op in wanted and parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)
        for idx, (name, parent, op, start, end) in enumerate(self.spans):
            if op not in wanted:
                continue
            nested = False
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][1]
            cell = table[op].setdefault(name, [0.0, 0.0, 0])
            cell[2] += 1
            if not nested:
                cell[0] += end - start
            cell[1] += (end - start) - children.get(idx, 0.0)
        return table

    def layer_metrics(self, op_kind: str, count_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for traced ops of `op_kind` and the set-up phases.

        Times are medians over traced operations; calls and counts are means
        over the first `count_ops` traced operations, which are the same
        inputs on every run with the same seed.
        """
        traced = [i for i, op in enumerate(self.ops) if op.kind == op_kind and op.traced]
        setup = [i for i, op in enumerate(self.ops) if op.kind == "setup" and op.traced]
        build = [i for i, op in enumerate(self.ops) if op.kind == "build" and op.traced]
        counted = traced[:count_ops]
        per_op = self._per_op(traced + setup + build)
        out: dict[str, tuple[float, str]] = {}
        for target in TARGETS:
            if target.name in self.missing:
                continue
            if target.per_op and traced:
                cells = [per_op[i].get(target.name, [0.0, 0.0, 0]) for i in traced]
                out[f"{target.name}.ms"] = (median(c[0] for c in cells) * 1e3, "ms")
                if target.self_time:
                    out[f"{target.name}.self_ms"] = (median(c[1] for c in cells) * 1e3, "ms")
                calls = [per_op[i].get(target.name, [0, 0, 0])[2] for i in counted]
                out[f"{target.name}.calls"] = (sum(calls) / max(len(calls), 1), "count")
            if target.setup:
                # tokenize's set-up figure is the lazy tokenization of the index build
                phases = build if target.name in ("text.tokenize", "retriever.build_index",
                                                  "retriever.save_index") else setup
                if phases:
                    secs = [per_op[i].get(target.name, [0.0])[0] for i in phases]
                    out[f"{target.name}.s"] = (median(secs), "s")
        if counted:
            n = len(counted)
            totals = {name: sum(self.ops[i].counts[name] for i in counted)
                      for name in COUNT_NAMES}
            for name, source in COUNT_SOURCES.items():
                if source not in self.missing:
                    out[name] = (totals[name] / n, "count")
            if "model.encode_batch" not in self.missing and totals["model.positions"]:
                out["model.padding_frac"] = (
                    1.0 - totals["model.real_positions"] / totals["model.positions"],
                    "fraction")
        return out
