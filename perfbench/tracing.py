"""In-memory spans and counters around the public functions of `gowrank`.

Each function is wrapped where its caller looks it up (for example
`gowrank.training.build_graph_mode`, which `ScoringContext.graph` calls),
so the package itself is unchanged.  A span records its name, start, end
and parent span; `layer_metrics` turns the spans of one run into
per-layer self times, call counts and useful/attempted ratios.
"""

from __future__ import annotations

import functools
import time

import gowrank.cli
import gowrank.model
import gowrank.training
from child import COMMANDS

# (module, attribute looked up by the caller, span name)
SPANS = [
    (gowrank.cli, "tokenize", "corpus.tokenize"),
    (gowrank.cli, "build_vocabulary", "corpus.build_vocabulary"),
    (gowrank.cli, "encode_document", "corpus.encode_document"),
    (gowrank.cli, "load_embeddings", "embeddings.load"),
    (gowrank.cli, "build_index", "retrieval.build_index"),
    (gowrank.cli, "top_candidates", "retrieval.top_candidates"),
    (gowrank.training, "top_candidates", "retrieval.top_candidates"),
    (gowrank.training, "build_graph_mode", "graph.build"),
    (gowrank.training, "interaction_matrix", "graph.interaction"),
    (gowrank.training, "forward", "model.forward"),
    (gowrank.model, "pad_query", "model.pad_query"),
    (gowrank.model, "propagate", "model.propagate"),
    (gowrank.model, "gru_update", "model.gru_update"),
    (gowrank.model, "readout", "model.readout"),
    (gowrank.training, "save_checkpoint", "model.checkpoint_io"),
    (gowrank.cli, "load_checkpoint", "model.checkpoint_io"),
    (gowrank.training, "backward", "training.backward"),
    (gowrank.training, "adam_step", "training.adam_step"),
    (gowrank.training, "sample_triplets", "training.sample_triplets"),
    (gowrank.training, "score_pool", "training.score_pool"),
    (gowrank.cli, "score_pool", "training.score_pool"),
    (gowrank.cli, "evaluate_run", "evaluation.evaluate_run"),
]


class Tracer:
    """Spans as parallel lists (name, start, end, parent index)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self._stack: list[int] = []

    def command(self) -> str:
        """Name of the outermost open span, i.e. the running CLI command."""
        return self.names[self._stack[0]] if self._stack else ""

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1
        self.sums[key] = self.sums.get(key, 0.0) + value

    def wrap(self, name, fn, observe=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in SPANS that exists; a function the package
        no longer has is skipped, so its metrics read 0 instead of the
        traced run failing."""
        for module, attr, name in SPANS:
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr),
                                                _OBSERVERS.get(name)))
        for command in COMMANDS:
            fn = gowrank.cli._DISPATCH[command]
            gowrank.cli._DISPATCH[command] = self.wrap(f"cli.{command}", fn)
        backprop = getattr(gowrank.training, "_backprop_one", None)
        if backprop is not None:
            def counted_backprop(*args, **kwargs):
                self.count("backprop_one")
                return backprop(*args, **kwargs)

            gowrank.training._backprop_one = counted_backprop
        # ScoringContext.score looks the graph up once before its features;
        # the lookup inside `feats` that follows always hits, so it is not
        # counted as an attempt
        context = getattr(gowrank.training, "ScoringContext", None)
        if context is not None:
            score = context.score

            def counted_score(ctx, *args, **kwargs):
                self.count("graph_lookup@" + self.command())
                return score(ctx, *args, **kwargs)

            context.score = counted_score


def _observe_pool(tracer, args, out):
    tracer.count("pool_size", len(out))


def _observe_graph(tracer, args, out):
    tracer.count("nodes", out.num_nodes)
    tracer.count("edges", out.adjacency.nnz / 2)


def _observe_forward(tracer, args, out):
    m = args[1].shape[1]
    width = args[3].hyper.max_query_len
    tracer.count("padded_columns", 1.0 - min(m, width) / width)


_OBSERVERS = {
    "retrieval.top_candidates": _observe_pool,
    "graph.build": _observe_graph,
    "model.forward": _observe_forward,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time and calls per span name, plus the derived ratios."""
    n = len(tracer.names)
    child_time = [0.0] * n
    root = list(range(n))
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child_time[p] += tracer.ends[i] - tracer.starts[i]
            root[i] = root[p]
    builds: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    validation_s = 0.0
    for i, name in enumerate(tracer.names):
        span = tracer.ends[i] - tracer.starts[i]
        self_s[name] = self_s.get(name, 0.0) + span - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + span
        calls[name] = calls.get(name, 0) + 1
        p = tracer.parents[i]
        if name == "training.score_pool" and p >= 0 and tracer.names[p] == "cli.train":
            validation_s += span
        if name == "graph.build":
            command = tracer.names[root[i]]
            builds[command] = builds.get(command, 0) + 1

    def mean(key):
        c = tracer.counts.get(key, 0)
        return tracer.sums[key] / c if c else 0.0

    out: dict[str, float] = {}
    for _, _, name in SPANS:
        out[f"{name}_s"] = self_s.get(name, 0.0)
    for name in ("corpus.tokenize", "retrieval.top_candidates", "graph.build",
                 "graph.interaction", "model.forward", "training.backward",
                 "training.score_pool"):
        out[f"{name}_calls"] = calls.get(name, 0)
    for command in COMMANDS:
        out[f"cli.{command}_s"] = total_s.get(f"cli.{command}", 0.0)
    out["cli.self_s"] = sum(self_s.get(f"cli.{c}", 0.0) for c in COMMANDS)
    out["training.validation_s"] = validation_s
    out["retrieval.pool_size_mean"] = mean("pool_size")
    out["graph.nodes_mean"] = mean("nodes")
    out["graph.edges_mean"] = mean("edges")
    for metric, command in (("graph.cache_hit_ratio", "cli.rerank"),
                            ("graph.train_cache_hit_ratio", "cli.train")):
        lookups = tracer.counts.get("graph_lookup@" + command, 0)
        out[metric] = 1.0 - builds.get(command, 0) / lookups if lookups else 0.0
    out["model.padded_column_share"] = mean("padded_columns")
    backward_calls = calls.get("training.backward", 0)
    out["training.active_hinge_share"] = (
        tracer.counts.get("backprop_one", 0) / (2 * backward_calls)
        if backward_calls else 0.0)
    return out
