"""Relevance scoring over a document's word graph.

A query with m terms (at most `max_query_len`) gives every node m state
columns, initialized with its interaction-feature row (cosines against
the query terms).  The forward pass runs a configurable number of gated
message-passing steps over the normalized adjacency with the leading
m x m blocks of the layer weights, pools the k strongest signals per
query term, and combines the per-term scores under idf-driven softmax
gates.

Everything is recorded in a ForwardTrace so the training module can
replay the computation exactly in reverse.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

from .corpus import Query
from .errors import DataFormatError
from .graph import DocumentGraph

CHECKPOINT_MAGIC = b"GOWRANK1"
CHECKPOINT_VERSION = 1


@dataclass
class HyperParams:
    """Shape-determining knobs of the scoring model."""

    steps: int = 2
    pool_k: int = 40
    max_query_len: int = 8
    per_step_weights: bool = False

    def num_layers(self) -> int:
        return self.steps if (self.per_step_weights and self.steps > 0) else 1


@dataclass
class LayerParams:
    """One message-passing layer: aggregation weights plus the gated update.

    All matrices are (max_query_len, max_query_len) and biases have
    max_query_len entries; a query with m terms uses the leading blocks
    (see `leading_block`).  `msg_w` mixes state dimensions before
    neighbor aggregation; the three (w, u, b) triples drive the update
    gate, reset gate, and candidate state respectively.
    """

    msg_w: np.ndarray
    w_up: np.ndarray
    u_up: np.ndarray
    b_up: np.ndarray
    w_reset: np.ndarray
    u_reset: np.ndarray
    b_reset: np.ndarray
    w_cand: np.ndarray
    u_cand: np.ndarray
    b_cand: np.ndarray


@dataclass
class ModelParams:
    """All trainable tensors plus the hyperparameters fixing their shapes.

    `layers` has one entry normally (weights shared across steps) or
    `steps` entries when per-step weights are enabled.  `out_w`/`out_b`
    map a pooled k-vector to a scalar per-term score; `idf_scale` is the
    gate temperature.
    """

    hyper: HyperParams
    layers: list[LayerParams]
    out_w: np.ndarray  # (pool_k,)
    out_b: np.ndarray  # scalar, kept 0-d for uniform tape handling
    idf_scale: np.ndarray  # scalar

    def copy(self) -> "ModelParams":
        return ModelParams(
            hyper=HyperParams(**vars(self.hyper)),
            layers=[
                LayerParams(**{k: v.copy() for k, v in vars(layer).items()})
                for layer in self.layers
            ],
            out_w=self.out_w.copy(),
            out_b=self.out_b.copy(),
            idf_scale=self.idf_scale.copy(),
        )


_LAYER_FIELDS = (
    "msg_w",
    "w_up",
    "u_up",
    "b_up",
    "w_reset",
    "u_reset",
    "b_reset",
    "w_cand",
    "u_cand",
    "b_cand",
)


def iter_tensors(params: ModelParams):
    """Yield (name, array) for every trainable tensor, in a fixed order."""
    for i, layer in enumerate(params.layers):
        for name in _LAYER_FIELDS:
            yield f"layer{i}.{name}", getattr(layer, name)
    yield "out_w", params.out_w
    yield "out_b", params.out_b
    yield "idf_scale", params.idf_scale


def layer_for_step(params: ModelParams, step: int) -> LayerParams:
    if params.hyper.per_step_weights:
        return params.layers[step]
    return params.layers[0]


def leading_block(layer: LayerParams, m: int) -> LayerParams:
    """The weights of `layer` that act on the first m query columns.

    Matrices are cut to their leading m x m block and biases to their
    first m entries.  The slices are views, so adding into them writes
    through to `layer`.
    """
    return LayerParams(
        **{
            name: w[:m, :m] if w.ndim == 2 else w[:m]
            for name, w in vars(layer).items()
        }
    )


def init_params(hyper: HyperParams, rng: np.random.Generator) -> ModelParams:
    """Variance-preserving uniform init for matrices, zeros for biases.

    The gate temperature starts at 1.0 so gating begins as a plain idf
    softmax.
    """
    m = hyper.max_query_len
    lim = np.sqrt(6.0 / (m + m))

    def mat() -> np.ndarray:
        return rng.uniform(-lim, lim, size=(m, m))

    layers = [
        LayerParams(
            msg_w=mat(),
            w_up=mat(),
            u_up=mat(),
            b_up=np.zeros(m),
            w_reset=mat(),
            u_reset=mat(),
            b_reset=np.zeros(m),
            w_cand=mat(),
            u_cand=mat(),
            b_cand=np.zeros(m),
        )
        for _ in range(hyper.num_layers())
    ]
    out_lim = np.sqrt(6.0 / (hyper.pool_k + 1))
    return ModelParams(
        hyper=hyper,
        layers=layers,
        out_w=rng.uniform(-out_lim, out_lim, size=hyper.pool_k),
        out_b=np.array(0.0),
        idf_scale=np.array(1.0),
    )


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass, for exact reverse replay.

    Each of the m scored query terms owns one column: `states[0]` is the
    (n, m) interaction matrix, `states[s+1]` the state after step s, and
    `pooled` is (m, pool_k).  `idf` holds the m terms' idf values that
    drove the gates.
    """

    states: list[np.ndarray]
    messages: list[np.ndarray]
    upd_gate: list[np.ndarray]
    reset_gate: list[np.ndarray]
    candidate: list[np.ndarray]
    pooled: np.ndarray
    pooled_idx: np.ndarray
    gates: np.ndarray
    term_scores: np.ndarray
    rel: float
    idf: np.ndarray
    norm_adj: csr_matrix


def propagate(h: np.ndarray, norm_adj: csr_matrix, msg_w: np.ndarray) -> np.ndarray:
    """Aggregate neighbor states: a_i = sum_j Ã_ij (msg_w h_j).

    Isolated nodes (zero rows in Ã) receive the zero message.
    """
    return norm_adj @ (h @ msg_w.T)


def gru_update(
    a: np.ndarray, h: np.ndarray, layer: LayerParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gated state update; returns (h', update gate, reset gate, candidate).

    The gate activations come back alongside the new state so a trace can
    record them for the backward pass.
    """
    z = expit(a @ layer.w_up.T + h @ layer.u_up.T + layer.b_up)
    r = expit(a @ layer.w_reset.T + h @ layer.u_reset.T + layer.b_reset)
    cand = np.tanh(a @ layer.w_cand.T + (r * h) @ layer.u_cand.T + layer.b_cand)
    h_new = cand * z + h * (1.0 - z)
    return h_new, z, r, cand


def readout(h_final: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query-term k-max pooling over nodes.

    For each column, the k largest entries in descending order (ties:
    smaller node index first); zero-padded when the graph has fewer than
    k nodes.  Returns (pooled values (m, k), source node indices with -1
    marking padded slots).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, m = h_final.shape
    pooled = np.zeros((m, k), dtype=np.float64)
    idx = np.full((m, k), -1, dtype=np.int64)
    take = min(k, n)
    order = np.argsort(-h_final, axis=0, kind="stable")[:take].T
    pooled[:, :take] = np.take_along_axis(h_final.T, order, axis=1)
    idx[:, :take] = order
    return pooled, idx


def gate_weights(idf: np.ndarray, scale: float) -> np.ndarray:
    """Softmax of scale*idf over the query terms.

    Max-subtraction keeps the exponentials bounded for any scale.
    """
    y = float(scale) * idf
    e = np.exp(y - y.max())
    return e / e.sum()


def score(
    pooled: np.ndarray, gates: np.ndarray, out_w: np.ndarray, out_b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Gated sum of per-term scores: rel = sum_j g_j tanh(out_w·x_j + out_b).

    Returns the scalar together with the per-term tanh scores.  Because
    the gates form a convex combination, rel always lands in (-1, 1).
    """
    term_scores = np.tanh(pooled @ out_w + float(out_b))
    return float(gates @ term_scores), term_scores


def forward(
    graph: DocumentGraph, S: np.ndarray, query: Query, params: ModelParams
) -> tuple[float, ForwardTrace]:
    """Full scoring pass; returns (rel, trace).

    Scores the first m = min(len(query), max_query_len) query terms, one
    state column each; terms past the budget are dropped.  An empty query
    cannot be scored.  An empty document scores the all-zero readout
    rather than erroring.
    """
    hyper = params.hyper
    m = min(S.shape[1], hyper.max_query_len)
    if m == 0:
        raise DataFormatError(f"query {query.query_id!r} has no scoreable terms")
    h0 = S[:, :m]
    idf = query.idf[:m]
    norm_adj = graph.norm_adjacency

    states = [h0]
    messages: list[np.ndarray] = []
    upd: list[np.ndarray] = []
    reset: list[np.ndarray] = []
    cand: list[np.ndarray] = []
    h = h0
    for step in range(hyper.steps):
        layer = leading_block(layer_for_step(params, step), m)
        a = propagate(h, norm_adj, layer.msg_w)
        h, z, r, c = gru_update(a, h, layer)
        messages.append(a)
        upd.append(z)
        reset.append(r)
        cand.append(c)
        states.append(h)

    pooled, pooled_idx = readout(h, hyper.pool_k)
    gates = gate_weights(idf, float(params.idf_scale))
    rel, term_scores = score(pooled, gates, params.out_w, params.out_b)
    trace = ForwardTrace(
        states=states,
        messages=messages,
        upd_gate=upd,
        reset_gate=reset,
        candidate=cand,
        pooled=pooled,
        pooled_idx=pooled_idx,
        gates=gates,
        term_scores=term_scores,
        rel=rel,
        idf=idf,
        norm_adj=norm_adj,
    )
    return rel, trace


# --- checkpoint serialization ---------------------------------------------
#
# Layout: magic, then a little-endian uint32 header length, then a JSON
# header {version, hyper, extra, tensors: [{name, shape}]}, then each
# tensor's float64 little-endian bytes in manifest order.


def save_checkpoint(
    path: str | Path, params: ModelParams, extra: dict | None = None
) -> None:
    names = []
    blobs = []
    for name, tensor in iter_tensors(params):
        names.append({"name": name, "shape": list(tensor.shape)})
        blobs.append(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    header = {
        "version": CHECKPOINT_VERSION,
        "hyper": {
            "steps": params.hyper.steps,
            "pool_k": params.hyper.pool_k,
            "max_query_len": params.hyper.max_query_len,
            "per_step_weights": params.hyper.per_step_weights,
        },
        "extra": extra or {},
        "tensors": names,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        for blob in blobs:
            fh.write(blob)


def _expected_shapes(hyper: HyperParams) -> dict[str, tuple[int, ...]]:
    m = hyper.max_query_len
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(hyper.num_layers()):
        for name in _LAYER_FIELDS:
            shapes[f"layer{i}.{name}"] = (m,) if name.startswith("b_") else (m, m)
    shapes["out_w"] = (hyper.pool_k,)
    shapes["out_b"] = ()
    shapes["idf_scale"] = ()
    return shapes


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Read a checkpoint, validating magic, version, and tensor shapes."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a model checkpoint")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise DataFormatError(f"{path}: truncated checkpoint header")
        (header_len,) = struct.unpack("<I", raw_len)
        # bound the length before reading, so a corrupt field cannot ask
        # for gigabytes
        if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
            raise DataFormatError(
                f"{path}: truncated checkpoint header "
                f"({header_len} bytes announced)"
            )
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DataFormatError(
                f"{path}: unreadable checkpoint header: {exc}"
            ) from exc
        if header["version"] != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"{path}: checkpoint version {header['version']}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        hyper = HyperParams(**header["hyper"])
        expected = _expected_shapes(hyper)
        tensors: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            name, shape = entry["name"], tuple(entry["shape"])
            if name not in expected:
                raise DataFormatError(f"{path}: unexpected tensor {name!r}")
            if shape != expected[name]:
                raise DataFormatError(
                    f"{path}: tensor {name!r} has shape {shape}, "
                    f"expected {expected[name]}"
                )
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise DataFormatError(f"{path}: truncated tensor data for {name!r}")
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        missing = set(expected) - set(tensors)
        if missing:
            raise DataFormatError(f"{path}: missing tensors {sorted(missing)}")

    layers = [
        LayerParams(**{f: tensors[f"layer{i}.{f}"] for f in _LAYER_FIELDS})
        for i in range(hyper.num_layers())
    ]
    params = ModelParams(
        hyper=hyper,
        layers=layers,
        out_w=tensors["out_w"],
        out_b=tensors["out_b"],
        idf_scale=tensors["idf_scale"],
    )
    return params, header["extra"]
