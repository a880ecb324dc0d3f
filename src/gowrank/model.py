"""Relevance scoring over document word graphs, a batch at a time.

A query with m terms (at most `max_query_len`) gives every node m state
columns, initialized with its interaction-feature row (cosines against
the query terms).  The forward pass runs a configurable number of gated
message-passing steps over the normalized adjacency with the leading
m x m blocks of the layer weights, pools the k strongest signals per
query term, and combines the per-term scores under idf-driven softmax
gates.

`forward_batch` is the one forward implementation.  It stacks documents
that share a query width into block-diagonal graphs (disjoint unions of
up to BLOCK_NODES nodes), so a training minibatch or a rerank pool costs
a few sparse products and gated updates per block rather than per
document; `forward` is its one-document case.  With `record`, every
intermediate is kept in a ForwardTrace per block, which `backward`
replays exactly in reverse, by hand (no autodiff framework), to the
gradients of the pairwise hinge loss.  Gradients flow only through the
paths the forward pass actually took: selected top-k entries, the
leading parameter blocks of the m scored query columns, and the
documents of active hinges.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from math import prod
from pathlib import Path
from typing import Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

from .artifacts import read_arrays, write_arrays
from .config import HyperParams
from .corpus import Query
from .errors import DataFormatError
from .graph import BLOCK_NODES, DocumentGraph

CHECKPOINT_VERSION = 3


@dataclass
class LayerParams:
    """The message-passing layer, shared by every step: aggregation weights
    plus the gated update.

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

    `layer` is applied at every propagation step.  `out_w`/`out_b` map a
    pooled k-vector to a scalar per-term score; `idf_scale` is the gate
    temperature.  Every tensor is a view of the one float64 vector
    `flat` (see `zero_params`), and gradients use the same container, so
    whole-model arithmetic is arithmetic on `flat`.
    """

    hyper: HyperParams
    layer: LayerParams
    out_w: np.ndarray  # (pool_k,)
    out_b: np.ndarray  # scalar, kept 0-d for uniform tape handling
    idf_scale: np.ndarray  # scalar
    flat: np.ndarray

    def copy(self) -> "ModelParams":
        return zero_params(self.hyper, self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        return zero_params(self.hyper)


_LAYER_FIELDS = tuple(f.name for f in fields(LayerParams))


def iter_tensors(params: ModelParams):
    """Yield (name, array) for every trainable tensor, in a fixed order.
    The layer's tensors keep the `layer0.` prefix of the checkpoint format."""
    for name in _LAYER_FIELDS:
        yield f"layer0.{name}", getattr(params.layer, name)
    yield "out_w", params.out_w
    yield "out_b", params.out_b
    yield "idf_scale", params.idf_scale


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


def zero_params(hyper: HyperParams, flat: np.ndarray | None = None) -> ModelParams:
    """Parameters whose tensors are views of `flat` (zeros when None), laid
    out in `iter_tensors` order; the one place that fixes each tensor's
    shape.  The scalars are 0-d views, so `+=` on them writes through.
    Sizes too large to allocate are a DataFormatError."""
    m = hyper.max_query_len
    shapes = [(m,) if f.startswith("b_") else (m, m) for f in _LAYER_FIELDS]
    shapes += [(hyper.pool_k,), (), ()]
    ends = list(accumulate(map(prod, shapes), initial=0))
    if flat is None:
        try:
            flat = np.zeros(ends[-1])
        except (ValueError, MemoryError) as exc:
            raise DataFormatError(
                f"bad hyperparameters {vars(hyper)}: too large to allocate ({exc})"
            ) from exc
    views = [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]
    return ModelParams(
        hyper=hyper,
        layer=LayerParams(*views[:-3]),
        out_w=views[-3],
        out_b=views[-2],
        idf_scale=views[-1],
        flat=flat,
    )


def init_params(hyper: HyperParams, rng: np.random.Generator) -> ModelParams:
    """Variance-preserving uniform init for matrices, zeros for biases.

    The gate temperature starts at 1.0 so gating begins as a plain idf
    softmax.
    """
    params = zero_params(hyper)
    m = hyper.max_query_len
    lim = np.sqrt(6.0 / (m + m))
    for _, tensor in iter_tensors(params):
        if tensor.ndim == 2:
            tensor[...] = rng.uniform(-lim, lim, size=tensor.shape)
    out_lim = np.sqrt(6.0 / (hyper.pool_k + 1))
    params.out_w[...] = rng.uniform(-out_lim, out_lim, size=hyper.pool_k)
    params.idf_scale[...] = 1.0
    return params


@dataclass
class ForwardTrace:
    """Every intermediate of one block of a batched forward pass.

    The block's B documents share the query width m, and their nodes are
    stacked document after document into N rows.  `states[0]` is the
    (N, m) stacked interaction matrix and `states[s+1]` the state after
    step s; `norm_adj` is the (N, N) block-diagonal adjacency.  `pooled`
    and `pooled_idx` are (B, m, pool_k), the latter holding rows of the
    stacked states (-1 for padded slots); `gates`, `term_scores` and `idf`
    are (B, m).  `members` are the documents' positions in the batch, and
    `params` the parameters the block was scored with.
    """

    params: ModelParams
    members: np.ndarray
    norm_adj: csr_matrix
    states: list[np.ndarray]
    messages: list[np.ndarray]
    upd_gate: list[np.ndarray]
    reset_gate: list[np.ndarray]
    candidate: list[np.ndarray]
    pooled: np.ndarray
    pooled_idx: np.ndarray
    gates: np.ndarray
    term_scores: np.ndarray
    idf: np.ndarray


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


def readout(
    h_final: np.ndarray, k: int, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-document, per-query-term k-max pooling over nodes.

    `h_final` stacks the states of B documents, `sizes[b]` rows each.  For
    each document and column, the k largest entries in descending order
    (ties: smaller node index first); zero-padded when the document has
    fewer than k nodes.  Returns (pooled values (B, m, k), source rows of
    `h_final` (B, m, k) with -1 marking padded slots).
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    slot = np.arange(sizes.max(initial=0))
    # the documents side by side, each padded to the longest with NaN keys,
    # which a stable ascending sort puts after every real key, NaN included
    keys = np.full((len(sizes), h_final.shape[1], len(slot)), np.nan)
    keys.transpose(0, 2, 1)[slot < sizes[:, None]] = -h_final
    order = np.argsort(keys, axis=2, kind="stable")[:, :, :k]  # (B, m, take)
    real = order < sizes[:, None, None]
    take = order.shape[2]
    pooled = np.zeros((len(sizes), h_final.shape[1], k), dtype=np.float64)
    idx = np.full(pooled.shape, -1, dtype=np.int64)
    pooled[:, :, :take] = np.where(real, -np.take_along_axis(keys, order, axis=2), 0.0)
    idx[:, :, :take] = np.where(real, order + starts[:, None, None], -1)
    return pooled, idx


def gate_weights(idf: np.ndarray, scale: float) -> np.ndarray:
    """Softmax of scale*idf over the query terms (the last axis).

    Max-subtraction keeps the exponentials bounded for any scale.
    """
    y = float(scale) * idf
    e = np.exp(y - y.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def score(
    pooled: np.ndarray, gates: np.ndarray, out_w: np.ndarray, out_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gated sum of per-term scores: rel = sum_j g_j tanh(out_w·x_j + out_b).

    `pooled` is (..., m, k) and `gates` (..., m); returns rel (...)
    together with the per-term tanh scores (..., m).  Because the gates
    form a convex combination, rel always lands in (-1, 1).
    """
    term_scores = np.tanh(pooled @ out_w + float(out_b))
    return (gates * term_scores).sum(axis=-1), term_scores


def _block_diagonal(graphs: list[DocumentGraph]) -> csr_matrix:
    """The disjoint union of the graphs' normalized adjacencies, one CSR
    matrix built from their arrays.

    Row i of each graph keeps its entries in stored order, so a product
    with the union sums every row exactly as a product with its graph.
    """
    # Python-int offsets keep the graphs' int32 index dtype; BLOCK_NODES
    # keeps them far from its limit
    rows = np.cumsum([0] + [g.num_nodes for g in graphs]).tolist()
    entries = np.cumsum([0] + [g.indices.size for g in graphs]).tolist()
    indptr = np.concatenate(
        [graphs[0].indptr[:1]]
        + [g.indptr[1:] + off for g, off in zip(graphs, entries)]
    )
    indices = np.concatenate([g.indices + off for g, off in zip(graphs, rows)])
    data = np.concatenate([g.weights for g in graphs])
    return csr_matrix((data, indices, indptr), shape=(rows[-1], rows[-1]))


def _blocks(
    widths: np.ndarray, sizes: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Batch positions by query width m, in increasing node count, cut so
    that a block's documents padded to its largest one (as `readout`
    pads them) fill at most BLOCK_NODES rows, unless one document alone
    does; yields (m, positions)."""
    for m in np.unique(widths).tolist():
        members = np.flatnonzero(widths == m)
        members = members[np.argsort(sizes[members], kind="stable")]
        start = 0
        for end, n in enumerate(sizes[members].tolist()):
            if end > start and (end - start + 1) * n > BLOCK_NODES:
                yield m, members[start:end]
                start = end
        yield m, members[start:]


def forward_batch(
    docs: list[tuple[DocumentGraph, np.ndarray, Query]],
    params: ModelParams,
    record: bool = False,
) -> tuple[np.ndarray, list[ForwardTrace] | None]:
    """Score a batch of (graph, S, query) documents; returns (rel, traces).

    Each document scores the first m = min(len(query), max_query_len)
    query terms, one state column each; terms past the budget are
    dropped.  Documents with equal m are stacked into blocks of one
    block-diagonal graph each (see `_blocks`), so every step is one
    propagation and one gated update per block with the layer's leading
    m x m blocks.  `rel[i]` is document i's score.  With `record`,
    `traces` holds one ForwardTrace per block, else it is None.  An empty
    query cannot be scored; an empty document scores the all-zero readout.
    """
    hyper = params.hyper
    widths = np.zeros(len(docs), dtype=np.int64)
    sizes = np.zeros(len(docs), dtype=np.int64)
    for i, (graph, S, query) in enumerate(docs):
        widths[i] = min(S.shape[1], hyper.max_query_len)
        sizes[i] = graph.num_nodes
        if widths[i] == 0:
            raise DataFormatError(f"query {query.query_id!r} has no scoreable terms")
    rel = np.zeros(len(docs))
    traces: list[ForwardTrace] | None = [] if record else None
    for m, members in _blocks(widths, sizes):
        block = [docs[i] for i in members]
        norm_adj = _block_diagonal([graph for graph, _, _ in block])
        h = np.concatenate([S[:, :m] for _, S, _ in block])
        idf = np.stack([query.idf[:m] for _, _, query in block])
        layer = leading_block(params.layer, m)
        states = [h]
        messages: list[np.ndarray] = []
        upd: list[np.ndarray] = []
        reset: list[np.ndarray] = []
        cand: list[np.ndarray] = []
        for _ in range(hyper.steps):
            a = propagate(h, norm_adj, layer.msg_w)
            h, z, r, c = gru_update(a, h, layer)
            if record:
                messages.append(a)
                upd.append(z)
                reset.append(r)
                cand.append(c)
                states.append(h)

        pooled, pooled_idx = readout(h, hyper.pool_k, sizes[members])
        gates = gate_weights(idf, float(params.idf_scale))
        rel[members], term_scores = score(pooled, gates, params.out_w, params.out_b)
        if record:
            traces.append(
                ForwardTrace(
                    params=params,
                    members=members,
                    norm_adj=norm_adj,
                    states=states,
                    messages=messages,
                    upd_gate=upd,
                    reset_gate=reset,
                    candidate=cand,
                    pooled=pooled,
                    pooled_idx=pooled_idx,
                    gates=gates,
                    term_scores=term_scores,
                    idf=idf,
                )
            )
    return rel, traces


def forward(
    graph: DocumentGraph, S: np.ndarray, query: Query, params: ModelParams
) -> tuple[float, ForwardTrace]:
    """One document through `forward_batch`: (rel, its one-block trace)."""
    rel, traces = forward_batch([(graph, S, query)], params, record=True)
    return float(rel[0]), traces[0]


def hinge_loss(rel_pos, rel_neg):
    """Pairwise hinge: max(0, 1 - rel_pos + rel_neg), elementwise."""
    return np.maximum(0.0, 1.0 - rel_pos + rel_neg)


def pairwise_hinge(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hinge losses of interleaved (positive, negative) scores, and the
    derivative of their sum with respect to every score: -1 and +1 for
    the two documents of an active pair, 0 for both of a satisfied one.
    """
    losses = hinge_loss(rel[0::2], rel[1::2])
    d_rel = np.zeros_like(rel)
    active = losses > 0.0
    d_rel[0::2][active] = -1.0
    d_rel[1::2][active] = 1.0
    return losses, d_rel


def backward(traces: list[ForwardTrace], d_rel: np.ndarray) -> ModelParams:
    """Gradients of sum_i d_rel[i] * rel[i] over one recorded batch.

    `traces` come from one `forward_batch(..., record=True)` call on at
    least one document, and `d_rel[i]` is d(loss)/d(rel) of its document
    i.  Returns a ModelParams of gradients, laid out like the parameters
    the traces were recorded with.  Each parameter's gradient is
    summed over a block's documents by the stacked products, and only the
    leading blocks that act on a block's m columns get gradient.  A
    document with d_rel 0 carries exact zeros through every product, so
    it adds exactly nothing; a block of such documents is skipped.
    """
    params = traces[0].params
    tape = params.zeros_like()
    for trace in traces:
        d = d_rel[trace.members][:, None]  # (B, 1)
        if not d.any():
            continue
        m = trace.states[0].shape[1]
        g = trace.gates
        s = trace.term_scores

        # rel_b = sum_j g_bj * s_bj with s = tanh(pooled @ out_w + out_b)
        ds = d * g
        dg = d * s
        dpre = ds * (1.0 - s * s)  # (B, m)
        k = trace.pooled.shape[2]
        tape.out_w += trace.pooled.reshape(-1, k).T @ dpre.reshape(-1)
        tape.out_b += dpre.sum()
        dx = dpre[:, :, None] * params.out_w  # (B, m, k)

        # softmax gates per document: dy_j = g_j (dg_j - sum_l dg_l g_l)
        dy = g * (dg - (dg * g).sum(axis=1, keepdims=True))
        tape.idf_scale += (dy * trace.idf).sum()

        # k-max pooling routed gradient only to the selected node entries
        dh = np.zeros_like(trace.states[-1])
        doc, term, slot = np.nonzero(trace.pooled_idx >= 0)
        dh[trace.pooled_idx[doc, term, slot], term] = dx[doc, term, slot]

        layer = leading_block(params.layer, m)
        grad = leading_block(tape.layer, m)
        for step in reversed(range(params.hyper.steps)):
            h_in = trace.states[step]
            a = trace.messages[step]
            z = trace.upd_gate[step]
            r = trace.reset_gate[step]
            cand = trace.candidate[step]

            # forward was h_out = cand*z + h_in*(1-z)
            dz = dh * (cand - h_in)
            dcand = dh * z
            dh_acc = dh * (1.0 - z)

            dp_c = dcand * (1.0 - cand * cand)
            grad.w_cand += dp_c.T @ a
            grad.u_cand += dp_c.T @ (r * h_in)
            grad.b_cand += dp_c.sum(axis=0)
            da = dp_c @ layer.w_cand
            drh = dp_c @ layer.u_cand
            dr = drh * h_in
            dh_acc += drh * r

            dp_r = dr * r * (1.0 - r)
            grad.w_reset += dp_r.T @ a
            grad.u_reset += dp_r.T @ h_in
            grad.b_reset += dp_r.sum(axis=0)
            da += dp_r @ layer.w_reset
            dh_acc += dp_r @ layer.u_reset

            dp_z = dz * z * (1.0 - z)
            grad.w_up += dp_z.T @ a
            grad.u_up += dp_z.T @ h_in
            grad.b_up += dp_z.sum(axis=0)
            da += dp_z @ layer.w_up
            dh_acc += dp_z @ layer.u_up

            # messages were a = adj @ (h_in @ msg_w.T); adj is its own
            # transpose (see graph.normalize_adjacency)
            d_mixed = trace.norm_adj @ da
            grad.msg_w += d_mixed.T @ h_in
            dh_acc += d_mixed @ layer.msg_w

            dh = dh_acc
    return tape


# --- checkpoint serialization ---------------------------------------------
#
# Layout (see artifacts.write_arrays): a JSON header {version, hyper,
# extra} and one float64 array per tensor, named as `iter_tensors` names it.


def save_checkpoint(
    path: str | Path, params: ModelParams, extra: dict | None = None
) -> None:
    header = {
        "version": CHECKPOINT_VERSION,
        "hyper": asdict(params.hyper),
        "extra": extra or {},
    }
    write_arrays(path, header, {
        name: np.asarray(tensor, dtype="<f8") for name, tensor in iter_tensors(params)
    })


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Read a checkpoint, validating its version, hyperparameters, and each
    tensor's name, dtype, shape and values."""
    header, arrays = read_arrays(path, "gowrank train")
    # TypeError and ValueError cover a header or `extra` that is not an
    # object and an unknown hyperparameter; KeyError a missing field.  The
    # version is read first: another version may hold other hyperparameters
    try:
        version = header["version"]
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"checkpoint version {version}, expected {CHECKPOINT_VERSION}"
            )
        extra = dict(header["extra"])
        params = zero_params(HyperParams(**header["hyper"]))
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: bad checkpoint header: {exc!r}") from exc
    expected = dict(iter_tensors(params))
    if arrays.keys() != expected.keys():
        raise DataFormatError(
            f"{path}: unexpected tensors {sorted(arrays.keys() - expected.keys())}, "
            f"missing tensors {sorted(expected.keys() - arrays.keys())}"
        )
    for name, tensor in expected.items():
        array = arrays[name]
        if array.dtype != "<f8" or array.shape != tensor.shape:
            raise DataFormatError(
                f"{path}: tensor {name!r} is {array.dtype} of shape {array.shape}, "
                f"expected float64 of shape {tensor.shape}"
            )
        if not np.isfinite(array).all():
            raise DataFormatError(f"{path}: non-finite value in tensor {name!r}")
        tensor[...] = array
    return params, extra
