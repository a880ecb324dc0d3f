"""Pairwise training: exact reverse-mode gradients, Adam, triplet
sampling, the epoch loop, and finite-difference verification.

The backward pass replays a recorded ForwardTrace pair in reverse, by
hand — no autodiff framework.  Gradients flow only through the paths the
forward pass actually took: selected top-k entries, the leading parameter
blocks of the m scored query columns, and the active side of the hinge.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import RunConfig, seed_stream
from .corpus import Query, TokenizedDoc
from .embeddings import EmbeddingTable
from .errors import DataFormatError, NumericalError
from .evaluation import QRels, ndcg_at
from .graph import DocumentGraph, build_graph, build_graph_mode, interaction_matrix
from .model import (
    ForwardTrace,
    HyperParams,
    LayerParams,
    ModelParams,
    forward,
    init_params,
    iter_tensors,
    leading_block,
    save_checkpoint,
)
from .retrieval import PostingsIndex, top_candidates

log = logging.getLogger(__name__)


def hinge_loss(rel_pos: float, rel_neg: float) -> float:
    """Pairwise hinge: max(0, 1 - rel_pos + rel_neg)."""
    return max(0.0, 1.0 - rel_pos + rel_neg)


@dataclass
class GradientTape:
    """Per-parameter gradient accumulators, shaped exactly like the params."""

    grads: dict[str, np.ndarray]

    def scale(self, factor: float) -> None:
        for g in self.grads.values():
            g *= factor

    def max_abs(self) -> float:
        return max(float(np.abs(g).max()) for g in self.grads.values())


def zero_tape(params: ModelParams) -> GradientTape:
    return GradientTape(
        grads={name: np.zeros_like(t) for name, t in iter_tensors(params)}
    )


def _check_trace(trace: ForwardTrace, params: ModelParams) -> None:
    hyper = params.hyper
    if trace.states[0].shape[1] > hyper.max_query_len:
        raise ValueError(
            f"trace has {trace.states[0].shape[1]} state columns, "
            f"params allow {hyper.max_query_len}"
        )
    if len(trace.messages) != hyper.steps:
        raise ValueError(
            f"trace recorded {len(trace.messages)} steps, params expect {hyper.steps}"
        )
    if trace.pooled.shape[1] != hyper.pool_k:
        raise ValueError(
            f"trace pooled {trace.pooled.shape[1]} values per term, "
            f"params expect {hyper.pool_k}"
        )


def _backprop_one(
    trace: ForwardTrace, params: ModelParams, d_rel: float, tape: GradientTape
) -> None:
    """Accumulate d(loss)/d(params) for one document given d(loss)/d(rel).

    Only the leading blocks that act on the trace's m columns get
    gradient; the rest of the tape is left as it was.
    """
    hyper = params.hyper
    m = trace.states[0].shape[1]
    g = trace.gates
    s = trace.term_scores

    # rel = sum_j g_j * s_j with s = tanh(pooled @ out_w + out_b)
    ds = d_rel * g
    dg = d_rel * s
    dpre = ds * (1.0 - s * s)
    tape.grads["out_w"] += trace.pooled.T @ dpre
    tape.grads["out_b"] += dpre.sum()
    dx = np.outer(dpre, params.out_w)

    # softmax gates: dy_j = g_j (dg_j - sum_l dg_l g_l)
    dy = g * (dg - float(dg @ g))
    tape.grads["idf_scale"] += dy @ trace.idf

    # k-max pooling routed gradient only to the selected node entries
    dh = np.zeros_like(trace.states[-1])
    term, slot = np.nonzero(trace.pooled_idx >= 0)
    dh[trace.pooled_idx[term, slot], term] = dx[term, slot]

    for step in reversed(range(hyper.steps)):
        li = step if hyper.per_step_weights else 0
        layer = leading_block(params.layers[li], m)
        grad = leading_block(
            LayerParams(**{f: tape.grads[f"layer{li}.{f}"] for f in vars(layer)}), m
        )
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

        # messages were a = adj @ (h_in @ msg_w.T)
        d_mixed = trace.norm_adj.T @ da
        grad.msg_w += d_mixed.T @ h_in
        dh_acc += d_mixed @ layer.msg_w

        dh = dh_acc


def backward(
    trace_pos: ForwardTrace,
    trace_neg: ForwardTrace,
    params: ModelParams,
    into: GradientTape | None = None,
) -> GradientTape:
    """Gradients of the pairwise hinge for one (positive, negative) pair.

    A satisfied margin contributes exactly zero.  Pass `into` to
    accumulate several triplets into one tape (for batch means).
    """
    _check_trace(trace_pos, params)
    _check_trace(trace_neg, params)
    tape = into if into is not None else zero_tape(params)
    if hinge_loss(trace_pos.rel, trace_neg.rel) > 0.0:
        _backprop_one(trace_pos, params, -1.0, tape)
        _backprop_one(trace_neg, params, +1.0, tape)
    return tape


@dataclass
class AdamState:
    """Moment accumulators for the Adam update."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ModelParams, lr: float = 0.001) -> "AdamState":
        state = cls(lr=lr)
        for name, tensor in iter_tensors(params):
            state.m[name] = np.zeros_like(tensor)
            state.v[name] = np.zeros_like(tensor)
        return state


def adam_step(params: ModelParams, tape: GradientTape, state: AdamState) -> None:
    """In-place Adam update with bias correction."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, tensor in iter_tensors(params):
        grad = tape.grads[name]
        if not np.isfinite(grad).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        tensor -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


@dataclass
class Triplet:
    query_id: str
    pos_doc: str
    neg_doc: str


def usable_queries(
    qrels: QRels,
    pools: dict[str, list[tuple[str, float]]],
    judged_only: bool = False,
) -> dict[str, tuple[list[str], list[str]]]:
    """Per query: (positives, negatives) drawn from its candidate pool.

    Positives are judged-relevant pool members, falling back to all
    judged-relevant docs when none survived first-stage retrieval.
    Negatives are pool members judged non-relevant — or unjudged too,
    unless `judged_only`.  Queries lacking either side are dropped (and
    logged).
    """
    usable: dict[str, tuple[list[str], list[str]]] = {}
    for qid in sorted(pools):
        judged = qrels.get(qid, {})
        pool_docs = [doc for doc, _ in pools[qid]]
        pos = [d for d in pool_docs if judged.get(d, 0) > 0]
        if not pos:
            pos = sorted(d for d, grade in judged.items() if grade > 0)
        if judged_only:
            neg = [d for d in pool_docs if judged.get(d, -1) == 0]
        else:
            neg = [d for d in pool_docs if judged.get(d, 0) == 0]
        if pos and neg:
            usable[qid] = (pos, neg)
        else:
            log.info(
                "query %s excluded from sampling (%d positives, %d negatives)",
                qid,
                len(pos),
                len(neg),
            )
    return usable


def sample_triplets(
    qrels: QRels,
    pools: dict[str, list[tuple[str, float]]],
    rng: np.random.Generator,
    count: int,
    judged_only: bool = False,
) -> list[Triplet]:
    """Uniformly sample (query, positive, negative) triplets."""
    usable = usable_queries(qrels, pools, judged_only)
    if not usable:
        raise DataFormatError(
            "no trainable queries: every query lacks positives or negatives"
        )
    qids = sorted(usable)
    out = []
    for _ in range(count):
        qid = qids[int(rng.integers(0, len(qids)))]
        pos, neg = usable[qid]
        out.append(
            Triplet(
                query_id=qid,
                pos_doc=pos[int(rng.integers(0, len(pos)))],
                neg_doc=neg[int(rng.integers(0, len(neg)))],
            )
        )
    return out


class ScoringContext:
    """Caches graphs and interaction features for repeated scoring.

    Also warns, once per query id, when a query has more terms than the
    model scores.
    """

    def __init__(
        self,
        docs: dict[str, TokenizedDoc],
        queries: dict[str, Query],
        emb: EmbeddingTable,
        window: int,
        adjacency_mode: str,
    ):
        self.docs = docs
        self.queries = queries
        self.emb = emb
        self.window = window
        self.adjacency_mode = adjacency_mode
        self._graphs: dict[str, DocumentGraph] = {}
        self._feats: dict[tuple[str, str], np.ndarray] = {}
        self._truncated: set[str] = set()

    def graph(self, doc_id: str) -> DocumentGraph:
        if doc_id not in self._graphs:
            self._graphs[doc_id] = build_graph_mode(
                self.docs[doc_id], self.window, self.adjacency_mode
            )
        return self._graphs[doc_id]

    def feats(self, qid: str, doc_id: str) -> np.ndarray:
        key = (qid, doc_id)
        if key not in self._feats:
            self._feats[key] = interaction_matrix(
                self.graph(doc_id), self.queries[qid], self.emb
            )
        return self._feats[key]

    def score(self, qid: str, doc_id: str, params: ModelParams):
        query = self.queries[qid]
        budget = params.hyper.max_query_len
        if len(query.tokens) > budget and qid not in self._truncated:
            self._truncated.add(qid)
            log.warning(
                "query %s has %d terms; keeping the first %d",
                qid,
                len(query.tokens),
                budget,
            )
        return forward(self.graph(doc_id), self.feats(qid, doc_id), query, params)


def score_pool(
    ctx: ScoringContext,
    qid: str,
    pool: list[tuple[str, float]],
    params: ModelParams,
) -> list[tuple[str, float]]:
    """Re-score a candidate pool; (-score, doc_id) order."""
    rescored = [(doc_id, ctx.score(qid, doc_id, params)[0]) for doc_id, _ in pool]
    rescored.sort(key=lambda pair: (-pair[1], pair[0]))
    return rescored


def _validation_ndcg(
    ctx: ScoringContext,
    params: ModelParams,
    pools: dict[str, list[tuple[str, float]]],
    qrels: QRels,
    val_qids: list[str],
    cutoff: int = 20,
) -> float:
    values = []
    for qid in val_qids:
        judged = qrels.get(qid)
        if not judged or max(judged.values()) == 0:
            continue
        ranked = [doc for doc, _ in score_pool(ctx, qid, pools[qid], params)]
        values.append(ndcg_at(ranked, judged, cutoff))
    return sum(values) / len(values) if values else 0.0


def train(
    docs: dict[str, TokenizedDoc],
    queries: dict[str, Query],
    qrels: QRels,
    index: PostingsIndex,
    emb: EmbeddingTable,
    cfg: RunConfig,
    train_qids: list[str],
    val_qids: list[str],
    log_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Epoch loop: sample triplets, batch-mean gradients, Adam, validate.

    Keeps the checkpoint with the best validation nDCG@20 (ties keep the
    earlier epoch); without validation queries the final parameters win.
    Returns (best params, per-epoch log records); the JSONL log has one
    {epoch, mean_loss, pair_acc, val_ndcg20} record per epoch.
    """
    hyper = HyperParams(
        steps=cfg.steps,
        pool_k=cfg.pool_k,
        max_query_len=cfg.max_query_len,
        per_step_weights=cfg.per_step_weights,
    )
    params = init_params(hyper, seed_stream(cfg.seed, "init"))
    state = AdamState.for_params(params, lr=cfg.lr)
    sampler = seed_stream(cfg.seed, "triplets")
    ctx = ScoringContext(docs, queries, emb, cfg.window, cfg.adjacency_mode)

    train_qids = [q for q in train_qids if queries[q].tokens]
    val_qids = [q for q in val_qids if queries[q].tokens]
    pools = {
        qid: top_candidates(queries[qid], index, cfg.candidates)
        for qid in sorted(set(train_qids) | set(val_qids))
    }

    best_params = params.copy()
    best_val = float("-inf")
    have_validation = bool(val_qids)
    records: list[dict] = []
    per_epoch = cfg.batch * cfg.steps_per_epoch

    for epoch in range(1, cfg.epochs + 1):
        triplets = sample_triplets(
            qrels,
            {q: pools[q] for q in train_qids},
            sampler,
            per_epoch,
            cfg.judged_negatives_only,
        )
        losses = []
        correct = 0
        for start in range(0, len(triplets), cfg.batch):
            batch = triplets[start : start + cfg.batch]
            tape = zero_tape(params)
            for triplet in batch:
                rel_p, trace_p = ctx.score(triplet.query_id, triplet.pos_doc, params)
                rel_n, trace_n = ctx.score(triplet.query_id, triplet.neg_doc, params)
                losses.append(hinge_loss(rel_p, rel_n))
                correct += rel_p > rel_n
                backward(trace_p, trace_n, params, into=tape)
            tape.scale(1.0 / len(batch))
            adam_step(params, tape, state)

        val = (
            _validation_ndcg(ctx, params, pools, qrels, val_qids)
            if have_validation
            else 0.0
        )
        if have_validation and val > best_val:
            best_val = val
            best_params = params.copy()
        records.append(
            {
                "epoch": epoch,
                "mean_loss": float(sum(losses) / len(losses)),
                "pair_acc": float(correct / len(losses)),
                "val_ndcg20": float(val),
            }
        )

    if not have_validation:
        best_params = params.copy()

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if checkpoint_path is not None:
        save_checkpoint(
            checkpoint_path,
            best_params,
            extra={
                "window": cfg.window,
                "adjacency_mode": cfg.adjacency_mode,
                "min_freq": cfg.min_freq,
                "seed": cfg.seed,
            },
        )
    return best_params, records


# --- finite-difference verification ----------------------------------------

FD_STEP = 1e-5
# relative-error guard: differences below REL_FLOOR * tolerance in absolute
# terms cannot be distinguished from finite-difference noise
REL_FLOOR = 1e-4
_SAFETY_GAP = 1e-3  # distance from hinge kink and top-k selection ties


def _guarded_rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_FLOOR)


def _random_doc_side(rng, n: int, m: int):
    tokens = np.concatenate([np.arange(n), rng.integers(0, n, size=max(4, n))])
    rng.shuffle(tokens)
    doc = TokenizedDoc("d", [int(t) for t in tokens], len(tokens))
    graph = build_graph(doc, window=int(rng.choice([2, 3, 5])))
    S = rng.uniform(-1.0, 1.0, size=(n, m))
    return graph, S


def _selection_safe(trace: ForwardTrace, k: int) -> bool:
    """True when every pooled column's order is robust to tiny nudges."""
    h_final = trace.states[-1]
    boundary = min(k + 1, h_final.shape[0])
    top = np.sort(h_final, axis=0)[::-1][:boundary]
    gaps = -np.diff(top, axis=0)
    return not (gaps.size and gaps.min() < _SAFETY_GAP)


def _checkable_instance(
    rng, n: int, m: int, steps: int, k: int, m_max: int = 8, per_step: bool = False
):
    """Instance pair whose loss is differentiable in a 2*FD_STEP ball.

    Re-rolls until the hinge is active but away from its kink, and the
    top-k selections have clear margins.
    """
    hyper = HyperParams(
        steps=steps, pool_k=k, max_query_len=m_max, per_step_weights=per_step
    )
    for _ in range(500):
        graph_p, S_p = _random_doc_side(rng, n, m)
        graph_n, S_n = _random_doc_side(rng, n, m)
        idf = rng.uniform(0.2, 2.5, size=m)
        query = Query(query_id="q", tokens=list(range(m)), idf=idf)
        params = init_params(hyper, rng)
        for _, tensor in iter_tensors(params):
            tensor[...] = rng.uniform(-0.7, 0.7, size=tensor.shape)
        params.idf_scale[...] = rng.uniform(0.3, 1.2)
        rel_p, trace_p = forward(graph_p, S_p, query, params)
        rel_n, trace_n = forward(graph_n, S_n, query, params)
        if 1.0 - rel_p + rel_n < _SAFETY_GAP:
            continue
        if not (_selection_safe(trace_p, k) and _selection_safe(trace_n, k)):
            continue
        return graph_p, S_p, graph_n, S_n, query, params
    raise RuntimeError("could not build a differentiable check instance")


def grad_check(
    n: int = 12,
    m: int = 4,
    steps: int = 2,
    k: int = 3,
    seed: int = 0,
    tolerance: float = 1e-5,
    coords_per_tensor: int = 200,
    m_max: int = 8,
    per_step: bool = False,
    tamper=None,
) -> dict:
    """Compare the hand-written backward pass against central differences.

    Every coordinate of every tensor is checked (or a seeded subset of
    `coords_per_tensor` for larger tensors).  `tamper(tape)` lets tests
    corrupt the analytic gradients to prove the checker catches it.
    Returns a report with per-tensor and overall worst relative errors.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6FD]))
    graph_p, S_p, graph_n, S_n, query, params = _checkable_instance(
        rng, n, m, steps, k, m_max, per_step
    )

    def loss_now() -> float:
        rel_p, _ = forward(graph_p, S_p, query, params)
        rel_n, _ = forward(graph_n, S_n, query, params)
        return hinge_loss(rel_p, rel_n)

    _, trace_p = forward(graph_p, S_p, query, params)
    _, trace_n = forward(graph_n, S_n, query, params)
    tape = backward(trace_p, trace_n, params)
    if tamper is not None:
        tamper(tape)

    per_tensor: dict[str, float] = {}
    for name, tensor in iter_tensors(params):
        flat = tensor.reshape(-1)
        grad_flat = tape.grads[name].reshape(-1)
        size = flat.size
        if size <= coords_per_tensor:
            coords = range(size)
        else:
            coords = rng.choice(size, size=coords_per_tensor, replace=False)
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + FD_STEP
            up = loss_now()
            flat[c] = original - FD_STEP
            down = loss_now()
            flat[c] = original
            numeric = (up - down) / (2.0 * FD_STEP)
            worst = max(worst, _guarded_rel_err(float(grad_flat[c]), numeric))
        per_tensor[name] = worst

    max_err = max(per_tensor.values())
    return {
        "per_tensor": per_tensor,
        "max_rel_err": max_err,
        "tolerance": tolerance,
        "passed": bool(max_err < tolerance),
        "instance": {"n": n, "m": m, "steps": steps, "k": k, "seed": seed},
    }
