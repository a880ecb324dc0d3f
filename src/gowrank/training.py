"""Pairwise training: exact reverse-mode gradients, Adam, triplet
sampling, the epoch loop, and finite-difference verification.

A minibatch is scored in one `forward_batch` call: its positive and
negative documents, interleaved, stacked into block-diagonal graphs per
query width.  The backward pass replays the recorded block traces in
reverse, by hand — no autodiff framework — and sums each parameter's
gradient over every document of a block in the same stacked products.
Gradients flow only through the paths the forward pass actually took:
selected top-k entries, the leading parameter blocks of the m scored
query columns, and the documents of active hinges.  Validation and
reranking score all their candidate pools in one call without recording.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .artifacts import atomic_write
from .config import RunConfig, seed_stream
from .corpus import Query, TokenizedDoc
from .embeddings import EmbeddingTable
from .errors import DataFormatError, NumericalError
from .evaluation import QRels, ndcg_at
from .graph import DocumentGraph, build_graph, build_graphs, interaction_matrix
from .model import (
    ForwardTrace,
    HyperParams,
    ModelParams,
    forward,
    forward_batch,
    init_params,
    iter_tensors,
    layer_for_step,
    leading_block,
    save_checkpoint,
)
from .retrieval import PostingsIndex, top_candidates

log = logging.getLogger(__name__)


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

        for step in reversed(range(params.hyper.steps)):
            layer = leading_block(layer_for_step(params, step), m)
            grad = leading_block(layer_for_step(tape, step), m)
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


class AdamState:
    """Adam's learning rate, step count, and moments laid out like the params."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: ModelParams, lr: float = 0.001):
        self.lr = lr
        self.step = 0
        self.m = params.zeros_like()
        self.v = params.zeros_like()


def adam_step(params: ModelParams, tape: ModelParams, state: AdamState) -> None:
    """In-place Adam update with bias correction."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for (name, tensor), (_, grad), (_, m), (_, v) in zip(
        iter_tensors(params),
        iter_tensors(tape),
        iter_tensors(state.m),
        iter_tensors(state.v),
    ):
        if not np.isfinite(grad).all():
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
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

    The documents of a `score` call that have no graph yet are built
    together, in one `build_graphs` call.  Also warns, once per query id,
    when a query has more terms than the model scores.
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
        self._feats: dict[tuple[tuple[int, ...], str], np.ndarray] = {}
        self._truncated: set[str] = set()

    def _cache_graphs(self, doc_ids) -> None:
        """Build every graph of `doc_ids` not cached yet, in one pooled call."""
        missing = [d for d in dict.fromkeys(doc_ids) if d not in self._graphs]
        if missing:
            graphs = build_graphs(
                [self.docs[d] for d in missing], self.window, self.adjacency_mode
            )
            self._graphs.update(zip(missing, graphs))

    def graph(self, doc_id: str) -> DocumentGraph:
        self._cache_graphs([doc_id])
        return self._graphs[doc_id]

    def feats(self, qid: str, doc_id: str) -> np.ndarray:
        # keyed by query text: ids that repeat a text share the matrices
        query = self.queries[qid]
        key = (tuple(query.tokens), doc_id)
        if key not in self._feats:
            self._feats[key] = interaction_matrix(self.graph(doc_id), query, self.emb)
        return self._feats[key]

    def warn_truncated(self, qid: str, budget: int) -> None:
        """Warn, once per query id, when the query has more than `budget` terms."""
        length = len(self.queries[qid].tokens)
        if length > budget and qid not in self._truncated:
            self._truncated.add(qid)
            log.warning("query %s has %d terms; keeping the first %d", qid, length, budget)

    def score(
        self, pairs: list[tuple[str, str]], params: ModelParams, record: bool = False
    ) -> tuple[np.ndarray, list[ForwardTrace] | None]:
        """Score (query id, doc id) pairs in one `forward_batch` call."""
        for qid in dict.fromkeys(qid for qid, _ in pairs):
            self.warn_truncated(qid, params.hyper.max_query_len)
        self._cache_graphs(doc_id for _, doc_id in pairs)
        docs = [
            (self._graphs[doc_id], self.feats(qid, doc_id), self.queries[qid])
            for qid, doc_id in pairs
        ]
        return forward_batch(docs, params, record)


def rank_pools(
    ctx: ScoringContext, pools: dict[str, list[tuple[str, float]]], params: ModelParams
) -> dict[str, list[tuple[str, float]]]:
    """Re-score every (query id: candidate pool) in one batched call; each
    pool comes back in (-score, doc_id) order."""
    rel, _ = ctx.score(
        [(qid, doc_id) for qid, pool in pools.items() for doc_id, _ in pool], params
    )
    scores = iter(rel.tolist())
    ranked = {}
    for qid, pool in pools.items():
        rescored = [(doc_id, next(scores)) for doc_id, _ in pool]
        ranked[qid] = sorted(rescored, key=lambda pair: (-pair[1], pair[0]))
    return ranked


def score_pool(
    ctx: ScoringContext, qid: str, pool: list[tuple[str, float]], params: ModelParams
) -> list[tuple[str, float]]:
    """`rank_pools` of one pool."""
    return rank_pools(ctx, {qid: pool}, params)[qid]


def _validation_ndcg(
    ctx: ScoringContext,
    params: ModelParams,
    pools: dict[str, list[tuple[str, float]]],
    qrels: QRels,
    val_qids: list[str],
    epoch: int,
    cutoff: int = 20,
) -> float:
    """Mean nDCG@cutoff over the judged validation queries, every pool
    scored in one call; a query with an empty pool counts 0."""
    judged = [q for q in val_qids if qrels.get(q) and max(qrels[q].values()) > 0]
    ranked = rank_pools(ctx, {qid: pools[qid] for qid in judged}, params)
    if not np.isfinite([v for pool in ranked.values() for _, v in pool]).all():
        raise NumericalError(f"epoch {epoch}: non-finite validation score")
    values = [ndcg_at([d for d, _ in ranked[q]], qrels[q], cutoff) for q in judged]
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
    hyper = HyperParams(**{f.name: getattr(cfg, f.name) for f in fields(HyperParams)})
    params = init_params(hyper, seed_stream(cfg.seed, "init"))
    state = AdamState(params, lr=cfg.lr)
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
            rel, traces = ctx.score(
                [(t.query_id, doc) for t in batch for doc in (t.pos_doc, t.neg_doc)],
                params,
                record=True,
            )
            if not np.isfinite(rel).all():
                raise NumericalError(f"epoch {epoch}: non-finite training score")
            batch_losses, d_rel = pairwise_hinge(rel)
            losses.extend(batch_losses.tolist())
            correct += int(np.count_nonzero(rel[0::2] > rel[1::2]))
            tape = backward(traces, d_rel)
            for _, grad in iter_tensors(tape):
                grad *= 1.0 / len(batch)
            adam_step(params, tape, state)

        val = (
            _validation_ndcg(ctx, params, pools, qrels, val_qids, epoch)
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
        with atomic_write(log_path) as fh:
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

    pair = [(graph_p, S_p, query), (graph_n, S_n, query)]

    def loss_now() -> float:
        rel, _ = forward_batch(pair, params)
        return float(hinge_loss(rel[0], rel[1]))

    rel, traces = forward_batch(pair, params, record=True)
    tape = backward(traces, pairwise_hinge(rel)[1])
    if tamper is not None:
        tamper(tape)

    grads = dict(iter_tensors(tape))
    per_tensor: dict[str, float] = {}
    for name, tensor in iter_tensors(params):
        flat = tensor.reshape(-1)
        grad_flat = grads[name].reshape(-1)
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
