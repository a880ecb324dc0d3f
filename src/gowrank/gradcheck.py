"""The gradient audit: the hand-written backward pass against central
finite differences, on random instances kept away from every kink."""

from __future__ import annotations

import numpy as np

from .config import HyperParams
from .corpus import Query, TokenizedDoc
from .graph import build_graph
from .model import (
    ForwardTrace, backward, forward, forward_batch, hinge_loss, init_params, iter_tensors,
    pairwise_hinge,
)

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


def _unread_exact(flat, grad_flat, unread, loss_now, loss) -> bool:
    """Whether the `unread` coordinates of `flat` have gradient exactly 0 and
    the loss stays `loss`, bit for bit, with all of them shifted by ±FD_STEP."""
    original, moved = flat[unread], grad_flat[unread].any()
    for step in () if moved else (FD_STEP, -FD_STEP):
        flat[unread] = original + step
        moved = moved or loss_now() != loss
        flat[unread] = original
    return not moved


def _selection_safe(trace: ForwardTrace, k: int) -> bool:
    """True when every pooled column's order is robust to tiny nudges."""
    h_final = trace.states[-1]
    boundary = min(k + 1, h_final.shape[0])
    top = np.sort(h_final, axis=0)[::-1][:boundary]
    gaps = -np.diff(top, axis=0)
    return not (gaps.size and gaps.min() < _SAFETY_GAP)


def _checkable_instance(rng, n: int, m: int, steps: int, k: int):
    """Instance pair whose loss is differentiable in a 2*FD_STEP ball.

    Re-rolls until the hinge is active but away from its kink, and the
    top-k selections have clear margins.
    """
    hyper = HyperParams(steps=steps, pool_k=k, max_query_len=8)
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
) -> dict:
    """Compare the hand-written backward pass against central differences.

    Every coordinate of every tensor is checked: one at a time, except that
    those the forward pass never reads (past the leading m x m blocks and
    m-entry biases) are checked together when `_unread_exact` holds.
    Returns a report with per-tensor and overall worst relative errors.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6FD]))
    graph_p, S_p, graph_n, S_n, query, params = _checkable_instance(rng, n, m, steps, k)

    pair = [(graph_p, S_p, query), (graph_n, S_n, query)]

    def loss_now() -> float:
        rel, _ = forward_batch(pair, params)
        return float(hinge_loss(rel[0], rel[1]))

    rel, traces = forward_batch(pair, params, record=True)
    tape = backward(traces, pairwise_hinge(rel)[1])

    grads, loss = dict(iter_tensors(tape)), loss_now()
    per_tensor: dict[str, float] = {}
    for name, tensor in iter_tensors(params):
        flat = tensor.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        read = np.zeros(tensor.shape, bool)
        read[(slice(m if name.startswith("layer0.") else None),) * tensor.ndim] = True
        read = read.reshape(-1)
        coords = np.flatnonzero(read) if _unread_exact(
            flat, grad_flat, np.flatnonzero(~read), loss_now, loss) else range(flat.size)
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
