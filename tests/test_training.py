"""Training internals: hinge values, the hand-written backward pass
against central differences, Adam, triplet sampling, and the epoch loop
on a tiny separable corpus."""

import json
import logging
import math
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import gowrank.model
import helpers
import reference
from gowrank.config import RunConfig, seed_stream
from gowrank.corpus import Query, TokenizedDoc
from gowrank.datagen import bridged_corpus
from gowrank.embeddings import EmbeddingTable
from gowrank.errors import DataFormatError, NumericalError
from gowrank.evaluation import ndcg_at
from gowrank.graph import build_graph, build_graphs
from gowrank.model import (
    BLOCK_NODES,
    SCORE_NODES,
    HyperParams,
    backward,
    forward,
    forward_batch,
    gate_weights,
    hinge_loss,
    init_params,
    iter_tensors,
    load_checkpoint,
    pairwise_hinge,
    readout,
    score,
    score_blocks,
    stack_blocks,
)
from gowrank import cli, gradcheck, scoring, training
from gowrank.retrieval import build_index, top_candidates
from gowrank.scoring import rank_pools
from gowrank.training import (
    AdamState,
    ScoringContext,
    Triplet,
    adam_step,
    grad_check,
    sample_triplets,
    score_pool,
    train,
    usable_queries,
)


class TestHingeLoss:
    def test_satisfied_margin(self):
        assert hinge_loss(2.0, 0.5) == 0.0

    def test_equal_scores(self):
        assert hinge_loss(1.0, 1.0) == 1.0

    def test_violated_margin(self):
        assert hinge_loss(0.0, 0.5) == 1.5

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.uniform(-3, 3, size=2)
            assert hinge_loss(a, b) >= 0.0


def _forward_pair(rng, n=8, m=3, steps=2, k=3):
    """Two documents scored against a shared query and shared params in
    one recorded batch: (rel, traces, params)."""
    graph_p, s_p, query, params = helpers.random_instance(rng, n, m, steps, k)
    graph_n, s_n, _, _ = helpers.random_instance(rng, n, m, steps, k)
    rel, traces = forward_batch(
        [(graph_p, s_p, query), (graph_n, s_n, query)], params, record=True
    )
    return rel, traces, params


class TestBackward:
    """Reverse-mode gradients of the pairwise hinge."""

    def test_zero_loss_gives_exactly_zero_tape(self):
        rng = np.random.default_rng(11)
        _, traces, _ = _forward_pair(rng)
        # a comfortably satisfied margin routes no gradient to either side
        losses, d_rel = pairwise_hinge(np.array([2.0, 0.5]))
        assert losses.tolist() == [0.0]
        tape = backward(traces, d_rel)
        for name, grad in iter_tensors(tape):
            assert np.all(grad == 0.0), name

    def test_accumulation_adds(self):
        # the same pair twice in one batch: every gradient doubles
        rng = np.random.default_rng(12)
        graph_p, s_p, query, params = helpers.random_instance(rng, 8, 3, 2, 3)
        graph_n, s_n, _, _ = helpers.random_instance(rng, 8, 3, 2, 3)
        pair = [(graph_p, s_p, query), (graph_n, s_n, query)]
        rel, traces = forward_batch(pair, params, record=True)
        single = backward(traces, pairwise_hinge(rel)[1])
        rel, traces = forward_batch(pair + pair, params, record=True)
        double = backward(traces, pairwise_hinge(rel)[1])
        for (name, one), (_, two) in zip(iter_tensors(single), iter_tensors(double)):
            npt.assert_allclose(two, 2.0 * one, err_msg=name)

    def test_zero_steps_trains_only_scoring_head(self):
        """With no propagation, layer tensors are dead parameters."""
        rng = np.random.default_rng(15)
        for attempt in range(20):
            rel, traces, params = _forward_pair(rng, steps=0)
            if hinge_loss(rel[0], rel[1]) > 1e-3:
                break
        else:
            pytest.fail("never sampled an active-hinge pair")
        tape = backward(traces, pairwise_hinge(rel)[1])
        for name, grad in iter_tensors(tape):
            if name.startswith("layer"):
                assert np.all(grad == 0.0), name
        assert np.abs(tape.out_w).max() > 0.0
        assert float(np.abs(tape.idf_scale)) > 0.0

    def test_gradient_confined_to_leading_blocks(self):
        """A 3-term query trains only the weights that act on 3 columns."""
        rng = np.random.default_rng(17)
        for attempt in range(20):
            rel, traces, params = _forward_pair(rng, m=3)
            if hinge_loss(rel[0], rel[1]) > 1e-3:
                break
        else:
            pytest.fail("never sampled an active-hinge pair")
        assert params.hyper.max_query_len == 8
        tape = backward(traces, pairwise_hinge(rel)[1])
        for name, grad in iter_tensors(tape):
            if not name.startswith("layer"):
                continue
            outside = grad.copy()
            if grad.ndim == 2:
                outside[:3, :3] = 0.0
            else:
                outside[:3] = 0.0
            assert np.all(outside == 0.0), name
            assert np.abs(grad).max() > 0.0, name

    def test_unselected_node_state_does_not_affect_score(self):
        """Pooling routes gradient only through the selected entries."""
        rng = np.random.default_rng(16)
        k = 2
        graph, s, query, params = helpers.random_instance(rng, 9, 3, 1, k)
        _, trace = forward(graph, s, query, params)
        h_final = trace.states[-1]
        pooled, idx = readout(h_final, k, [len(h_final)])
        gates = gate_weights(trace.idf, float(params.idf_scale))
        rel_before, _ = score(pooled, gates, params.out_w, params.out_b)

        col = 0
        selected = set(idx[0, col][idx[0, col] >= 0].tolist())
        unselected = [i for i in range(h_final.shape[0]) if i not in selected]
        kth_value = h_final[idx[0, col, len(selected) - 1], col]
        node = min(unselected, key=lambda i: h_final[i, col])
        nudge = min(1e-4, 0.5 * (kth_value - h_final[node, col]))
        assert nudge > 0.0

        bumped = h_final.copy()
        bumped[node, col] += nudge
        pooled2, _ = readout(bumped, k, [len(bumped)])
        rel_after, _ = score(pooled2, gates, params.out_w, params.out_b)
        assert rel_after == rel_before


def _mixed_batch(rng):
    """Documents for one batched call: query widths 1-8 and 10 (past
    `max_query_len` 8), documents of 0, 1 and 2 nodes (fewer than pool_k),
    mid-sized ones, and one width whose documents exceed BLOCK_NODES."""
    docs = []
    for width in [1, 2, 3, 4, 5, 6, 7, 8, 10]:
        query = Query(f"q{width}", list(range(width)), rng.uniform(0.1, 3.0, width))
        sizes = [0, 1, 2, 9, 30] if width != 3 else [900, 700, 0, 800]
        for n in sizes:
            graph = helpers.random_graph(rng, n)
            docs.append((graph, rng.uniform(-1.0, 1.0, size=(n, width)), query))
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]


def _rel_err(got, want, scale):
    """Largest |got - want| relative to `scale`, the summed magnitude of
    the contributions; exactly 0 is required where that scale is 0."""
    err = np.abs(got - want).max(initial=0.0)
    top = np.abs(scale).max(initial=0.0)
    return err / top if top else err


class TestBatchedAgainstOracle:
    """`forward_batch` and `backward` against the per-document path of
    `tests/reference.py`, on batches that mix widths and document sizes."""

    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
    @pytest.mark.parametrize("block_nodes", [None, 40])
    def test_scores_and_summed_gradients(self, monkeypatch, steps, block_nodes):
        if block_nodes is not None:
            monkeypatch.setattr(gowrank.model, "BLOCK_NODES", block_nodes)
        rng = np.random.default_rng(300 + 10 * steps)
        hyper = HyperParams(steps=steps, pool_k=5, max_query_len=8)
        params = helpers.random_params(rng, hyper)
        docs = _mixed_batch(rng)
        # one document in three is on the satisfied side of its hinge
        d_rel = rng.choice([-1.0, 0.0, 1.0], size=len(docs))

        rel, traces = forward_batch(docs, params, record=True)
        tape = backward(traces, d_rel)

        oracle = params.zeros_like()
        magnitude = params.zeros_like()
        for i, (graph, S, query) in enumerate(docs):
            want, trace = reference.doc_forward(graph, S, query, params)
            assert helpers.rel_diff(rel[i], want) < 1e-12, i
            if d_rel[i]:
                reference.doc_backprop(trace, params, d_rel[i], oracle)
                one = params.zeros_like()
                reference.doc_backprop(trace, params, d_rel[i], one)
                for (_, total), (_, part) in zip(iter_tensors(magnitude),
                                                 iter_tensors(one)):
                    total += np.abs(part)
        for (name, got), (_, want), (_, scale) in zip(
            iter_tensors(tape), iter_tensors(oracle), iter_tensors(magnitude)
        ):
            assert _rel_err(got, want, scale) < 1e-12, name

    def test_inactive_documents_add_exactly_nothing(self):
        rng = np.random.default_rng(320)
        hyper = HyperParams(steps=2, pool_k=5, max_query_len=8)
        params = helpers.random_params(rng, hyper)
        docs = _mixed_batch(rng)
        d_rel = rng.choice([-1.0, 0.0, 1.0], size=len(docs))
        _, traces = forward_batch(docs, params, record=True)
        tape = backward(traces, d_rel)
        # other features for every inactive document: not one bit moves
        swapped = [
            (graph, S if d else rng.uniform(-1.0, 1.0, size=S.shape), query)
            for (graph, S, query), d in zip(docs, d_rel)
        ]
        _, swapped_traces = forward_batch(swapped, params, record=True)
        again = backward(swapped_traces, d_rel)
        for (name, a), (_, b) in zip(iter_tensors(tape), iter_tensors(again)):
            assert a.tobytes() == b.tobytes(), name
        # an all-inactive batch leaves the tape exactly zero
        idle = backward(traces, np.zeros(len(docs)))
        for name, grad in iter_tensors(idle):
            assert np.all(grad == 0.0), name


def _zipf_pool(rng):
    """A rerank pool of 500-token Zipf documents: 60 graphs over 2000 terms,
    each with its features against each of 3 queries of 2 to 4 terms."""
    emb = EmbeddingTable(16, rng.normal(size=(2000, 16)))
    docs = [TokenizedDoc(f"d{i}", (rng.zipf(1.2, size=500) % 2000).tolist(), 500)
            for i in range(60)]
    graphs = build_graphs(docs, window=5)
    queries = [Query(f"q{m}", rng.choice(2000, size=m, replace=False).tolist(),
                     rng.uniform(0.1, 3.0, m)) for m in (2, 3, 4)]
    return [(g, helpers.features(g, q, emb), q) for q in queries for g in graphs]


class TestScoreBlocks:
    """Scoring with no gradient stacks blocks of up to SCORE_NODES rows and
    a recorded pass keeps BLOCK_NODES; these batches' scores keep their
    bytes either way."""

    @pytest.mark.parametrize("batch", ["mixed", "zipf-pool"])
    def test_scores_equal_bit_for_bit_across_block_sizes(self, monkeypatch, batch):
        rng = np.random.default_rng(340)
        docs = _mixed_batch(rng) if batch == "mixed" else _zipf_pool(rng)
        params = helpers.random_params(rng, HyperParams(steps=2, pool_k=40, max_query_len=8))
        scored, _ = forward_batch(docs, params)
        recorded, _ = forward_batch(docs, params, record=True)
        alone = np.concatenate([forward_batch([doc], params)[0] for doc in docs])
        monkeypatch.setattr(gowrank.model, "SCORE_NODES", BLOCK_NODES)
        small, _ = forward_batch(docs, params)
        assert scored.tobytes() == small.tobytes() == recorded.tobytes()
        # alone, a document is a product of its own: numpy multiplies one row
        # as a vector, not a matrix, and the Haswell and Prescott kernels
        # round the last of an odd number of 8-column rows otherwise, so
        # those scores may move in their last bits
        edge = np.array([g.num_nodes == 1 or (S.shape[1] >= 8 and g.num_nodes % 2)
                         for g, S, _ in docs])
        assert alone[~edge].tobytes() == scored[~edge].tobytes()
        npt.assert_allclose(alone[edge], scored[edge], rtol=0, atol=1e-15)

    @pytest.mark.skipif(not helpers.openblas_dynamic_arch(),
                        reason="numpy's BLAS cannot be switched to another kernel")
    def test_scores_equal_across_block_sizes_on_the_oldest_kernel(self):
        # the test above and the GRU update's oracle test in a fresh process
        # on the oldest x86-64 kernel
        root = Path(__file__).resolve().parents[1]
        nodes = [f"{__file__}::TestScoreBlocks::test_scores_equal_bit_for_bit_across_block_sizes",
                 f"{Path(__file__).with_name('test_model.py')}::TestGruUpdate"
                 "::test_bytes_equal_the_one_expression_update"]
        env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *nodes], cwd=root, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0 and "3 passed" in done.stdout, done.stdout + done.stderr

    def test_blocks_are_cut_at_the_limit_of_their_pass(self, monkeypatch):
        rng = np.random.default_rng(341)
        docs = _zipf_pool(rng) + _mixed_batch(rng)
        params = helpers.random_params(rng, HyperParams(steps=1, pool_k=5, max_query_len=8))
        blocks, cut = {}, gowrank.model._blocks

        def spied(widths, sizes, limit):
            for m, members in cut(widths, sizes, limit):
                blocks[record].append((len(members), len(members) * sizes[members].max()))
                yield m, members

        monkeypatch.setattr(gowrank.model, "_blocks", spied)
        for record in (True, False):
            blocks[record] = []
            forward_batch(docs, params, record)
        # padded rows: a block's documents padded to its largest one
        for record, limit in ((True, BLOCK_NODES), (False, SCORE_NODES)):
            assert all(n == 1 or rows <= limit for n, rows in blocks[record]), record
        assert max(rows for n, rows in blocks[False] if n > 1) > BLOCK_NODES
        assert len(blocks[False]) < len(blocks[True])


class TestStackThenScore:
    """`forward_batch` is `score_blocks` of `stack_blocks`; blocks kept in a
    list score the same bits again and are not changed by scoring."""

    @staticmethod
    def _batch(rng, kind):
        if kind == "mixed":  # widths 1-8 and 10, documents of 0, 1, 2 and more nodes
            return _mixed_batch(rng)
        query = Query("q3", [0, 1, 2], rng.uniform(0.1, 3.0, 3))
        sizes = {"one-row": [1], "one-row-and-empty": [0, 1]}[kind]
        return [(helpers.random_graph(rng, n), rng.uniform(-1.0, 1.0, size=(n, 3)), query)
                for n in sizes]

    @pytest.mark.parametrize("kind", ["mixed", "one-row", "one-row-and-empty"])
    @pytest.mark.parametrize("record", [False, True])
    def test_bits_equal_forward_batch_and_score_again(self, kind, record):
        rng = np.random.default_rng(350)
        params = helpers.random_params(rng, HyperParams(steps=2, pool_k=5, max_query_len=8))
        docs = self._batch(rng, kind)
        rel, traces = forward_batch(docs, params, record)
        blocks = list(stack_blocks(docs, params.hyper.max_query_len, record))
        kept = [[a.copy() for a in (members, adj.data, adj.indices, adj.indptr, h, idf, sizes)]
                for members, adj, h, idf, sizes in blocks]
        shapes = {h.shape for _, _, h, _, _ in blocks}  # (rows, width) per block
        assert (1, 3) in shapes if kind != "mixed" else 8 in {m for _, m in shapes}
        d_rel = rng.choice([-1.0, 1.0], size=len(docs))
        for _ in range(2):
            again, again_traces = score_blocks(blocks, params, record)
            assert again.tobytes() == rel.tobytes()
            if record:
                tapes = [backward(t, d_rel).flat.tobytes() for t in (traces, again_traces)]
                assert tapes[0] == tapes[1]
        for (members, adj, h, idf, sizes), before in zip(blocks, kept):
            after = (members, adj.data, adj.indices, adj.indptr, h, idf, sizes)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    def test_zero_width_query_is_named(self):
        rng = np.random.default_rng(351)
        params = helpers.random_params(rng, HyperParams(steps=1, pool_k=2, max_query_len=8))
        graph = helpers.random_graph(rng, 3)
        docs = [(graph, rng.uniform(size=(3, 2)), Query("two", [0, 1], np.ones(2))),
                (graph, np.zeros((3, 0)), Query("none-a", [], np.ones(0))),
                (graph, np.zeros((3, 0)), Query("none-b", [], np.ones(0)))]
        for stacked in (lambda: forward_batch(docs, params),
                        lambda: list(stack_blocks(docs, 8))):
            with pytest.raises(DataFormatError, match="^query 'none-a' has no scoreable terms$"):
                stacked()


class TestGradCheck:
    """Central-difference verification of the analytic gradients."""

    def test_standard_instance(self):
        report = grad_check(n=12, m=4, steps=2, k=3, seed=0)
        assert report["passed"], report
        assert report["max_rel_err"] < 1e-5

    def test_single_node_document(self):
        report = grad_check(n=1, m=2, steps=2, k=3, seed=1)
        assert report["passed"], report

    def test_pool_wider_than_document(self):
        report = grad_check(n=5, m=3, steps=2, k=8, seed=2)
        assert report["passed"], report

    def test_single_step(self):
        report = grad_check(n=6, m=3, steps=1, k=4, seed=4)
        assert report["passed"], report

    def test_report_covers_every_tensor(self):
        report = grad_check(n=5, m=2, steps=2, k=3, seed=5)
        names = set(report["per_tensor"])
        expected = {f"layer0.{f}" for f in (
            "msg_w", "w_up", "u_up", "b_up", "w_reset", "u_reset", "b_reset",
            "w_cand", "u_cand", "b_cand",
        )} | {"out_w", "out_b", "idf_scale"}
        assert names == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unread_coordinates_checked_together_change_no_bit(self, monkeypatch, seed):
        # the shapes of acceptance criterion 1, against the loop over every
        # coordinate, which the group check falls back to
        shapes = (dict(n=12, m=4, steps=2, k=3), dict(n=1, m=2, steps=2, k=3),
                  dict(n=5, m=3, steps=2, k=8))
        calls, forward_batch = [], gradcheck.forward_batch

        def counted(*args, **kwargs):
            calls.append(None)
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr(gradcheck, "forward_batch", counted)
        grouped = [grad_check(seed=seed, **shape) for shape in shapes]
        forwards = len(calls)
        monkeypatch.setattr(gradcheck, "_unread_exact", lambda *args: False)
        full = [grad_check(seed=seed, **shape) for shape in shapes]
        assert repr(grouped) == repr(full)
        assert 4 * forwards < len(calls) - forwards

    def test_tampered_gradient_is_caught(self, monkeypatch):
        def corrupted(*args, **kwargs):
            tape = backward(*args, **kwargs)
            tape.layer.u_cand += 0.05
            return tape

        monkeypatch.setattr(gradcheck, "backward", corrupted)
        report = grad_check(n=8, m=3, steps=2, k=3, seed=6)
        assert not report["passed"]
        assert report["per_tensor"]["layer0.u_cand"] > 1e-3
        clean = [
            err for name, err in report["per_tensor"].items()
            if name != "layer0.u_cand"
        ]
        assert max(clean) < 1e-5


class TestAdam:
    def _tape_like(self, params, fill=None, rng=None):
        tape = params.zeros_like()
        for _, grad in iter_tensors(tape):
            if rng is not None:
                grad[...] = rng.uniform(-1.0, 1.0, size=grad.shape)
            elif fill is not None:
                grad[...] = fill
        return tape

    def test_first_step_moves_by_learning_rate(self):
        rng = np.random.default_rng(20)
        hyper = HyperParams(steps=1, pool_k=3, max_query_len=8)
        params = init_params(hyper, rng)
        before = {name: t.copy() for name, t in iter_tensors(params)}
        tape = self._tape_like(params, rng=rng)
        # keep magnitudes far above eps so |step| ~ lr exactly
        for _, grad in iter_tensors(tape):
            grad[np.abs(grad) < 0.1] = 0.5
        state = AdamState(params, lr=0.002)
        adam_step(params, tape, state)
        for name, tensor in iter_tensors(params):
            delta = np.abs(tensor - before[name])
            npt.assert_allclose(delta, 0.002, rtol=1e-4)

    def test_zero_gradient_is_a_no_op_but_counts(self):
        rng = np.random.default_rng(21)
        params = init_params(HyperParams(steps=1, pool_k=3, max_query_len=8), rng)
        before = {name: t.copy() for name, t in iter_tensors(params)}
        state = AdamState(params)
        adam_step(params, params.zeros_like(), state)
        assert state.step == 1
        for name, tensor in iter_tensors(params):
            npt.assert_array_equal(tensor, before[name])

    def test_two_steps_match_hand_formula(self):
        rng = np.random.default_rng(22)
        params = init_params(HyperParams(steps=0, pool_k=2, max_query_len=8), rng)
        theta0 = float(params.out_b)
        state = AdamState(params, lr=0.01)
        g1, g2 = 0.3, -0.2
        for g in (g1, g2):
            tape = params.zeros_like()
            tape.out_b[...] = g
            adam_step(params, tape, state)

        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        m = (1 - b1) * g1
        v = (1 - b2) * g1 * g1
        theta = theta0 - lr * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        theta -= lr * (m / (1 - b1**2)) / (math.sqrt(v / (1 - b2**2)) + eps)
        assert float(params.out_b) == pytest.approx(theta, abs=1e-15)

    def test_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(23)
            params = init_params(HyperParams(steps=1, pool_k=3, max_query_len=8),
                                 np.random.default_rng(5))
            state = AdamState(params)
            for _ in range(100):
                tape = self._tape_like(params, rng=rng)
                adam_step(params, tape, state)
            return {name: t.tobytes() for name, t in iter_tensors(params)}

        assert run() == run()

    def test_nonfinite_gradient_names_the_tensor(self):
        rng = np.random.default_rng(24)
        params = init_params(HyperParams(steps=1, pool_k=3, max_query_len=8), rng)
        state = AdamState(params)
        tape = params.zeros_like()
        tape.layer.w_up[0, 0] = np.nan
        with pytest.raises(NumericalError, match="layer0.w_up"):
            adam_step(params, tape, state)

    def test_nonfinite_gradient_changes_nothing(self):
        rng = np.random.default_rng(25)
        params = init_params(HyperParams(steps=1, pool_k=3, max_query_len=8), rng)
        state = AdamState(params)
        adam_step(params, self._tape_like(params, rng=rng), state)
        before = {name: t.copy() for name, t in iter_tensors(params)}
        m, v = state.m.copy(), state.v.copy()
        tape = self._tape_like(params, rng=rng)
        tape.idf_scale[...] = np.nan
        with pytest.raises(NumericalError, match="'idf_scale'"):
            adam_step(params, tape, state)
        for name, tensor in iter_tensors(params):
            npt.assert_array_equal(tensor, before[name])
        npt.assert_array_equal(state.m, m)
        npt.assert_array_equal(state.v, v)
        assert state.step == 1


class TestTripletSampling:
    POOLS = {
        "q1": [("d1", 9.0), ("d2", 8.0), ("d3", 7.0)],
        "q2": [("d4", 5.0), ("d5", 4.0)],
    }
    QRELS = {
        "q1": {"d1": 1, "d2": 0},          # d3 unjudged
        "q2": {"d9": 2, "d4": 0, "d5": 0},  # relevant doc missing from pool
    }

    def test_positives_come_from_the_pool(self):
        rng = np.random.default_rng(30)
        triplets = sample_triplets(
            usable_queries(self.QRELS, {"q1": self.POOLS["q1"]}), rng, 200
        )
        assert {t.pos_doc for t in triplets} == {"d1"}

    def test_negatives_include_unjudged_by_default(self):
        rng = np.random.default_rng(31)
        triplets = sample_triplets(
            usable_queries(self.QRELS, {"q1": self.POOLS["q1"]}), rng, 400
        )
        assert {t.neg_doc for t in triplets} == {"d2", "d3"}

    def test_fallback_to_judged_relevant_outside_pool(self):
        rng = np.random.default_rng(33)
        triplets = sample_triplets(
            usable_queries(self.QRELS, {"q2": self.POOLS["q2"]}), rng, 100
        )
        assert {t.pos_doc for t in triplets} == {"d9"}
        assert {t.neg_doc for t in triplets} == {"d4", "d5"}

    def test_both_queries_get_sampled(self):
        rng = np.random.default_rng(34)
        triplets = sample_triplets(usable_queries(self.QRELS, self.POOLS), rng, 300)
        assert {t.query_id for t in triplets} == {"q1", "q2"}
        assert len(triplets) == 300

    def test_unusable_query_is_dropped_and_logged(self, caplog):
        pools = {"q3": [("d1", 1.0)]}
        qrels = {"q3": {"d1": 1}}  # no negatives anywhere
        with caplog.at_level(logging.INFO, logger="gowrank.training"):
            usable = usable_queries(qrels, pools)
        assert usable == {}
        assert any("excluded" in r.message for r in caplog.records)

    def test_no_usable_queries_raises(self):
        rng = np.random.default_rng(35)
        with pytest.raises(DataFormatError, match="no trainable queries"):
            sample_triplets(
                usable_queries({"q3": {"d1": 1}}, {"q3": [("d1", 1.0)]}), rng, 8
            )

    def test_same_seed_same_triplets(self):
        usable = usable_queries(self.QRELS, self.POOLS)
        a = sample_triplets(usable, np.random.default_rng(36), 50)
        b = sample_triplets(usable, np.random.default_rng(36), 50)
        assert a == b


# --- tiny separable corpus for the epoch loop ------------------------------


def _tiny_world():
    """Two queries; positives align with the query vectors, negatives
    anti-align — linearly separable interaction features."""
    dim = 4
    vectors = np.zeros((12, dim))
    vectors[0] = [1, 0, 0, 0]   # query A terms
    vectors[1] = [0, 1, 0, 0]
    vectors[2] = [0, 0, 1, 0]   # query B terms
    vectors[3] = [0, 0, 0, 1]
    vectors[4] = [1, 0, 0, 0]   # aligned with A
    vectors[5] = [0, 1, 0, 0]
    vectors[6] = [0, 0, 1, 0]   # aligned with B
    vectors[7] = [0, 0, 0, 1]
    vectors[8] = [-1, 0, 0, 0]  # anti-aligned fillers
    vectors[9] = [0, -1, 0, 0]
    vectors[10] = [0, 0, -1, 0]
    vectors[11] = [0, 0, 0, -1]
    emb = EmbeddingTable(dim, vectors)

    docs = {}
    qrels = {"qa": {}, "qb": {}}
    rng = np.random.default_rng(99)
    for i in range(4):
        pos_a = [0, 4, 5, 4, 5, 4] + list(rng.integers(4, 6, size=3))
        neg_a = [0, 8, 9, 8, 9, 8] + list(rng.integers(8, 10, size=3))
        pos_b = [2, 6, 7, 6, 7, 6] + list(rng.integers(6, 8, size=3))
        neg_b = [2, 10, 11, 10, 11, 10] + list(rng.integers(10, 12, size=3))
        for tag, tokens, qid, grade in (
            (f"pa{i}", pos_a, "qa", 1),
            (f"na{i}", neg_a, "qa", 0),
            (f"pb{i}", pos_b, "qb", 1),
            (f"nb{i}", neg_b, "qb", 0),
        ):
            docs[tag] = TokenizedDoc(tag, [int(t) for t in tokens], len(tokens))
            qrels[qid][tag] = grade

    queries = {
        "qa": Query("qa", [0, 1], np.array([1.2, 1.4])),
        "qb": Query("qb", [2, 3], np.array([1.1, 1.3])),
    }
    index = build_index(docs.values())
    return docs, queries, qrels, index, emb


def _tiny_config(**overrides):
    base = dict(
        min_freq=1,
        window=3,
        steps=1,
        pool_k=4,
        max_query_len=4,
        lr=0.02,
        epochs=10,
        batch=4,
        steps_per_epoch=2,
        candidates=20,
        seed=7,
    )
    base.update(overrides)
    return RunConfig(**base)


def _train_and_write(log_path, cfg, train_qids, val_qids):
    """`train` on the tiny world, then `cmd_train`'s writes of its log and
    of its checkpoint, to `cfg.checkpoint`."""
    docs, queries, qrels, index, emb = _tiny_world()
    params, records = train(docs, queries, qrels, index, emb, cfg,
                            train_qids=train_qids, val_qids=val_qids)
    cli._write_training(cfg, log_path, params, records)
    return params, records


def _tied_world():
    """`_tiny_world` plus copies of pa1 and nb2, which tie with them
    exactly, so the (-score, doc_id) order is exercised as well as the
    scores; a three-term query; and random two-step parameters."""
    docs, queries, qrels, _, emb = _tiny_world()
    for source in ("pa1", "nb2"):
        copy = f"z-{source}"
        docs[copy] = TokenizedDoc(copy, list(docs[source].tokens), 9)
    queries["mixed"] = Query("mixed", [0, 1, 2], np.array([1.2, 1.4, 0.9]))
    params = helpers.random_params(
        np.random.default_rng(41), HyperParams(steps=2, pool_k=4, max_query_len=8)
    )
    return docs, queries, qrels, emb, params


class TestScoringContext:
    def test_each_missing_graph_built_once_per_call(self, monkeypatch):
        docs, queries, _, _, emb = _tiny_world()
        ctx = ScoringContext(docs, queries, emb, 3, "sequence")
        params = init_params(
            HyperParams(steps=1, pool_k=4, max_query_len=8),
            np.random.default_rng(0),
        )
        calls = []

        def counted(batch, window, mode):
            calls.append([doc.doc_id for doc in batch])
            assert (window, mode) == (3, "sequence")
            return build_graphs(batch, window, mode)

        monkeypatch.setattr(scoring, "build_graphs", counted)
        # pa0 in three pairs under two queries, na0 in two
        ctx.score([("qa", "pa0"), ("qb", "pa0"), ("qa", "na0"), ("qa", "pa0"),
                   ("qb", "na0"), ("qb", "pb0")], params)
        assert calls == [["pa0", "na0", "pb0"]]
        ctx.score([("qa", "pb0"), ("qb", "nb0"), ("qa", "pa0"), ("qb", "pa1"),
                   ("qb", "nb0")], params, record=True)
        assert calls[1:] == [["nb0", "pa1"]]
        ctx.score([("qb", "nb0"), ("qa", "pa1")], params)
        score_pool(ctx, "qa", [("pa0", 0.0), ("na0", 0.0)], params)
        assert len(calls) == 2

    def test_train_builds_each_epoch_in_one_call(self, monkeypatch, tmp_path):
        # the README config, shortened: each epoch's sampled documents are
        # built before its first step, and the validation pools after epoch 1
        bridged_corpus(seed=0).write(tmp_path)
        epochs, conf = 3, tmp_path / "run.conf"
        conf.write_text("".join(f"{key} = {value}\n" for key, value in {
            "corpus": tmp_path / "corpus.jsonl", "queries": tmp_path / "queries.tsv",
            "qrels": tmp_path / "qrels.txt", "embeddings": tmp_path / "embeddings.txt",
            "index_dir": tmp_path / "index", "checkpoint": tmp_path / "model.ckpt",
            "min_freq": 1, "window": 7, "pool_k": 12, "lr": 0.005, "epochs": epochs,
            "steps_per_epoch": 8}.items()))
        assert cli.main(["index", "--config", str(conf)]) == 0
        calls = []

        def counted(batch, window, mode):
            calls.append([doc.doc_id for doc in batch])
            return build_graphs(batch, window, mode)

        monkeypatch.setattr(scoring, "build_graphs", counted)
        assert cli.main(["train", "--config", str(conf),
                         "--log-out", str(tmp_path / "train.log")]) == 0
        assert 1 < len(calls) <= epochs + 1  # the one more: the validation stack
        built = [doc_id for call in calls for doc_id in call]
        assert len(built) == len(set(built))

    def test_same_text_under_two_ids_shares_features(self, monkeypatch):
        docs, queries, _, _, emb = _tiny_world()
        queries["qa2"] = Query("qa2", list(queries["qa"].tokens), queries["qa"].idf)
        ctx = ScoringContext(docs, queries, emb, 3, "graph")
        params = init_params(
            HyperParams(steps=1, pool_k=4, max_query_len=8),
            np.random.default_rng(0),
        )
        gathers, unit_rows = [], EmbeddingTable.unit_rows

        def gathered(table, term_ids):
            gathers.append(list(term_ids))
            return unit_rows(table, term_ids)

        monkeypatch.setattr(EmbeddingTable, "unit_rows", gathered)
        pool = sorted(docs)
        first, _ = ctx.score([("qa", doc_id) for doc_id in pool], params)
        second, _ = ctx.score([("qa2", doc_id) for doc_id in pool], params)
        # the query side is gathered once per text, not once per document
        assert gathers[0] == list(queries["qa"].tokens)
        # and the node side once per (text, document): qa2 reuses qa's
        assert gathers[1:] == [build_graph(docs[doc_id], 3).node_terms for doc_id in pool]
        assert first.tolist() == second.tolist()

    def test_pool_scored_at_once_ranks_as_one_at_a_time(self):
        docs, queries, _, emb, params = _tied_world()
        ctx = ScoringContext(docs, queries, emb, 3, "graph")
        pool = [(doc_id, 0.0) for doc_id in sorted(docs)]
        for qid in ("qa", "mixed"):
            ranked = score_pool(ctx, qid, pool, params)
            single = [
                (doc_id, forward(graph, helpers.features(graph, queries[qid], emb),
                                 queries[qid], params)[0])
                for doc_id, graph in ((d, build_graph(docs[d], 3)) for d, _ in pool)
            ]
            single.sort(key=lambda pair: (-pair[1], pair[0]))
            assert [d for d, _ in ranked] == [d for d, _ in single]
            npt.assert_allclose([v for _, v in ranked], [v for _, v in single],
                                rtol=1e-12, atol=0)
            scores = dict(ranked)
            assert scores["pa1"] == scores["z-pa1"]
            assert scores["nb2"] == scores["z-nb2"]


class TestQueryPools:
    """`query_pools` decides which ids get which first-stage pool: each
    distinct text with terms is retrieved once, under its first sorted id."""

    def test_pools_by_first_id_each_text_retrieved_once(self, monkeypatch):
        rng = np.random.default_rng(52)
        docs = {}
        for i in range(40):
            tokens = rng.integers(0, 12, size=int(rng.integers(3, 12))).tolist()
            docs[f"d{i:02d}"] = TokenizedDoc(f"d{i:02d}", tokens, len(tokens))
        index = build_index(docs.values())
        queries = {qid: Query(qid, tokens, np.ones(len(tokens))) for qid, tokens in [
            ("b", [3, 5]), ("a", [7]), ("c", [3, 5]), ("e", []),
            ("f", [20, 21]), ("g", [20, 21]),  # terms that no document holds
            ("h", [3, 5, 1]), ("x", [7]),      # x is not asked for
        ]}
        retrieved = []

        def counted(query, *args):
            retrieved.append(tuple(query.tokens))
            return top_candidates(query, *args)

        monkeypatch.setattr(scoring, "top_candidates", counted)
        asked = ["h", "g", "e", "c", "b", "a", "f"]
        for qids in (asked, set(asked)):
            retrieved.clear()
            pools, first = scoring.query_pools(queries, index, 10, qids)
            assert first == {"a": "a", "b": "b", "c": "b", "f": "f", "g": "f", "h": "h"}
            assert list(pools) == ["a", "b", "f", "h"]
            for qid, pool in pools.items():
                assert pool == top_candidates(queries[qid], index, 10)
            assert pools["a"] and pools["b"] and pools["f"] == []
            assert sorted(retrieved) == [(3, 5), (3, 5, 1), (7,), (20, 21)]


class TestRankPools:
    """Every pool of a validation pass or a rerank is scored in one call,
    and ranked exactly as it would be alone."""

    def test_matches_score_pool_per_pool(self):
        docs, queries, _, emb, params = _tied_world()
        pools = {
            "qa": [(d, 0.0) for d in ("z-pa1", "na0", "pa1", "pa0", "nb2")],
            "empty": [],
            # pa0 and nb2 are in two pools each, under other queries
            "mixed": [(d, 0.0) for d in ("nb2", "pa0", "z-nb2", "pb0")],
            "qb": [(d, 0.0) for d in ("z-nb2", "nb2", "pa0")],
        }
        ranked = rank_pools(ScoringContext(docs, queries, emb, 3, "graph"), pools, params)
        assert list(ranked) == list(pools)
        for qid, pool in pools.items():
            alone = score_pool(ScoringContext(docs, queries, emb, 3, "graph"),
                               qid, pool, params)
            assert ranked[qid] == alone
        assert ranked["empty"] == []
        scores = dict(ranked["qa"])
        assert scores["pa1"] == scores["z-pa1"]
        order = [d for d, _ in ranked["qa"]]
        assert order.index("pa1") + 1 == order.index("z-pa1")
        scores = dict(ranked["mixed"])
        assert scores["nb2"] == scores["z-nb2"]

    def test_validation_ndcg_is_the_per_query_mean(self):
        docs, queries, qrels, emb, params = _tied_world()
        qrels = dict(qrels, mixed={"pa0": 1, "pb0": 2}, dry={"pa0": 0},
                     lost={"pa1": 1}, qb2={"nb2": 1, "z-nb2": 2})
        queries["dry"] = queries["lost"] = queries["qb"]
        pools = {
            "qa": [(d, 0.0) for d in sorted(qrels["qa"])],
            "qb": [(d, 0.0) for d in sorted(qrels["qb"]) + ["z-nb2"]],
            "mixed": [(d, 0.0) for d in ("nb2", "pa0", "z-nb2", "pb0")],
            "dry": [("pa0", 0.0)],
            "lost": [],
        }
        # `train` keeps dry, which has no relevant doc, out of validation;
        # qb2 is ranked on qb's pool with its own qrels
        first = {"qb": "qb", "lost": "lost", "mixed": "mixed", "qa": "qa", "qb2": "qb"}
        values = []
        for qid, text_id in first.items():  # lost counts 0
            ctx = ScoringContext(docs, queries, emb, 3, "graph")
            ranked = [d for d, _ in score_pool(ctx, text_id, pools[text_id], params)]
            values.append(ndcg_at(ranked, qrels[qid], 20))
        assert values[1] == 0.0 and values[4] != values[0]
        ctx = ScoringContext(docs, queries, emb, 3, "graph")
        texts = {text_id: pools[text_id] for text_id in first.values()}
        stack = list(ctx.stack(scoring.pool_pairs(texts), params.hyper.max_query_len))
        mean = training._validation_ndcg(stack, params, texts, qrels, first, epoch=1)
        assert mean == sum(values) / len(values)

    @staticmethod
    def _spy_scoring(monkeypatch):
        """Spies on `train`'s scoring: (record, query ids of the pairs) per
        `ScoringContext.stack` call, and the record flag of each
        `score_blocks` call of a training step ("step") or of a
        validation pass ("validation")."""
        stacked, scored = [], []
        stack = scoring.ScoringContext.stack

        def counted_stack(ctx, pairs, max_query_len, record=False):
            stacked.append((record, [qid for qid, _ in pairs]))
            return stack(ctx, pairs, max_query_len, record)

        def counted(kind, score_blocks):
            def scored_blocks(blocks, params, record=False):
                scored.append((kind, record))
                return score_blocks(blocks, params, record)
            return scored_blocks

        monkeypatch.setattr(scoring.ScoringContext, "stack", counted_stack)
        monkeypatch.setattr(scoring, "score_blocks", counted("step", scoring.score_blocks))
        monkeypatch.setattr(training, "score_blocks",
                            counted("validation", training.score_blocks))
        return stacked, scored

    def test_one_forward_per_validation_epoch(self, monkeypatch):
        docs, queries, qrels, index, emb = _tiny_world()
        _, scored = self._spy_scoring(monkeypatch)
        cfg = _tiny_config(epochs=3)
        train(docs, queries, qrels, index, emb, cfg,
              train_qids=["qa", "qb"], val_qids=["qa", "qb"])
        assert scored.count(("validation", False)) == cfg.epochs
        assert scored.count(("step", True)) == cfg.epochs * cfg.steps_per_epoch
        assert len(scored) == cfg.epochs * (cfg.steps_per_epoch + 1)

    def test_validation_pairs_stacked_once_per_train_call(self, monkeypatch):
        docs, queries, qrels, index, emb = _tiny_world()
        stacked, _ = self._spy_scoring(monkeypatch)
        cfg = _tiny_config(epochs=3)
        train(docs, queries, qrels, index, emb, cfg,
              train_qids=["qa", "qb"], val_qids=["qb", "qa"])
        pool = {q: len(top_candidates(queries[q], index, cfg.candidates)) for q in qrels}
        validation = [qids for record, qids in stacked if not record]
        assert validation == [["qb"] * pool["qb"] + ["qa"] * pool["qa"]]
        # every step stacks its own minibatch: (positive, negative) per triplet
        steps = [qids for record, qids in stacked if record]
        assert len(steps) == cfg.epochs * cfg.steps_per_epoch
        assert all(len(qids) == 2 * cfg.batch and qids[0::2] == qids[1::2] for qids in steps)
        # the one validation stack is built after epoch 1's steps, as each
        # pass's stack used to be, so graphs are built in the same order
        assert [record for record, _ in stacked].index(False) == cfg.steps_per_epoch

    def test_validation_scores_each_text_once(self, monkeypatch, tmp_path):
        # qa2 repeats qa's text with qrels of its own: retrieval and
        # validation scoring are per text, the nDCG per id
        docs, queries, qrels, index, emb = _tiny_world()
        queries["qa2"] = Query("qa2", list(queries["qa"].tokens), queries["qa"].idf)
        qrels["qa2"] = {doc_id: 1 for doc_id in sorted(qrels["qa"])[:2]}
        assert qrels["qa2"] != qrels["qa"]
        cfg = _tiny_config(epochs=3, checkpoint=str(tmp_path / "model.ckpt"))
        size = len(top_candidates(queries["qa"], index, cfg.candidates))
        assert size > 0
        logs = []
        for per_id in (False, True):
            stacked, _ = self._spy_scoring(monkeypatch)
            if per_id:  # each id a text of its own, as every id was scored before
                def query_pools(queries, index, candidates, qids, pools=scoring.query_pools):
                    pools, first = pools(queries, index, candidates, qids)
                    return {q: pools[t] for q, t in first.items()}, {q: q for q in first}
                monkeypatch.setattr(training, "query_pools", query_pools)
            _, records = train(docs, queries, qrels, index, emb, cfg,
                               train_qids=["qb"], val_qids=["qa2", "qa"])
            cli._write_training(cfg, tmp_path / "train.log", init_params(
                cfg.hyper(), np.random.default_rng(0)), records)
            logs.append((tmp_path / "train.log").read_bytes())
            rows = [Counter(qids) for record, qids in stacked if not record]
            assert rows == [Counter(qa2=size, qa=size) if per_id else Counter(qa=size)]
        assert logs[0] == logs[1]


class TestTrainLoop:
    def test_log_schema_and_length(self, tmp_path):
        cfg = _tiny_config(epochs=3, checkpoint=str(tmp_path / "model.ckpt"))
        log_path = tmp_path / "train.log"
        _, records = _train_and_write(log_path, cfg, ["qa", "qb"], ["qa"])
        assert len(records) == 3
        for i, record in enumerate(records, start=1):
            assert record["epoch"] == i
            assert set(record) == {"epoch", "mean_loss", "pair_acc", "val_ndcg20"}
            assert isinstance(record["mean_loss"], float)
        lines = log_path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == records

    def test_excluded_query_logged_once_per_run(self, caplog):
        docs, queries, qrels, index, emb = _tiny_world()
        # every document of qb's pool judged relevant leaves no negative
        qrels["qb"] = dict.fromkeys(qrels["qb"], 1)
        cfg = _tiny_config(epochs=3)
        with caplog.at_level(logging.INFO, logger="gowrank.training"):
            train(docs, queries, qrels, index, emb, cfg,
                  train_qids=["qa", "qb"], val_qids=[])
        excluded = [r.getMessage() for r in caplog.records
                    if "excluded from sampling" in r.getMessage()]
        assert excluded == [
            "query qb excluded from sampling (8 positives, 0 negatives)"
        ]

    def test_unmeasurable_validation_fold_is_no_validation(self, caplog):
        """Validation queries with no relevant document leave nDCG at 0 in
        every epoch, which would keep epoch 1; the final parameters win."""
        docs, queries, qrels, index, emb = _tiny_world()
        qrels["qb"] = dict.fromkeys(qrels["qb"], 0)
        cfg = _tiny_config(epochs=3)
        with caplog.at_level(logging.INFO, logger="gowrank.training"):
            params, records = train(docs, queries, qrels, index, emb, cfg,
                                    train_qids=["qa"], val_qids=["qb"])
        final, _ = train(docs, queries, qrels, index, emb, cfg,
                         train_qids=["qa"], val_qids=[])
        first, _ = train(docs, queries, qrels, index, emb, _tiny_config(epochs=1),
                         train_qids=["qa"], val_qids=[])
        assert params.flat.tobytes() == final.flat.tobytes()
        assert params.flat.tobytes() != first.flat.tobytes()
        assert [r["val_ndcg20"] for r in records] == [0.0] * 3
        assert [(r.levelname, r.getMessage()) for r in caplog.records
                if r.levelno >= logging.WARNING] == [
            ("WARNING", "no validation query has terms and a relevant document; "
                        "the final parameters are kept")]

    @pytest.mark.parametrize("max_query_len, warned", [(4, ["qc", "qc2"]), (2, [])])
    def test_unseen_validation_width_warned_once_per_id(
        self, caplog, max_query_len, warned
    ):
        """qa and qb have two terms, qc and qc2 three: their width is unseen
        in training unless the model scores only two terms of a query."""
        docs, queries, qrels, index, emb = _tiny_world()
        for qid in ("qc2", "qc"):
            queries[qid] = Query(qid, [0, 1, 2], np.array([1.2, 1.4, 1.1]))
            qrels[qid] = qrels["qa"]
        cfg = _tiny_config(epochs=2, max_query_len=max_query_len)
        with caplog.at_level(logging.WARNING, logger="gowrank"):
            train(docs, queries, qrels, index, emb, cfg,
                  train_qids=["qa", "qb"], val_qids=["qc2", "qb", "qc"])
        assert [r.getMessage() for r in caplog.records if "width" in r.getMessage()] == [
            f"validation query {qid} scores 3 terms, a width that no training "
            "query has" for qid in warned]

    def test_seen_validation_width_is_not_warned(self, caplog):
        docs, queries, qrels, index, emb = _tiny_world()
        with caplog.at_level(logging.WARNING, logger="gowrank"):
            train(docs, queries, qrels, index, emb, _tiny_config(epochs=2),
                  train_qids=["qa"], val_qids=["qb"])
        assert caplog.records == []

    def test_no_width_warning_when_nothing_trains(self, caplog):
        # the error names the fault; a warning per validation id would bury it
        docs, queries, qrels, index, emb = _tiny_world()
        with caplog.at_level(logging.WARNING, logger="gowrank"), pytest.raises(
            DataFormatError, match="no trainable queries"
        ):
            train(docs, queries, qrels, index, emb, _tiny_config(epochs=2),
                  train_qids=[], val_qids=["qb"])
        assert caplog.records == []

    def test_truncation_warned_once_per_query(self, caplog, monkeypatch):
        """long1 validates and long2 trains, and each is scored many times;
        each is warned once, in sorted id order, before the first
        minibatch is scored."""
        docs, queries, qrels, index, emb = _tiny_world()
        for qid in ("long2", "long1"):
            queries[qid] = Query(qid, list(range(10)), np.ones(10))
            qrels[qid] = qrels["qa"]
        calls = []  # per stacking: its query ids, the warnings logged before it
        scored = []  # per scoring: the query ids of the stacking it scores
        stack, score_blocks = scoring.ScoringContext.stack, training.score_blocks

        def counted(ctx, pairs, max_query_len, record=False):
            calls.append(({qid for qid, _ in pairs}, len(caplog.records)))
            if record:  # a training step scores what it stacks
                scored.append(calls[-1][0])
            return stack(ctx, pairs, max_query_len, record)

        def validated(blocks, params, record=False):  # scores the one validation stack
            scored.append(next(ids for ids, _ in calls if "long1" in ids))
            return score_blocks(blocks, params, record)

        monkeypatch.setattr(scoring.ScoringContext, "stack", counted)
        monkeypatch.setattr(training, "score_blocks", validated)
        with caplog.at_level(logging.WARNING, logger="gowrank"):
            train(docs, queries, qrels, index, emb, _tiny_config(epochs=3),
                  train_qids=["qa", "long2"], val_qids=["long1"])
        assert [r.getMessage() for r in caplog.records] == [
            f"query {qid} has 10 terms; keeping the first 4" for qid in ("long1", "long2")]
        assert calls[0][1] == 2
        for qid in ("long1", "long2"):
            assert sum(qid in ids for ids in scored) > 1

    def test_no_truncation_warning_when_nothing_trains(self, caplog):
        # long2, the one training id, has no negative in its pool
        docs, queries, qrels, index, emb = _tiny_world()
        for qid in ("long2", "long1"):
            queries[qid] = Query(qid, list(range(10)), np.ones(10))
        qrels["long1"] = qrels["qa"]
        qrels["long2"] = dict.fromkeys(docs, 1)
        with caplog.at_level(logging.WARNING, logger="gowrank"), pytest.raises(
            DataFormatError, match="no trainable queries"
        ):
            train(docs, queries, qrels, index, emb, _tiny_config(epochs=2),
                  train_qids=["long2"], val_qids=["long1"])
        assert caplog.records == []

    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        cfg = _tiny_config(epochs=0, checkpoint=str(ckpt))
        params, records = _train_and_write(tmp_path / "train.log", cfg, ["qa", "qb"], [])
        assert records == []
        hyper = HyperParams(steps=cfg.steps, pool_k=cfg.pool_k,
                            max_query_len=cfg.max_query_len)
        fresh = init_params(hyper, seed_stream(cfg.seed, "init"))
        loaded, extra = load_checkpoint(ckpt)
        for name, tensor in iter_tensors(fresh):
            npt.assert_array_equal(tensor, dict(iter_tensors(loaded))[name])
            npt.assert_array_equal(tensor, dict(iter_tensors(params))[name])
        assert extra["seed"] == cfg.seed

    def test_reruns_are_byte_identical(self, tmp_path):
        def run(tag):
            log_path = tmp_path / f"{tag}.log"
            ckpt = tmp_path / f"{tag}.ckpt"
            cfg = _tiny_config(epochs=4, checkpoint=str(ckpt))
            _train_and_write(log_path, cfg, ["qa", "qb"], ["qb"])
            return log_path.read_bytes(), ckpt.read_bytes()

        assert run("a") == run("b")

    def test_loss_falls_and_pairs_get_ordered(self):
        docs, queries, qrels, index, emb = _tiny_world()
        cfg = _tiny_config(epochs=25)
        _, records = train(
            docs, queries, qrels, index, emb, cfg,
            train_qids=["qa", "qb"], val_qids=[],
        )
        first, last = records[0], records[-1]
        assert last["mean_loss"] < first["mean_loss"]
        assert last["pair_acc"] >= 0.9

    def test_trained_model_separates_the_classes(self):
        docs, queries, qrels, index, emb = _tiny_world()
        cfg = _tiny_config(epochs=25)
        params, _ = train(
            docs, queries, qrels, index, emb, cfg,
            train_qids=["qa", "qb"], val_qids=["qa", "qb"],
        )
        ctx = ScoringContext(docs, queries, emb, cfg.window, cfg.adjacency_mode)
        pool = [(doc_id, 0.0) for doc_id in sorted(qrels["qa"])]
        ranked = [doc for doc, _ in score_pool(ctx, "qa", pool, params)]
        assert all(doc.startswith("p") for doc in ranked[:4]), ranked

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("steps_per_epoch, stage", [(2, "training"),
                                                         (1, "validation")])
    def test_nonfinite_score_raises_and_writes_nothing(
        self, tmp_path, steps_per_epoch, stage
    ):
        # an infinite step turns every weight with a zero gradient into
        # NaN, whose scores leave every hinge inactive: the gradients stay
        # finite zeros, so only the scores show the failure
        cfg = _tiny_config(lr=math.inf, steps_per_epoch=steps_per_epoch,
                           checkpoint=str(tmp_path / "m.ckpt"))
        with pytest.raises(NumericalError, match=f"epoch 1: non-finite {stage} score"):
            _train_and_write(tmp_path / "train.log", cfg, ["qa", "qb"], ["qa"])
        assert list(tmp_path.iterdir()) == []

    def test_empty_qrels_raises(self):
        docs, queries, qrels, index, emb = _tiny_world()
        cfg = _tiny_config(epochs=1)
        with pytest.raises(DataFormatError):
            train(docs, queries, {}, index, emb, cfg,
                  train_qids=["qa"], val_qids=[])
