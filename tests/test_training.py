"""Training internals: hinge values, the hand-written backward pass
against central differences, Adam, triplet sampling, and the epoch loop
on a tiny separable corpus."""

import json
import logging
import math

import numpy as np
import numpy.testing as npt
import pytest

import gowrank.model
import helpers
import reference
from gowrank.config import RunConfig, seed_stream
from gowrank.corpus import Query, TokenizedDoc
from gowrank.embeddings import EmbeddingTable
from gowrank.errors import DataFormatError, NumericalError
from gowrank.evaluation import ndcg_at
from gowrank.graph import build_graphs, interaction_matrix
from gowrank.model import (
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
)
from gowrank import scoring, training
from gowrank.retrieval import build_index
from gowrank.training import (
    AdamState,
    ScoringContext,
    Triplet,
    adam_step,
    grad_check,
    rank_pools,
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

    def test_tampered_gradient_is_caught(self):
        def corrupt(tape):
            tape.layer.u_cand += 0.05

        report = grad_check(n=8, m=3, steps=2, k=3, seed=6, tamper=corrupt)
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
    emb = EmbeddingTable(dim, vectors, np.ones(12, dtype=bool))

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
    def test_truncation_warned_once_per_query(self, caplog):
        docs, queries, _, _, emb = _tiny_world()
        queries["long"] = Query("long", list(range(10)), np.ones(10))
        ctx = ScoringContext(docs, queries, emb, 3, "graph")
        params = init_params(
            HyperParams(steps=1, pool_k=4, max_query_len=8),
            np.random.default_rng(0),
        )
        with caplog.at_level(logging.WARNING, logger="gowrank.scoring"):
            ctx.score([("long", "pa0"), ("long", "na0")], params)
            ctx.score([("long", "pb0")], params)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "keeping the first 8" in warnings[0].getMessage()


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

    def test_same_text_under_two_ids_shares_features(self, monkeypatch):
        docs, queries, _, _, emb = _tiny_world()
        queries["qa2"] = Query("qa2", list(queries["qa"].tokens), queries["qa"].idf)
        ctx = ScoringContext(docs, queries, emb, 3, "graph")
        params = init_params(
            HyperParams(steps=1, pool_k=4, max_query_len=8),
            np.random.default_rng(0),
        )
        calls = []

        def counted(graph, query, emb):
            calls.append(query.query_id)
            return interaction_matrix(graph, query, emb)

        monkeypatch.setattr(scoring, "interaction_matrix", counted)
        pool = sorted(docs)
        first, _ = ctx.score([("qa", doc_id) for doc_id in pool], params)
        second, _ = ctx.score([("qa2", doc_id) for doc_id in pool], params)
        assert calls == ["qa"] * len(pool)
        assert first.tolist() == second.tolist()

    def test_pool_scored_at_once_ranks_as_one_at_a_time(self):
        docs, queries, _, emb, params = _tied_world()
        ctx = ScoringContext(docs, queries, emb, 3, "graph")
        pool = [(doc_id, 0.0) for doc_id in sorted(docs)]
        for qid in ("qa", "mixed"):
            ranked = score_pool(ctx, qid, pool, params)
            single = [
                (doc_id, forward(ctx.graph(doc_id), ctx.feats(qid, doc_id),
                                 queries[qid], params)[0])
                for doc_id, _ in pool
            ]
            single.sort(key=lambda pair: (-pair[1], pair[0]))
            assert [d for d, _ in ranked] == [d for d, _ in single]
            npt.assert_allclose([v for _, v in ranked], [v for _, v in single],
                                rtol=1e-12, atol=0)
            scores = dict(ranked)
            assert scores["pa1"] == scores["z-pa1"]
            assert scores["nb2"] == scores["z-nb2"]


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
                     lost={"pa1": 1})
        queries["dry"] = queries["lost"] = queries["qb"]
        pools = {
            "qa": [(d, 0.0) for d in sorted(qrels["qa"])],
            "qb": [(d, 0.0) for d in sorted(qrels["qb"]) + ["z-nb2"]],
            "mixed": [(d, 0.0) for d in ("nb2", "pa0", "z-nb2", "pb0")],
            "dry": [("pa0", 0.0)],
            "lost": [],
        }
        val_qids = ["qb", "lost", "dry", "mixed", "qa"]
        values = []
        for qid in val_qids:  # dry has no relevant doc; lost counts 0
            if max(qrels[qid].values()) > 0:
                ctx = ScoringContext(docs, queries, emb, 3, "graph")
                ranked = [d for d, _ in score_pool(ctx, qid, pools[qid], params)]
                values.append(ndcg_at(ranked, qrels[qid], 20))
        assert len(values) == 4 and values[1] == 0.0
        ctx = ScoringContext(docs, queries, emb, 3, "graph")
        mean = training._validation_ndcg(ctx, params, pools, qrels, val_qids, epoch=1)
        assert mean == sum(values) / len(values)

    def test_one_forward_per_validation_epoch(self, monkeypatch):
        docs, queries, qrels, index, emb = _tiny_world()
        calls = []
        forward_batch = scoring.forward_batch

        def counted(batch, params, record=False):
            calls.append(record)
            return forward_batch(batch, params, record)

        monkeypatch.setattr(scoring, "forward_batch", counted)
        cfg = _tiny_config(epochs=3)
        train(docs, queries, qrels, index, emb, cfg,
              train_qids=["qa", "qb"], val_qids=["qa", "qb"])
        assert calls.count(False) == cfg.epochs
        assert calls.count(True) == cfg.epochs * cfg.steps_per_epoch


class TestTrainLoop:
    def test_log_schema_and_length(self, tmp_path):
        docs, queries, qrels, index, emb = _tiny_world()
        cfg = _tiny_config(epochs=3)
        log_path = tmp_path / "train.log"
        _, records = train(
            docs, queries, qrels, index, emb, cfg,
            train_qids=["qa", "qb"], val_qids=["qa"], log_path=log_path,
        )
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

    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path):
        docs, queries, qrels, index, emb = _tiny_world()
        cfg = _tiny_config(epochs=0)
        ckpt = tmp_path / "model.ckpt"
        params, records = train(
            docs, queries, qrels, index, emb, cfg,
            train_qids=["qa", "qb"], val_qids=[], checkpoint_path=ckpt,
        )
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
        docs, queries, qrels, index, emb = _tiny_world()

        def run(tag):
            cfg = _tiny_config(epochs=4)
            log_path = tmp_path / f"{tag}.log"
            ckpt = tmp_path / f"{tag}.ckpt"
            train(docs, queries, qrels, index, emb, cfg,
                  train_qids=["qa", "qb"], val_qids=["qb"],
                  log_path=log_path, checkpoint_path=ckpt)
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
        docs, queries, qrels, index, emb = _tiny_world()
        cfg = _tiny_config(lr=math.inf, steps_per_epoch=steps_per_epoch)
        with pytest.raises(NumericalError, match=f"epoch 1: non-finite {stage} score"):
            train(docs, queries, qrels, index, emb, cfg,
                  train_qids=["qa", "qb"], val_qids=["qa"],
                  log_path=tmp_path / "train.log", checkpoint_path=tmp_path / "m.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_empty_qrels_raises(self):
        docs, queries, qrels, index, emb = _tiny_world()
        cfg = _tiny_config(epochs=1)
        with pytest.raises(DataFormatError):
            train(docs, queries, {}, index, emb, cfg,
                  train_qids=["qa"], val_qids=[])
