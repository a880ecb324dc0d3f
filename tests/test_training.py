"""Training internals: hinge values, the hand-written backward pass
against central differences, Adam, triplet sampling, and the epoch loop
on a tiny separable corpus."""

import dataclasses
import json
import logging
import math

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from gowrank.config import RunConfig, seed_stream
from gowrank.corpus import Query, TokenizedDoc
from gowrank.embeddings import EmbeddingTable
from gowrank.errors import DataFormatError, NumericalError
from gowrank.model import (
    HyperParams,
    forward,
    gate_weights,
    init_params,
    iter_tensors,
    load_checkpoint,
    readout,
    score,
)
from gowrank.retrieval import build_index
from gowrank.training import (
    FD_STEP,
    AdamState,
    ScoringContext,
    Triplet,
    adam_step,
    backward,
    grad_check,
    hinge_loss,
    sample_triplets,
    score_pool,
    train,
    usable_queries,
    zero_tape,
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


def _forward_pair(rng, n=8, m=3, steps=2, k=3, per_step=False):
    """Two documents scored against a shared query and shared params."""
    graph_p, s_p, query, params = helpers.random_instance(
        rng, n, m, steps, k, per_step=per_step
    )
    graph_n, s_n, _, _ = helpers.random_instance(rng, n, m, steps, k)
    rel_p, trace_p = forward(graph_p, s_p, query, params)
    rel_n, trace_n = forward(graph_n, s_n, query, params)
    return trace_p, trace_n, params


class TestBackward:
    """Reverse-mode gradients of the pairwise hinge."""

    def test_zero_loss_gives_exactly_zero_tape(self):
        rng = np.random.default_rng(11)
        trace_p, trace_n, params = _forward_pair(rng)
        # force a comfortably satisfied margin; backward reads trace.rel
        trace_p = dataclasses.replace(trace_p, rel=2.0)
        trace_n = dataclasses.replace(trace_n, rel=0.5)
        tape = backward(trace_p, trace_n, params)
        for name, grad in tape.grads.items():
            assert np.all(grad == 0.0), name

    def test_accumulation_adds(self):
        rng = np.random.default_rng(12)
        trace_p, trace_n, params = _forward_pair(rng)
        single = backward(trace_p, trace_n, params)
        double = backward(trace_p, trace_n, params)
        backward(trace_p, trace_n, params, into=double)
        for name in single.grads:
            npt.assert_allclose(double.grads[name], 2.0 * single.grads[name])

    def test_scale(self):
        rng = np.random.default_rng(13)
        trace_p, trace_n, params = _forward_pair(rng)
        tape = backward(trace_p, trace_n, params)
        reference = {k: v.copy() for k, v in tape.grads.items()}
        tape.scale(0.25)
        for name in reference:
            npt.assert_allclose(tape.grads[name], 0.25 * reference[name])

    def test_mismatched_params_raise(self):
        rng = np.random.default_rng(14)
        trace_p, trace_n, params = _forward_pair(rng, steps=2, k=3)
        other = init_params(
            HyperParams(steps=2, pool_k=5, max_query_len=8),
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            backward(trace_p, trace_n, other)
        fewer_steps = init_params(
            HyperParams(steps=1, pool_k=3, max_query_len=8),
            np.random.default_rng(0),
        )
        with pytest.raises(ValueError):
            backward(trace_p, trace_n, fewer_steps)

    def test_zero_steps_trains_only_scoring_head(self):
        """With no propagation, layer tensors are dead parameters."""
        rng = np.random.default_rng(15)
        for attempt in range(20):
            trace_p, trace_n, params = _forward_pair(rng, steps=0)
            if hinge_loss(trace_p.rel, trace_n.rel) > 1e-3:
                break
        else:
            pytest.fail("never sampled an active-hinge pair")
        tape = backward(trace_p, trace_n, params)
        for name, grad in tape.grads.items():
            if name.startswith("layer"):
                assert np.all(grad == 0.0), name
        assert np.abs(tape.grads["out_w"]).max() > 0.0
        assert float(np.abs(tape.grads["idf_scale"])) > 0.0

    def test_gradient_confined_to_leading_blocks(self):
        """A 3-term query trains only the weights that act on 3 columns."""
        rng = np.random.default_rng(17)
        for attempt in range(20):
            trace_p, trace_n, params = _forward_pair(rng, m=3, per_step=True)
            if hinge_loss(trace_p.rel, trace_n.rel) > 1e-3:
                break
        else:
            pytest.fail("never sampled an active-hinge pair")
        assert params.hyper.max_query_len == 8
        tape = backward(trace_p, trace_n, params)
        for name, grad in tape.grads.items():
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
        pooled, idx = readout(h_final, k)
        gates = gate_weights(trace.idf, float(params.idf_scale))
        rel_before, _ = score(pooled, gates, params.out_w, params.out_b)

        col = 0
        selected = set(idx[col][idx[col] >= 0].tolist())
        unselected = [i for i in range(h_final.shape[0]) if i not in selected]
        kth_value = h_final[idx[col, len(selected) - 1], col]
        node = min(unselected, key=lambda i: h_final[i, col])
        nudge = min(1e-4, 0.5 * (kth_value - h_final[node, col]))
        assert nudge > 0.0

        bumped = h_final.copy()
        bumped[node, col] += nudge
        pooled2, _ = readout(bumped, k)
        rel_after, _ = score(pooled2, gates, params.out_w, params.out_b)
        assert rel_after == rel_before


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

    def test_per_step_weights(self):
        report = grad_check(n=7, m=3, steps=3, k=3, seed=3, per_step=True)
        assert report["passed"], report
        assert any(name.startswith("layer2.") for name in report["per_tensor"])

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
            tape.grads["layer0.u_cand"] += 0.05

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
        tape = zero_tape(params)
        for name, grad in tape.grads.items():
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
        for grad in tape.grads.values():
            grad[np.abs(grad) < 0.1] = 0.5
        state = AdamState.for_params(params, lr=0.002)
        adam_step(params, tape, state)
        for name, tensor in iter_tensors(params):
            delta = np.abs(tensor - before[name])
            npt.assert_allclose(delta, 0.002, rtol=1e-4)

    def test_zero_gradient_is_a_no_op_but_counts(self):
        rng = np.random.default_rng(21)
        params = init_params(HyperParams(steps=1, pool_k=3, max_query_len=8), rng)
        before = {name: t.copy() for name, t in iter_tensors(params)}
        state = AdamState.for_params(params)
        adam_step(params, zero_tape(params), state)
        assert state.step == 1
        for name, tensor in iter_tensors(params):
            npt.assert_array_equal(tensor, before[name])

    def test_two_steps_match_hand_formula(self):
        rng = np.random.default_rng(22)
        params = init_params(HyperParams(steps=0, pool_k=2, max_query_len=8), rng)
        theta0 = float(params.out_b)
        state = AdamState.for_params(params, lr=0.01)
        g1, g2 = 0.3, -0.2
        for g in (g1, g2):
            tape = zero_tape(params)
            tape.grads["out_b"][...] = g
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
            state = AdamState.for_params(params)
            for _ in range(100):
                tape = self._tape_like(params, rng=rng)
                adam_step(params, tape, state)
            return {name: t.tobytes() for name, t in iter_tensors(params)}

        assert run() == run()

    def test_nonfinite_gradient_names_the_tensor(self):
        rng = np.random.default_rng(24)
        params = init_params(HyperParams(steps=1, pool_k=3, max_query_len=8), rng)
        state = AdamState.for_params(params)
        tape = zero_tape(params)
        tape.grads["layer0.w_up"][0, 0] = np.nan
        with pytest.raises(NumericalError, match="layer0.w_up"):
            adam_step(params, tape, state)


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
        triplets = sample_triplets(self.QRELS, {"q1": self.POOLS["q1"]}, rng, 200)
        assert {t.pos_doc for t in triplets} == {"d1"}

    def test_negatives_include_unjudged_by_default(self):
        rng = np.random.default_rng(31)
        triplets = sample_triplets(self.QRELS, {"q1": self.POOLS["q1"]}, rng, 400)
        assert {t.neg_doc for t in triplets} == {"d2", "d3"}

    def test_judged_only_excludes_unjudged(self):
        rng = np.random.default_rng(32)
        triplets = sample_triplets(
            self.QRELS, {"q1": self.POOLS["q1"]}, rng, 200, judged_only=True
        )
        assert {t.neg_doc for t in triplets} == {"d2"}

    def test_fallback_to_judged_relevant_outside_pool(self):
        rng = np.random.default_rng(33)
        triplets = sample_triplets(self.QRELS, {"q2": self.POOLS["q2"]}, rng, 100)
        assert {t.pos_doc for t in triplets} == {"d9"}
        assert {t.neg_doc for t in triplets} == {"d4", "d5"}

    def test_both_queries_get_sampled(self):
        rng = np.random.default_rng(34)
        triplets = sample_triplets(self.QRELS, self.POOLS, rng, 300)
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
            sample_triplets({"q3": {"d1": 1}}, {"q3": [("d1", 1.0)]}, rng, 8)

    def test_same_seed_same_triplets(self):
        a = sample_triplets(self.QRELS, self.POOLS, np.random.default_rng(36), 50)
        b = sample_triplets(self.QRELS, self.POOLS, np.random.default_rng(36), 50)
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


class TestScoringContext:
    def test_truncation_warned_once_per_query(self, caplog):
        docs, queries, _, _, emb = _tiny_world()
        queries["long"] = Query("long", list(range(10)), np.ones(10))
        ctx = ScoringContext(docs, queries, emb, 3, "graph")
        params = init_params(
            HyperParams(steps=1, pool_k=4, max_query_len=8),
            np.random.default_rng(0),
        )
        with caplog.at_level(logging.WARNING, logger="gowrank.training"):
            for doc_id in ("pa0", "na0"):
                ctx.score("long", doc_id, params)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "keeping the first 8" in warnings[0].getMessage()


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

    def test_empty_qrels_raises(self):
        docs, queries, qrels, index, emb = _tiny_world()
        cfg = _tiny_config(epochs=1)
        with pytest.raises(DataFormatError):
            train(docs, queries, {}, index, emb, cfg,
                  train_qids=["qa"], val_qids=[])
