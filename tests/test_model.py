"""Forward-pass operations: propagation, gated updates, pooling, gating,
scoring — each against hand values, plus the straight-line oracle and
structural invariants."""

import hashlib
import math
import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import helpers
from gowrank.corpus import Query, TokenizedDoc
from gowrank.errors import DataFormatError
from gowrank.graph import DocumentGraph, build_graph, build_graphs, normalize_adjacency
from gowrank.model import (
    HyperParams,
    LayerParams,
    forward,
    gate_weights,
    gru_update,
    init_params,
    iter_tensors,
    leading_block,
    load_checkpoint,
    propagate,
    readout,
    save_checkpoint,
    score,
    zero_params,
)

import reference


def _query(m, idf=None):
    idf = np.ones(m) if idf is None else np.asarray(idf, dtype=float)
    return Query(query_id="q", tokens=list(range(m)), idf=idf)


def _zero_layer(m):
    return zero_params(HyperParams(max_query_len=m)).layer


class TestPropagate:
    def test_swap_under_unit_weights(self):
        adj = csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = propagate(h, adj, np.eye(2))
        np.testing.assert_array_equal(a, [[3.0, 4.0], [1.0, 2.0]])

    def test_zero_adjacency_zero_messages(self):
        adj = csr_matrix((3, 3))
        h = np.random.default_rng(0).normal(size=(3, 4))
        a = propagate(h, adj, np.random.default_rng(1).normal(size=(4, 4)))
        np.testing.assert_array_equal(a, np.zeros((3, 4)))

    def test_single_node_no_self_message(self):
        g = build_graph(TokenizedDoc("d", [7, 7, 7], 3))
        h = np.ones((1, 2))
        a = propagate(h, reference.norm_adjacency(g), np.eye(2))
        np.testing.assert_array_equal(a, [[0.0, 0.0]])

    def test_mixes_before_aggregating(self):
        # a_i = sum_j adj_ij (W h_j): W applies to the neighbor state
        adj = csr_matrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        W = np.array([[0.0, 1.0], [1.0, 0.0]])  # swaps dims
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = propagate(h, adj, W)
        np.testing.assert_allclose(a, [[2.0, 1.5], [1.0, 0.5]])


class TestGruUpdate:
    def test_all_zero_params_halve_state(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 3))
        a = rng.normal(size=(4, 3))
        h_new, z, r, cand = gru_update(a, h, _zero_layer(3))
        np.testing.assert_allclose(z, 0.5)
        np.testing.assert_allclose(r, 0.5)
        np.testing.assert_allclose(cand, 0.0)
        np.testing.assert_allclose(h_new, h / 2)

    def test_saturated_update_gate_replaces_state(self):
        rng = np.random.default_rng(4)
        m = 3
        layer = _zero_layer(m)
        layer.b_up[:] = 50.0
        layer.b_cand[:] = rng.normal(size=m)
        h = rng.normal(size=(5, m))
        a = np.zeros((5, m))
        h_new, z, _, cand = gru_update(a, h, layer)
        assert np.all(z > 1.0 - 1e-15)
        expected = np.broadcast_to(np.tanh(layer.b_cand), h_new.shape)
        np.testing.assert_allclose(h_new, expected, atol=1e-15)
        np.testing.assert_allclose(h_new, cand, atol=1e-15)

    def test_zero_fixed_point(self):
        h_new, *_ = gru_update(np.zeros((2, 3)), np.zeros((2, 3)), _zero_layer(3))
        np.testing.assert_array_equal(h_new, np.zeros((2, 3)))

    def test_matches_elementwise_formula(self):
        rng = np.random.default_rng(5)
        m = 4
        layer = LayerParams(
            msg_w=rng.normal(size=(m, m)),
            w_up=rng.normal(size=(m, m)),
            u_up=rng.normal(size=(m, m)),
            b_up=rng.normal(size=m),
            w_reset=rng.normal(size=(m, m)),
            u_reset=rng.normal(size=(m, m)),
            b_reset=rng.normal(size=m),
            w_cand=rng.normal(size=(m, m)),
            u_cand=rng.normal(size=(m, m)),
            b_cand=rng.normal(size=m),
        )
        a = rng.normal(size=(6, m))
        h = rng.normal(size=(6, m))
        h_new, z, r, cand = gru_update(a, h, layer)
        sig = lambda x: 1.0 / (1.0 + np.exp(-x))  # noqa: E731
        for i in range(6):
            z_i = sig(layer.w_up @ a[i] + layer.u_up @ h[i] + layer.b_up)
            r_i = sig(layer.w_reset @ a[i] + layer.u_reset @ h[i] + layer.b_reset)
            c_i = np.tanh(
                layer.w_cand @ a[i] + layer.u_cand @ (r_i * h[i]) + layer.b_cand
            )
            np.testing.assert_allclose(z[i], z_i, atol=1e-14)
            np.testing.assert_allclose(r[i], r_i, atol=1e-14)
            np.testing.assert_allclose(cand[i], c_i, atol=1e-14)
            np.testing.assert_allclose(
                h_new[i], c_i * z_i + h[i] * (1 - z_i), atol=1e-14
            )


class TestReadout:
    # one document unless a test says otherwise: pooled[0] is its (m, k) block
    def test_top_two(self):
        h = np.array([[0.9], [0.1], [0.5], [0.7]])
        pooled, idx = readout(h, 2, [4])
        np.testing.assert_array_equal(pooled[0, 0], [0.9, 0.7])
        np.testing.assert_array_equal(idx[0, 0], [0, 3])

    def test_zero_padding_when_small(self):
        h = np.array([[0.4]])
        pooled, idx = readout(h, 3, [1])
        np.testing.assert_array_equal(pooled[0, 0], [0.4, 0.0, 0.0])
        np.testing.assert_array_equal(idx[0, 0], [0, -1, -1])

    def test_tie_takes_smaller_index(self):
        h = np.array([[0.5], [0.5], [0.2]])
        pooled, idx = readout(h, 1, [3])
        assert pooled[0, 0, 0] == 0.5
        assert idx[0, 0, 0] == 0

    def test_values_sorted_under_tie_rule(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            # quantized values force plenty of ties
            h = np.round(rng.uniform(-1, 1, size=(n, 3)), 1)
            pooled, idx = readout(h, 5, [n])
            take = min(5, n)
            for j in range(3):
                vals = pooled[0, j, :take]
                ids = idx[0, j, :take]
                assert np.all(np.diff(vals) <= 0)
                for p in range(take - 1):
                    if vals[p] == vals[p + 1]:
                        assert ids[p] < ids[p + 1]
                assert len(set(ids.tolist())) == take
                assert np.all((ids >= 0) & (ids < n))

    def test_empty_graph_all_zero(self):
        pooled, idx = readout(np.zeros((0, 2)), 4, [0])
        np.testing.assert_array_equal(pooled, np.zeros((1, 2, 4)))
        np.testing.assert_array_equal(idx, -np.ones((1, 2, 4)))

    def test_stacked_documents_pool_only_their_own_rows(self):
        # each segment pools as if alone, with indices shifted to its rows;
        # quantized values tie across and within segments, and a NaN state
        # sorts last in its own segment only
        rng = np.random.default_rng(60)
        for _ in range(30):
            sizes = [int(s) for s in rng.integers(0, 9, size=int(rng.integers(1, 6)))]
            h = np.round(rng.uniform(-1, 1, size=(sum(sizes), 3)), 1)
            h[rng.random(h.shape) < 0.05] = np.nan
            pooled, idx = readout(h, 4, sizes)
            assert pooled.shape == idx.shape == (len(sizes), 3, 4)
            start = 0
            for b, n in enumerate(sizes):
                alone, alone_idx = readout(h[start:start + n], 4, [n])
                np.testing.assert_array_equal(pooled[b], alone[0])
                shifted = np.where(alone_idx[0] >= 0, alone_idx[0] + start, -1)
                np.testing.assert_array_equal(idx[b], shifted)
                start += n


class TestGateWeights:
    def test_singleton(self):
        g = gate_weights(np.array([2.0]), 1.0)
        np.testing.assert_array_equal(g, [1.0])

    def test_equal_idf_uniform(self):
        g = gate_weights(np.array([1.5, 1.5]), 1.0)
        np.testing.assert_allclose(g, [0.5, 0.5])

    def test_zero_temperature_uniform(self):
        g = gate_weights(np.array([0.1, 5.0, 2.0]), 0.0)
        np.testing.assert_allclose(g, [1 / 3] * 3)

    def test_matches_plain_softmax(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            idf = rng.uniform(0, 4, size=5)
            c = rng.uniform(-2, 2)
            g = gate_weights(idf, c)
            e = np.exp(c * idf)
            np.testing.assert_allclose(g, e / e.sum(), atol=1e-14)
            assert g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_huge_scale_stable(self):
        g = gate_weights(np.array([1000.0, 999.0]), 5.0)
        assert np.isfinite(g).all()
        assert g[0] > g[1]


class TestScore:
    def test_zero_mlp_scores_zero(self):
        pooled = np.random.default_rng(8).normal(size=(3, 4))
        rel, _ = score(pooled, np.array([0.5, 0.3, 0.2]), np.zeros(4), np.array(0.0))
        assert rel == 0.0

    def test_known_tanh_value(self):
        # single term, gate 1, pre-activation 0.5
        pooled = np.array([[0.5]])
        rel, scores = score(pooled, np.array([1.0]), np.array([1.0]), np.array(0.0))
        assert rel == pytest.approx(math.tanh(0.5), abs=1e-15)
        assert scores[0] == pytest.approx(0.46211715726000974, abs=1e-15)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m, k = 4, 6
            pooled = rng.normal(size=(m, k)) * 3
            raw = rng.uniform(0, 1, size=m)
            gates = raw / raw.sum()
            w = rng.normal(size=k)
            b = np.array(rng.normal())
            rel, scores = score(pooled, gates, w, b)
            assert abs(rel) <= np.abs(scores).max() + 1e-15
            assert -1.0 < rel < 1.0


class TestInitParams:
    def test_shapes_and_ranges(self):
        hyper = HyperParams(steps=2, pool_k=5, max_query_len=6)
        params = init_params(hyper, np.random.default_rng(0))
        lim = math.sqrt(6.0 / 12)
        for name, tensor in iter_tensors(params):
            assert np.isfinite(tensor).all()
            if name.endswith(("b_up", "b_reset", "b_cand")):
                np.testing.assert_array_equal(tensor, 0.0)
            elif name.endswith("out_b"):
                assert tensor == 0.0
            elif name.endswith("idf_scale"):
                assert tensor == 1.0
            elif name.endswith("out_w"):
                assert tensor.shape == (5,)
                assert np.abs(tensor).max() <= math.sqrt(6.0 / 6)
            else:
                assert tensor.shape == (6, 6)
                assert np.abs(tensor).max() <= lim

    # sha256 over each tensor's name and little-endian float64 bytes, in
    # iter_tensors order: the draws from the init stream must not move, and
    # the one layer serves any number of steps
    @pytest.mark.parametrize(
        "steps, digest",
        [
            (0, "d514a970da1647032fc39b7c31ab23c21b31381d7045b373ef82a09a08c3ce09"),
            (2, "d514a970da1647032fc39b7c31ab23c21b31381d7045b373ef82a09a08c3ce09"),
        ],
    )
    def test_bytes_pinned(self, steps, digest):
        hyper = HyperParams(steps=steps)
        params = init_params(hyper, np.random.default_rng(7))
        sha = hashlib.sha256()
        for name, tensor in iter_tensors(params):
            sha.update(name.encode())
            sha.update(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize(
        "hyper",
        [HyperParams(), HyperParams(steps=3, pool_k=5, max_query_len=6)],
    )
    def test_zero_params_fixes_every_shape(self, tmp_path, hyper):
        zeros = list(iter_tensors(zero_params(hyper)))
        assert all(np.all(t == 0.0) for _, t in zeros)
        shapes = [(n, t.shape) for n, t in zeros]
        params = init_params(hyper, np.random.default_rng(0))
        assert [(n, t.shape) for n, t in iter_tensors(params)] == shapes
        save_checkpoint(tmp_path / "model.ckpt", params)
        loaded, _ = load_checkpoint(tmp_path / "model.ckpt")
        assert [(n, t.shape) for n, t in iter_tensors(loaded)] == shapes


class TestForward:
    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 9))
            steps = int(rng.integers(0, 4))
            k = int(rng.integers(1, 10))
            graph, S, query, params = helpers.random_instance(rng, n, m, steps, k)
            rel, _ = forward(graph, S, query, params)
            expected = helpers.oracle_rel(graph, S, query, params)
            worst = max(worst, helpers.rel_diff(rel, expected))
        assert worst < 1e-12, f"worst relative difference {worst}"

    def test_depth_zero_reads_initial_state(self):
        rng = np.random.default_rng(101)
        graph, S, query, params = helpers.random_instance(rng, 10, 3, 0, 4)
        rel, trace = forward(graph, S, query, params)
        assert len(trace.states) == 1
        pooled, _ = readout(S, 4, [len(S)])
        gates = gate_weights(query.idf, float(params.idf_scale))
        expected, _ = score(pooled, gates, params.out_w, params.out_b)
        assert rel == expected[0]

    def test_zero_adjacency_equals_fed_zero_messages(self):
        # scoring under an edgeless graph must equal a hand-run variant
        # where the aggregation step is bypassed with a = 0
        rng = np.random.default_rng(102)
        for trial in range(10):
            n, m, steps, k = 8, 4, 2, 3
            doc_tokens = [int(t) for t in rng.integers(0, n, size=24)] + list(range(n))
            doc = TokenizedDoc("d", doc_tokens, len(doc_tokens))
            graph = build_graphs([doc], window=5, mode="zero")[0]
            S = rng.uniform(-1, 1, size=(graph.num_nodes, m))
            query = _query(m, rng.uniform(0.5, 2.0, size=m))
            params = helpers.random_params(
                rng, HyperParams(steps=steps, pool_k=k, max_query_len=8)
            )
            rel, _ = forward(graph, S, query, params)

            h = S
            for _ in range(steps):
                layer = leading_block(params.layer, m)
                h, *_ = gru_update(np.zeros_like(h), h, layer)
            pooled, _ = readout(h, k, [len(h)])
            gates = gate_weights(query.idf, float(params.idf_scale))
            expected, _ = score(pooled, gates, params.out_w, params.out_b)
            assert rel == expected[0]

    def test_empty_document_scores_zero_readout(self):
        rng = np.random.default_rng(103)
        graph = build_graph(TokenizedDoc("d", [], 0))
        S = np.zeros((0, 3))
        query = _query(3, [1.0, 2.0, 0.5])
        params = helpers.random_params(rng, HyperParams(steps=2, pool_k=4))
        rel, trace = forward(graph, S, query, params)
        assert rel == pytest.approx(math.tanh(float(params.out_b)), abs=1e-12)
        np.testing.assert_array_equal(trace.pooled, 0.0)

    def test_initial_state_is_interactions(self):
        # the first max_query_len query terms are scored, the rest dropped
        rng = np.random.default_rng(104)
        for m, kept in ((3, 3), (8, 8), (10, 8)):
            graph, S, query, params = helpers.random_instance(rng, 7, m, 2, 4)
            _, trace = forward(graph, S, query, params)
            np.testing.assert_array_equal(trace.states[0], S[:, :kept])
            np.testing.assert_array_equal(trace.idf[0], query.idf[:kept])

    def test_every_intermediate_has_m_columns(self):
        rng = np.random.default_rng(105)
        graph, S, query, params = helpers.random_instance(rng, 9, 3, 3, 4)
        _, trace = forward(graph, S, query, params)
        for group in (trace.states, trace.messages, trace.upd_gate,
                      trace.reset_gate, trace.candidate):
            for arr in group:
                assert arr.shape == (9, 3)
        # one document: per-document arrays have a leading axis of 1
        assert trace.pooled.shape == (1, 3, 4)
        assert trace.pooled_idx.shape == (1, 3, 4)
        assert trace.gates.shape == (1, 3)
        assert trace.term_scores.shape == (1, 3)

    def test_empty_query_rejected(self):
        rng = np.random.default_rng(114)
        graph = helpers.random_graph(rng, 3)
        params = helpers.random_params(rng, HyperParams(steps=1, pool_k=2))
        with pytest.raises(DataFormatError, match="scoreable"):
            forward(graph, np.zeros((3, 0)), _query(0), params)

    def test_node_permutation_invariance(self):
        rng = np.random.default_rng(106)
        for _ in range(10):
            n, m = int(rng.integers(2, 25)), int(rng.integers(1, 8))
            graph, S, query, params = helpers.random_instance(rng, n, m, 2, 5)
            rel, _ = forward(graph, S, query, params)
            perm = rng.permutation(n)
            adj_p = csr_matrix(graph.adjacency.toarray()[np.ix_(perm, perm)])
            graph_p = DocumentGraph([graph.node_terms[i] for i in perm], adj_p.indptr,
                                    adj_p.indices, adj_p.data,
                                    normalize_adjacency(adj_p).data)
            rel_p, _ = forward(graph_p, S[perm], query, params)
            assert helpers.rel_diff(rel, rel_p) < 1e-12

    def test_junk_in_padded_parameter_block_never_leaks(self):
        # growing every parameter tensor beyond the real query width with
        # garbage must not move the score: padded columns are dead
        rng = np.random.default_rng(107)
        graph, S, query, params = helpers.random_instance(rng, 12, 4, 2, 3)
        rel, _ = forward(graph, S, query, params)
        noisy = params.copy()
        for _, tensor in iter_tensors(noisy):
            if tensor.ndim == 2:
                tensor[4:, :] = rng.normal(size=(4, 8)) * 100
                tensor[:, 4:] = rng.normal(size=(8, 4)) * 100
            elif tensor.ndim == 1 and tensor.shape[0] == 8:
                tensor[4:] = rng.normal(size=4) * 100
        rel_noisy, _ = forward(graph, S, query, noisy)
        assert helpers.rel_diff(rel, rel_noisy) < 1e-12

    def test_all_intermediates_finite_under_extreme_params(self):
        rng = np.random.default_rng(108)
        graph, S, query, params = helpers.random_instance(rng, 15, 4, 3, 5)
        for _, tensor in iter_tensors(params):
            tensor[...] = tensor * 200
        query.idf[:] = rng.uniform(50, 100, size=4)
        rel, trace = forward(graph, S, query, params)
        assert np.isfinite(rel)
        for group in (trace.states, trace.messages, trace.upd_gate,
                      trace.reset_gate, trace.candidate):
            for arr in group:
                assert np.isfinite(arr).all()
        assert np.isfinite(trace.pooled).all()
        assert np.isfinite(trace.gates).all()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(110)
        hyper = HyperParams(steps=2, pool_k=5, max_query_len=6)
        params = helpers.random_params(rng, hyper)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, extra={"window": 5, "adjacency_mode": "graph"})
        loaded, extra = load_checkpoint(path)
        assert extra == {"window": 5, "adjacency_mode": "graph"}
        assert vars(loaded.hyper) == vars(hyper)
        for (n1, t1), (n2, t2) in zip(iter_tensors(params), iter_tensors(loaded)):
            assert n1 == n2
            np.testing.assert_array_equal(t1, t2)

    def test_roundtrip_preserves_forward(self, tmp_path):
        rng = np.random.default_rng(111)
        graph, S, query, params = helpers.random_instance(rng, 8, 3, 2, 4)
        rel, _ = forward(graph, S, query, params)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        rel2, _ = forward(graph, S, query, loaded)
        assert rel == rel2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="unreadable .BadZipFile: File is not a zip"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(112)
        params = helpers.random_params(rng, HyperParams())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        data = path.read_bytes()
        # cut inside the end-of-archive record, the first member's zip
        # header and the header member
        for cut in (len(data) - 16, 10, 40):
            path.write_bytes(data[:cut])
            with pytest.raises(DataFormatError, match="unreadable .BadZipFile"):
                load_checkpoint(path)

    # (header edit, edit of the tensor members or a raw rewrite, fragment of
    # the message)
    @pytest.mark.parametrize(
        "edit, members, fragment",
        [
            (lambda h: {}, dict, "bad checkpoint header: KeyError('version')"),
            (lambda h: [h], dict, "bad checkpoint header: TypeError"),
            (lambda h: {k: v for k, v in h.items() if k != "version"}, dict,
             "bad checkpoint header: KeyError('version')"),
            (lambda h: {k: v for k, v in h.items() if k != "hyper"}, dict,
             "bad checkpoint header: KeyError('hyper')"),
            (lambda h: h, lambda a: {}, "unexpected tensors [], missing tensors ['idf_scale'"),
            (lambda h: {k: v for k, v in h.items() if k != "extra"}, dict,
             "bad checkpoint header: KeyError('extra')"),
            (lambda h: {**h, "hyper": {**h["hyper"], "depth": 3}}, dict,
             "bad checkpoint header: TypeError"),
            # version 2 held one more hyperparameter
            (lambda h: {**h, "version": 2,
                        "hyper": {**h["hyper"], "per_step_weights": False}}, dict,
             "checkpoint version 2, expected 3"),
            (lambda h: {**h, "hyper": {**h["hyper"], "steps": "2"}}, dict,
             "bad hyperparameters"),
            # a member named only ".npy"
            (lambda h: h, lambda a: {**a, "": a["out_b"]},
             "unexpected tensors [''], missing tensors []"),
            (lambda h: h, lambda a: {**a, "layer0.msg_w": a["layer0.msg_w"].ravel()},
             "tensor 'layer0.msg_w' is float64 of shape (64,), expected float64 of "
             "shape (8, 8)"),
            (lambda h: h, lambda a: {**a, "out_w": a["out_w"].astype("<f4")},
             "tensor 'out_w' is float32 of shape (40,), expected float64"),
            (lambda h: {**h, "extra": 5}, dict, "bad checkpoint header: TypeError"),
            (lambda h: {**h, "hyper": {**h["hyper"], "max_query_len": -1}}, dict,
             "bad hyperparameters"),
            (lambda h: {**h, "hyper": {**h["hyper"], "pool_k": 0}}, dict,
             "bad hyperparameters"),
            (lambda h: {**h, "hyper": {**h["hyper"], "max_query_len": 2**40}}, dict,
             "bad hyperparameters"),
            # a JSON true is a Python bool, which isinstance(..., int) accepts
            (lambda h: {**h, "hyper": {**h["hyper"], "steps": True}}, dict,
             "bad hyperparameters"),
            (lambda h: {**h, "hyper": {**h["hyper"], "max_query_len": True}}, dict,
             "bad hyperparameters"),
            (lambda h: h, "repeated",
             "member 'out_b.npy' is repeated, compressed, encrypted or not .npy"),
            (lambda h: h, "trailing", "member 'out_w.npy' has bytes after its array"),
        ],
        ids=["empty", "not-object", "no-version", "no-hyper", "no-tensors",
             "no-extra", "unknown-hyper", "old-version", "string-hyper", "entry-no-name",
             "entry-no-shape", "tensors-not-list", "extra-not-object",
             "negative-hyper", "zero-pool-k", "huge-hyper", "bool-steps",
             "bool-max-query-len", "repeated-tensor",
             "trailing-bytes"],
    )
    def test_malformed_header_names_path(self, tmp_path, edit, members, fragment):
        params = helpers.random_params(np.random.default_rng(114), HyperParams())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = helpers.archive_members(path)
        if members == "repeated":
            helpers.write_members(path, raw + [("out_b.npy", helpers.npy_bytes(5.0))])
        elif members == "trailing":
            helpers.write_members(path, [
                (name, data + b"\x00" * 8 if name == "out_w.npy" else data)
                for name, data in raw])
        else:
            helpers.rewrite_checkpoint_header(path, edit, members)
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
        assert fragment in str(info.value)

    # a whole-file digest of the format: a change to how the header is
    # assembled must not move a byte of any checkpoint
    def test_file_bytes_are_pinned(self, tmp_path):
        hyper = HyperParams(steps=2, pool_k=5, max_query_len=4)
        params = helpers.random_params(np.random.default_rng(115), hyper)
        path = tmp_path / "model.ckpt"
        extra = {"window": 5, "adjacency_mode": "graph", "min_freq": 1, "seed": 7}
        save_checkpoint(path, params, extra=extra)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3f9377e8923a3e128bfab713490d9bc2c030978774b338a222542fb494d5fd27")
