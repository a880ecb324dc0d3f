"""Graph-of-word construction vs a brute-force oracle, normalization,
and interaction features."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from gowrank.corpus import OOV_ID, Query, TokenizedDoc
from gowrank.embeddings import EmbeddingTable, cosine
from gowrank.errors import DataFormatError
from gowrank.graph import (
    DocumentGraph,
    build_graph,
    build_graph_mode,
    interaction_matrix,
    normalize_adjacency,
)


def _doc(tokens, doc_id="d"):
    return TokenizedDoc(doc_id=doc_id, tokens=list(tokens), raw_length=len(tokens))


def brute_force_adjacency(tokens, window):
    """Oracle: enumerate every window span, then every ordered pair of
    distinct terms present in it, on a dense matrix."""
    uniq = []
    for t in tokens:
        if t not in uniq:
            uniq.append(t)
    idx = {t: i for i, t in enumerate(uniq)}
    n = len(uniq)
    A = np.zeros((n, n))
    if tokens:
        spans = (
            [(0, len(tokens))]
            if len(tokens) < window
            else [(i, i + window) for i in range(len(tokens) - window + 1)]
        )
        for lo, hi in spans:
            present = set(tokens[lo:hi])
            for t1 in present:
                for t2 in present:
                    if t1 != t2:
                        A[idx[t1], idx[t2]] += 1
    return uniq, A


class TestBuildGraph:
    def test_window2_example(self):
        # [a,b,a,c] w=2: windows {a,b},{b,a},{a,c}
        g = build_graph(_doc([0, 1, 0, 2]), window=2)
        assert g.node_terms == [0, 1, 2]
        A = g.adjacency.toarray()
        assert A[0, 1] == 2 and A[1, 0] == 2
        assert A[0, 2] == 1 and A[2, 0] == 1
        assert A[1, 2] == 0

    def test_window3_example(self):
        # [a,b,a,c] w=3: windows {a,b,a},{b,a,c} — no shorter trailing spans
        g = build_graph(_doc([0, 1, 0, 2]), window=3)
        A = g.adjacency.toarray()
        assert A[0, 1] == 2
        assert A[0, 2] == 1
        assert A[1, 2] == 1

    def test_short_doc_single_window(self):
        # doc shorter than the window: one span covering the whole doc
        g = build_graph(_doc([0, 1, 2]), window=5)
        A = g.adjacency.toarray()
        np.testing.assert_array_equal(A, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_distinct_tokens_window2_is_chain(self):
        g = build_graph(_doc([3, 1, 4, 1, 5][:3]), window=2)  # [3,1,4]
        A = g.adjacency.toarray()
        np.testing.assert_array_equal(A, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_chain_reduction_long(self):
        tokens = list(range(30))
        g = build_graph(_doc(tokens), window=2)
        A = g.adjacency.toarray()
        expected = np.zeros((30, 30))
        for i in range(29):
            expected[i, i + 1] = expected[i + 1, i] = 1
        np.testing.assert_array_equal(A, expected)

    def test_empty_doc(self):
        g = build_graph(_doc([]))
        assert g.num_nodes == 0
        assert g.adjacency.shape == (0, 0)
        assert g.norm_adjacency.shape == (0, 0)

    def test_repeated_term_no_self_loops(self):
        g = build_graph(_doc([7, 7, 7, 7]), window=3)
        assert g.node_terms == [7]
        assert g.adjacency.toarray()[0, 0] == 0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            build_graph(_doc([0, 1]), window=1)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            length = int(rng.integers(0, 120))
            tokens = list(rng.integers(0, 25, size=length))
            window = int(rng.choice([2, 3, 5, 7, 9]))
            g = build_graph(_doc(tokens), window=window)
            uniq, A_ref = brute_force_adjacency(tokens, window)
            assert g.node_terms == uniq
            np.testing.assert_array_equal(g.adjacency.toarray(), A_ref)

    def test_invariants_hold(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            tokens = list(rng.integers(0, 15, size=rng.integers(1, 80)))
            g = build_graph(_doc(tokens), window=5)
            A = g.adjacency.toarray()
            np.testing.assert_array_equal(A, A.T)
            assert np.all(np.diag(A) == 0)
            assert np.all(A >= 0)
            assert np.all(A == np.round(A))
            assert g.num_nodes == len(set(tokens))

    def test_reversed_doc_permutes_rows(self):
        # reversing the token stream preserves the window multiset, so the
        # adjacency must be the same up to the node reordering
        rng = np.random.default_rng(31)
        for _ in range(20):
            tokens = list(rng.integers(0, 10, size=rng.integers(2, 60)))
            g1 = build_graph(_doc(tokens), window=4)
            g2 = build_graph(_doc(tokens[::-1]), window=4)
            assert sorted(g1.node_terms) == sorted(g2.node_terms)
            pos1 = {t: i for i, t in enumerate(g1.node_terms)}
            perm = [pos1[t] for t in g2.node_terms]
            A1 = g1.adjacency.toarray()
            A2 = g2.adjacency.toarray()
            np.testing.assert_array_equal(A2, A1[np.ix_(perm, perm)])
            N1 = g1.norm_adjacency.toarray()
            N2 = g2.norm_adjacency.toarray()
            np.testing.assert_allclose(N2, N1[np.ix_(perm, perm)], atol=1e-15)


class TestNormalizeAdjacency:
    def test_degree_two(self):
        A = csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        N = normalize_adjacency(A).toarray()
        np.testing.assert_allclose(N, [[0, 1], [1, 0]], atol=1e-15)

    def test_unit_degrees(self):
        A = csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        N = normalize_adjacency(A).toarray()
        np.testing.assert_array_equal(N, [[0, 1], [1, 0]])

    def test_isolated_node_zero_row(self):
        A = csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        N = normalize_adjacency(A).toarray()
        np.testing.assert_array_equal(N[2], [0, 0, 0])
        np.testing.assert_array_equal(N[:, 2], [0, 0, 0])

    def test_asymmetric_rejected(self):
        A = csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DataFormatError, match="symmetric"):
            normalize_adjacency(A)

    def test_entrywise_formula(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            raw = rng.integers(0, 4, size=(n, n)).astype(float)
            A_dense = np.triu(raw, 1)
            A_dense = A_dense + A_dense.T
            N = normalize_adjacency(csr_matrix(A_dense)).toarray()
            deg = A_dense.sum(axis=1)
            for i in range(n):
                for j in range(n):
                    if deg[i] > 0 and deg[j] > 0:
                        expected = A_dense[i, j] / np.sqrt(deg[i] * deg[j])
                    else:
                        expected = 0.0
                    assert N[i, j] == pytest.approx(expected, abs=1e-15)

    def test_spectrum_within_unit_interval(self):
        # power iteration on random word graphs, n <= 50
        rng = np.random.default_rng(41)
        for _ in range(15):
            tokens = list(rng.integers(0, 50, size=rng.integers(5, 300)))
            g = build_graph(_doc(tokens), window=5)
            N = g.norm_adjacency
            if g.num_nodes == 0:
                continue
            x = rng.normal(size=g.num_nodes)
            x /= np.linalg.norm(x)
            for _ in range(300):
                y = N @ x
                norm = np.linalg.norm(y)
                if norm == 0:
                    break
                x = y / norm
            rayleigh = float(x @ (N @ x))
            assert abs(rayleigh) <= 1.0 + 1e-9
            # dense cross-check
            eigs = np.linalg.eigvalsh(N.toarray())
            assert eigs.min() >= -1.0 - 1e-9
            assert eigs.max() <= 1.0 + 1e-9


class TestAdjacencyModes:
    def test_sequence_equals_window_two(self):
        rng = np.random.default_rng(43)
        tokens = list(rng.integers(0, 12, size=50))
        doc = _doc(tokens)
        seq = build_graph_mode(doc, window=5, mode="sequence")
        w2 = build_graph(doc, window=2)
        np.testing.assert_array_equal(seq.adjacency.toarray(), w2.adjacency.toarray())

    def test_zero_mode_no_edges_same_nodes(self):
        doc = _doc([0, 1, 2, 0, 3])
        z = build_graph_mode(doc, window=5, mode="zero")
        full = build_graph(doc, window=5)
        assert z.node_terms == full.node_terms
        assert z.adjacency.nnz == 0
        assert z.norm_adjacency.nnz == 0

    def test_graph_mode_passthrough(self):
        doc = _doc([0, 1, 2, 0, 3])
        g = build_graph_mode(doc, window=3, mode="graph")
        np.testing.assert_array_equal(
            g.adjacency.toarray(), build_graph(doc, window=3).adjacency.toarray()
        )

    def test_unknown_mode(self):
        with pytest.raises(DataFormatError):
            build_graph_mode(_doc([0]), mode="banana")


def _table():
    # ids 0..3; id 3 has no embedding
    vecs = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    return EmbeddingTable(3, vecs, np.array([True, True, True, False]))


def _query(tokens):
    return Query(query_id="q", tokens=tokens, idf=np.ones(len(tokens)))


class TestInteractionMatrix:
    def test_self_similarity_one(self):
        g = build_graph(_doc([0, 1]), window=2)
        S = interaction_matrix(g, _query([0]), _table())
        assert S.shape == (2, 1)
        assert S[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_missing_embedding_zero_column(self):
        g = build_graph(_doc([0, 1, 2]), window=2)
        S = interaction_matrix(g, _query([3, 0]), _table())
        np.testing.assert_array_equal(S[:, 0], [0, 0, 0])
        assert S[0, 1] == pytest.approx(1.0)

    def test_oov_query_term_zero_column(self):
        g = build_graph(_doc([0, 1]), window=2)
        S = interaction_matrix(g, _query([OOV_ID]), _table())
        np.testing.assert_array_equal(S, [[0.0], [0.0]])

    def test_empty_graph(self):
        S = interaction_matrix(build_graph(_doc([])), _query([0, 1]), _table())
        assert S.shape == (0, 2)

    def test_empty_query(self):
        g = build_graph(_doc([0, 1]), window=2)
        S = interaction_matrix(g, _query([]), _table())
        assert S.shape == (2, 0)

    def test_matches_pairwise_cosine(self):
        rng = np.random.default_rng(47)
        vecs = rng.normal(size=(10, 4))
        vecs[7] = 0.0
        table = EmbeddingTable(4, vecs, np.array([True] * 7 + [False] + [True] * 2))
        tokens = list(rng.integers(0, 10, size=40))
        g = build_graph(_doc(tokens), window=5)
        qtoks = [0, 7, 3, OOV_ID]
        S = interaction_matrix(g, _query(qtoks), table)
        assert S.shape == (g.num_nodes, 4)
        for i, nt in enumerate(g.node_terms):
            for j, qt in enumerate(qtoks):
                if qt == OOV_ID or not table.has_vector[qt] or not table.has_vector[nt]:
                    expected = 0.0
                else:
                    expected = cosine(vecs[nt], vecs[qt])
                assert S[i, j] == pytest.approx(expected, abs=1e-12)
        assert np.all(np.abs(S) <= 1.0 + 1e-12)

