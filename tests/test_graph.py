"""Graph-of-word construction vs a brute-force oracle, normalization,
and interaction features."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix, issparse

import gowrank.graph
from gowrank.corpus import OOV_ID, Query, TokenizedDoc
from gowrank.embeddings import EmbeddingTable
from gowrank.errors import DataFormatError
from gowrank.graph import (
    BLOCK_NODES,
    DocumentGraph,
    build_graph,
    build_graphs,
    interaction_matrix,
    normalize_adjacency,
)

import reference


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


def assert_loop_layout(g, ref):
    """`g`'s arrays are byte for byte those of the loop builder's CSR
    matrices `ref` = (node_terms, adjacency, norm_adjacency): the layout,
    not just the matrix, decides the summation order of every sparse
    product downstream, so run files stay byte-stable only if the arrays
    are the loop builder's."""
    terms, adjacency, norm = ref
    assert g.node_terms == terms
    for mat, data in ((adjacency, g.counts), (norm, g.weights)):
        for got, want in ((g.indptr, mat.indptr), (g.indices, mat.indices),
                          (data, mat.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def assert_compact_arrays(g):
    """An int32 pattern and float64 values, each array owning exactly its
    n + 1 or nnz entries, so a cached graph keeps no chunk buffer alive;
    and no scipy matrix among the graph's attributes."""
    nnz = int(g.indptr[-1])
    for name, dtype, size in (("indptr", np.int32, g.num_nodes + 1),
                              ("indices", np.int32, nnz),
                              ("counts", np.float64, nnz),
                              ("weights", np.float64, nnz)):
        arr = getattr(g, name)
        assert arr.dtype == dtype and arr.size == size, name
        assert arr.flags.owndata, name
    assert not any(issparse(value) for value in vars(g).values())


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
        assert g.indptr.tolist() == [0] and g.weights.size == 0

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

    def test_csr_arrays_match_loop_oracle(self):
        rng = np.random.default_rng(53)
        for window in (2, 3, 5, 7):
            for _ in range(40):
                length = int(rng.integers(0, 150))
                vocab = int(rng.choice([3, 20, 200]))
                tokens = [int(t) for t in rng.integers(0, vocab, size=length)]
                g = build_graph(_doc(tokens), window=window)
                assert_loop_layout(g, reference.loop_graph(tokens, window))

    def test_compact_canonical_layout(self):
        # strictly increasing indices in each row, no self-loops, no stored
        # zeros, and compact arrays of the graph's own
        rng = np.random.default_rng(59)
        for _ in range(40):
            tokens = [int(t) for t in rng.integers(0, 30, size=rng.integers(0, 200))]
            g = build_graph(_doc(tokens), window=int(rng.choice([2, 3, 5, 7])))
            assert_compact_arrays(g)
            rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
            assert np.all(np.diff(g.indices)[np.diff(rows) == 0] > 0)
            assert not np.any(g.indices == rows)
            assert np.all(g.counts != 0) and np.all(g.weights != 0)

    def test_index_buffer_documents_match_list_documents(self):
        # an index file's documents are read-only int32 slices of one
        # buffer; their graphs are the list documents' graphs, and node
        # terms stay a list of plain ints either way
        rng = np.random.default_rng(37)
        lists = [rng.integers(0, 60, size=n).tolist() for n in (0, 1, 4, 300, 90, 7)]
        buffer = np.array([t for tokens in lists for t in tokens], dtype="<i4")
        buffer.flags.writeable = False
        bounds = np.cumsum([0] + [len(tokens) for tokens in lists]).tolist()
        views = [TokenizedDoc("d", buffer[lo:hi], hi - lo)
                 for lo, hi in zip(bounds, bounds[1:])]
        for window in (2, 5):
            got = build_graphs(views, window=window)
            want = build_graphs([_doc(tokens) for tokens in lists], window=window)
            for g, w in zip(got, want, strict=True):
                assert type(g.node_terms) is list
                assert all(type(t) is int for t in g.node_terms)
                assert g.node_terms == w.node_terms
                for name in ("indptr", "indices", "counts", "weights"):
                    assert getattr(g, name).tobytes() == getattr(w, name).tobytes()
        assert buffer.tolist() == [t for tokens in lists for t in tokens]

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
            N1 = reference.norm_adjacency(g1).toarray()
            N2 = reference.norm_adjacency(g2).toarray()
            np.testing.assert_allclose(N2, N1[np.ix_(perm, perm)], atol=1e-15)


def _mixed_docs(rng, window):
    """Documents that put every edge case into the pooled chunks: empty,
    one token, shorter than and exactly as long as the window, longer than
    BLOCK_NODES, and one document object listed twice."""
    lengths = [0, 1, window - 1, window, 0, 3, BLOCK_NODES + 37, 1, window]
    lengths += rng.integers(0, 700, size=12).tolist()
    docs = []
    for i, length in enumerate(lengths):
        vocab = int(rng.choice([2, 20, 400]))
        tokens = [int(t) for t in rng.integers(-1, vocab, size=length)]
        docs.append(_doc(tokens, doc_id=f"d{i}"))
    docs.insert(7, docs[3])
    docs.append(docs[6])
    return docs


class TestPooledBuild:
    @pytest.mark.parametrize("block", [BLOCK_NODES, 40])
    @pytest.mark.parametrize("mode", ["graph", "sequence", "zero"])
    def test_per_document_csr_bytes_match_loop_oracle(self, monkeypatch, mode, block):
        monkeypatch.setattr(gowrank.graph, "BLOCK_NODES", block)
        rng = np.random.default_rng(61)
        for window in (2, 3, 5):
            docs = _mixed_docs(rng, window)
            graphs = build_graphs(docs, window=window, mode=mode)
            assert len(graphs) == len(docs)
            # the zero mode's graph is the loop builder's at windows of one
            # token: the same nodes, and no pair ever shares a window
            width = {"graph": window, "sequence": 2, "zero": 1}[mode]
            for doc, g in zip(docs, graphs):
                assert_loop_layout(g, reference.loop_graph(doc.tokens, width))

    def test_no_documents_no_graphs(self):
        assert build_graphs([], window=3) == []

    def test_chunk_symmetry_check_runs_once_per_chunk(self, monkeypatch):
        # 9 documents of 500 tokens: chunks of 4, 4 and 1 under the bound
        calls = []
        real = gowrank.graph.normalize_adjacency

        def counted(adjacency):
            calls.append(adjacency.shape[0])
            return real(adjacency)

        monkeypatch.setattr(gowrank.graph, "normalize_adjacency", counted)
        rng = np.random.default_rng(67)
        docs = [_doc(rng.integers(0, 50, size=500).tolist()) for _ in range(9)]
        graphs = build_graphs(docs, window=5)
        assert len(calls) == 3
        assert calls == [
            sum(g.num_nodes for g in graphs[lo:hi]) for lo, hi in ((0, 4), (4, 8), (8, 9))
        ]

    def test_cached_graphs_own_compact_arrays(self):
        rng = np.random.default_rng(71)
        docs = [_doc(rng.integers(0, 300, size=500).tolist()) for _ in range(100)]
        for g in build_graphs(docs, window=5):
            assert_compact_arrays(g)

    def test_transient_peak_is_bounded_by_what_the_graphs_keep(self):
        # a pool of 100 500-token documents built as one unbounded product
        # peaks at ~4.5x the memory its graphs keep; chunks of BLOCK_NODES
        # tokens keep the peak close to the result itself
        rng = np.random.default_rng(73)
        docs = [_doc(rng.zipf(1.3, size=500).tolist()) for _ in range(100)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            graphs = build_graphs(docs, window=5)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graphs) == 100
        assert peak - base <= 1.5 * (kept - base)


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

    def test_asymmetric_values_on_symmetric_pattern_rejected(self):
        A = csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        with pytest.raises(DataFormatError, match="symmetric"):
            normalize_adjacency(A)

    def test_unsorted_duplicate_entries_summed(self):
        # row 0 lists column 1 twice and out of order with column 2
        A = csr_matrix(
            (np.array([1.0, 1.0, 1.0, 2.0, 1.0]), np.array([2, 1, 1, 0, 0]),
             np.array([0, 3, 4, 5])),
            shape=(3, 3),
        )
        N = normalize_adjacency(A).toarray()
        dense = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        deg = dense.sum(axis=1)
        np.testing.assert_allclose(N, dense / np.sqrt(np.outer(deg, deg)), atol=1e-15)

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

    def test_result_is_its_own_transpose_bit_for_bit(self):
        # the backward pass multiplies by the normalized adjacency where the
        # math has its transpose, so (i, j) and (j, i) must round identically
        rng = np.random.default_rng(43)
        graphs = [
            build_graph(_doc([]), window=3),  # n = 0
            build_graph(_doc([7, 7, 7]), window=3),  # n = 1
        ]
        for window in range(2, 8):
            for _ in range(25):
                vocab = int(rng.choice([3, 20, 200]))
                tokens = rng.integers(0, vocab, size=int(rng.integers(0, 150)))
                graphs.append(build_graph(_doc(tokens.tolist()), window))
        mats = [reference.norm_adjacency(g) for g in graphs]
        for _ in range(25):  # isolated nodes: zero rows and columns
            n = int(rng.integers(2, 15))
            upper = np.triu(rng.integers(0, 5, size=(n, n)).astype(float), 1)
            dense = upper + upper.T
            isolated = rng.random(n) < 0.3
            dense[isolated] = 0.0
            dense[:, isolated] = 0.0
            mats.append(normalize_adjacency(csr_matrix(dense)))
        for N in mats:
            assert (N != N.T).nnz == 0
            T = N.T.tocsr().sorted_indices()
            for name in ("indptr", "indices", "data"):
                assert getattr(N, name).tobytes() == getattr(T, name).tobytes(), name

    def test_spectrum_within_unit_interval(self):
        # power iteration on random word graphs, n <= 50
        rng = np.random.default_rng(41)
        for _ in range(15):
            tokens = list(rng.integers(0, 50, size=rng.integers(5, 300)))
            g = build_graph(_doc(tokens), window=5)
            N = reference.norm_adjacency(g)
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
        seq = build_graphs([doc], window=5, mode="sequence")[0]
        w2 = build_graph(doc, window=2)
        np.testing.assert_array_equal(seq.adjacency.toarray(), w2.adjacency.toarray())

    def test_zero_mode_no_edges_same_nodes(self):
        doc = _doc([0, 1, 2, 0, 3])
        z = build_graphs([doc], window=5, mode="zero")[0]
        full = build_graph(doc, window=5)
        assert z.node_terms == full.node_terms
        assert z.adjacency.nnz == 0
        assert z.weights.size == 0

    def test_graph_mode_passthrough(self):
        doc = _doc([0, 1, 2, 0, 3])
        g = build_graphs([doc], window=3, mode="graph")[0]
        np.testing.assert_array_equal(
            g.adjacency.toarray(), build_graph(doc, window=3).adjacency.toarray()
        )

    def test_unknown_mode(self):
        with pytest.raises(DataFormatError):
            build_graphs([_doc([0])], mode="banana")


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

    def test_out_of_range_ids_give_zero_rows(self):
        # V = 4: OOV_ID and ids >= V, as node terms or query terms, get
        # exact +0.0 rows and columns; in-range ids keep their cosines
        g = build_graph(_doc([0, OOV_ID, 4, 1, 99]), window=2)
        S = interaction_matrix(g, _query([OOV_ID, 1, 4, 0, 7]), _table())
        assert S.shape == (5, 5)
        outside_rows = [i for i, t in enumerate(g.node_terms) if not 0 <= t < 4]
        assert len(outside_rows) == 3
        for i in outside_rows:
            assert S[i].tobytes() == np.zeros(5).tobytes()
        for j in (0, 2, 4):
            assert S[:, j].tobytes() == np.zeros(5).tobytes()
        assert S[0, 3] == pytest.approx(1.0)
        assert S[0, 1] == 0.0
        assert S[3, 1] == pytest.approx(1.0)

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
                    expected = reference.cosine(vecs[nt], vecs[qt])
                assert S[i, j] == pytest.approx(expected, abs=1e-12)
        assert np.all(np.abs(S) <= 1.0 + 1e-12)

