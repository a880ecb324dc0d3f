"""Graph-of-word construction and query-document interaction features.

Each document becomes an undirected graph over its unique terms: an edge
counts how many sliding windows contain both endpoints.  The symmetric
degree-normalized adjacency drives message passing; the interaction
matrix of node-term / query-term cosines provides the input features.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import csr_matrix

from .corpus import Query, TokenizedDoc
from .embeddings import EmbeddingTable
from .errors import DataFormatError


class DocumentGraph:
    """Unique terms as nodes (first-occurrence order) with windowed
    co-occurrence counts as edges.

    `adjacency` holds raw counts (symmetric, zero diagonal);
    `norm_adjacency` is D^{-1/2} A D^{-1/2} with zero rows for isolated
    nodes.  Both are immutable after construction.
    """

    def __init__(self, node_terms: list[int], adjacency: csr_matrix):
        self.node_terms = node_terms
        self.adjacency = adjacency
        self.norm_adjacency = normalize_adjacency(adjacency)

    @property
    def num_nodes(self) -> int:
        return len(self.node_terms)


def _node_order(tokens: list[int]) -> tuple[list[int], np.ndarray]:
    """Unique terms in first-occurrence order, and each token's node index."""
    _, first, inverse = np.unique(
        np.asarray(tokens, dtype=np.int64), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    # the token objects themselves, so a cached graph holds no new ints
    node_terms = [tokens[i] for i in first[order].tolist()]
    return node_terms, np.argsort(order).astype(np.int32)[inverse]


def build_graph(doc: TokenizedDoc, window: int = 5) -> DocumentGraph:
    """Count, for each unordered pair of distinct terms, the number of
    sliding windows in which both appear.

    A pair co-occurring several times inside one window still counts once
    for that window, and self-pairs never count: with W the binarized
    window-by-node incidence, A is WᵀW off the diagonal.  A document
    shorter than the window is one window.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    node_terms, node_of = _node_order(doc.tokens)
    n = len(node_terms)
    if n == 0:
        return DocumentGraph(node_terms, csr_matrix((0, 0), dtype=np.float64))
    spans = sliding_window_view(node_of, min(window, len(node_of)))
    incidence = csr_matrix(
        (np.ones(spans.size), spans.flatten(),
         np.arange(0, spans.size + 1, spans.shape[1], dtype=np.int32)),
        shape=(len(spans), n),
    )
    incidence.sum_duplicates()
    incidence.data[:] = 1.0
    gram = incidence.T.tocsr() @ incidence
    gram.sort_indices()
    # drop the diagonal into fresh arrays: setdiag(0) + eliminate_zeros()
    # would leave views into buffers sized for it in every cached graph
    row = np.repeat(np.arange(n, dtype=np.int32), np.diff(gram.indptr))
    off_diag = gram.indices != row
    indptr = np.searchsorted(row[off_diag], np.arange(n + 1)).astype(np.int32)
    adjacency = csr_matrix(
        (gram.data[off_diag], gram.indices[off_diag], indptr), shape=(n, n)
    )
    return DocumentGraph(node_terms, adjacency)


def normalize_adjacency(adjacency: csr_matrix) -> csr_matrix:
    """Symmetric normalization A_ij / sqrt(D_ii * D_jj).

    Zero-degree (isolated) nodes keep all-zero rows and columns.  The
    result shares `indptr` and `indices` with the input.  Each entry is
    the count times the product of its two scales, computed before the
    count is applied, so entries (i, j) and (j, i) are equal bit for bit
    and the result is its own transpose.
    """
    if (adjacency != adjacency.T).nnz:
        raise DataFormatError("adjacency matrix must be symmetric")
    n = adjacency.shape[0]
    row = np.repeat(np.arange(n), np.diff(adjacency.indptr))
    degrees = np.bincount(row, weights=adjacency.data, minlength=n)
    inv_sqrt = np.divide(1.0, np.sqrt(degrees), out=np.zeros(n), where=degrees > 0)
    scaled = adjacency.data * (inv_sqrt[row] * inv_sqrt[adjacency.indices])
    return csr_matrix((scaled, adjacency.indices, adjacency.indptr), shape=(n, n))


def build_graph_mode(
    doc: TokenizedDoc, window: int = 5, mode: str = "graph"
) -> DocumentGraph:
    """Adjacency variants used for structure ablations.

    graph    — windowed co-occurrence at the configured width;
    sequence — width-2 windows, i.e. a chain over adjacent tokens;
    zero     — same nodes, no edges (message passing sees nothing).
    """
    if mode == "graph":
        return build_graph(doc, window)
    if mode == "sequence":
        return build_graph(doc, 2)
    if mode == "zero":
        node_terms, _ = _node_order(doc.tokens)
        n = len(node_terms)
        return DocumentGraph(node_terms, csr_matrix((n, n), dtype=np.float64))
    raise DataFormatError(f"unknown adjacency mode {mode!r}")


def _unit_rows(emb: EmbeddingTable, term_ids: list[int]) -> np.ndarray:
    """Unit vectors of `term_ids`; a zero row for any id outside [0, V)."""
    ids = np.asarray(term_ids, dtype=np.int64)
    inside = (ids >= 0) & (ids < len(emb.unit))
    rows = np.zeros((len(ids), emb.dim), dtype=np.float64)
    rows[inside] = emb.unit[ids[inside]]
    return rows


def interaction_matrix(
    graph: DocumentGraph, query: Query, emb: EmbeddingTable
) -> np.ndarray:
    """n x M cosine similarities between node terms and query terms.

    Terms without embeddings (including out-of-vocabulary query terms)
    contribute zero rows/columns; n = 0 yields an empty (0, M) matrix.
    """
    return _unit_rows(emb, graph.node_terms) @ _unit_rows(emb, query.tokens).T
