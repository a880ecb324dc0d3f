"""Graph-of-word construction and query-document interaction features.

Each document becomes an undirected graph over its unique terms: an edge
counts how many sliding windows contain both endpoints.  The symmetric
degree-normalized adjacency drives message passing; the interaction
matrix of node-term / query-term cosines provides the input features.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from .corpus import Query, TokenizedDoc
from .embeddings import EmbeddingTable
from .errors import DataFormatError

ADJACENCY_MODES = ("graph", "sequence", "zero")


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


def _window_spans(n_tokens: int, window: int) -> list[tuple[int, int]]:
    """Stride-1 spans of length `window`; a too-short document is one span."""
    if n_tokens == 0:
        return []
    if n_tokens < window:
        return [(0, n_tokens)]
    return [(i, i + window) for i in range(n_tokens - window + 1)]


def build_graph(doc: TokenizedDoc, window: int = 5) -> DocumentGraph:
    """Count, for each unordered pair of distinct terms, the number of
    sliding windows in which both appear.

    A pair co-occurring several times inside one window still counts once
    for that window, and self-pairs never count (the diagonal is zero).
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    tokens = doc.tokens
    node_terms: list[int] = []
    node_of: dict[int, int] = {}
    for tid in tokens:
        if tid not in node_of:
            node_of[tid] = len(node_terms)
            node_terms.append(tid)
    n = len(node_terms)

    counts: dict[tuple[int, int], int] = {}
    for lo, hi in _window_spans(len(tokens), window):
        present = sorted({node_of[t] for t in tokens[lo:hi]})
        for a_pos, a in enumerate(present):
            for b in present[a_pos + 1 :]:
                key = (a, b)
                counts[key] = counts.get(key, 0) + 1

    if counts:
        rows, cols, vals = [], [], []
        for (a, b), c in counts.items():
            rows += [a, b]
            cols += [b, a]
            vals += [c, c]
        adjacency = csr_matrix(
            (np.array(vals, dtype=np.float64), (rows, cols)), shape=(n, n)
        )
    else:
        adjacency = csr_matrix((n, n), dtype=np.float64)
    return DocumentGraph(node_terms, adjacency)


def normalize_adjacency(adjacency: csr_matrix) -> csr_matrix:
    """Symmetric normalization A_ij / sqrt(D_ii * D_jj).

    Zero-degree (isolated) nodes keep all-zero rows and columns.
    """
    diff = (adjacency - adjacency.T).tocoo()
    if diff.nnz and np.abs(diff.data).max() > 0:
        raise DataFormatError("adjacency matrix must be symmetric")
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degrees)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
    scaled = adjacency.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :])
    return csr_matrix(scaled)


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
        full = build_graph(doc, window)
        n = full.num_nodes
        return DocumentGraph(full.node_terms, csr_matrix((n, n), dtype=np.float64))
    raise DataFormatError(f"unknown adjacency mode {mode!r}")


def interaction_matrix(
    graph: DocumentGraph, query: Query, emb: EmbeddingTable
) -> np.ndarray:
    """n x M cosine similarities between node terms and query terms.

    Terms without embeddings (including out-of-vocabulary query terms)
    contribute zero rows/columns; n = 0 yields an empty (0, M) matrix.
    """
    n = graph.num_nodes
    m = len(query.tokens)
    if n == 0 or m == 0:
        return np.zeros((n, m), dtype=np.float64)
    doc_units = np.stack([emb.unit_vector(t) for t in graph.node_terms])
    query_units = np.stack([emb.unit_vector(t) for t in query.tokens])
    return doc_units @ query_units.T

