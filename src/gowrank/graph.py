"""Graph-of-word construction and query-document interaction features.

Each document becomes an undirected graph over its unique terms: an edge
counts how many sliding windows contain both endpoints.  `build_graphs`
builds a list of documents together, a chunk of at most BLOCK_NODES
tokens at a time: one window-by-node incidence W covers every window of
the chunk, with each document's nodes at their own offset, so WᵀW off
its diagonal is the block-diagonal union of the documents' adjacencies.
One degree pass normalizes the whole chunk, and each document keeps
compact copies of its own block.  `build_graph` is the one-document
case.  The symmetric degree-normalized adjacency drives message passing;
the interaction matrix of node-term / query-term cosines provides the
input features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .corpus import Query, TokenizedDoc
from .embeddings import EmbeddingTable
from .errors import DataFormatError

# tokens per pooled graph build, and padded rows per stacked block in
# `model.forward_batch`: large enough that a training minibatch of short
# documents is one chunk and one block, small enough that a pool of long
# ones adds little transient memory (for a pool of 100 500-token
# documents, one block raised peak RSS by ~10 MB and one product by ~15 MB)
BLOCK_NODES = 2048


@dataclass(eq=False)
class DocumentGraph:
    """Unique terms as nodes (first-occurrence order) with windowed
    co-occurrence counts as edges, held as compact CSR arrays.

    `indptr` and `indices` (int32) are the pattern of the symmetric
    adjacency A, with sorted rows and no diagonal; `counts` (float64)
    holds A's raw counts and `weights` (float64) D^{-1/2} A D^{-1/2},
    entry for entry, so an isolated node has an empty row.  Each array is
    the graph's own; none is changed after construction.
    """

    node_terms: list[int]
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    weights: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.node_terms)

    @property
    def adjacency(self) -> csr_matrix:
        """The raw counts as a CSR matrix over the graph's own arrays."""
        n = self.num_nodes
        return csr_matrix((self.counts, self.indices, self.indptr), shape=(n, n))


def build_graphs(
    docs: list[TokenizedDoc], window: int = 5, mode: str = "graph"
) -> list[DocumentGraph]:
    """The graphs of `docs`, in order, built a chunk at a time.

    graph    — windowed co-occurrence at the configured width;
    sequence — width-2 windows, i.e. a chain over adjacent tokens;
    zero     — same nodes, no edges (message passing sees nothing).

    Consecutive documents form a chunk while their tokens number at most
    BLOCK_NODES; a longer document is a chunk of its own.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    widths = {"graph": window, "sequence": 2, "zero": 0}  # 0: no edges
    if mode not in widths:
        raise DataFormatError(f"unknown adjacency mode {mode!r}")
    width = widths[mode]
    graphs: list[DocumentGraph] = []
    start = size = 0
    for end, doc in enumerate(docs):
        if end > start and size + len(doc.tokens) > BLOCK_NODES:
            graphs += _build_chunk(docs[start:end], width)
            start, size = end, 0
        size += len(doc.tokens)
    if docs:
        graphs += _build_chunk(docs[start:], width)
    return graphs


def build_graph(doc: TokenizedDoc, window: int = 5) -> DocumentGraph:
    """The windowed co-occurrence graph of one document."""
    return build_graphs([doc], window)[0]


def _build_chunk(docs: list[TokenizedDoc], width: int) -> list[DocumentGraph]:
    """Count, for each unordered pair of distinct terms of a document, the
    number of its sliding windows of `width` tokens in which both appear.

    A pair co-occurring several times inside one window still counts once
    for that window, and self-pairs never count: with W the binarized
    window-by-node incidence, A is WᵀW off the diagonal.  A document
    shorter than the window is one window of its own length.
    """
    lengths = np.array([len(doc.tokens) for doc in docs], dtype=np.int64)
    tokens = np.concatenate([np.asarray(doc.tokens, dtype=np.int64) for doc in docs])
    doc_of = np.repeat(np.arange(len(docs)), lengths)
    ids = tokens.copy()
    if ids.size:
        ids -= ids.min()
        ids += doc_of * (int(ids.max()) + 1)  # documents never share a node
    # nodes: unique (document, term) keys in first-occurrence order
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    node_of = np.argsort(order).astype(np.int32)[inverse]
    node_terms = tokens[first[order]].tolist()
    n = len(node_terms)
    node_offsets = np.concatenate(
        [[0], np.cumsum(np.bincount(doc_of[first], minlength=len(docs)))]
    ).tolist()

    row = indices = np.zeros(0, dtype=np.int32)
    data = np.zeros(0)
    if width and n:
        # a window starts at each of a document's first L - width + 1
        # tokens, or at its first token only when L < width
        doc_len = lengths[doc_of]
        local = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        starts = np.flatnonzero(local <= np.maximum(doc_len - width, 0))
        span = np.minimum(doc_len[starts], width)
        win_ptr = np.concatenate([[0], np.cumsum(span)])
        positions = (np.repeat(starts - win_ptr[:-1], span)
                     + np.arange(win_ptr[-1]))
        incidence = csr_matrix(
            (np.ones(len(positions)), node_of[positions], win_ptr.astype(np.int32)),
            shape=(len(span), n),
        )
        incidence.sum_duplicates()
        incidence.data[:] = 1.0
        gram = incidence.T.tocsr() @ incidence
        gram.sort_indices()
        row = np.repeat(np.arange(n, dtype=np.int32), np.diff(gram.indptr))
        off_diag = gram.indices != row
        row, indices, data = row[off_diag], gram.indices[off_diag], gram.data[off_diag]
    indptr = np.searchsorted(row, np.arange(n + 1)).astype(np.int32)
    # block-diagonal, so symmetric exactly when every document's block is
    norm = normalize_adjacency(csr_matrix((data, indices, indptr), shape=(n, n)))

    edge_offsets = indptr[node_offsets].tolist()
    # fresh arrays: views would keep the chunk's buffers alive in every
    # cached graph
    return [
        DocumentGraph(node_terms[lo:hi], indptr[lo:hi + 1] - a, indices[a:b] - lo,
                      data[a:b].copy(), norm.data[a:b].copy())
        for lo, hi, a, b in zip(node_offsets, node_offsets[1:], edge_offsets, edge_offsets[1:])
    ]


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
