"""Graph-of-word construction.

Each document becomes an undirected graph over its unique terms: an edge
counts how many sliding windows contain both endpoints.  `build_graphs`
builds a list of documents together, a chunk of at most BUILD_TOKENS
tokens at a time: one window-by-node incidence W covers every window of
the chunk, with each document's nodes at their own offset, so WᵀW off
its diagonal is the block-diagonal union of the documents' adjacencies.
The counting's temporaries are freed before one degree pass normalizes
the whole chunk, and each document keeps compact copies of its own
block.  `build_graph` is the one-document case, and `block_diagonal`
stacks graphs' arrays into such a union for the reads of `graph_stores`
and for message passing over the symmetric normalized adjacency.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix

from .artifacts import Cache
from .corpus import TokenizedDoc
from .errors import DataFormatError

log = logging.getLogger(__name__)

# tokens per chunk of a graph build, each chunk paying fixed sparse-matrix
# costs: 728 500-token rerank pool graphs built in ~0.20 s at 8192, ~0.26 s
# at 2048 and ~0.19 s at 16384 on one vCPU; 100 500-token Zipf documents
# peak at 4.1 MB under tracemalloc, in the counting, for the 3.4 MB their
# graphs keep (1.21x; 1.06x at 2048, 1.46x at 16384, near the tests' 1.5x)
BUILD_TOKENS = 8192


@dataclass(eq=False)
class DocumentGraph:
    """Unique terms as nodes (first-occurrence order) with windowed
    co-occurrence counts as edges, held as compact CSR arrays.

    `indptr` and `indices` (int32) are the pattern of the symmetric
    adjacency A, with sorted rows and no diagonal; `counts` (int32 when
    built, the store's unsigned dtype when loaded) holds A's raw counts
    and `weights` (float64) D^{-1/2} A D^{-1/2}, entry for entry, so an
    isolated node has an empty row.  Each array is the graph's own, or a
    view of a graph store's (see `stored_graphs`); none is changed after
    construction.
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


def edge_width(mode: str, window: int) -> int:
    """The width of the windows whose co-occurrences adjacency `mode`
    counts: graph, `window`; sequence, 2 (a chain over adjacent tokens);
    zero, 1 (no pair shares a window, so message passing sees nothing)."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    widths = {"graph": window, "sequence": 2, "zero": 1}
    if mode not in widths:
        raise DataFormatError(f"unknown adjacency mode {mode!r}")
    return widths[mode]


def build_graphs(
    docs: list[TokenizedDoc], window: int = 5, mode: str = "graph"
) -> list[DocumentGraph]:
    """The graphs of `docs` in adjacency `mode`, in order, built a chunk
    of at most BUILD_TOKENS tokens at a time (see `_chunks`)."""
    width = edge_width(mode, window)
    return [graph for lo, hi in _chunks([len(doc.tokens) for doc in docs], BUILD_TOKENS)
            for graph in _build_chunk(docs[lo:hi], width)]


def _chunks(sizes: list[int], limit: int):
    """(start, end) of runs of consecutive items whose sizes sum to at most
    `limit`, in order; a larger item is a run of its own."""
    start = total = 0
    for end, size in enumerate(sizes):
        if end > start and total + size > limit:
            yield start, end
            start, total = end, 0
        total += size
    if sizes:
        yield start, len(sizes)


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
    node_of = np.empty(len(order), np.int32)
    node_of[order] = np.arange(len(order), dtype=np.int32)  # order's inverse
    node_of = node_of[inverse]
    node_terms = tokens[first[order]].tolist()
    n = len(node_terms)
    node_offsets = np.concatenate(
        [[0], np.cumsum(np.bincount(doc_of[first], minlength=len(docs)))]
    ).tolist()

    # a window starts at each of a document's first L - width + 1 tokens,
    # or at its first token only when L < width
    doc_len = lengths[doc_of]
    local = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    starts = np.flatnonzero(local <= np.maximum(doc_len - width, 0))
    span = np.minimum(doc_len[starts], width)
    win_ptr = np.concatenate([[0], np.cumsum(span)])
    positions = np.repeat(starts - win_ptr[:-1], span)
    positions += np.arange(win_ptr[-1])
    incidence = csr_matrix(
        (np.ones(len(positions), np.int32), node_of[positions], win_ptr.astype(np.int32)),
        shape=(len(span), n),
    )
    # the counting's temporaries go before the normalization allocates its own
    del tokens, doc_of, ids, inverse, node_of, doc_len, local, starts, span, positions
    incidence.sum_duplicates()
    incidence.data[:] = 1
    adjacency = incidence.T.tocsr() @ incidence
    del incidence
    adjacency.setdiag(0)  # in place: each node lies in a window, so its diagonal is stored
    adjacency.eliminate_zeros()
    # WᵀW is symmetric (checked below), so its linear-time transpose sorts its rows
    adjacency = adjacency.T.tocsr()
    indptr, indices, data = adjacency.indptr, adjacency.indices, adjacency.data
    norm = normalize_adjacency(adjacency)

    edge_offsets = indptr[node_offsets].tolist()
    # fresh arrays: views would keep the chunk's buffers alive in every
    # cached graph
    return [
        DocumentGraph(node_terms[lo:hi], indptr[lo:hi + 1] - a, indices[a:b] - lo,
                      data[a:b].copy(), norm.data[a:b].copy())
        for lo, hi, a, b in zip(node_offsets, node_offsets[1:], edge_offsets, edge_offsets[1:])
    ]


def normalize_adjacency(adjacency: csr_matrix) -> csr_matrix:
    """Symmetric normalization A_ij / sqrt(D_ii * D_jj), D_jj column j's sum.

    Zero-degree (isolated) nodes keep all-zero rows and columns.  The
    result shares `indptr` and `indices` with the input.  Each entry is
    the count times the product of its two scales, computed before the
    count is applied, so entries (i, j) and (j, i) are equal bit for bit
    and the result is its own transpose.
    """
    if not _symmetric(adjacency):
        raise DataFormatError("adjacency matrix must be symmetric")
    n = adjacency.shape[0]
    degrees = np.bincount(adjacency.indices, weights=adjacency.data, minlength=n)
    inv_sqrt = np.divide(1.0, np.sqrt(degrees), out=np.zeros(n), where=degrees > 0)
    scaled = np.repeat(inv_sqrt, np.diff(adjacency.indptr))  # each entry's row scale
    scaled *= inv_sqrt[adjacency.indices]
    scaled *= adjacency.data
    return csr_matrix((scaled, adjacency.indices, adjacency.indptr), shape=(n, n))


def _symmetric(adjacency: csr_matrix) -> bool:
    """Whether `adjacency` equals its transpose: the arrays of its canonical
    form (sorted rows, no repeat, no stored zero) equal its transpose's."""
    if not adjacency.has_canonical_format or not adjacency.data.all():
        adjacency = adjacency.copy()
        adjacency.sum_duplicates()
        adjacency.eliminate_zeros()
    transpose = adjacency.T.tocsr()  # a counting transpose: its rows come sorted
    return all(np.array_equal(getattr(adjacency, name), getattr(transpose, name))
               for name in ("indptr", "indices", "data"))


def block_diagonal(parts) -> csr_matrix:
    """The disjoint union of square CSR matrices given as (indptr, indices,
    entries), in order; each row keeps its part's entries in stored order,
    so a product with the union sums it exactly as one with its part."""
    indptrs, indices, entries = zip(*parts)
    sizes, nnz = [len(p) - 1 for p in indptrs], [len(i) for i in indices]
    # int32 offsets as the parts' (too large raises), one repeat per array
    rows, edges = (np.array([0, *accumulate(n)], np.int32) for n in (sizes, nnz))
    indptr = np.concatenate([np.zeros(1, np.int32), *(p[1:] for p in indptrs)])
    indptr[1:] += np.repeat(edges[:-1], sizes)
    indices = np.concatenate(indices)
    indices += np.repeat(rows[:-1], nnz)
    return csr_matrix((np.concatenate(entries), indices, indptr), shape=(rows[-1],) * 2)


def store_arrays(rows: list[int], graphs: list[DocumentGraph]) -> dict[str, np.ndarray]:
    """The arrays of a graph store of `graphs`, those of the index rows
    `rows` (see `stored_graphs`)."""
    top = max(int(g.counts.max(initial=0)) for g in graphs)
    return {"rows": np.array(rows, np.int32),
            "sizes": np.array([g.num_nodes for g in graphs], np.int32),
            "node_terms": np.array([t for g in graphs for t in g.node_terms], np.int32),
            "indptr": np.concatenate([g.indptr for g in graphs]),
            "indices": np.concatenate([g.indices for g in graphs]),
            "counts": np.concatenate([g.counts for g in graphs], casting="unsafe",
                                     dtype=np.min_scalar_type(top))}


def stored_graphs(arrays: dict[str, np.ndarray],
                  num_docs: int) -> tuple[list[int], list[DocumentGraph]]:
    """(rows, graphs) of a graph store's arrays, which hold for each graph
    its row in an index of `num_docs` documents, its node count, its node
    terms, its own `indptr` and `indices` (int32, each set end to end)
    and its raw counts (in the smallest unsigned dtype for all of them).

    Arrays that no build gives raise DataFormatError.  The weights are
    computed again, with the symmetry check, over the `block_diagonal`
    union of each chunk of at most STORE_EDGES edges, so each is its
    built value bit for bit; the graph's other arrays view the store's.
    """
    dtypes = {name: a.dtype.str for name, a in arrays.items() if a.ndim == 1}
    if dtypes.keys() != {*_STORED, "counts"} or dtypes["counts"][1] != "u" or any(
            dtypes[name] != np.dtype(np.int32).str for name in _STORED):
        raise DataFormatError(f"arrays {dtypes}, expected int32 {_STORED} and counts")
    rows, sizes, terms, indptr, indices = (arrays[name] for name in _STORED)
    counts = arrays["counts"]
    ends = np.cumsum(sizes, dtype=np.int64) + np.arange(len(sizes))  # last entries
    if not (len(sizes) == len(rows) == np.unique(rows).size and sizes.min(initial=0) >= 0
            and rows.min(initial=0) >= 0 and rows.max(initial=0) < num_docs
            and len(terms) == sizes.sum() and len(indptr) == len(terms) + len(rows)
            and not indptr[ends - sizes].any() and indptr[ends].min(initial=0) >= 0
            and len(indices) == len(counts) == indptr[ends].sum()):
        raise DataFormatError("the rows, sizes, node terms and indptr do not agree")
    nnz = indptr[ends]
    node_ptr, edge_ptr = ([0, *np.cumsum(a, dtype=np.int64).tolist()] for a in (sizes, nnz))
    parts = [(indptr[n + g:m + g + 1], indices[e:f], counts[e:f]) for g, (n, m, e, f)
             in enumerate(zip(node_ptr, node_ptr[1:], edge_ptr, edge_ptr[1:]))]
    graphs, terms = [], terms.tolist()
    for lo, hi in _chunks(nnz.tolist(), STORE_EDGES):
        a, b = edge_ptr[lo], edge_ptr[hi]
        adjacency = block_diagonal(parts[lo:hi])
        # has_canonical_format is false for a falling indptr too; a negative
        # index is huge as uint32
        if (not adjacency.has_canonical_format or adjacency.diagonal().any()
                or (indices[a:b].view(np.uint32) >= np.repeat(sizes[lo:hi], nnz[lo:hi])).any()
                or not counts[a:b].all()):
            raise DataFormatError("an index unsorted, repeated, on the diagonal or outside "
                                  "its graph, or a zero count")
        weights = normalize_adjacency(adjacency).data
        graphs += [DocumentGraph(terms[node_ptr[g]:node_ptr[g + 1]], *parts[g],
                                 weights[edge_ptr[g] - a:edge_ptr[g + 1] - a])
                   for g in range(lo, hi)]
    return rows.tolist(), graphs


_STORED = ("rows", "sizes", "node_terms", "indptr", "indices")
# edges per chunk of a store read, which bounds its temporary arrays
STORE_EDGES = 1 << 16


# the layout of index_dir/graphs-<mode>-w<width>.npz (see `stored_graphs`)
# and of its segments, graphs-<mode>-w<width>.<n>.npz for n = 1, 2, ...
GRAPH_STORE_VERSION = 1


@contextmanager
def graph_stores(index_dir, window: int, docs, index_sha256: str, modes):
    """Per adjacency mode of `modes`, the graphs of `index_dir`'s store for
    it at `window` by doc id, in a dict that scoring fills, under the
    `index_sha256` of the bytes `docs` were read from.  Zero mode builds no
    edges to store.  The base file's segments are read after it, in order,
    each holding graphs of its own.  On a clean exit the dict's new graphs
    are appended as one segment if fewer than half the last file's, so a
    store of G graphs has at most log2(G) + 1 files; otherwise, or if a file
    was not read, all go to the base file and the segments are removed, the
    last first."""
    ids, stores, graphs = list(docs), {}, {mode: {} for mode in modes}
    for mode in [mode for mode in modes if mode != "zero"]:
        width = edge_width(mode, window)
        store = Cache(Path(index_dir) / f"graphs-{mode}-w{width}.npz",
                      {"version": GRAPH_STORE_VERSION, "mode": mode, "width": width,
                       "index_sha256": index_sha256}, "graph store", log)
        segments = []
        while (path := store.path.with_suffix(f".{len(segments) + 1}.npz")).exists():
            segments.append(Cache(path, store.key, store.label, log))

        def add(arrays, held=graphs[mode]):
            rows, built = stored_graphs(arrays, len(ids))
            if not held.keys().isdisjoint(ids[r] for r in rows):
                raise DataFormatError("it holds a graph that an earlier file holds")
            held.update(zip([ids[r] for r in rows], built))
            return len(rows)

        sizes = [store.read(add)]  # graphs per file, None for one not read
        if store.outcome == "hit":
            sizes += [segment.read(add) for segment in segments]
        stores[mode] = store, segments, sizes, path  # path: the next segment's
    yield graphs
    row = {doc_id: r for r, doc_id in enumerate(ids)}
    for mode, (store, segments, sizes, path) in stores.items():
        read, hit = sum(size or 0 for size in sizes), store.outcome == "hit"
        new = list(graphs[mode])[read:]
        if new or (hit and None in sizes):
            append = hit and None not in sizes and 2 * len(new) < sizes[-1]
            part = Cache(path, store.key, store.label, log) if append else store
            kept = {d: graphs[mode][d] for d in (new if append else graphs[mode])}
            if part.write(store_arrays([row[d] for d in kept], list(kept.values()))):
                for segment in [] if append else reversed(segments):
                    segment.path.unlink(missing_ok=True)
                if hit:
                    store.outcome = (f"hit, {'appended' if append else 'written'} "
                                     f"({read} read, {len(kept)} written)")
        store.report()

