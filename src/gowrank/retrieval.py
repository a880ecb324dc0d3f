"""First-stage ranking: inverted index, BM25, query likelihood, top-k.

The postings are term-major CSR arrays: the rows (documents, in input
order) that contain term t, ascending, and their term frequencies.  They
come from one doc-by-term incidence matrix with duplicates summed,
transposed once, as `graph.build_graphs` builds the window-by-node
incidence of a chunk of documents.
The index is immutable after construction; scoring distinct queries is
embarrassingly parallel.  Ties are always broken by ascending doc_id so
runs are byte-reproducible.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .artifacts import atomic_write
from .corpus import Query, TokenizedDoc
from .errors import DataFormatError, NumericalError

BM25_K1 = 1.2
BM25_B = 0.75
QL_MU = 2000.0


class PostingsIndex:
    """Per-term postings (doc rows and tf) plus the length statistics
    BM25/QL need.

    `doc_ids[r]` is the id of row r, rows numbered in input order;
    `doc_len` maps each doc id to its token count and `coll_freq` each
    term that occurs to its count in the collection.
    """

    def __init__(self, docs: Iterable[TokenizedDoc]):
        self.doc_ids: list[str] = []
        self.doc_len: dict[str, int] = {}
        gathered = []
        for doc in docs:
            if doc.doc_id in self.doc_len:
                raise DataFormatError(f"duplicate doc_id {doc.doc_id!r}")
            gathered.append(np.asarray(doc.tokens, dtype=np.intc))
            self.doc_ids.append(doc.doc_id)
            self.doc_len[doc.doc_id] = len(doc.tokens)
        if not self.doc_ids:
            raise DataFormatError("empty document stream: nothing to index")
        self.num_docs = len(self.doc_ids)
        self._row_of = {doc_id: row for row, doc_id in enumerate(self.doc_ids)}
        lens = np.fromiter(self.doc_len.values(), np.int64, self.num_docs)
        by_id = sorted(range(self.num_docs), key=self.doc_ids.__getitem__)
        self._id_rank = np.empty(self.num_docs, dtype=np.int64)
        self._id_rank[by_id] = np.arange(self.num_docs)

        # a fresh array, so sum_duplicates may sort and shrink it in place;
        # the per-document arrays are freed before the postings are built
        flat = np.concatenate(gathered)
        del gathered
        # count before sum_duplicates changes `flat`
        counts = np.bincount(flat)
        present = np.flatnonzero(counts)
        self.coll_freq = dict(zip(present.tolist(), counts[present].tolist()))
        self.coll_len = flat.size
        self.avg_doc_len = self.coll_len / self.num_docs
        # avg_doc_len is 0 only when there is no posting to weigh
        self._bm25_norm = _bm25_norm(lens, self.avg_doc_len or 1.0, BM25_K1, BM25_B)
        indptr = np.zeros(self.num_docs + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        incidence = csr_matrix(
            (np.ones(flat.size, dtype=np.intc), flat, indptr),
            shape=(self.num_docs, len(counts)),
        )
        incidence.sum_duplicates()
        postings = incidence.tocsc()
        self._indptr = postings.indptr
        self._rows = postings.indices
        self._tf = postings.data

    def postings_of(self, term_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending rows of the docs containing `term_id`, and their tf.

        Empty for a term that occurs in no document, including negative
        (out-of-vocabulary) ids.
        """
        if not 0 <= term_id < len(self._indptr) - 1:
            return self._rows[:0], self._tf[:0]
        lo, hi = self._indptr[term_id], self._indptr[term_id + 1]
        return self._rows[lo:hi], self._tf[lo:hi]

    def doc_freq(self, term_id: int) -> int:
        return len(self.postings_of(term_id)[0])

    def term_freq(self, term_id: int, doc_id: str) -> int:
        rows, tf = self.postings_of(term_id)
        row = self._row_of.get(doc_id, -1)
        pos = int(np.searchsorted(rows, row))
        return int(tf[pos]) if pos < len(rows) and rows[pos] == row else 0


def build_index(docs: Iterable[TokenizedDoc]) -> PostingsIndex:
    return PostingsIndex(docs)


# BM25 in three parts, so `bm25_score` (one document) and `top_candidates`
# (arrays: one entry per posting) evaluate the same float operations.


def _bm25_idf(df: int, num_docs: int) -> float:
    return math.log(1.0 + (num_docs - df + 0.5) / (df + 0.5))


def _bm25_norm(dl, avg_doc_len: float, k1: float, b: float):
    return k1 * (1.0 - b + b * dl / avg_doc_len)


def _bm25_weight(tf, idf, norm, k1: float):
    return idf * tf * (k1 + 1.0) / (tf + norm)


def bm25_score(
    query: Query,
    doc_id: str,
    index: PostingsIndex,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> float:
    """Okapi BM25 with the smoothed idf ln(1 + (N-df+0.5)/(df+0.5)).

    Query terms are summed per occurrence, so a duplicated term counts
    twice.  Terms missing from the document (or the index) contribute 0.
    """
    norm = _bm25_norm(index.doc_len[doc_id], index.avg_doc_len, k1, b)
    score = 0.0
    for tid in query.tokens:
        tf = index.term_freq(tid, doc_id)
        if tf:
            idf = _bm25_idf(index.doc_freq(tid), index.num_docs)
            score += _bm25_weight(tf, idf, norm, k1)
    return score


def ql_score(
    query: Query, doc_id: str, index: PostingsIndex, mu: float = QL_MU
) -> float:
    """Dirichlet-smoothed query likelihood, ln((tf + mu*p_c)/(dl + mu)).

    Terms with zero collection probability are skipped (their likelihood is
    undefined); duplicates are summed per occurrence.
    """
    dl = index.doc_len[doc_id]
    score = 0.0
    for tid in query.tokens:
        cf = index.coll_freq.get(tid, 0)
        if cf == 0:
            continue
        p_c = cf / index.coll_len
        tf = index.term_freq(tid, doc_id)
        score += math.log((tf + mu * p_c) / (dl + mu))
    return score


def top_candidates(query: Query, index: PostingsIndex, k: int = 100) -> list[tuple[str, float]]:
    """Top-k documents by BM25, (score desc, doc_id asc).

    Only documents containing at least one query term are scored, so the
    result may be shorter than k.  Every score equals `bm25_score` bit for
    bit: each posting's weight is the same float expression, and bincount
    adds a document's weights in query-term order.
    """
    postings = [index.postings_of(tid) for tid in query.tokens]
    dfs = [len(r) for r, _ in postings]
    if not any(dfs):
        return []
    rows = np.concatenate([r for r, _ in postings])
    idf = np.array([_bm25_idf(df, index.num_docs) for df in dfs]).repeat(dfs)
    tf = np.concatenate([f for _, f in postings], dtype=np.float64)
    weights = _bm25_weight(tf, idf, index._bm25_norm[rows], BM25_K1)
    scores = np.bincount(rows, weights, index.num_docs)
    hits = scores.nonzero()[0]  # every weight is > 0
    top = hits[np.lexsort((index._id_rank[hits], -scores[hits]))[:k]]
    return [(index.doc_ids[r], s) for r, s in zip(top.tolist(), scores[top].tolist())]


def write_run(
    path: str | Path,
    ranked: dict[str, Sequence[tuple[str, float]]],
    tag: str,
) -> None:
    """TREC run format: `query_id Q0 doc_id rank score tag`, rank from 1.

    Query blocks are written in key order of `ranked`; scores use a fixed
    6-decimal format so reruns are byte-identical.  A non-finite score is
    refused before `path` is opened, so no such run file is published.
    """
    for qid, docs in ranked.items():
        if not all(math.isfinite(score) for _, score in docs):
            raise NumericalError(f"{path}: non-finite score for query {qid!r}")
    with atomic_write(path) as fh:
        for qid, docs in ranked.items():
            for rank, (doc_id, score) in enumerate(docs, start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n")
