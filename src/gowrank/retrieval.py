"""First-stage ranking: inverted index, BM25, query likelihood, top-k.

A term's postings are the rows (documents, in input order) that contain
it, ascending, and their term frequencies.  The index keeps every token
in one stream and builds a term's postings on first use, then keeps
them: `fill` builds those of every term a caller names in one pass over
the stream, so a command pays for the terms its queries read, not for
the vocabulary.  Ties are always broken by ascending doc_id so runs are
byte-reproducible.
"""

from __future__ import annotations

import math
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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
    term that occurs to its count in the collection (built on first read).
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

        # the per-document arrays are freed once joined into the stream
        self._tokens = np.concatenate(gathered)
        del gathered
        self.coll_len = self._tokens.size
        self.avg_doc_len = self.coll_len / self.num_docs
        # avg_doc_len is 0 only when there is no posting to weigh
        self._bm25_norm = _bm25_norm(lens, self.avg_doc_len or 1.0, BM25_K1, BM25_B)
        self._ends = np.cumsum(lens)  # the stream offset past each row's tokens
        self._top = int(self._tokens.max(initial=-1))
        self._postings = {}  # term id -> (rows, tf), filled on first use

    @cached_property
    def coll_freq(self) -> dict[int, int]:
        counts = np.bincount(self._tokens)
        present = np.flatnonzero(counts)
        return dict(zip(present.tolist(), counts[present].tolist()))

    def fill(self, term_ids: Iterable[int]) -> None:
        """Build the postings of every term of `term_ids` that has none yet,
        in one pass over the token stream: a table lookup per token, the
        rows of the tokens found, and each (term, row) run's length as tf."""
        new = sorted({int(t) for t in term_ids}.difference(self._postings))
        self._postings.update(dict.fromkeys(new, (np.empty(0, np.int32), np.empty(0, np.intc))))
        wanted = [t for t in new if 0 <= t <= self._top]
        if not wanted:
            return
        table = np.full(self._top + 1, len(wanted), np.min_scalar_type(len(wanted)))
        table[wanted] = np.arange(len(wanted))
        slots = table[self._tokens]  # cast in buffered chunks; `take` copies all to intp
        at = np.flatnonzero(slots < len(wanted))
        order = np.argsort(slots[at], kind="stable")  # term-major, positions still ascending
        slots, at = slots[at[order]], at[order]
        rows = np.searchsorted(self._ends, at, side="right").astype(np.int32)
        first = np.ones(rows.size, dtype=bool)  # the first position of a (term, row) run
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        first[1:] |= slots[1:] != slots[:-1]
        starts = np.flatnonzero(first)
        tf = np.diff(starts, append=rows.size).astype(np.intc)
        rows = rows[starts]
        bounds = np.searchsorted(slots[starts], np.arange(len(wanted) + 1)).tolist()
        for t, lo, hi in zip(wanted, bounds, bounds[1:]):
            self._postings[t] = rows[lo:hi], tf[lo:hi]

    def postings_of(self, term_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending rows (int32) of the docs containing `term_id`, tf (intc).

        Empty for a term that occurs in no document, including negative
        (out-of-vocabulary) ids.
        """
        self.fill([term_id])
        return self._postings[int(term_id)]

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
    index.fill(query.tokens)
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
