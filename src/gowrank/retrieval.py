"""First-stage ranking: inverted index, BM25, query likelihood, top-k.

The index is immutable after construction; scoring distinct queries is
embarrassingly parallel.  Ties are always broken by ascending doc_id so
runs are byte-reproducible.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Query, TokenizedDoc
from .errors import DataFormatError

BM25_K1 = 1.2
BM25_B = 0.75
QL_MU = 2000.0


class PostingsIndex:
    """Term -> {doc_id: tf} maps plus the length statistics BM25/QL need."""

    def __init__(self, docs: Iterable[TokenizedDoc]):
        self.postings: dict[int, dict[str, int]] = {}
        self.doc_len: dict[str, int] = {}
        self.coll_freq: dict[int, int] = {}
        self.coll_len = 0
        for doc in docs:
            if doc.doc_id in self.doc_len:
                raise DataFormatError(f"duplicate doc_id {doc.doc_id!r}")
            self.doc_len[doc.doc_id] = len(doc.tokens)
            self.coll_len += len(doc.tokens)
            for tid in doc.tokens:
                plist = self.postings.setdefault(tid, {})
                plist[doc.doc_id] = plist.get(doc.doc_id, 0) + 1
                self.coll_freq[tid] = self.coll_freq.get(tid, 0) + 1
        if not self.doc_len:
            raise DataFormatError("empty document stream: nothing to index")
        self.num_docs = len(self.doc_len)
        self.avg_doc_len = self.coll_len / self.num_docs

    def doc_freq(self, term_id: int) -> int:
        return len(self.postings.get(term_id, {}))

    def term_freq(self, term_id: int, doc_id: str) -> int:
        return self.postings.get(term_id, {}).get(doc_id, 0)


def build_index(docs: Iterable[TokenizedDoc]) -> PostingsIndex:
    return PostingsIndex(docs)


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
    dl = index.doc_len[doc_id]
    n = index.num_docs
    norm = k1 * (1.0 - b + b * dl / index.avg_doc_len)
    score = 0.0
    for tid in query.tokens:
        tf = index.term_freq(tid, doc_id)
        if tf == 0:
            continue
        df = index.doc_freq(tid)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1.0) / (tf + norm)
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
    result may be shorter than k.
    """
    matched: set[str] = set()
    for tid in set(query.tokens):
        matched.update(index.postings.get(tid, {}))
    scored = [(doc_id, bm25_score(query, doc_id, index)) for doc_id in matched]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def write_run(
    path: str | Path,
    ranked: dict[str, Sequence[tuple[str, float]]],
    tag: str,
) -> None:
    """TREC run format: `query_id Q0 doc_id rank score tag`, rank from 1.

    Query blocks are written in key order of `ranked`; scores use a fixed
    6-decimal format so reruns are byte-identical.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for qid, docs in ranked.items():
            for rank, (doc_id, score) in enumerate(docs, start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank} {score:.6f} {tag}\n")
