"""Inverted index, BM25/QL scoring, and candidate generation."""

import math

import numpy as np
import pytest

from gowrank.corpus import Query, TokenizedDoc
from gowrank.errors import DataFormatError, NumericalError
from gowrank.retrieval import (
    PostingsIndex,
    bm25_score,
    build_index,
    ql_score,
    top_candidates,
    write_run,
)
from reference import dict_postings


def _doc(doc_id, tokens):
    return TokenizedDoc(doc_id=doc_id, tokens=tokens, raw_length=len(tokens))


def _query(tokens):
    return Query(query_id="q", tokens=tokens, idf=np.zeros(len(tokens)))


class TestBuildIndex:
    def test_hand_counted(self):
        # d1 = "a b", d2 = "a" with ids a=0, b=1
        idx = build_index([_doc("d1", [0, 1]), _doc("d2", [0])])
        assert [idx.doc_freq(t) for t in (0, 1, 2)] == [2, 1, 0]
        assert [idx.term_freq(t, d) for t in (0, 1) for d in ("d1", "d2")] == [
            1, 1, 1, 0,
        ]
        assert idx.coll_freq == {0: 2, 1: 1}
        assert idx.doc_len == {"d1": 2, "d2": 1}
        assert idx.coll_len == 3
        assert idx.avg_doc_len == 1.5
        assert idx.num_docs == 2

    def test_tf_sums_to_doc_len(self):
        docs = [_doc("d1", [0, 0, 1, 2]), _doc("d2", [1, 1, 1])]
        idx = build_index(docs)
        for doc_id in idx.doc_len:
            total = sum(idx.term_freq(tid, doc_id) for tid in idx.coll_freq)
            assert total == idx.doc_len[doc_id]

    def test_statistics_match_dict_oracle(self):
        rng = np.random.default_rng(23)
        for trial in range(12):
            vocab = int(rng.integers(1, 40))
            docs = []
            for i in range(int(rng.integers(1, 60))):
                # empty docs, repeats (small vocab) and numpy-int tokens
                toks = rng.integers(0, vocab, size=rng.integers(0, 50))
                tokens = list(toks) if i % 2 else toks.tolist()
                docs.append(_doc(f"d{rng.integers(0, 10**6)}-{i}", tokens))
            idx = PostingsIndex(docs)
            postings, doc_len, coll_freq, coll_len = dict_postings(docs)
            assert idx.num_docs == len(doc_len)
            assert idx.doc_len == doc_len
            assert idx.coll_freq == coll_freq
            assert idx.coll_len == coll_len
            assert idx.avg_doc_len == coll_len / len(doc_len)
            # negative (OOV) ids, ids past the largest indexed one, an unknown doc
            for tid in range(-3, vocab + 3):
                plist = postings.get(tid, {})
                df = idx.doc_freq(tid)
                assert type(df) is int and df == len(plist)
                for doc_id in [*doc_len, "missing"]:
                    tf = idx.term_freq(tid, doc_id)
                    assert type(tf) is int and tf == plist.get(doc_id, 0)
            streamed = PostingsIndex(d for d in docs)
            assert streamed.doc_ids == idx.doc_ids
            assert streamed.doc_len == idx.doc_len
            assert streamed.coll_freq == idx.coll_freq
            for t in range(vocab):
                assert [a.tolist() for a in streamed.postings_of(t)] == [
                    a.tolist() for a in idx.postings_of(t)
                ]
            for _ in range(5):
                q = _query(list(rng.integers(-3, vocab + 3, size=rng.integers(1, 6))))
                brute = [(d, bm25_score(q, d, idx)) for d in doc_len]
                brute = sorted(
                    [(d, s) for d, s in brute if s > 0.0],
                    key=lambda pair: (-pair[1], pair[0]),
                )
                for k in (1, 7, 100):
                    assert top_candidates(q, idx, k) == brute[:k]

    def test_index_buffer_gives_the_gathered_index(self):
        # an index file's documents are read-only int32 slices of one
        # buffer; they give the index of the same tokens as lists
        rng = np.random.default_rng(41)
        lists = [rng.integers(0, 30, size=n).tolist() for n in (5, 0, 17, 1, 40, 0)]
        buffer = np.array([t for tokens in lists for t in tokens], dtype="<i4")
        buffer.flags.writeable = False
        bounds = np.cumsum([0] + [len(tokens) for tokens in lists]).tolist()
        views = [_doc(f"d{i}", buffer[lo:hi])
                 for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        want = build_index([_doc(f"d{i}", tokens) for i, tokens in enumerate(lists)])
        got = build_index(views)
        assert got.doc_ids == want.doc_ids
        assert got.doc_len == want.doc_len
        assert got.coll_freq == want.coll_freq
        assert (got.coll_len, got.avg_doc_len) == (want.coll_len, want.avg_doc_len)
        for name in ("_indptr", "_rows", "_tf", "_bm25_norm", "_id_rank"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        # the postings are built from a copy: the documents keep their tokens
        assert buffer.tolist() == [t for tokens in lists for t in tokens]

    def test_duplicate_doc_id(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            build_index([_doc("d1", [0]), _doc("d1", [1])])

    def test_empty_stream(self):
        with pytest.raises(DataFormatError):
            build_index([])

    def test_empty_doc_indexed(self):
        idx = build_index([_doc("d1", []), _doc("d2", [0])])
        assert idx.doc_len["d1"] == 0
        assert idx.num_docs == 2
        only_empty = build_index([_doc("d1", [])])
        assert only_empty.avg_doc_len == 0.0
        assert only_empty.doc_freq(0) == only_empty.term_freq(0, "d1") == 0
        assert top_candidates(_query([0]), only_empty) == []


class TestBM25:
    def test_absent_term_scores_zero(self):
        idx = build_index([_doc("d1", [0]), _doc("d2", [1])])
        assert bm25_score(_query([1]), "d1", idx) == 0.0

    def test_known_value(self):
        # 2 docs, equal length so dl = avgdl; term 0 has tf=1 in d1, df=1.
        # idf = ln(1 + 1.5/1.5) = ln 2; tf part = 2.2/(1+1.2) = 1.
        idx = build_index([_doc("d1", [0, 1]), _doc("d2", [2, 3])])
        got = bm25_score(_query([0]), "d1", idx)
        assert got == pytest.approx(math.log(2.0), abs=1e-15)

    def test_duplicate_query_terms_double(self):
        idx = build_index([_doc("d1", [0, 1]), _doc("d2", [2, 3])])
        single = bm25_score(_query([0]), "d1", idx)
        double = bm25_score(_query([0, 0]), "d1", idx)
        assert double == pytest.approx(2 * single, rel=1e-15)

    def test_matches_bruteforce_formula(self):
        # index-based scoring must equal direct evaluation of the formula
        # from raw token lists, exactly.
        rng = np.random.default_rng(11)
        raw = {
            f"d{i:04d}": list(rng.integers(0, 60, size=rng.integers(1, 80)))
            for i in range(1000)
        }
        docs = [_doc(d, toks) for d, toks in raw.items()]
        idx = build_index(docs)
        n = len(raw)
        avgdl = sum(len(t) for t in raw.values()) / n
        k1, b = 1.2, 0.75
        for _ in range(30):
            qtoks = list(rng.integers(0, 70, size=rng.integers(1, 5)))
            doc_id = f"d{rng.integers(0, 1000):04d}"
            expected = 0.0
            for t in qtoks:
                tf = raw[doc_id].count(t)
                if tf == 0:
                    continue
                df = sum(1 for toks in raw.values() if t in toks)
                idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
                dl = len(raw[doc_id])
                expected += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
            assert bm25_score(_query(qtoks), doc_id, idx) == pytest.approx(
                expected, abs=1e-14
            )


class TestQL:
    def test_known_value(self):
        # 1-doc corpus "a a b": p_c(a)=2/3, tf=2, dl=3, mu=2000
        idx = build_index([_doc("d1", [0, 0, 1])])
        got = ql_score(_query([0]), "d1", idx)
        expected = math.log((2 + 2000 * (2 / 3)) / (3 + 2000))
        assert got == pytest.approx(expected, abs=1e-15)
        # the ratio simplifies to exactly 2/3
        assert got == pytest.approx(math.log(2 / 3), abs=1e-12)

    def test_smoothing_only(self):
        # term present in collection but absent from this doc
        idx = build_index([_doc("d1", [0]), _doc("d2", [1, 1])])
        got = ql_score(_query([1]), "d1", idx)
        p_c = 2 / 3
        assert got == pytest.approx(math.log(2000 * p_c / (1 + 2000)), abs=1e-15)

    def test_unsmoothed_limit(self):
        idx = build_index([_doc("d1", [0, 0, 1])])
        got = ql_score(_query([0]), "d1", idx, mu=0)
        assert got == pytest.approx(math.log(2 / 3), abs=1e-15)

    def test_unknown_term_skipped(self):
        idx = build_index([_doc("d1", [0])])
        assert ql_score(_query([99]), "d1", idx) == 0.0

    def test_matches_bruteforce_formula(self):
        rng = np.random.default_rng(13)
        raw = {
            f"d{i:04d}": list(rng.integers(0, 60, size=rng.integers(1, 80)))
            for i in range(1000)
        }
        idx = build_index([_doc(d, toks) for d, toks in raw.items()])
        coll_len = sum(len(t) for t in raw.values())
        mu = 2000.0
        for _ in range(30):
            qtoks = list(rng.integers(0, 70, size=rng.integers(1, 5)))
            doc_id = f"d{rng.integers(0, 1000):04d}"
            expected = 0.0
            for t in qtoks:
                cf = sum(toks.count(t) for toks in raw.values())
                if cf == 0:
                    continue
                tf = raw[doc_id].count(t)
                dl = len(raw[doc_id])
                expected += math.log((tf + mu * cf / coll_len) / (dl + mu))
            assert ql_score(_query(qtoks), doc_id, idx) == pytest.approx(
                expected, abs=1e-14
            )


class TestTopCandidates:
    def _index(self, seed=17, n_docs=200):
        rng = np.random.default_rng(seed)
        docs = [
            _doc(f"d{i:03d}", list(rng.integers(0, 30, size=rng.integers(5, 60))))
            for i in range(n_docs)
        ]
        return build_index(docs)

    def test_sorted_descending_with_tiebreak(self):
        idx = self._index()
        out = top_candidates(_query([3, 7]), idx, k=50)
        for (d1, s1), (d2, s2) in zip(out, out[1:]):
            assert s1 > s2 or (s1 == s2 and d1 < d2)

    def test_prefix_property(self):
        idx = self._index()
        q = _query([3, 7, 12])
        small = top_candidates(q, idx, k=10)
        big = top_candidates(q, idx, k=40)
        assert big[: len(small)] == small

    def test_no_matches_empty(self):
        idx = self._index()
        assert top_candidates(_query([999]), idx) == []

    def test_equal_scores_by_doc_id(self):
        # identical docs tie exactly; order must be lexicographic
        idx = build_index([_doc("dB", [0]), _doc("dA", [0]), _doc("dC", [1])])
        out = top_candidates(_query([0]), idx)
        assert [d for d, _ in out] == ["dA", "dB"]

    def test_only_matching_docs_returned(self):
        idx = build_index([_doc("d1", [0]), _doc("d2", [1]), _doc("d3", [0, 1])])
        out = top_candidates(_query([0]), idx, k=10)
        assert {d for d, _ in out} == {"d1", "d3"}


class TestWriteRun:
    def test_format(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(path, {"q1": [("dA", 1.25), ("dB", 0.5)]}, tag="bm25")
        lines = path.read_text().splitlines()
        assert lines == [
            "q1 Q0 dA 1 1.250000 bm25",
            "q1 Q0 dB 2 0.500000 bm25",
        ]

    def test_byte_identical_reruns(self, tmp_path):
        ranked = {"q2": [("d1", 0.333333333)], "q1": [("d2", 1.0)]}
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_run(p1, ranked, tag="x")
        write_run(p2, ranked, tag="x")
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_leaves_the_target_untouched(self, tmp_path, bad):
        path = tmp_path / "run.txt"
        path.write_text("an earlier run\n")
        ranked = {"q1": [("d1", 0.5)], "q2": [("d2", 0.25), ("d3", bad)]}
        with pytest.raises(NumericalError, match=r"run\.txt: non-finite score for query 'q2'"):
            write_run(path, ranked, tag="x")
        assert path.read_text() == "an earlier run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.txt"]
        with pytest.raises(NumericalError):
            write_run(tmp_path / "new.txt", ranked, tag="x")
        assert not (tmp_path / "new.txt").exists()
