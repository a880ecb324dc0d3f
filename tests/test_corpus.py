"""Tokenization, vocabulary, and idf tests."""

import json
import math

import numpy as np
import pytest

from gowrank.corpus import (
    OOV_ID,
    Query,
    Vocabulary,
    build_vocabulary,
    default_stopwords,
    encode_document,
    make_query,
    read_corpus,
    read_queries,
    tokenize,
)
from gowrank.errors import DataFormatError


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("The QUICK brown Fox") == ["the", "quick", "brown", "fox"]

    def test_strips_surrounding_punctuation(self):
        assert tokenize("Hello, world! (really)") == ["hello", "world", "really"]

    def test_inner_punctuation_kept(self):
        # only the boundary is stripped
        assert tokenize("o'brien state-of-the-art") == ["o'brien", "state-of-the-art"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("a -- b ... c") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []


def _toy_docs():
    # term frequencies: apple appears in 3 docs (5x total), pear 2 docs (2x),
    # plum 1 doc (1x).
    return [
        ["apple", "pear", "apple"],
        ["apple", "plum"],
        ["pear", "apple", "apple"],
    ]


class TestVocabulary:
    def test_first_appearance_ids(self):
        v = build_vocabulary(_toy_docs(), min_freq=1)
        assert v.terms == ["apple", "pear", "plum"]
        assert v.term_to_id == {"apple": 0, "pear": 1, "plum": 2}

    def test_doc_freq_is_distinct_docs(self):
        v = build_vocabulary(_toy_docs(), min_freq=1)
        assert v.doc_freq == [3, 2, 1]
        assert v.num_docs == 3

    def test_min_freq_corpus_occurrences(self):
        v = build_vocabulary(_toy_docs(), min_freq=2)
        # apple 5x, pear 2x survive; plum 1x dropped
        assert v.terms == ["apple", "pear"]

    def test_min_freq_document_mode(self):
        v = build_vocabulary(_toy_docs(), min_freq=2, count_documents=True)
        assert v.terms == ["apple", "pear"]
        v3 = build_vocabulary(_toy_docs(), min_freq=3, count_documents=True)
        assert v3.terms == ["apple"]

    def test_stopwords_removed(self):
        v = build_vocabulary(_toy_docs(), stopwords={"apple"}, min_freq=1)
        assert v.terms == ["pear", "plum"]
        # num_docs still counts every document
        assert v.num_docs == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataFormatError):
            build_vocabulary([])

    def test_min_freq_validation(self):
        with pytest.raises(ValueError):
            build_vocabulary(_toy_docs(), min_freq=0)

    def test_roundtrip_json(self):
        v = build_vocabulary(_toy_docs(), stopwords={"the"}, min_freq=1)
        w = Vocabulary.from_payload(json.loads(json.dumps(v.to_payload())))
        assert w.terms == v.terms
        assert w.term_to_id == v.term_to_id
        assert w.doc_freq == v.doc_freq
        assert w.num_docs == v.num_docs
        assert w.stopwords == v.stopwords
        assert w.min_freq == v.min_freq

    def test_repeated_term_rejected(self):
        # ["a", "b", "a"] read as {"a": 2, "b": 1}: id 0 could never match
        payload = build_vocabulary([["a", "b", "c"]], min_freq=1).to_payload()
        payload["terms"] = ["a", "b", "a"]
        with pytest.raises(ValueError, match="terms must not repeat"):
            Vocabulary.from_payload(payload)


class TestIdf:
    def test_known_value(self):
        # N=100 docs, df=9: ln((100+1)/(9+1)) = ln(10.1)
        v = Vocabulary(
            terms=["x"], term_to_id={"x": 0}, doc_freq=[9], num_docs=100
        )
        expected = math.log(101 / 10)  # 2.312535...
        assert v.idf(0) == pytest.approx(expected, rel=0, abs=1e-15)

    def test_oov_uses_zero_df(self):
        v = Vocabulary(terms=[], term_to_id={}, doc_freq=[], num_docs=100)
        assert v.idf(OOV_ID) == pytest.approx(math.log(101), abs=1e-15)

    def test_monotone_in_df(self):
        n = 50
        v = Vocabulary(
            terms=[f"t{d}" for d in range(1, n + 1)],
            term_to_id={f"t{d}": d - 1 for d in range(1, n + 1)},
            doc_freq=list(range(1, n + 1)),
            num_docs=n,
        )
        vals = [v.idf(i) for i in range(n)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(val >= 0 for val in vals)

    def test_ubiquitous_term_exactly_zero(self):
        # df == N collapses the smoothed ratio to 1
        v = Vocabulary(terms=["x"], term_to_id={"x": 0}, doc_freq=[1000], num_docs=1000)
        assert v.idf(0) == 0.0


class TestEncode:
    def test_oov_dropped_from_documents(self):
        v = build_vocabulary(_toy_docs(), min_freq=2)
        doc = encode_document(v, "d1", ["apple", "plum", "pear", "quince"])
        assert doc.tokens == [0, 1]
        assert doc.raw_length == 4
        assert doc.doc_id == "d1"

    def test_order_and_duplicates_preserved(self):
        v = build_vocabulary(_toy_docs(), min_freq=1)
        doc = encode_document(v, "d", ["pear", "apple", "pear", "apple", "apple"])
        assert doc.tokens == [1, 0, 1, 0, 0]


class TestMakeQuery:
    def test_stopwords_dropped_oov_kept(self):
        v = build_vocabulary(_toy_docs(), stopwords={"the"}, min_freq=1)
        q = make_query(v, "q1", ["the", "apple", "quince"])
        assert q.tokens == [0, OOV_ID]
        assert q.idf.shape == (2,)
        assert q.idf[0] == pytest.approx(math.log(4 / 4), abs=1e-15)
        assert q.idf[1] == pytest.approx(math.log(4 / 1), abs=1e-15)

    def test_idf_dtype(self):
        v = build_vocabulary(_toy_docs(), min_freq=1)
        q = make_query(v, "q", ["apple"])
        assert q.idf.dtype == np.float64

    def test_all_stopword_query_is_empty(self):
        v = build_vocabulary(_toy_docs(), stopwords={"and", "or"}, min_freq=1)
        q = make_query(v, "q", ["and", "or"])
        assert q.tokens == []
        assert q.idf.shape == (0,)


class TestDefaultStopwords:
    def test_contains_classics(self):
        sw = default_stopwords()
        assert {"the", "a", "of", "and", "is"} <= sw
        assert "apple" not in sw


class TestReadCorpus:
    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "d1", "text": "a"}\n'
            '{"doc_id": "d2", "text": "b"}\n'
            '{"doc_id": "d1", "text": "c"}\n'
        )
        with pytest.raises(DataFormatError, match=r"corpus.jsonl:3: duplicate doc_id"):
            list(read_corpus(path))


class TestReadQueries:
    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\talpha\nq2\tbeta\n q1 \tgamma\n")
        with pytest.raises(DataFormatError, match=r"queries.tsv:3: duplicate query_id 'q1'"):
            read_queries(path)
