"""Tokenization, vocabulary, and idf tests."""

import dataclasses
import json
import math
import random

import numpy as np
import pytest

import helpers
import reference
from gowrank import cli, corpus
from gowrank.corpus import (
    OOV_ID,
    Query,
    Vocabulary,
    build_vocabulary,
    count_vocabulary,
    default_stopwords,
    encode_document,
    first_ids,
    make_query,
    read_corpus,
    read_queries,
    text_ids,
    tokenize,
)
from gowrank.datagen import SyntheticData, bridged_corpus, overfit_corpus
from gowrank.errors import DataFormatError
from gowrank.indexfile import INDEX_FILE, write_index


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


# the random corpora's words: stopwords, non-ASCII terms, and few enough
# that terms repeat within and across documents
WORDS = ["apple", "pear", "plum", "the", "and", "café", "日本", "straße", "ünï", "x"]
STOPWORDS = {"the", "and", "x"}


def _random_corpus(rng) -> dict[str, list[str]]:
    """1-8 documents under ids in no sorted order, some empty, some all
    stopwords, the others drawn from a prefix of WORDS."""
    tokenized = {}
    for number in rng.permutation(20)[:rng.integers(1, 9)]:
        kind = rng.integers(4)
        words = sorted(STOPWORDS) if kind == 1 else WORDS[:rng.integers(1, len(WORDS) + 1)]
        length = 0 if kind == 0 else rng.integers(1, 30)
        tokenized[f"d{number}"] = [words[i] for i in rng.integers(len(words), size=length)]
    return tokenized


def punctuated_corpus(seed: int) -> SyntheticData:
    """bridged_corpus(seed), its plain lowercase texts given 2000 seeded
    edits of the kinds in helpers.TEXT_EDITS."""
    data, rng = bridged_corpus(seed=seed), random.Random(seed)
    docs = [list(doc) for doc in data.docs]
    for _ in range(2000):
        doc = rng.choice(docs)
        doc[1] = helpers.edit_text(doc[1], rng.choice(helpers.TEXT_EDITS), rng)
    return dataclasses.replace(data, docs=[tuple(doc) for doc in docs])


class TestCountsAgainstTheCounterOracle:
    def test_random_corpora(self, tmp_path, monkeypatch):
        """300 seeded corpora, min_freq 1-3 in both modes, with and without
        stopwords, counted in batches that close from 1-50 tokens on, so
        that batch edges fall between documents, some of them longer than
        a batch: the vocabulary, each document's ids and the index bytes
        are the oracle's."""
        rng = np.random.default_rng(22)
        (tmp_path / "index").mkdir()
        for case in range(300):
            monkeypatch.setattr(corpus, "COUNT_BATCH", int(rng.integers(1, 51)))
            tokenized = _random_corpus(rng)
            stopwords = set(STOPWORDS) if rng.integers(2) else set()
            config = (stopwords, int(rng.integers(1, 4)), bool(rng.integers(2)))
            terms, doc_freq, num_docs = reference.counter_vocabulary(tokenized.values(), *config)

            vocab = build_vocabulary(tokenized.values(), *config)
            assert (vocab.terms, vocab.term_to_id, vocab.doc_freq, vocab.num_docs) == (
                terms, {t: i for i, t in enumerate(terms)}, doc_freq, num_docs), case
            ids_of = {}
            docs = {doc_id: first_ids(ids_of, tokens) for doc_id, tokens in tokenized.items()}
            counted, vocab_ids = count_vocabulary(docs.values(), ids_of, *config)
            assert counted == vocab, case
            for doc_id, tokens in tokenized.items():
                expected = reference.encode(terms, tokens)
                assert encode_document(vocab, doc_id, tokens).tokens == expected, case
                ids = vocab_ids[docs[doc_id]]
                assert ids[ids >= 0].tolist() == expected, case

            write_index(tmp_path / "index", counted, vocab_ids, docs)
            helpers.write_oracle_index(tmp_path / "oracle.npz", tokenized, *config)
            assert ((tmp_path / "index" / INDEX_FILE).read_bytes()
                    == (tmp_path / "oracle.npz").read_bytes()), case

    @pytest.mark.parametrize("lengths, batches", [
        ([3, 12, 4], [15, 4]),  # a document longer than a batch
        ([2, 3, 1, 4], [5, 5]),  # batches that end exactly at a document's end
    ], ids=["longer-than-a-batch", "ends-at-a-document-end"])
    def test_batches_close_at_the_first_document_end_past_the_size(
            self, monkeypatch, lengths, batches):
        monkeypatch.setattr(corpus, "COUNT_BATCH", 5)
        counted = []
        add_counts = corpus._add_counts

        def spy(counts, ids):
            counted.append(ids.size)
            return add_counts(counts, ids)

        monkeypatch.setattr(corpus, "_add_counts", spy)
        # terms repeat within a document and across documents
        tokenized = [[WORDS[(i + j) % 5] for j in range(n)] for i, n in enumerate(lengths)]
        for count_documents in (False, True):
            counted.clear()
            vocab = build_vocabulary(tokenized, set(STOPWORDS), 2, count_documents)
            # each batch counts its tokens, then its distinct (document, term) pairs
            assert counted[0::2] == batches
            assert (vocab.terms, vocab.doc_freq, vocab.num_docs) == (
                reference.counter_vocabulary(tokenized, set(STOPWORDS), 2, count_documents))

    @pytest.mark.parametrize("mode", ["corpus", "docs"])
    @pytest.mark.parametrize("make", [bridged_corpus, overfit_corpus, punctuated_corpus])
    def test_index_command_writes_the_oracles_bytes(self, tmp_path, make, mode):
        make(seed=3).write(tmp_path)
        assert cli.main(["index", "--corpus", str(tmp_path / "corpus.jsonl"),
                         "--index-dir", str(tmp_path / "index"), "--min-freq", "2",
                         "--min-freq-mode", mode]) == 0
        tokenized = {doc_id: tokenize(text)
                     for doc_id, text in read_corpus(tmp_path / "corpus.jsonl")}
        helpers.write_oracle_index(tmp_path / "oracle.npz", tokenized,
                                   default_stopwords(), 2, mode == "docs")
        assert ((tmp_path / "index" / INDEX_FILE).read_bytes()
                == (tmp_path / "oracle.npz").read_bytes())


# words of the text_ids tests: cases whose lowercase is longer (İ) or
# depends on the next letter (final Σ), inner punctuation, and non-ASCII
TEXT_WORDS = ["apple", "Apple", "APPLE", "İstanbul", "İ", "ΟΔΟΣ", "ΣΑΣ", "straße", "ẞ",
              "o'brien", "state-of-the-art", "café", "日本", "x"]


def _random_text(rng: random.Random, number: int) -> str:
    """An empty or whitespace-only text, a text of punctuation alone, or up
    to 40 words from TEXT_WORDS and two words new to this text, repeated,
    some with punctuation at an end, some of punctuation alone, joined by
    spaces and by other whitespace."""
    kind = rng.randrange(5)
    if kind == 0:
        return "".join(rng.choices([" ", *helpers.SPACES], k=rng.randrange(3)))
    if kind == 1:
        return " ".join(rng.choices(helpers.EDGE_MARKS, k=rng.randrange(1, 6)))
    words = [*TEXT_WORDS, f"new{number}", f"New{number}b"]
    text = " ".join(rng.choices(words, k=rng.randrange(1, 41)))
    for _ in range(rng.randrange(12)):
        text = helpers.edit_text(text, rng.choice(helpers.TEXT_EDITS), rng)
    return text


class TestTextIds:
    def test_equals_first_ids_of_tokenize(self):
        """3000 seeded texts through one ids_of and one memo give, text by
        text, the ids that first_ids gives for tokenize's tokens, and the
        same ids_of in the same order; tokenize gives the loop's tokens."""
        rng = random.Random(23)
        ids_of, id_of_word, expected = {}, {}, {}
        for number in range(3000):
            text = _random_text(rng, number)
            tokens = tokenize(text)
            assert tokens == reference.loop_tokenize(text), text
            ids = text_ids(ids_of, id_of_word, text)
            assert ids.dtype == np.int32, text
            assert ids.tolist() == first_ids(expected, tokens).tolist(), text
        assert list(ids_of.items()) == list(expected.items())
        assert len(id_of_word) > len(ids_of) > 2000

    def test_memo_holds_each_lowered_word_once(self):
        ids_of, id_of_word = {}, {}
        text = "Apple, (apple apple APPLE -- “Apple” pear. apple, ‘’"
        assert text_ids(ids_of, id_of_word, text).tolist() == [0, 0, 0, 0, 0, 1, 0]
        assert ids_of == {"apple": 0, "pear": 1}
        assert id_of_word == {"apple,": 0, "(apple": 0, "apple": 0, "--": -1,
                              "“apple”": 0, "pear.": 1, "‘’": -1}
        assert text_ids(ids_of, id_of_word, "").tolist() == []
        assert text_ids(ids_of, id_of_word, "... ‘’ --").tolist() == []
        assert text_ids(ids_of, id_of_word, "PEAR plum").tolist() == [1, 2]


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

    @pytest.mark.parametrize("record", [
        '{"doc_id": "d1", "text": null}',  # was the one word "none"
        '{"doc_id": null, "text": "a"}',  # was the document "None"
        '{"doc_id": "d1", "text": {"a": 1}}',  # was the tokens "a 1"
        '{"doc_id": true, "text": "a"}',
        '{"doc_id": 1.5, "text": "a"}',
        '{"doc_id": "d1", "text": ["a"]}',
        '{"doc_id": ' + "9" * 5000 + ', "text": "a"}',
        '["d1", "a"]',
        '{"doc_id": "d1"}',
        '{"doc_id": "d1", "text": "a"',
    ], ids=["text-null", "doc-id-null", "text-object", "doc-id-bool", "doc-id-float",
            "text-list", "doc-id-5000-digits", "list", "no-text", "not-json"])
    def test_record_of_other_types_rejected(self, tmp_path, record):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": 7, "text": "a b"}\n' + record + "\n")
        records = read_corpus(path)
        assert next(records) == ("7", "a b")
        with pytest.raises(DataFormatError, match=r"corpus.jsonl:2: bad corpus record: "):
            next(records)


class TestReadQueries:
    def test_duplicate_query_id_rejected(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\talpha\nq2\tbeta\n q1 \tgamma\n")
        with pytest.raises(DataFormatError, match=r"queries.tsv:3: duplicate query_id 'q1'"):
            read_queries(path)
