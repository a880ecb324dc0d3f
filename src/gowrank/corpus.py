"""Text normalization, vocabulary construction, and token-id encoding.

Documents and queries are normalized the same way: whitespace split,
lowercased, surrounding punctuation stripped, stopwords removed.  The
vocabulary additionally drops low-frequency terms and assigns dense
integer ids in first-appearance order, which makes every downstream
artifact deterministic for a fixed corpus.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .artifacts import open_text
from .errors import DataFormatError

# Query terms that survive stopword filtering but are missing from the
# vocabulary keep their column in the interaction matrix under this id.
OOV_ID = -1

_STRIP_CHARS = string.punctuation + "‘’“”"


def tokenize(text: str) -> list[str]:
    """Split on whitespace, lowercase, strip surrounding punctuation.

    Empty tokens are dropped; order is preserved.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            out.append(tok)
    return out


def default_stopwords() -> set[str]:
    """Stopword set shipped with the package (overridable via files/flags)."""
    data = resources.files("gowrank").joinpath("stopwords.txt").read_text("utf-8")
    return {line.strip() for line in data.splitlines() if line.strip()}


def read_stopwords(path: str | Path) -> set[str]:
    """One token per line, UTF-8."""
    with open_text(path) as fh:
        return {line.strip() for line in fh if line.strip()}


@dataclass
class Vocabulary:
    """Retained terms with document-frequency statistics.

    Ids are dense in [0, len(terms)); `doc_freq[i]` counts distinct
    documents containing term i; `num_docs` is the total corpus size
    including documents that contributed no retained terms.
    """

    terms: list[str]
    term_to_id: dict[str, int]
    doc_freq: list[int]
    num_docs: int
    stopwords: set[str] = field(default_factory=set)
    min_freq: int = 10

    def __len__(self) -> int:
        return len(self.terms)

    def idf(self, term_id: int) -> float:
        """Smoothed inverse document frequency, ln((N+1)/(df+1)).

        Out-of-vocabulary ids (OOV_ID) use df = 0, so the value is always
        finite and non-negative.
        """
        df = self.doc_freq[term_id] if term_id >= 0 else 0
        return math.log((self.num_docs + 1) / (df + 1))

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """Map surface tokens to ids, dropping out-of-vocabulary tokens."""
        t2i = self.term_to_id
        return [t2i[t] for t in tokens if t in t2i]

    def to_payload(self) -> dict:
        """The JSON-ready fields `from_payload` reads back."""
        return {
            "terms": self.terms,
            "doc_freq": self.doc_freq,
            "num_docs": self.num_docs,
            "stopwords": sorted(self.stopwords),
            "min_freq": self.min_freq,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Vocabulary":
        terms, doc_freq = payload["terms"], payload["doc_freq"]
        if not (isinstance(terms, list) and isinstance(doc_freq, list)
                and len(terms) == len(doc_freq) and type(payload["num_docs"]) is int):
            raise ValueError("terms and doc_freq must be lists of one length, "
                             "num_docs an int")
        stopwords, min_freq = payload["stopwords"], payload["min_freq"]
        if not (set(map(type, terms)) <= {str} and set(map(type, doc_freq)) <= {int}
                and min(doc_freq, default=0) >= 0 and isinstance(stopwords, list)
                and set(map(type, stopwords)) <= {str} and type(min_freq) is int):
            raise TypeError("terms and stopwords must be lists of str, doc_freq "
                            "of non-negative ints, min_freq an int")
        term_to_id = {t: i for i, t in enumerate(terms)}
        if len(term_to_id) != len(terms):
            # a repeated term's first id could never match a query
            raise ValueError("terms must not repeat")
        return cls(
            terms=terms,
            term_to_id=term_to_id,
            doc_freq=doc_freq,
            num_docs=payload["num_docs"],
            stopwords=set(stopwords),
            min_freq=min_freq,
        )


@dataclass
class TokenizedDoc:
    """A document as an order-preserving sequence of vocabulary ids.

    `tokens` is a list, or a read-only int32 slice of the token buffer of
    an index file.
    """

    doc_id: str
    tokens: list[int] | np.ndarray
    raw_length: int


@dataclass
class Query:
    """A query as token ids plus per-term idf.

    Non-stopword terms missing from the vocabulary are kept as OOV_ID so
    they still occupy an interaction column (with zero similarity when no
    embedding exists for them either).
    """

    query_id: str
    tokens: list[int]
    idf: np.ndarray


def build_vocabulary(
    docs: Iterable[list[str]],
    stopwords: set[str] | None = None,
    min_freq: int = 10,
    count_documents: bool = False,
) -> Vocabulary:
    """Scan tokenized documents once and retain frequent non-stopword terms.

    The frequency threshold applies to total corpus occurrences by default;
    `count_documents=True` switches it to document frequency.  Ids follow
    first appearance in the stream, so the result is deterministic.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    stopwords = stopwords if stopwords is not None else set()

    # Counters keep insertion order: corpus_freq lists terms as first seen
    corpus_freq: Counter[str] = Counter()
    doc_freq: Counter[str] = Counter()
    num_docs = 0
    for tokens in docs:
        num_docs += 1
        corpus_freq.update(tokens)
        doc_freq.update(set(tokens))
    if num_docs == 0:
        raise DataFormatError("empty corpus: no documents to index")

    freq = doc_freq if count_documents else corpus_freq
    terms = [t for t in corpus_freq if t not in stopwords and freq[t] >= min_freq]
    return Vocabulary(
        terms=terms,
        term_to_id={t: i for i, t in enumerate(terms)},
        doc_freq=[doc_freq[t] for t in terms],
        num_docs=num_docs,
        stopwords=set(stopwords),
        min_freq=min_freq,
    )


def encode_document(vocab: Vocabulary, doc_id: str, tokens: list[str]) -> TokenizedDoc:
    return TokenizedDoc(doc_id=doc_id, tokens=vocab.encode(tokens), raw_length=len(tokens))


def make_query(vocab: Vocabulary, query_id: str, tokens: list[str]) -> Query:
    """Build a Query: stopwords dropped, other OOV terms kept as OOV_ID."""
    kept = [t for t in tokens if t not in vocab.stopwords]
    ids = [vocab.term_to_id.get(t, OOV_ID) for t in kept]
    idf = np.array([vocab.idf(i) for i in ids], dtype=np.float64)
    return Query(query_id=query_id, tokens=ids, idf=idf)


def _check_id(path: str | Path, lineno: int, kind: str, value: str) -> None:
    """Ids are whitespace-separated fields of run and qrels files, so an
    empty one or one with whitespace inside is a data error."""
    if value.split() != [value]:
        raise DataFormatError(
            f"{path}:{lineno}: {kind} {value!r} is empty or contains whitespace"
        )


def read_corpus(path: str | Path) -> Iterator[tuple[str, str]]:
    """JSON-lines corpus reader: one {"doc_id", "text"} object per line.

    A doc_id seen on an earlier line is an error, not an overwrite, and so
    is one that is empty or contains whitespace.
    """
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                doc_id, text = obj["doc_id"], obj["text"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataFormatError(f"{path}:{lineno}: bad corpus record: {exc}") from exc
            doc_id = str(doc_id)
            _check_id(path, lineno, "doc_id", doc_id)
            if doc_id in seen:
                raise DataFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            yield doc_id, str(text)


def read_queries(path: str | Path) -> list[tuple[str, str]]:
    """TSV query reader: `query_id<TAB>title text` per line.

    A query_id seen on an earlier line is an error, not an overwrite, and
    so is one that is empty or contains whitespace.
    """
    out = []
    seen: set[str] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected query_id<TAB>text")
            qid, text = line.split("\t", 1)
            qid = qid.strip()
            _check_id(path, lineno, "query_id", qid)
            if qid in seen:
                raise DataFormatError(f"{path}:{lineno}: duplicate query_id {qid!r}")
            seen.add(qid)
            out.append((qid, text))
    return out
