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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

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
    with open(path, encoding="utf-8") as fh:
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

    def to_json(self) -> str:
        payload = {
            "terms": self.terms,
            "doc_freq": self.doc_freq,
            "num_docs": self.num_docs,
            "stopwords": sorted(self.stopwords),
            "min_freq": self.min_freq,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        payload = json.loads(text)
        terms = payload["terms"]
        return cls(
            terms=terms,
            term_to_id={t: i for i, t in enumerate(terms)},
            doc_freq=payload["doc_freq"],
            num_docs=payload["num_docs"],
            stopwords=set(payload["stopwords"]),
            min_freq=payload["min_freq"],
        )


@dataclass
class TokenizedDoc:
    """A document as an order-preserving sequence of vocabulary ids."""

    doc_id: str
    tokens: list[int]
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

    corpus_freq: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    first_seen: list[str] = []
    num_docs = 0
    for tokens in docs:
        num_docs += 1
        for tok in tokens:
            if tok in corpus_freq:
                corpus_freq[tok] += 1
            else:
                corpus_freq[tok] = 1
                first_seen.append(tok)
        for tok in set(tokens):
            doc_freq[tok] = doc_freq.get(tok, 0) + 1
    if num_docs == 0:
        raise DataFormatError("empty corpus: no documents to index")

    freq = doc_freq if count_documents else corpus_freq
    terms = [t for t in first_seen if t not in stopwords and freq[t] >= min_freq]
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


def read_corpus(path: str | Path) -> Iterator[tuple[str, str]]:
    """JSON-lines corpus reader: one {"doc_id", "text"} object per line.

    A doc_id seen on an earlier line is an error, not an overwrite.
    """
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
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
            if doc_id in seen:
                raise DataFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            yield doc_id, str(text)


def read_queries(path: str | Path) -> list[tuple[str, str]]:
    """TSV query reader: `query_id<TAB>title text` per line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected query_id<TAB>text")
            qid, text = line.split("\t", 1)
            out.append((qid.strip(), text))
    return out
