"""Pretrained word vectors aligned to vocabulary ids.

The table is immutable after loading and safe to share across workers.
Terms without a pretrained vector are flagged; any similarity that
touches them is 0 by convention, which keeps the interaction features
neutral rather than noisy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .artifacts import open_text
from .corpus import Vocabulary
from .errors import DataFormatError

class EmbeddingTable:
    """Unit-norm vectors indexed by vocabulary id.

    Built from the raw (V, dim) vectors, which it does not keep:
    `has_vector[i]` flags availability, and `unit[i]` is term i's vector
    in float64 scaled to unit norm (zero row when missing or zero-norm),
    so a cosine block is a single matmul of unit rows.
    """

    def __init__(self, dim: int, vectors: np.ndarray, has_vector: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise ValueError(f"vectors must be (V, {dim}), got {vectors.shape}")
        if not np.isfinite(vectors).all():
            raise DataFormatError("embedding table contains non-finite entries")
        self.dim = dim
        self.has_vector = np.asarray(has_vector, dtype=bool)
        norms = np.linalg.norm(vectors, axis=1)
        usable = self.has_vector & (norms > 0)
        self.unit = np.zeros(vectors.shape)
        self.unit[usable] = vectors[usable] / norms[usable, None]


# Vocabulary rows parsed per np.loadtxt call: one call amortizes the
# parser's setup, and the bound caps the value strings held at once.
CHUNK_ROWS = 2048

# ASCII separators, which numpy's parser strips from a value as
# whitespace and `float()` refuses; a value holding one is a bad float
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse(rows: list[str]) -> np.ndarray:
    return np.loadtxt(rows, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)


def _rejects(text: str) -> bool:
    """Whether `_parse` rejects `text` as one row (an empty one it would
    skip, not parse)."""
    if not text or any(c in text for c in _SEPARATORS):
        return True
    try:
        _parse([text])
    except ValueError:
        return True
    return False


def _store(path, vocab, vectors, rows, tids, linenos) -> None:
    """Parse the value strings `rows` of vocabulary ids `tids`, read from
    lines `linenos`, into `vectors[tids]`, then empty the three lists.

    A chunk that does not parse is searched row by row with the same
    parser, and the rows before the first rejected one are checked first,
    so the fault named is the first in the file.
    """
    if not rows:
        return
    joined = "".join(rows)  # a separator anywhere means the row-by-row search
    clean = all(rows) and not any(c in joined for c in _SEPARATORS)
    try:
        block = _parse(rows) if clean else None
    except ValueError:
        block = None
    bad = None
    if block is None:
        bad = next(i for i, text in enumerate(rows) if _rejects(text))
        block = _parse(rows[:bad]) if bad else np.empty((0, vectors.shape[1]))
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataFormatError(f"{path}:{linenos[i]}: non-finite value in the "
                              f"vector for {vocab.terms[tids[i]]!r}")
    if bad is not None:
        value = next((v for v in rows[bad].split(" ") if _rejects(v)), rows[bad])
        raise DataFormatError(f"{path}:{linenos[bad]}: bad float {value!r} in the "
                              f"vector for {vocab.terms[tids[bad]]!r}")
    vectors[tids] = block
    rows.clear()
    tids.clear()
    linenos.clear()


def load_embeddings(path: str | Path, vocab: Vocabulary) -> EmbeddingTable:
    """Read word2vec text format and align rows to vocabulary ids.

    First line is `count dim`; each following line is a token and dim
    floats, separated by single spaces.  Tokens outside the vocabulary are
    skipped and their values never parsed, vocabulary terms absent from
    the file are flagged missing, and a second vector is an error.  The
    values of vocabulary rows go to numpy's C reader, CHUNK_ROWS rows per
    call, so no line is split into one string per value.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataFormatError(f"{path}:1: expected header `count dim`")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:1: expected header `count dim`") from exc
        if dim < 1:
            raise DataFormatError(f"{path}:1: dim must be positive, got {dim}")

        try:
            vectors = np.zeros((len(vocab), dim), dtype=np.float64)
        except (ValueError, MemoryError) as exc:
            raise DataFormatError(
                f"{path}:1: dim {dim} too large to allocate ({exc})"
            ) from exc
        has_vector = np.zeros(len(vocab), dtype=bool)
        rows, tids, linenos = [], [], []  # the vocabulary rows not yet parsed
        seen = 0
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            line = line.rstrip("\n")
            # trailing space before newline is common in this format
            if line.endswith(" "):
                line = line[:-1]
            token, sep, rest = line.partition(" ")
            values = rest.count(" ") + 1 if sep else 0
            if values != dim:
                # a fault in a row above this line comes first
                _store(path, vocab, vectors, rows, tids, linenos)
                raise DataFormatError(
                    f"{path}:{lineno}: expected token + {dim} values, got {values}"
                )
            seen += 1
            tid = vocab.term_to_id.get(token)
            if tid is None:
                continue
            if has_vector[tid]:
                _store(path, vocab, vectors, rows, tids, linenos)
                raise DataFormatError(f"{path}:{lineno}: second vector for {token!r}")
            has_vector[tid] = True
            rows.append(rest)
            tids.append(tid)
            linenos.append(lineno)
            if len(rows) == CHUNK_ROWS:
                _store(path, vocab, vectors, rows, tids, linenos)
        _store(path, vocab, vectors, rows, tids, linenos)
        if seen != count:
            raise DataFormatError(
                f"{path}: header announced {count} vectors, file has {seen}"
            )
    return EmbeddingTable(dim, vectors, has_vector)
