"""Pretrained word vectors aligned to vocabulary ids.

The table is immutable after loading and safe to share across workers.
A term without a pretrained vector keeps a zero row; any similarity that
touches it is 0 by convention, which keeps the interaction features
neutral rather than noisy.
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path

import numpy as np

from .artifacts import Cache, open_text
from .corpus import Vocabulary
from .errors import DataFormatError

log = logging.getLogger(__name__)

# index_dir/embeddings.npz (see artifacts.write_arrays): the table's float64
# `unit` rows (V, dim) under the version and the sha256 of the file's bytes
# and of the vocabulary's terms in id order
CACHE_FILE, CACHE_VERSION = "embeddings.npz", 4

class EmbeddingTable:
    """Unit-norm vectors indexed by vocabulary id.

    Built from the raw (V, dim) vectors, which it does not keep: `unit[i]`
    is term i's vector in float64 scaled to unit norm (zero row when
    missing or zero-norm), so a cosine block is one matmul of unit rows.
    """

    def __init__(self, dim: int, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise ValueError(f"vectors must be (V, {dim}), got {vectors.shape}")
        if not np.isfinite(vectors).all():
            raise DataFormatError("embedding table contains non-finite entries")
        self.dim = dim
        norms = np.linalg.norm(vectors, axis=1)
        usable = norms > 0
        self.unit = np.zeros(vectors.shape)
        self.unit[usable] = vectors[usable] / norms[usable, None]

    @classmethod
    def _of_unit(cls, unit: np.ndarray) -> EmbeddingTable:
        """The table whose `unit` rows are given, already scaled."""
        table = cls.__new__(cls)
        table.dim, table.unit = unit.shape[1], unit
        return table

    def unit_rows(self, term_ids: list[int]) -> np.ndarray:
        """Unit vectors of `term_ids`; a zero row for any id outside [0, V)."""
        ids = np.asarray(term_ids, dtype=np.int64)
        if not len(self.unit):  # `take` raises on an empty axis
            return np.zeros((len(ids), self.dim))
        rows = self.unit.take(ids, axis=0, mode="clip")
        rows[(ids < 0) | (ids >= len(self.unit))] = 0.0
        return rows


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


def _store(path, vocab, vectors, pending) -> None:
    """Parse the value strings of the flat `line, id, values` records in
    `pending` into the ids' rows of `vectors`, then empty the list.

    A chunk that does not parse is searched row by row with the same
    parser, and the rows before the first rejected one are checked first,
    so the fault named is the first in the file.
    """
    if not pending:
        return
    linenos, tids, rows = pending[0::3], pending[1::3], pending[2::3]
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
    pending.clear()


def load_embeddings(path: str | Path, vocab: Vocabulary,
                    cache_dir: str | Path | None = None) -> EmbeddingTable:
    """Read word2vec text format and align rows to vocabulary ids.

    With `cache_dir`, the table comes from `cache_dir/embeddings.npz` when
    it holds this file's and vocabulary's; otherwise the text is parsed and
    the cache written (see artifacts.Cache, which logs one INFO line).
    """
    if cache_dir is None:
        return EmbeddingTable(*_parse_text(path, vocab))
    terms = json.dumps(vocab.terms).encode()
    digest = _sha256(path)
    cache = Cache(Path(cache_dir) / CACHE_FILE,
                  {"version": CACHE_VERSION, "vocab_sha256": hashlib.sha256(terms).hexdigest(),
                   "file_sha256": digest}, "embeddings cache", log)
    table = cache.read(lambda arrays: _decode(arrays, len(vocab)))
    if table is None:
        table = EmbeddingTable(*_parse_text(path, vocab))
        if _sha256(path) == digest:  # else what was parsed may not be of the key's bytes
            cache.write({"unit": table.unit})
    cache.report()
    return table


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _decode(arrays: dict, size: int) -> EmbeddingTable:
    """The table of a cache of `size` vocabulary rows."""
    shapes = {n: (a.dtype, a.shape) for n, a in arrays.items()}
    shape = shapes.get("unit", (None, ()))[1]
    dim = shape[1] if len(shape) == 2 else 0
    # no columns, which a parse refuses, would zero every interaction feature
    if dim < 1 or shapes != {"unit": (np.float64, (size, dim))}:
        raise DataFormatError(f"arrays {shapes}, expected ({size}, dim >= 1) float64 unit")
    if not np.isfinite(arrays["unit"]).all():
        raise DataFormatError("embedding table contains non-finite entries")
    return EmbeddingTable._of_unit(arrays["unit"])


def _parse_text(path: str | Path, vocab: Vocabulary):
    """(dim, vectors) of the text at `path`.

    First line is `count dim`; each following line is a token and dim
    floats, separated by single spaces.  Tokens outside the vocabulary are
    skipped and their values never parsed, vocabulary terms absent from
    the file keep a zero row, and a second vector is an error.  The
    values of vocabulary rows go to numpy's C reader, CHUNK_ROWS rows per
    call, so no line is split into one string per value.
    """
    with open_text(path) as fh:
        header = fh.readline().split()  # read outside the try: bad UTF-8 is a ValueError
        try:  # unpacking other than two fields raises ValueError too
            count, dim = (int(field) for field in header)
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
        seen = np.zeros(len(vocab), dtype=bool)  # the terms with a vector
        pending = []  # flat (line, id, values) records: a tuple each would wake the GC
        total = 0
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            # one trailing space before the newline is common in this format
            line = line.rstrip("\n").removesuffix(" ")
            token, sep, rest = line.partition(" ")
            values = rest.count(" ") + 1 if sep else 0
            if values != dim:
                # a fault in a row above this line comes first
                _store(path, vocab, vectors, pending)
                raise DataFormatError(
                    f"{path}:{lineno}: expected token + {dim} values, got {values}"
                )
            total += 1
            tid = vocab.term_to_id.get(token)
            if tid is None:
                continue
            if seen[tid]:
                _store(path, vocab, vectors, pending)
                raise DataFormatError(f"{path}:{lineno}: second vector for {token!r}")
            seen[tid] = True
            pending += lineno, tid, rest
            if len(pending) == 3 * CHUNK_ROWS:
                _store(path, vocab, vectors, pending)
        _store(path, vocab, vectors, pending)
        if total != count:
            raise DataFormatError(
                f"{path}: header announced {count} vectors, file has {total}"
            )
    return dim, vectors
