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


def load_embeddings(path: str | Path, vocab: Vocabulary) -> EmbeddingTable:
    """Read word2vec text format and align rows to vocabulary ids.

    First line is `count dim`; each following line is a token and dim
    floats.  Tokens outside the vocabulary are skipped, vocabulary terms
    absent from the file are flagged missing, and a second vector is an error.
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

        vectors = np.zeros((len(vocab), dim), dtype=np.float64)
        has_vector = np.zeros(len(vocab), dtype=bool)
        seen = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(" ")
            # trailing space before newline is common in this format
            if parts and parts[-1] == "":
                parts.pop()
            if len(parts) != dim + 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected token + {dim} values, got {len(parts) - 1}"
                )
            seen += 1
            token = parts[0]
            tid = vocab.term_to_id.get(token)
            if tid is None:
                continue
            if has_vector[tid]:
                raise DataFormatError(f"{path}:{lineno}: second vector for {token!r}")
            try:
                vectors[tid] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad float: {exc}") from exc
            if not np.isfinite(vectors[tid]).all():
                raise DataFormatError(
                    f"{path}:{lineno}: non-finite value in the vector for {token!r}"
                )
            has_vector[tid] = True
        if seen != count:
            raise DataFormatError(
                f"{path}: header announced {count} vectors, file has {seen}"
            )
    return EmbeddingTable(dim, vectors, has_vector)

