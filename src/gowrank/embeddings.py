"""Pretrained word vectors aligned to vocabulary ids.

The table is immutable after loading and safe to share across workers.
Terms without a pretrained vector are flagged; any similarity that
touches them is 0 by convention, which keeps the interaction features
neutral rather than noisy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .errors import DataFormatError

class EmbeddingTable:
    """Dense vectors indexed by vocabulary id.

    `vectors[i]` is the raw vector for term id i (zeros when missing),
    `has_vector[i]` flags availability, and `unit[i]` is the row scaled to
    unit norm (zero row when missing or zero-norm), so a cosine block is a
    single matmul of unit rows.
    """

    def __init__(self, dim: int, vectors: np.ndarray, has_vector: np.ndarray):
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise ValueError(f"vectors must be (V, {dim}), got {vectors.shape}")
        if not np.isfinite(vectors).all():
            raise DataFormatError("embedding table contains non-finite entries")
        self.dim = dim
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        self.has_vector = np.asarray(has_vector, dtype=bool)
        norms = np.linalg.norm(self.vectors, axis=1)
        usable = self.has_vector & (norms > 0)
        self.unit = np.zeros_like(self.vectors)
        if usable.any():
            self.unit[usable] = self.vectors[usable] / norms[usable, None]

    @property
    def coverage(self) -> float:
        n = len(self.has_vector)
        return float(self.has_vector.sum()) / n if n else 0.0

    def unit_vector(self, term_id: int) -> np.ndarray:
        """Unit-norm vector for a term id; zeros for missing or OOV ids."""
        if term_id < 0 or term_id >= len(self.has_vector):
            return np.zeros(self.dim)
        return self.unit[term_id]


def load_embeddings(path: str | Path, vocab: Vocabulary) -> EmbeddingTable:
    """Read word2vec text format and align rows to vocabulary ids.

    First line is `count dim`; each following line is a token and dim
    floats.  Tokens outside the vocabulary are skipped; vocabulary terms
    absent from the file are flagged missing.
    """
    with open(path, encoding="utf-8") as fh:
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
            try:
                vectors[tid] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad float: {exc}") from exc
            has_vector[tid] = True
        if seen != count:
            raise DataFormatError(
                f"{path}: header announced {count} vectors, file has {seen}"
            )
    return EmbeddingTable(dim, vectors, has_vector)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """dot(u,v) / (|u||v|); 0 whenever either norm is 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))
