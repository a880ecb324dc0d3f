"""Run configuration and deterministic seed derivation.

Every stochastic component draws from a named stream derived from the
single run seed, so adding or reordering components never perturbs the
randomness seen by the others.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .artifacts import open_text
from .errors import DataFormatError

log = logging.getLogger(__name__)

ENV_PREFIX = "GOWRANK_"

# Values explored during tuning; anything outside gets a warning (not an
# error) so odd-but-intentional settings still run.
GRID = {
    "steps": (1, 4),
    "pool_k": (10, 70),
    "window": (3, 9),
    "lr": (0.0001, 0.01),
    "batch": (8, 64),
}


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """A named, independent RNG derived from the run seed.

    The stream key is a stable hash of `name`, so streams are reproducible
    across processes and insensitive to the order they are created in.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    sub = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, sub]))


@dataclass
class HyperParams:
    """Shape-determining knobs of the scoring model.

    Each must be an int (a bool is not) at or above its floor, so a bad
    value from a config, a flag or a checkpoint header is refused here.
    """

    steps: int = 2
    pool_k: int = 40
    max_query_len: int = 8

    def __post_init__(self) -> None:
        for name, floor in (("steps", 0), ("pool_k", 1), ("max_query_len", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < floor:
                raise DataFormatError(
                    f"bad hyperparameters {vars(self)}: {name} must be an int >= {floor}"
                )


@dataclass
class RunConfig:
    """All knobs for indexing, training, re-ranking, and evaluation."""

    # inputs
    corpus: str = ""
    queries: str = ""
    qrels: str = ""
    embeddings: str = ""
    index_dir: str = "index"
    checkpoint: str = "model.ckpt"
    stopwords: str = ""  # empty -> packaged default list

    # vocabulary
    min_freq: int = 10
    min_freq_mode: str = "corpus"  # or "docs"

    # graph + model
    window: int = 5
    steps: int = HyperParams.steps
    pool_k: int = HyperParams.pool_k
    max_query_len: int = HyperParams.max_query_len
    adjacency_mode: str = "graph"  # graph | sequence | zero

    # training
    lr: float = 0.001
    epochs: int = 300
    batch: int = 16
    steps_per_epoch: int = 32

    # retrieval
    candidates: int = 100

    # misc
    seed: int = 0
    folds: int = 5
    fold_rotation: int = 0

    def validate(self) -> None:
        for key in ("corpus", "queries", "qrels", "embeddings", "index_dir",
                    "checkpoint", "stopwords"):
            if "\0" in getattr(self, key):
                raise DataFormatError(f"{key} path holds a NUL byte: {getattr(self, key)!r}")
        if self.adjacency_mode not in ("graph", "sequence", "zero"):
            raise DataFormatError(
                f"adjacency_mode must be graph|sequence|zero, got {self.adjacency_mode!r}"
            )
        if self.min_freq_mode not in ("corpus", "docs"):
            raise DataFormatError(
                f"min_freq_mode must be corpus|docs, got {self.min_freq_mode!r}"
            )
        for key, floor in (("window", 2), ("candidates", 1), ("min_freq", 1), ("epochs", 0),
                           ("batch", 1), ("steps_per_epoch", 1), ("folds", 2), ("seed", 0)):
            if getattr(self, key) < floor:
                raise DataFormatError(f"{key} must be >= {floor}, got {getattr(self, key)}")
        # numpy takes every count as an int64; SeedSequence takes a seed of any size
        for key in (f.name for f in fields(self) if f.type == "int" and f.name != "seed"):
            if getattr(self, key) >= 2**63:
                raise DataFormatError(f"{key} must be < 2**63, got {getattr(self, key)}")
        self.hyper()  # HyperParams checks the shape knobs
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DataFormatError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.fold_rotation < self.folds:
            raise DataFormatError(
                f"fold_rotation must be in [0, folds={self.folds}), got {self.fold_rotation}"
            )
        self._warn_off_grid()

    def hyper(self) -> HyperParams:
        """The model's shape knobs, checked by HyperParams."""
        return HyperParams(self.steps, self.pool_k, self.max_query_len)

    def _warn_off_grid(self) -> None:
        for key, (lo, hi) in GRID.items():
            val = getattr(self, key)
            if not lo <= val <= hi:
                log.warning("%s=%s is outside the tuned range [%s, %s]", key, val, lo, hi)


def _coerce(name: str, raw: str, target_type: type):
    try:
        return target_type(raw.strip())
    except ValueError as exc:
        raise DataFormatError(f"{name}: {exc}") from exc


_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file; a '#' at the start of a line or
    after whitespace starts a comment, so values may contain '#'.

    A key given twice is an error, not an overwrite.
    """
    out: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _COMMENT.split(line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise DataFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = val
    return out


def load_config(
    file_path: str | Path | None = None,
    overrides: dict[str, object] | None = None,
    env: dict[str, str] | None = None,
) -> RunConfig:
    """Layer configuration sources: defaults < file < environment < overrides.

    `overrides` carries already-typed values (CLI flags); file and
    environment values are strings coerced to the field's type.  Unknown
    keys in the file are an error; unknown GOWRANK_* variables are ignored
    so unrelated tooling can share the prefix.
    """
    cfg = RunConfig()
    # dataclass field annotations arrive as strings under future-import
    types_by_name = {
        f.name: type(getattr(cfg, f.name)) for f in fields(RunConfig)
    }

    if file_path is not None:
        for key, raw in read_config_file(file_path).items():
            if key not in types_by_name:
                raise DataFormatError(f"{file_path}: unknown config key {key!r}")
            setattr(cfg, key, _coerce(key, raw, types_by_name[key]))

    env = os.environ if env is None else env
    for key in types_by_name:
        var = ENV_PREFIX + key.upper()
        if var in env:
            setattr(cfg, key, _coerce(var, env[var], types_by_name[key]))

    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in types_by_name:
                raise DataFormatError(f"unknown config key {key!r}")
            setattr(cfg, key, val)

    cfg.validate()
    return cfg
