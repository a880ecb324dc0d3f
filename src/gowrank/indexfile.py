"""The index file: the vocabulary and the encoded documents that `index`
writes to `index_dir/index.npz` and every later command reads, checked."""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Iterable

import numpy as np

from .artifacts import read_arrays, write_arrays
from .corpus import TokenizedDoc, Vocabulary
from .errors import DataFormatError

# index.npz (see artifacts.write_arrays): a JSON header (version,
# vocabulary, sorted doc ids, raw lengths), num_docs + 1 int64 `offsets`
# and the int32 `tokens`; document r is tokens[offsets[r]:offsets[r + 1]]
INDEX_FILE = "index.npz"
INDEX_VERSION = 2


def write_index(index_dir: str | Path, vocab: Vocabulary,
                docs: Iterable[TokenizedDoc]) -> None:
    """Write `index_dir/index.npz` from `docs`, taken one at a time."""
    # one growing buffer, never every document's id list at once
    tokens = array("i")
    offsets, doc_ids, raw_lengths = [0], [], []
    for doc in docs:
        tokens.extend(doc.tokens)
        offsets.append(len(tokens))
        doc_ids.append(doc.doc_id)
        raw_lengths.append(doc.raw_length)
    header = {"version": INDEX_VERSION, "vocabulary": vocab.to_payload(),
              "doc_ids": doc_ids, "raw_lengths": raw_lengths}
    tokens = np.frombuffer(tokens, dtype=np.intc).astype("<i4", copy=False)
    offsets = np.array(offsets, dtype="<i8")
    write_arrays(Path(index_dir) / INDEX_FILE, header, {"offsets": offsets, "tokens": tokens})


def read_index(index_dir: str | Path):
    """The vocabulary and the documents of the `index_dir/index.npz` that
    `index` wrote, checked once; each document's tokens are a read-only
    int32 slice of one array."""
    path = Path(index_dir) / INDEX_FILE
    header, arrays = read_arrays(path, "gowrank index")
    # ValueError covers a bad vocabulary; KeyError and TypeError a header
    # without the layout `index` writes
    try:
        version = header["version"]
        vocab = Vocabulary.from_payload(header["vocabulary"])
        doc_ids, raw_lengths = header["doc_ids"], header["raw_lengths"]
        if not (isinstance(doc_ids, list) and isinstance(raw_lengths, list)
                and len(doc_ids) == len(raw_lengths)):
            raise TypeError("doc_ids and raw_lengths must be lists of one length")
    except (ValueError, KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: bad index header: {exc!r}") from exc
    if version != INDEX_VERSION:
        raise DataFormatError(f"{path}: index version {version}, expected {INDEX_VERSION}")

    def record(r: int) -> str:
        """Document r, named by its 1-based number and its id."""
        return f"{path}: record {r + 1} (doc_id {doc_ids[r]!r})"

    num_docs = len(doc_ids)
    offsets, tokens = arrays.get("offsets"), arrays.get("tokens")
    if not (arrays.keys() == {"offsets", "tokens"}
            and offsets.dtype == "<i8" and offsets.shape == (num_docs + 1,)
            and tokens.dtype == "<i4" and tokens.ndim == 1):
        found = {name: f"{a.dtype}{list(a.shape)}" for name, a in arrays.items()}
        raise DataFormatError(f"{path}: arrays {found}, expected int64 offsets "
                              f"[{num_docs + 1}] and int32 tokens")
    if offsets[0] != 0:
        raise DataFormatError(f"{path}: the offsets start at {offsets[0]}, not 0")
    steps = np.diff(offsets)
    if num_docs and steps.min() < 0:
        bad = int(np.flatnonzero(steps < 0)[0])
        raise DataFormatError(f"{record(bad)}: its offsets {offsets[bad]} .. "
                              f"{offsets[bad + 1]} decrease")
    if offsets[-1] != tokens.size:
        raise DataFormatError(f"{path}: the offsets of {num_docs} documents end at "
                              f"{offsets[-1]}, not at the {tokens.size} tokens")
    # one pass for both bounds: a negative id is huge as uint32
    if tokens.size and tokens.view("<u4").max() >= len(vocab):
        pos = int(np.flatnonzero(tokens.view("<u4") >= len(vocab))[0])
        bad = int(np.searchsorted(offsets, pos, side="right")) - 1
        raise DataFormatError(
            f"{record(bad)}: token id {tokens[pos]} outside [0, {len(vocab)})")
    tokens.flags.writeable = False
    if tokens.base is not None:  # read_array reshapes: lock the owner too
        tokens.base.flags.writeable = False
    bounds = offsets.tolist()
    docs: dict[str, TokenizedDoc] = {}
    for r, (doc_id, raw_length) in enumerate(zip(doc_ids, raw_lengths)):
        if not isinstance(doc_id, str) or doc_id.split() != [doc_id]:
            raise DataFormatError(f"{record(r)}: not a doc id")
        if doc_id in docs:
            raise DataFormatError(f"{record(r)}: duplicate doc_id")
        docs[doc_id] = TokenizedDoc(doc_id, tokens[bounds[r]:bounds[r + 1]], raw_length)
    return vocab, docs
