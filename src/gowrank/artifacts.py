"""Atomic artifact writes, the .npz artifact format, and checked text reads.

Every artifact (checkpoint, run file, train log, eval report, ablation
tables, the index file) is written to a temporary file beside its target
and then moved over it with `os.replace`, which is atomic within one file
system.  A writer that raises removes the temporary file and leaves any
earlier file at the target untouched.  The index and the checkpoint are
.npz archives whose members zip guards with a CRC-32.  Every text input is
read through `open_text`, so a byte that is not UTF-8 is a data error
naming its line.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import DataFormatError


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a temporary file for `path` ("w" UTF-8 text, or "wb"); on a
    clean exit flush it to disk and rename it to `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_text(path: str | Path) -> Iterator[IO[str]]:
    """Open `path` for reading as UTF-8 text.  A byte that does not decode
    raises DataFormatError naming `path:line`; the file is searched for
    that line only then, so a clean read costs nothing extra."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as bad:
                        raise DataFormatError(
                            f"{path}:{lineno}: not UTF-8: byte "
                            f"{line[bad.start]:#04x} ({bad.reason})"
                        ) from exc
            raise


def write_arrays(path: str | Path, header, arrays: dict[str, np.ndarray]) -> None:
    """Write `header` as JSON and the named numeric `arrays` to `path` as
    one uncompressed .npz archive, atomically."""
    blob = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), np.uint8)
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, allow_pickle=False, header=blob, **arrays)


def read_arrays(path: str | Path, writer: str) -> tuple[object, dict[str, np.ndarray]]:
    """(header, arrays) of an archive that `write_arrays` wrote.  A file
    that is missing, foreign or damaged raises DataFormatError naming
    `path` and `writer`, the command that writes it.

    numpy streams each member into its array in pieces, so no array has a
    second full copy, and reads it to its end, where zipfile checks its
    CRC-32.
    """
    arrays = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                name = info.filename.removesuffix(".npy")
                if (name == info.filename or name in arrays or info.flag_bits
                        or info.compress_type != zipfile.ZIP_STORED):
                    raise ValueError(f"member {info.filename!r} is repeated, "
                                     f"compressed, encrypted or not .npy")
                with archive.open(info) as member:
                    arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
                    if member.read(1):
                        raise ValueError(f"member {info.filename!r} has bytes "
                                         f"after its array")
        return json.loads(arrays.pop("header").tobytes()), arrays
    except FileNotFoundError as exc:
        raise DataFormatError(f"{path}: missing; run `{writer}` to write it") from exc
    # KeyError: no header member; zipfile raises EOFError, OSError (a seek
    # before the start) and NotImplementedError (a zip version), and numpy's
    # npy header parser TypeError and TokenError (bad literals)
    except (zipfile.BadZipFile, EOFError, OSError, NotImplementedError, KeyError,
            ValueError, TypeError, tokenize.TokenError, MemoryError) as exc:
        raise DataFormatError(f"{path}: unreadable ({type(exc).__name__}: {exc}); "
                              f"run `{writer}` to write it again") from exc
