"""Atomic artifact writes, the .npz artifact format, and checked text reads.

Every artifact (checkpoint, run file, train log, eval report, ablation
tables, the index file) is written to a temporary file beside its target
and then moved over it with `os.replace`, which is atomic within one file
system.  A writer that raises removes the temporary file and leaves any
earlier file at the target untouched.  The index and the checkpoint are
.npz archives whose members zip guards with a CRC-32.  Every text input is
read through `open_text`, so a byte that is not UTF-8 is a data error
naming its line.  A `Cache` keeps data derived from files in such an archive.
"""

from __future__ import annotations

import io
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
    clean exit flush it to disk, an OSError naming `path`, and rename it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as fh:
            yield fh
            try:
                fh.flush()
                os.fsync(fh.fileno())
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from exc
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
    one uncompressed .npz archive, atomically: `np.savez`'s bytes, without
    the bytes copy of each array that `np.savez` writes from."""
    blob = np.frombuffer(json.dumps(header, sort_keys=True).encode("utf-8"), np.uint8)
    with (atomic_write(path, binary=True) as fh,
          zipfile.ZipFile(fh, "w", allowZip64=True) as archive):
        for name, array in {"header": blob, **arrays}.items():
            array = np.asanyarray(array)
            if array.dtype.hasobject:
                raise ValueError(f"array {name!r} holds Python objects")
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                layout = np.lib.format.header_data_from_array_1_0(array)
                np.lib.format.write_array_header_1_0(member, layout)
                member.write(np.ascontiguousarray(array.T if layout["fortran_order"] else array))


def read_arrays(path: str | Path, writer: str,
                sha256=None) -> tuple[object, dict[str, np.ndarray]]:
    """(header, arrays) of an archive that `write_arrays` wrote.  A file
    that is missing, foreign or damaged raises DataFormatError naming
    `path` and `writer`, the command that writes it.  With `sha256` (a
    hashlib object), the file is read whole, and the bytes parsed hashed.

    numpy streams each member into its array in pieces, so no array has a
    second full copy, and reads it to its end, where zipfile checks its
    CRC-32.
    """
    arrays = {}
    try:
        source = path
        if sha256 is not None:  # the very bytes parsed; BytesIO shares, not copies, them
            sha256.update(data := Path(path).read_bytes())
            source = io.BytesIO(data)
        with zipfile.ZipFile(source) as archive:
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


class Cache:
    """Data derived from files, kept at `path` in an archive whose header
    holds `key`: the caller's entries, among them the digests of the bytes
    it derived the data from.  `read` is a `hit` or a `miss (no file |
    stale | damaged)`, damaged with one WARNING; `write` adds `, written`,
    or one WARNING when it fails; `report` logs the outcome in one INFO
    line."""

    def __init__(self, path: str | Path, key: dict, label: str, log):
        self.path, self.key, self.label, self.log = Path(path), key, label, log
        self.outcome = "miss (no file)"

    def read(self, decode):
        """`decode(arrays)` of the archive when it holds `key`, else None;
        `decode` raises DataFormatError for what it refuses."""
        if not self.path.exists():
            return None
        try:
            header, arrays = read_arrays(self.path, "gowrank train")
            if not isinstance(header, dict) or not self.key.keys() <= header.keys():
                raise DataFormatError(f"header {header!r:.80} is not a cache's")
            if {name: header[name] for name in self.key} != self.key:
                self.outcome = "miss (stale)"
                return None
            value, self.outcome = decode(arrays), "hit"
            return value
        except DataFormatError as exc:  # a read error's own text names the file again
            reason = f"{type(exc.__cause__).__name__}: {exc.__cause__}" if exc.__cause__ else exc
            self.log.warning("%s %s ignored: %s", self.label, self.path, reason)
            self.outcome = "miss (damaged)"
            return None

    def write(self, arrays: dict) -> bool:
        """`arrays` under the key; whether they were written."""
        try:
            write_arrays(self.path, self.key, arrays)
        except OSError as exc:
            self.log.warning("%s %s not written: %s", self.label, self.path, exc)
            return False
        self.outcome += ", written"
        return True

    def report(self) -> None:
        self.log.info("%s %s: %s", self.label, self.path, self.outcome)
