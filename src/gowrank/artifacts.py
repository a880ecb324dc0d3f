"""Atomic artifact writes and checked text reads.

Every artifact (checkpoint, run file, train log, eval report, ablation
tables, the index file) is written to a temporary file beside its target
and then moved over it with `os.replace`, which is atomic within one file
system.  A writer that raises removes the temporary file and leaves any
earlier file at the target untouched.  Every text input is read through
`open_text`, so a byte that is not UTF-8 is a data error naming its line.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

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
