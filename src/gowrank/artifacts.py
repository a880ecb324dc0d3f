"""Atomic artifact writes: a crash never leaves a half-written file.

Every artifact (checkpoint, run file, train log, eval report, ablation
tables, the index files) is written to a temporary file beside its target
and then moved over it with `os.replace`, which is atomic within one file
system.  A writer that raises removes the temporary file and leaves any
earlier file at the target untouched.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


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
