"""Atomic file writes: a reader sees the previous file or the complete new
one, never a partial write."""

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, binary=False, newline=None):
    """Open a temporary file beside ``path``; replace ``path`` with it on exit.

    The temporary file lives in the target directory, so ``os.replace``
    renames it over ``path`` in one step; it is flushed and synced first.
    If the block raises, the temporary file is removed and ``path`` is
    left as it was. Text mode writes UTF-8 and passes ``newline`` to
    ``open``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb" if binary else "x",
                  encoding=None if binary else "utf-8",
                  newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
