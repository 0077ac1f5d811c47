"""Atomic artifact writes: a reader sees the previous file or the whole new one."""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Iterable

from .errors import IoError


def write_atomic(path: str | Path, chunks: Iterable) -> None:
    """Write the bytes-like chunks, in order, as the new content of path.

    chunks is consumed lazily, each chunk written before the next is drawn,
    so a generator need hold only its current chunk. The chunks go to a
    temporary file in path's directory (created if missing), which
    ``os.replace`` then renames over path. On any error, including one
    raised while drawing a chunk, the temporary file is removed and path
    keeps its previous content; an OSError is raised as IoError.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "xb") as file:
                file.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
