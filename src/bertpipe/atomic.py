"""All-or-nothing file writes: a reader sees the old file or the complete new one."""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO


@contextmanager
def replace_when_done(path: Path) -> Iterator[BinaryIO]:
    """Write to a temporary sibling and move it to ``path`` only on success."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def replace_text_when_done(path: Path) -> Iterator[TextIO]:
    """:func:`replace_when_done` for UTF-8 text, which goes to disk as it is written.

    Memory does not grow with the amount written, and ``path`` is replaced
    whole only on success.
    """
    with replace_when_done(path) as fh, io.TextIOWrapper(fh, "utf-8", newline="") as text:
        yield text
