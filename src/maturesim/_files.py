"""Atomic file writes.

A result file appears under its final name only when it is complete, so a
crash or a failed write never leaves a truncated file behind.
"""

import contextlib
import os
import uuid


@contextlib.contextmanager
def atomic_open(path):
    """Open a UTF-8 text file for writing that replaces `path` on success.

    The text goes to a new temporary file next to `path`, renamed over it
    by `os.replace` once the block ends; if the block or the rename fails,
    the temporary file is removed and `path` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
