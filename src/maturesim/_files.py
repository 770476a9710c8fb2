"""Atomic file writes, and the JSON and CSV form of the result files.

A result file appears under its final name only when it is complete, so a
crash or a failed write never leaves a truncated file behind.
"""

import contextlib
import json
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


def write_json(obj, path):
    """Write obj atomically as JSON, indented by 2 with sorted keys and a
    final newline: the form of every JSON result file but the mesh's."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def csv_row(values):
    """One line of a CSV result file: each number with 17 significant
    digits, which reads back as the same double, and so an integer below
    10**17 as an integer."""
    return ",".join(f"{v:.17g}" for v in values) + "\n"
