"""Deterministic scalar formatting and the one writer of file artifacts.

``repr`` of a Python float is the shortest string that round-trips to the
same bits, which makes text artifacts both stable across runs and exact to
reload; numpy scalars are coerced first so their verbose reprs never leak
into files.

Every artifact is written to a temporary file next to its target and renamed
into place, so a write that fails midway leaves any earlier file untouched.
There is no fsync: the rename guards against a failing program, not power loss.
"""
from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path


def fmt_float(value) -> str:
    return repr(float(value))


def fmt_floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


@contextlib.contextmanager
def open_artifact(path, mode: str = "w"):
    """A file handle (``mode`` "w" or "wb") whose contents replace ``path``
    when the block ends; if the block raises, ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(path, data: str | bytes) -> None:
    with open_artifact(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def write_json(path, payload) -> None:
    write_artifact(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
