"""Deterministic CSV output with a re-run header.

Every file starts with a comment line holding the exact command that
produced it, so outputs are reproducible from their own header.  Each
file's rows come from one printf-style template built from the column
dtypes: floats in scientific notation with 17 significant digits
(``%.16e``), integers as ``%d`` and strings as ``%s``; any other dtype
(bool, complex, object, ...) is rejected.  Files are replaced atomically
(write to a temporary name, then rename).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

__all__ = ["write_csv", "read_csv"]

COMMAND_PREFIX = "# command: "

_FORMATS = {"f": "%.16e", "i": "%d", "u": "%d", "U": "%s"}


def _row_template(names: list[str], arrays: list[np.ndarray]) -> str:
    fields = []
    for name, a in zip(names, arrays):
        if a.dtype.kind not in _FORMATS:
            raise TypeError(f"column {name!r} has unsupported dtype {a.dtype} "
                            "(float, integer or str only)")
        fields.append(_FORMATS[a.dtype.kind])
    return ",".join(fields)


def write_csv(path, columns: list[tuple[str, np.ndarray]],
              command: str | None = None, extra_comments: tuple[str, ...] = ()) -> None:
    """Write named columns atomically; ``command`` goes into the header."""
    names = [name for name, _ in columns]
    arrays = [np.atleast_1d(np.asarray(col)) for _, col in columns]
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError("columns must have equal length")
    template = _row_template(names, arrays)

    lines = []
    if command is not None:
        lines.append(COMMAND_PREFIX + command)
    lines.extend(f"# {c}" for c in extra_comments)
    lines.append(",".join(names))
    lines.extend(map(template.__mod__, zip(*[a.tolist() for a in arrays])))
    text = "\n".join(lines) + "\n"

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path) -> tuple[str | None, dict[str, np.ndarray]]:
    """Read a file written by ``write_csv``: (command, column mapping).

    Columns convert to float where possible and stay strings otherwise.
    """
    command = None
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            if line.startswith(COMMAND_PREFIX):
                command = line[len(COMMAND_PREFIX):].strip()
            line = fh.readline()
        names = line.strip().split(",")
        data = np.loadtxt(fh, delimiter=",", dtype=str, ndmin=2)
    out = {}
    for i, name in enumerate(names):
        col = data[:, i]
        try:
            out[name] = col.astype(float)
        except ValueError:
            out[name] = col
    return command, out
