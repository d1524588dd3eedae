"""Deterministic CSV output with a re-run header, and the one CSV reader.

Every file starts with a comment line holding the exact command that
produced it, so outputs are reproducible from their own header.  Each
file's rows come from one printf-style template built from the column
dtypes: floats in scientific notation with 17 significant digits
(``%.16e``), integers as ``%d`` and strings as ``%s``; any other dtype
(bool, complex, object, ...) is rejected.  A float column in which at
most half the values are distinct (a grid repeated in every row) has
each distinct value formatted once, keyed on its bit pattern so that
-0.0/0.0 and NaN payloads stay apart; the bytes are the same as
formatting every row.  Rows are streamed in chunks of ``_CHUNK_ROWS``,
so the text of a whole file is never held at once.  Files are replaced
atomically (write to a temporary name, then rename).

``read_csv`` is the package's one CSV parser (``moments.load_distribution_csv``
reads through it), so a malformed table raises ``ConfigError`` in one place.
"""

from __future__ import annotations

import os
import tempfile
import warnings

import numpy as np

from .errors import ConfigError

__all__ = ["write_csv", "read_csv"]

COMMAND_PREFIX = "# command: "

_FORMATS = {"f": "%.16e", "i": "%d", "u": "%d", "U": "%s"}

_CHUNK_ROWS = 8192


def _field_formats(names: list[str], arrays: list[np.ndarray]) -> list[str]:
    fields = []
    for name, a in zip(names, arrays):
        if a.dtype.kind not in _FORMATS:
            raise TypeError(f"column {name!r} has unsupported dtype {a.dtype} "
                            "(float, integer or str only)")
        fields.append(_FORMATS[a.dtype.kind])
    return fields


def _formatted_once(a: np.ndarray, fmt: str) -> np.ndarray | None:
    """The cells of float column ``a`` as strings, each distinct value
    formatted once; None when more than half the values are distinct or
    the dtype has no integer view of its width (longdouble)."""
    if a.dtype.kind != "f" or a.itemsize not in (2, 4, 8) or a.ndim != 1:
        return None
    # the bits, not the floats: -0.0 == 0.0 and nan != nan as floats
    _, first, inverse = np.unique(a.view(f"u{a.itemsize}"),
                                  return_index=True, return_inverse=True)
    if 2 * len(first) > len(a):
        return None
    cells = np.array([fmt % v for v in a[first].tolist()], dtype=object)
    return cells[inverse]


def write_csv(path, columns: list[tuple[str, np.ndarray]],
              command: str | None = None, extra_comments: tuple[str, ...] = ()) -> None:
    """Write named columns atomically; ``command`` goes into the header."""
    names = [name for name, _ in columns]
    arrays = [np.atleast_1d(np.asarray(col)) for _, col in columns]
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError("columns must have equal length")
    fields = _field_formats(names, arrays)
    for i, a in enumerate(arrays):
        cells = _formatted_once(a, fields[i])
        if cells is not None:
            arrays[i], fields[i] = cells, "%s"
    row = ",".join(fields) + "\n"

    header = [COMMAND_PREFIX + command] if command is not None else []
    header.extend(f"# {c}" for c in extra_comments)
    header.append(",".join(names))

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(header) + "\n")
            for lo in range(0, n_rows, _CHUNK_ROWS):
                chunk = zip(*[a[lo:lo + _CHUNK_ROWS].tolist() for a in arrays])
                fh.write("".join(map(row.__mod__, chunk)))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_csv(path) -> tuple[str | None, dict[str, np.ndarray]]:
    """Read a CSV table such as ``write_csv`` writes: (command, column mapping).

    Lines starting with '#' are comments, in the body too; a
    ``# command: `` line sets the command.  The first other line is the
    header, one distinct non-empty name per column.  An all-numeric body
    is parsed straight to float64; a body with a text cell is parsed as
    strings, and each column converts to float where it can and stays
    str otherwise.  A header-only table gives empty float columns.  A
    missing or bad header, a row whose width differs from the header's
    and text that is not UTF-8 raise ``ConfigError``.
    """
    command = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline()
            while line.startswith("#"):
                if line.startswith(COMMAND_PREFIX):
                    command = line[len(COMMAND_PREFIX):].strip()
                line = fh.readline()
            names = line.strip().split(",")
            body = fh.tell()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body with no rows
                try:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError:
                    fh.seek(body)
                    data = np.loadtxt(fh, delimiter=",", dtype=str, ndmin=2)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: rows must hold one value per header column ({exc})") from None
    if "" in names or len(set(names)) != len(names):
        raise ConfigError(f"{path}: header {line.strip()!r} needs distinct, non-empty "
                          "column names")
    if len(data) == 0:
        return command, {name: np.empty(0) for name in names}
    if data.shape[1] != len(names):
        raise ConfigError(f"{path}: rows hold {data.shape[1]} values, "
                          f"the header names {len(names)}")
    out = {}
    for name, col in zip(names, data.T):
        try:
            out[name] = col.astype(float, copy=False)
        except ValueError:
            out[name] = col
    return command, out
