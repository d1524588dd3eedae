"""Deterministic CSV output with a re-run header, and the one CSV reader.

Every file starts with a comment line holding the exact command that
produced it, so outputs are reproducible from their own header.  Floats
are written as ``%.16e`` (17 significant digits), integers as ``%d`` and
strings as UTF-8 text; any other dtype (bool, complex, longdouble,
object, ...) is rejected, and so is a str cell holding a NUL, a comma or
a line break.  A float16/32/64 column is deduplicated on its bit pattern (so
-0.0/0.0 and NaN payloads stay apart) and its distinct values are
formatted by ``_format_e16``, a numpy kernel that scales each value to 17
digits in extended precision and hands every value it cannot round
safely to Python's exact ``%``; the bytes are those of ``"%.16e" % v``.
Integer cells are formatted one by one with ``%``.
Rows are assembled as bytes in chunks of ``_CHUNK_ROWS``, so the text of
a whole file is never held at once.  Files are replaced atomically
(write to a temporary name, then rename).

``read_csv`` is the package's one CSV parser (``moments.load_distribution_csv``
reads through it), so a malformed table raises ``ConfigError`` in one place.
"""

from __future__ import annotations

import functools
import os
import tempfile
import warnings

import numpy as np

from .errors import ConfigError

__all__ = ["write_csv", "read_csv"]

COMMAND_PREFIX = "# command: "

_CHUNK_ROWS = 8192
# values per _format_e16 call: this bounds the kernel's temporaries, which
# at 8192 or more values per call raised cli_batch's peak RSS
_FORMAT_BLOCK = 2048

# |y - |x| 10^q| < 2^(57 - nmant) for y < 10^17 < 2^57: the table entry and
# the product are each rounded once.  A fraction of y this close to 1/2 may
# be a rounding tie and goes to the exact path.  A longdouble that is plain
# double gets a band >= 1/2, and one that is not an IEEE binary format
# (double-double) a band of 1, so every value goes there.
_NMANT = np.finfo(np.longdouble).nmant
_TIE_BAND = 2.0 ** (57 - _NMANT) if _NMANT in (52, 63, 112) else 1.0
_POW10_MIN = -310
_EXP_MIN = -324
_WIDTH = 24  # len(b"-1.2345678901234567e-308")


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tables, built on first use so that importing qfluid does
    not pay for them: 10^q for q from ``_POW10_MIN`` to 345, each parsed to
    the nearest longdouble (every q = 16 - k a float64's decimal exponent
    k, off by one, needs); the 4-digit groups 0000 ... 9999, each as the
    uint32 word of its 4 bytes; and the exponents e-324 ... e+308,
    NUL-padded to 5 bytes."""
    pow10 = np.array([b"1e%d" % q for q in range(_POW10_MIN, 346)]).astype(np.longdouble)
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    exponents = np.array([b"e%+03d" % e for e in range(_EXP_MIN, 309)])
    return pow10, digits.copy().view(np.uint32).ravel(), exponents.view(np.uint8).reshape(-1, 5)


def _format_e16(a: np.ndarray) -> np.ndarray:
    """``b"%.16e" % v`` for each float64 ``v`` of ``a``, as the rows of an
    ``(len(a), 24)`` uint8 array padded with NULs.

    With k = floor(log10|v|), corrected once so that y = |v| 10^(16-k) lies
    in [1e16, 1e17), the 17 digits are the integer nearest to y.  y is
    computed in longdouble; its floor D and fraction y - D are exact, so
    the digits are D + (y - D > 1/2) (a carry to 10^17 moves k up).  Zero,
    nan, inf, a D outside [1e16, 1e17] and a fraction within ``_TIE_BAND``
    of 1/2 are formatted by Python's correctly rounded ``%`` instead.
    """
    pow10, digits4, exponents = _tables()
    finite = np.isfinite(a) & (a != 0)
    k = np.floor(np.log10(np.abs(a), out=np.zeros(len(a)), where=finite)).astype(np.int64)
    with np.errstate(all="ignore"):  # nan, inf, and a longdouble without the range
        x = np.abs(a).astype(np.longdouble)
        y = x * pow10[16 - k - _POW10_MIN]
        k += y >= 1e17
        k -= y < 1e16
        np.multiply(x, pow10[16 - k - _POW10_MIN], out=y)
        digits = y.astype(np.uint64)
        y -= digits
        y -= 0.5
        exact = finite & (digits >= 10**16) & (digits <= 10**17) & (np.abs(y) > _TIE_BAND)
    digits += y > 0
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    lead, rest = np.divmod(digits, 10**16)
    halves = np.stack(np.divmod(rest, 10**8), axis=1).astype(np.uint32)  # 32-bit division is faster
    groups = np.stack(np.divmod(halves, np.uint32(10**4)), axis=2)
    out = np.empty((len(a), _WIDTH), np.uint8)
    out[:, 0] = np.signbit(a) * ord("-")
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3:19] = digits4[groups].view(np.uint8).reshape(-1, 16)
    out[:, 19:] = exponents[k - _EXP_MIN]
    # every value the fast path cannot round safely: Python's exact conversion
    cells = [b"%.16e" % v for v in a[~exact].tolist()]
    out[~exact] = np.array(cells, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return out


def _cells(name: str, a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Column ``a`` as (cells, inverse): an ``S`` array of cell text and the
    index of each row's cell in it, or None when there is one cell per row."""
    if a.dtype.kind == "f" and a.itemsize in (2, 4, 8):
        # the bits, not the floats: -0.0 == 0.0 and nan != nan as floats
        bits, inverse = np.unique(a.view(f"u{a.itemsize}"), return_inverse=True)
        values = bits.view(a.dtype).astype(np.float64)
        text = np.empty((len(values), _WIDTH), np.uint8)
        for lo in range(0, len(values), _FORMAT_BLOCK):
            text[lo:lo + _FORMAT_BLOCK] = _format_e16(values[lo:lo + _FORMAT_BLOCK])
        return text.view(f"S{_WIDTH}").ravel(), inverse
    if a.dtype.kind in "iu":
        return np.array([b"%d" % v for v in a.tolist()], dtype="S"), None
    if a.dtype.kind == "U":
        bad = set("\0,\n\r") & set("".join(a.tolist()))
        if bad:
            raise ConfigError(f"column {name!r} has a cell holding {''.join(sorted(bad))!r}: "
                              "a NUL, comma or line break would break the table")
        return np.char.encode(a, "utf-8"), None
    raise TypeError(f"column {name!r} has unsupported dtype {a.dtype} "
                    "(float16/32/64, integer or str only)")


def write_csv(path, columns: list[tuple[str, np.ndarray]],
              command: str | None = None, extra_comments: tuple[str, ...] = ()) -> None:
    """Write named columns atomically; ``command`` goes into the header.

    ``ConfigError`` before any file is created when a header line holds a
    line break, a column name a comma, or a str cell a NUL, a comma or a
    line break: ``read_csv`` could not read it.
    """
    names = [name for name, _ in columns]
    header = [COMMAND_PREFIX + command] if command is not None else []
    header.extend(f"# {c}" for c in extra_comments)
    header.append(",".join(names))
    if any("\n" in line or "\r" in line for line in header) or any("," in n for n in names):
        raise ConfigError(f"CSV header {header!r} holds a line break or a column name a comma")
    arrays = [np.atleast_1d(np.asarray(col)) for _, col in columns]
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError("columns must have equal length")
    cells = [_cells(name, a) for name, a in zip(names, arrays)]
    width = sum(text.itemsize + 1 for text, _ in cells)  # each cell, then ',' or '\n'

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode())
            for lo in range(0, n_rows, _CHUNK_ROWS):
                rows = slice(lo, lo + _CHUNK_ROWS)
                table = np.full((min(_CHUNK_ROWS, n_rows - lo), width), ord(","), np.uint8)
                at = 0
                for text, inverse in cells:
                    part = text[rows] if inverse is None else text[inverse[rows]]
                    table[:, at:at + text.itemsize] = part.view(np.uint8).reshape(len(table), -1)
                    at += text.itemsize + 1
                table[:, -1] = ord("\n")
                fh.write(table.tobytes().replace(b"\0", b""))
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
