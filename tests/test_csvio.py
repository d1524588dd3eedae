import string
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfluid import csvio
from qfluid.csvio import _CHUNK_ROWS, _format_e16, read_csv, write_csv
from qfluid.errors import ConfigError

# every qfluid output file uses these bytes; any change here changes them all
FROZEN = (
    "# command: qfluid demo --flag 1\n"
    "# t_bar=2.0\n"
    "# second\n"
    "f,i,s\n"
    "-0.0000000000000000e+00,-7,a\n"
    "nan,0,bb\n"
    "inf,3,stable\n"
    "4.9406564584124654e-324,-2147483648,x y\n"
    "1.0000000000000001e+300,2147483647,\n"
)


def test_write_csv_frozen_bytes(tmp_path):
    path = tmp_path / "frozen.csv"
    write_csv(path, [
        ("f", np.array([-0.0, np.nan, np.inf, 5e-324, 1e300])),
        ("i", np.array([-7, 0, 3, -2147483648, 2147483647], dtype=np.int32)),
        ("s", np.array(["a", "bb", "stable", "x y", ""])),
    ], command="qfluid demo --flag 1", extra_comments=("t_bar=2.0", "second"))
    assert path.read_bytes() == FROZEN.encode()
    command, cols = read_csv(path)
    assert command == "qfluid demo --flag 1"
    assert cols["i"].tolist() == [-7.0, 0.0, 3.0, -2147483648.0, 2147483647.0]


@pytest.mark.parametrize("column", [
    np.array([True, False]),
    np.array([1 + 2j, 0j]),
    np.array([None, 1.0], dtype=object),
    # %.16e would drop the digits past float64's
    pytest.param(np.longdouble(1) + np.longdouble(2) ** -60 * np.arange(2),
                 marks=pytest.mark.skipif(np.dtype(np.longdouble).itemsize == 8,
                                          reason="longdouble is float64 here")),
], ids=["bool", "complex", "object", "longdouble"])
def test_write_csv_rejects_other_dtypes(tmp_path, column):
    with pytest.raises(TypeError, match="'flag'"):
        write_csv(tmp_path / "out.csv", [("x", np.zeros(2)), ("flag", column)])
    assert not list(tmp_path.iterdir())


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "out.csv", [("a", np.zeros(3)), ("b", np.zeros(2))])
    assert not list(tmp_path.iterdir())


def reference_bytes(columns, command=None, extra_comments=()):
    """The writer without deduplication or chunking: every row formatted by
    one ``template % row`` and the whole text joined at once."""
    formats = {"f": "%.16e", "i": "%d", "u": "%d", "U": "%s"}
    template = ",".join(formats[a.dtype.kind] for _, a in columns)
    lines = [] if command is None else ["# command: " + command]
    lines.extend(f"# {c}" for c in extra_comments)
    lines.append(",".join(name for name, _ in columns))
    lines.extend(map(template.__mod__, zip(*[a.tolist() for _, a in columns])))
    return ("\n".join(lines) + "\n").encode()


NANS = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
POOL = np.concatenate([[-0.0, 0.0, np.inf, -np.inf, 5e-324, 0.1, -1e300], NANS])


def parity_columns(n_rows):
    rng = np.random.default_rng(11)
    return [
        ("grid", np.tile(POOL, n_rows // len(POOL) + 1)[:n_rows]),
        ("drawn", POOL[rng.integers(len(POOL), size=n_rows)]),
        ("f32", np.float32([0.1, -0.0, 3.4e38, 1e-45, np.nan])[rng.integers(5, size=n_rows)]),
        ("f16", np.float16([0.1, -0.0, 65504.0])[rng.integers(3, size=n_rows)]),
        ("distinct", rng.standard_normal(n_rows)),
        ("i", rng.integers(-2**40, 2**40, size=n_rows)),
        ("u", rng.integers(0, 7, size=n_rows).astype(np.uint8)),
        ("s", np.array(["a", "", "x y"])[rng.integers(3, size=n_rows)]),
    ]


@pytest.mark.parametrize("n_rows", [0, 1, 2, _CHUNK_ROWS, 2 * _CHUNK_ROWS + 3])
def test_write_csv_bytes_match_reference_writer(tmp_path, n_rows):
    columns = parity_columns(n_rows)
    path = tmp_path / "parity.csv"
    write_csv(path, columns, command="qfluid parity", extra_comments=("note",))
    assert path.read_bytes() == reference_bytes(columns, "qfluid parity", ("note",))
    assert [p.name for p in tmp_path.iterdir()] == ["parity.csv"]


def adversarial_values(n):
    """Seeded float64 values where a formatter errs: random bit patterns
    (subnormals, nans and extremes included), scaled normals, every power
    of ten and its neighbours, exact rounding ties at the 17th digit
    (odd m / 2^j with 18 significant digits), integers and specials."""
    rng = np.random.default_rng(18)
    powers = np.array([float(f"1e{q}") for q in range(-323, 309)])
    ties = [rng.integers(lo, hi, size=n // 32) * 2 + 1 for lo, hi in
            ((10 ** (17 - j) * 2 ** (j - 1), min(10 ** (18 - j) * 2 ** (j - 1), 2 ** 52))
             for j in range(2, 18))]
    a = np.concatenate([
        rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64),
        rng.integers(1, 2**52, size=n // 8, dtype=np.uint64).view(np.float64),
        rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        *(m / 2.0 ** j for j, m in enumerate(ties, start=2)),
        rng.integers(1, 2**53, size=n // 8).astype(np.float64),
        [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    ])
    return np.concatenate([a, -a])


def test_format_e16_matches_percent_formatting():
    a = adversarial_values(40_000)
    assert len(a) > 200_000
    cells = np.concatenate([_format_e16(a), np.full((len(a), 1), ord("\n"), np.uint8)], axis=1)
    assert cells[cells != 0].tobytes() == "".join("%.16e\n" % v for v in a.tolist()).encode()


def test_bytes_unchanged_when_every_value_takes_the_exact_path(tmp_path, monkeypatch):
    monkeypatch.setattr(csvio, "_TIE_BAND", 1.0)
    columns = parity_columns(_CHUNK_ROWS + 3)
    path = tmp_path / "exact.csv"
    write_csv(path, columns, command="qfluid parity")
    assert path.read_bytes() == reference_bytes(columns, "qfluid parity")


def test_powers_of_ten_are_the_nearest_longdouble():
    if csvio._TIE_BAND >= 0.5:
        pytest.skip("longdouble cannot hold the table; every value takes the exact path")
    bound = Fraction(1, 2 ** (np.finfo(np.longdouble).nmant + 1))
    for q, p in enumerate(csvio._tables()[0], start=csvio._POW10_MIN):
        exact = Fraction(10) ** q
        assert abs(Fraction(*p.as_integer_ratio()) - exact) <= bound * exact, q


def test_write_csv_rejects_a_nul_in_a_str_cell(tmp_path):
    with pytest.raises(ValueError, match="'s'.*NUL"):
        write_csv(tmp_path / "out.csv", [("x", np.zeros(2)), ("s", np.array(["a", "b\0c"]))])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb", ","])
def test_write_csv_refuses_a_str_cell_that_breaks_the_table(tmp_path, cell):
    with pytest.raises(ConfigError, match="'s'.*comma or line break"):
        write_csv(tmp_path / "out.csv", [("x", np.zeros(2)), ("s", np.array([cell, "c"]))])
    assert not list(tmp_path.iterdir())


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# a letters-only cell such as "nan" or "Inf" reads back as a float: CSV
# does not mark text, so the text column draws only cells that are not numbers
ROUND_TRIP_ROWS = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n),
    st.lists(st.text(string.ascii_letters, max_size=6).filter(_not_a_number),
             min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ROUND_TRIP_ROWS)
def test_round_trip_keeps_every_float64_bit_pattern_and_text_cell(tmp_path, rows):
    bits_a, bits_b, text = rows
    floats = {name: np.array(bits, dtype=np.uint64).view(np.float64)
              for name, bits in (("a", bits_a), ("b", bits_b))}
    path = tmp_path / "round.csv"
    write_csv(path, [*floats.items(), ("s", np.array(text, dtype=str))], command="qfluid rt")
    command, cols = read_csv(path)
    assert command == "qfluid rt" and list(cols) == ["a", "b", "s"]
    for name, want in floats.items():
        got = cols[name]
        nan = np.isnan(want)
        assert got.dtype == np.float64
        assert (np.isnan(got) == nan).all()
        assert got[~nan].tobytes() == want[~nan].tobytes()   # -0.0, subnormals, inf
    assert cols["s"].tolist() == text


@pytest.mark.parametrize("kwargs", [
    {"command": "qfluid demo -o a\nb.csv"},
    {"command": "qfluid demo -o a\rb.csv"},
    {"extra_comments": ("ok", "two\nlines")},
    {"names": ("x", "a\nb")},
    {"names": ("x", "a,b")},
], ids=["newline in command", "return in command", "newline in comment",
        "newline in name", "comma in name"])
def test_write_csv_refuses_header_text_that_breaks_the_table(tmp_path, kwargs):
    kwargs = dict(kwargs)
    names = kwargs.pop("names", ("x", "y"))
    with pytest.raises(ConfigError, match="line break"):
        write_csv(tmp_path / "out.csv", [(name, np.zeros(2)) for name in names], **kwargs)
    assert not list(tmp_path.iterdir())
    # a comma in the command or a comment is text, not a column
    write_csv(tmp_path / "ok.csv", [("x", np.zeros(2))], command="qfluid a,b",
              extra_comments=("c, d",))
    assert read_csv(tmp_path / "ok.csv")[0] == "qfluid a,b"


def test_read_csv_parses_a_numeric_body_to_float64(tmp_path):
    values = np.array([[-0.0, 5e-324, np.inf], [0.1, -1e300, np.nan]])
    path = tmp_path / "numbers.csv"
    write_csv(path, [(name, values[:, i]) for i, name in enumerate("abc")])
    text = path.read_text().splitlines()
    path.write_text("\n".join(["# note", text[0], text[1], "# inside the body", text[2]]) + "\n")
    command, cols = read_csv(path)
    assert command is None and list(cols) == ["a", "b", "c"]
    for i, name in enumerate("abc"):
        assert cols[name].dtype == np.float64
        assert cols[name].tobytes() == values[:, i].tobytes()


def test_read_csv_keeps_text_columns_as_str(tmp_path):
    path = tmp_path / "mixed.csv"
    write_csv(path, [("component", np.array(["n", "boundary_ok"])),
                     ("value", np.array(["1.5", "True"])), ("x", np.array([1.0, 2.0]))])
    _, cols = read_csv(path)
    assert cols["component"].tolist() == ["n", "boundary_ok"]
    assert cols["value"].tolist() == ["1.5", "True"]
    assert cols["x"].dtype == np.float64 and cols["x"].tolist() == [1.0, 2.0]


def test_read_csv_header_only_gives_empty_float_columns(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, [("a", np.zeros(0)), ("b", np.zeros(0))], command="qfluid x")
    command, cols = read_csv(path)
    assert command == "qfluid x"
    assert {name: (c.dtype, c.shape) for name, c in cols.items()} == {
        "a": (np.float64, (0,)), "b": (np.float64, (0,))}


@pytest.mark.parametrize("text, named", [
    ("a,b\n1,2\n3\n", "one value per header column"),
    ("a,b\n1,2\n3,x,4\n", "one value per header column"),
    ("a,b\n1,2,3\n", "rows hold 3 values, the header names 2"),
    ("a,a\n1,2\n", "distinct, non-empty"),
    ("a,,b\n1,2,3\n", "distinct, non-empty"),
    ("# only a comment\n", "distinct, non-empty"),
    ("", "distinct, non-empty"),
], ids=["short row", "long text row", "every row too wide", "repeated name", "empty name",
        "no header", "empty file"])
def test_read_csv_rejects_malformed_tables(tmp_path, text, named):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=named):
        read_csv(path)


def test_read_csv_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"a,b\n1,\xff\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        read_csv(path)
