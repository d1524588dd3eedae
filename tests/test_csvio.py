import numpy as np
import pytest

from qfluid.csvio import read_csv, write_csv

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


@pytest.mark.parametrize("column", [np.array([True, False]),
                                    np.array([1 + 2j, 0j]),
                                    np.array([None, 1.0], dtype=object)],
                         ids=["bool", "complex", "object"])
def test_write_csv_rejects_other_dtypes(tmp_path, column):
    with pytest.raises(TypeError, match="'flag'"):
        write_csv(tmp_path / "out.csv", [("x", np.zeros(2)), ("flag", column)])
    assert not list(tmp_path.iterdir())


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "out.csv", [("a", np.zeros(3)), ("b", np.zeros(2))])
    assert not list(tmp_path.iterdir())
