import numpy as np
import pytest

from qruler.output import CSV_BLOCK_ROWS, write_csv


def per_value_csv(header, columns):
    """Oracle: each value formatted on its own, '{:.16e}' for a float and str() otherwise."""

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return "{:.16e}".format(float(value))
        return str(value)

    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def test_special_values_match_the_per_value_formatter(tmp_path):
    floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, -1.0 / 3.0])
    columns = [floats, np.arange(-3, 5), np.array([True, False] * 4), floats.astype(np.float32)]
    header = ["x", "i", "b", "x32"]
    path = tmp_path / "special.csv"
    write_csv(str(path), header, columns)
    text = path.read_text(encoding="utf-8")
    assert text == per_value_csv(header, columns)
    assert text.splitlines()[1] == "-0.0000000000000000e+00,-3,True,-0.0000000000000000e+00"


def test_rows_across_blocks_match_the_per_value_formatter(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    columns = [rng.normal(size=n), np.arange(n), rng.normal(size=n) * 1e-300]
    path = tmp_path / "long.csv"
    write_csv(str(path), ["a", "j", "c"], columns)
    assert path.read_text(encoding="utf-8") == per_value_csv(["a", "j", "c"], columns)


def test_no_rows_writes_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ["a", "b"], [np.array([]), np.array([])])
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [np.zeros(3), np.zeros(4)])
