import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from granger_mdl.bench import builtin_3node, simulate
from granger_mdl.errors import ValidationError
from granger_mdl.timeseries import (
    TimeSeriesMatrix,
    checked_value,
    demean,
    distinct_columns,
    load_csv,
    save_csv,
    validate,
)

from oracles import ar2_autocovariance0


def test_load_csv_basic(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n")
    ts = load_csv(path)
    assert ts.labels == ("a", "b")
    np.testing.assert_array_equal(ts.values, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_crlf_and_no_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"1,2\r\n3,4\r\n")
    ts = load_csv(path, has_header=False)
    assert ts.labels == ("v0", "v1")
    np.testing.assert_array_equal(ts.values, [[1, 2], [3, 4]])


def test_load_csv_exponent_notation(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x\n1e-3\n-2.5E+2\n")
    ts = load_csv(path)
    np.testing.assert_allclose(ts.values[:, 0], [1e-3, -250.0])


def test_load_csv_non_numeric_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\nx,4\n")
    with pytest.raises(ValidationError, match="row 3, column 0"):
        load_csv(path)


def test_load_csv_rejects_digit_group_underscores(tmp_path):
    # Python's float() reads "1_0" as 10.0; a CSV cell is a plain decimal
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n1_0,4\n")
    with pytest.raises(ValidationError, match="non-numeric cell at row 3, column 0: '1_0'"):
        load_csv(path)


@pytest.mark.parametrize("header, cell, where", [
    (True, "nan", "row 3, column b: 'nan'"),
    (True, " -inf", "row 3, column b: '-inf'"),
    (False, "NaN", "row 2, column v1: 'NaN'"),
])
def test_load_csv_non_finite_names_file_line_and_label(tmp_path, header, cell, where):
    # file lines count from 1, as in the other load_csv messages
    path = tmp_path / "bad.csv"
    path.write_text(("a,b\n" if header else "") + f"1,2\n3,{cell}\n5,6\n")
    with pytest.raises(ValidationError, match=f"non-finite cell at {where}"):
        load_csv(path, has_header=header)


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_csv(path)


def test_load_csv_ragged_rows_with_the_right_cell_count(tmp_path):
    # 2 + 1 + 3 cells are as many as three full rows: each row is counted
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n4,5,6\n")
    with pytest.raises(ValidationError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: row 3 has 1 cells, expected 2"


EDGE_CELLS = [" 1.5 ", "\xa01.5\xa0", "\u0661\u0662", "+1", "-0", "1.", ".5", "1e999", "1e-400",
              "infinity", "NaN", "1_0", "1__0", "0x1p3", "1.5j", ""]


@pytest.mark.parametrize("cell", EDGE_CELLS)
def test_load_csv_reads_a_cell_as_float_does(cell, tmp_path):
    # the cell as float() reads it, bit for bit, except that a digit-group
    # underscore is no number and a non-finite value is named by line and label
    path = tmp_path / "edge.csv"
    path.write_text(f"a,b\n1,2\n3,{cell}\n5,6\n", encoding="utf-8")
    try:
        value = float(cell) if "_" not in cell else None
    except ValueError:
        value = None
    if value is None:
        expected = f"{path}: non-numeric cell at row 3, column 1: {cell.strip()!r}"
    elif not math.isfinite(value):
        expected = f"{path}: non-finite cell at row 3, column b: {cell.strip()!r}"
    else:
        ts = load_csv(path)
        assert ts.values[1, 1].tobytes() == np.float64(value).tobytes()
        np.testing.assert_array_equal(np.delete(ts.values.ravel(), 3), [1, 2, 3, 5, 6])
        return
    with pytest.raises(ValidationError) as err:
        load_csv(path)
    assert str(err.value) == expected


@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[-0.0, 5e-324, -2.2250738585072014e-308],
                   [1.7976931348623157e308, -1.7976931348623157e308, 0.0]]))
def test_csv_round_trip_is_bit_exact_for_any_finite_doubles(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("round_trip") / "values.csv"
    save_csv(TimeSeriesMatrix(values), path)
    assert load_csv(path).values.tobytes() == values.tobytes()


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_header_width_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2\n")
    with pytest.raises(ValidationError, match="header"):
        load_csv(path)


def test_round_trip_is_bit_exact(tmp_path):
    ts = simulate(builtin_3node(), seed=11)
    path = tmp_path / "sim.csv"
    save_csv(ts, path)
    back = load_csv(path)
    assert back.labels == ts.labels
    np.testing.assert_array_equal(back.values, ts.values)


def test_constructor_rejects_nan():
    with pytest.raises(ValidationError, match="row 1, column 0"):
        TimeSeriesMatrix([[1.0], [np.nan]], ["a"])


def test_constructor_rejects_duplicate_labels():
    with pytest.raises(ValidationError, match="unique"):
        TimeSeriesMatrix([[1.0, 2.0]], ["a", "a"])


def test_constructor_rejects_label_count_mismatch():
    with pytest.raises(ValidationError):
        TimeSeriesMatrix([[1.0, 2.0]], ["a"])


def test_constructor_rejects_bad_sample_rate():
    with pytest.raises(ValidationError):
        TimeSeriesMatrix([[1.0]], ["a"], sample_rate_hz=-5)
    for rate in (True, "200"):
        with pytest.raises(ValidationError, match="sample_rate_hz must be a number"):
            TimeSeriesMatrix([[1.0]], ["a"], sample_rate_hz=rate)


@pytest.mark.parametrize("value, kind, expected", [
    (3, int, 3),
    (3.0, int, 3),
    pytest.param(1e300, int, int(1e300), id="1e300-int"),
    (np.int64(3), int, 3),
    (np.float64(3.0), int, 3),
    (2, float, 2.0),
    (np.float32(0.5), float, 0.5),
    (np.int32(-4), float, -4.0),
    ("low", str, "low"),
    (False, bool, False),
])
def test_checked_value_keeps_every_number_whole(value, kind, expected):
    result = checked_value(value, kind, "key")
    assert result == expected and type(result) is kind


@pytest.mark.parametrize("value, kind, wanted", [
    (2.7, int, "an integer"),
    (float("inf"), int, "an integer"),
    (True, int, "an integer"),
    (None, int, "an integer"),
    ("3", int, "an integer"),
    (True, float, "a number"),
    (np.bool_(True), float, "a number"),
    ("0.05", float, "a number"),
    pytest.param(10**400, float, "a number", id="10**400-float"),
    ([1.0], float, "a number"),
    (5, str, "a string"),
    (None, str, "a string"),
    (0, bool, "true or false"),
    ("no", bool, "true or false"),
])
def test_checked_value_rejects_and_names_the_key(value, kind, wanted):
    with pytest.raises(ValidationError, match=f"^key must be {wanted}, got "):
        checked_value(value, kind, "key")


def test_checked_value_null_only_where_allowed():
    assert checked_value(None, float, "key", nullable=True) is None
    assert checked_value(2, float, "key", nullable=True) == 2.0
    with pytest.raises(ValidationError, match="got None"):
        checked_value(None, float, "key")


def test_values_are_immutable():
    ts = TimeSeriesMatrix([[1.0], [2.0]], ["a"])
    with pytest.raises(ValueError):
        ts.values[0, 0] = 3.0


def test_column_lookup():
    ts = TimeSeriesMatrix([[1.0, 2.0]], ["a", "b"])
    assert ts.column("b") == 1
    assert ts.column(0) == 0
    with pytest.raises(ValidationError):
        ts.column("zzz")
    with pytest.raises(ValidationError):
        ts.column(7)
    assert ts.column(np.int64(1)) == 1 and ts.column("1") == 1
    for ref in (0.9, True):
        with pytest.raises(ValidationError, match="variable index must be an integer"):
            ts.column(ref)


def test_validate_constant_series():
    report = validate(TimeSeriesMatrix([[5.0], [5.0], [5.0]], ["a"]))
    assert report.per_variable_mean == (5.0,)
    assert report.per_variable_variance == (0.0,)
    assert report.finite_ok
    assert report.length == 3


def test_validate_unbiased_variance():
    report = validate(TimeSeriesMatrix([[0.0], [1.0]], ["a"]))
    assert report.per_variable_mean == (0.5,)
    assert report.per_variable_variance == (0.5,)


def test_validate_does_not_modify_input():
    ts = TimeSeriesMatrix([[1.0, 2.0], [3.0, 4.0]], ["a", "b"])
    before = ts.values.copy()
    validate(ts)
    np.testing.assert_array_equal(ts.values, before)


@pytest.mark.parametrize("columns, message", [
    ({"a": [1.0, 2.0, 3.0], "b": [4.0, 4.0, 4.0]}, "variable b is constant"),
    ({"a": [1.0, -0.0, 3.0], "b": [2.0, 5.0, 1.0], "c": [1.0, 0.0, 3.0]},
     "variables a and c are identical"),
])
def test_distinct_columns_names_the_labels(columns, message):
    ts = TimeSeriesMatrix(np.column_stack(list(columns.values())), list(columns))
    with pytest.raises(ValidationError, match=message):
        distinct_columns(ts)
    distinct_columns(ts, [0])  # only the variables asked for are checked


def test_simulated_node1_variance_matches_long_run_oracle():
    # long-run stationary variance of the driving AR(2) node at fixed
    # noise variance 0.25, cross-checked against a 100k-sample run
    spec = builtin_3node()
    spec = type(spec)(
        n_nodes=3,
        coefficients=spec.coefficients,
        noise_variances=[0.25, 0.25, 0.25],
        total_len=100_700,
        burn_in=700,
        initial_values=spec.initial_values,
    )
    report = validate(simulate(spec, seed=5))
    expected = ar2_autocovariance0(1.5, -0.9, 0.25)
    assert report.per_variable_variance[0] == pytest.approx(expected, rel=0.2)


def test_demean_centres_columns():
    ts = TimeSeriesMatrix([[1.0, 10.0], [3.0, 30.0]], ["a", "b"])
    centred = demean(ts)
    np.testing.assert_allclose(centred.values.mean(axis=0), [0.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(ts.values, [[1.0, 10.0], [3.0, 30.0]])
