import numpy as np
import pytest

from granger_mdl.bench import builtin_3node, simulate
from granger_mdl.errors import ValidationError
from granger_mdl.timeseries import (
    TimeSeriesMatrix,
    checked_value,
    demean,
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


def test_load_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_csv(path)


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
