"""Core multichannel time-series container, CSV ingestion, validation.

All analysis modules consume :class:`TimeSeriesMatrix`. Instances are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

__all__ = [
    "TimeSeriesMatrix",
    "load_csv",
    "save_csv",
    "demean",
]


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """A real-valued recording: rows are time points, columns are variables.

    Parameters
    ----------
    values : ndarray, shape (n_samples, n_variables)
        Finite real numbers, dimensionless.
    labels : sequence of str
        One unique name per column.
    sample_rate_hz : float, optional
        Cycles per second. When absent, frequency-domain outputs fall
        back to a nominal 1.0 samples/second axis.
    """

    values: np.ndarray
    labels: tuple
    sample_rate_hz: Optional[float] = None

    def __init__(self, values, labels=None, sample_rate_hz=None):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(f"values must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"values must be at least 1x1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValidationError(
                f"non-finite entry at row {bad[0]}, column {bad[1]}"
            )
        if labels is None:
            labels = _default_labels(arr.shape[1])
        labels = tuple(str(name) for name in labels)
        if len(labels) != arr.shape[1]:
            raise ValidationError(
                f"{len(labels)} labels for {arr.shape[1]} columns"
            )
        if len(set(labels)) != len(labels):
            raise ValidationError("labels must be unique")
        sample_rate_hz = checked_sample_rate(sample_rate_hz)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sample_rate_hz", sample_rate_hz)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]

    def column(self, name_or_index) -> int:
        """Resolve a variable reference (label or index) to a column index."""
        if isinstance(name_or_index, str):
            if name_or_index in self.labels:
                return self.labels.index(name_or_index)
            try:
                name_or_index = int(name_or_index)
            except ValueError:
                raise ValidationError(
                    f"unknown variable {name_or_index!r}; have {list(self.labels)}"
                ) from None
        idx = checked_value(name_or_index, int, "variable index")
        if not 0 <= idx < self.n_variables:
            raise ValidationError(
                f"variable index {idx} out of range [0, {self.n_variables - 1}]"
            )
        return idx


def _default_labels(n: int) -> tuple:
    return tuple(f"v{i}" for i in range(n))


def distinct_columns(ts: TimeSeriesMatrix, variables=None) -> None:
    """Reject a constant column, or two equal columns, among ``variables`` (default all).

    Either makes every lagged design that holds it rank-deficient, which
    no fit can repair. Checked before any factorisation, it is an input
    error that names the variables by label, not a numerical failure
    that names a design column.
    """
    seen = {}
    for v in range(ts.n_variables) if variables is None else variables:
        column = ts.values[:, v]
        if (column == column[0]).all():
            raise ValidationError(f"variable {ts.labels[v]} is constant: every value is {float(column[0])!r}")
        key = (column + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0
        if key in seen:
            raise ValidationError(f"variables {ts.labels[seen[key]]} and {ts.labels[v]} are identical")
        seen[key] = v


def checked_value(value, kind, name: str, nullable: bool = False):
    """``value`` as ``kind`` (int, float, str or bool), or a ValidationError naming ``name``.

    The one rule for a value from a file or a caller: None passes only if
    ``nullable``; a bool or a string is never a number; an int takes a
    float only when it is whole; overflow is an error. Nothing is truncated.
    """
    if type(value) is kind or (value is None and nullable):
        return value
    if kind in (str, bool):
        if isinstance(value, kind):
            return value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if kind is float:
                return float(value)
            if isinstance(value, numbers.Integral) or float(value).is_integer():
                return int(value)
        except OverflowError:
            pass
    wanted = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}[kind]
    raise ValidationError(f"{name} must be {wanted}, got {value!r}")


def checked_sample_rate(sample_rate_hz) -> Optional[float]:
    """A sample rate as a positive finite float; None means no rate."""
    sample_rate_hz = checked_value(sample_rate_hz, float, "sample_rate_hz", nullable=True)
    if sample_rate_hz is not None and not (sample_rate_hz > 0 and np.isfinite(sample_rate_hz)):
        raise ValidationError("sample_rate_hz must be positive and finite")
    return sample_rate_hz


def _raise_first_bad_cell(path, rows, first_lineno: int) -> None:
    """Raise on the first row of the wrong width or cell float() rejects, in file order."""
    n_cols = len(rows[0])
    for lineno, cells in enumerate(rows, start=first_lineno):
        if len(cells) != n_cols:
            raise ValidationError(
                f"{path}: row {lineno} has {len(cells)} cells, expected {n_cols}"
            )
        for colno, cell in enumerate(cells):
            try:
                if "_" in cell:  # float() reads "1_0" as 10.0
                    raise ValueError(cell)
                float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: non-numeric cell at row {lineno}, column {colno}: {cell.strip()!r}"
                ) from None


def load_csv(path, has_header: bool = True, sample_rate_hz: Optional[float] = None) -> TimeSeriesMatrix:
    """Read a comma-separated file into a :class:`TimeSeriesMatrix`.

    Every cell must parse as a finite decimal real number (optional
    exponent; no digit-group underscores); rows must all have the same
    number of cells. LF and CRLF endings are both accepted, and a leading
    UTF-8 byte-order mark is skipped. With
    ``has_header`` the first row supplies labels, otherwise labels are
    generated as ``v0, v1, ...``. Rows in messages are file lines,
    counted from 1.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            raw_lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    lines = [ln.rstrip("\r") for ln in raw_lines]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValidationError(f"{path}: empty file")

    labels = None
    start = 0
    if has_header:
        labels = [cell.strip() for cell in lines[0].split(",")]
        start = 1
        if not lines[start:]:
            raise ValidationError(f"{path}: header but no data rows")

    rows = [line.split(",") for line in lines[start:]]
    n_cols = len(rows[0])
    # numpy's string cast reads a cell exactly as float() does, but it names
    # no bad cell: when it cannot run or fails, the rows are walked to raise.
    try:
        if any(len(cells) != n_cols for cells in rows) or "_" in "".join(lines[start:]):
            raise ValueError("ragged rows or a digit-group underscore")
        values = np.array(rows, dtype=float)
    except ValueError:
        _raise_first_bad_cell(path, rows, start + 1)
        raise
    if labels is not None and len(labels) != n_cols:
        raise ValidationError(
            f"{path}: header has {len(labels)} names for {n_cols} columns"
        )
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        label = (labels or _default_labels(n_cols))[col]
        raise ValidationError(
            f"{path}: non-finite cell at row {start + 1 + row}, column {label}: "
            f"{rows[row][col].strip()!r}"
        )
    return TimeSeriesMatrix(values, labels, sample_rate_hz)


def save_csv(ts: TimeSeriesMatrix, path, header: bool = True) -> None:
    """Write a matrix as CSV with 17 significant digits (lossless for doubles).

    A header label holding a comma, CR or LF, or leading or trailing
    whitespace, would not read back as written (:func:`load_csv` splits
    on commas and strips cells), so it is refused before the file opens.
    """
    for label in ts.labels if header else ():
        if label != label.strip() or any(c in label for c in ",\r\n"):
            raise ValidationError(f"label {label!r} cannot be written to CSV: it holds a comma, "
                                  "CR or LF, or leading or trailing whitespace")
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(ts.labels) + "\n")
        for row in ts.values:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def demean(ts: TimeSeriesMatrix) -> TimeSeriesMatrix:
    """Subtract each column's mean; returns a new matrix."""
    centred = ts.values - ts.values.mean(axis=0)
    return TimeSeriesMatrix(centred, ts.labels, ts.sample_rate_hz)
