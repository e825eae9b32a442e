"""Lagged design matrices and linear least-squares estimation.

Builds the restricted/unrestricted autoregressions every causality test
rests on. Every fit takes one route: an R-only QR of [X | y], one rank
check on the 1-norm condition number of R's leading blocks, then R^-1.
Every time-domain fit runs through a `LagEngine`: one QR of all lags of
a series' variables. When the engine certifies that this changes no
rank decision, two kinds of family, the full one (every variable) and
the drop-one ones (every variable but one), come for every target at
once from one inverse of that QR's lag block, and the smaller families
asked for together (each target's own history, its pairs) are fitted in
one batch. On an engine that does not certify, every family takes one
small QR that yields the residual sums and coefficients of all its
orders.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import RankDeficiencyError, ValidationError
from .timeseries import TimeSeriesMatrix, checked_value

__all__ = [
    "LagSpec",
    "OlsFit",
    "ResidualCovariance",
    "build_design",
    "ols_fit",
    "residual_covariance",
    "stability_check",
    "nested_scan",
    "ols_order_scan",
]

RANK_TOL = 1e-10  # least reciprocal 1-norm condition number of a design


@dataclass(frozen=True)
class LagSpec:
    """Which series predicts which: a target plus ordered (variable, lags) pairs.

    A predictor with lag count 0 contributes no columns; at least one
    predictor must have a positive lag count. The target may itself
    appear as a predictor (own history) but at most once.
    """

    target: int
    predictors: tuple

    def __init__(self, target: int, predictors: Sequence[Tuple[int, int]]):
        predictors = tuple(
            (checked_value(v, int, "predictor variable"),
             checked_value(lags, int, f"lag count of variable {v}"))
            for v, lags in predictors
        )
        if not predictors:
            raise ValidationError("LagSpec needs at least one predictor")
        seen = [v for v, _ in predictors]
        if len(set(seen)) != len(seen):
            raise ValidationError(f"duplicate predictor variables in {seen}")
        for v, lags in predictors:
            if lags < 0:
                raise ValidationError(f"negative lag count {lags} for variable {v}")
        if all(lags == 0 for _, lags in predictors):
            raise ValidationError("all lag counts are 0: design would have no columns")
        object.__setattr__(self, "target", checked_value(target, int, "target"))
        object.__setattr__(self, "predictors", predictors)

    @property
    def max_lag(self) -> int:
        return max(lags for _, lags in self.predictors)

    @property
    def n_columns(self) -> int:
        return sum(lags for _, lags in self.predictors)


@dataclass(frozen=True)
class OlsFit:
    """Least-squares result for one regression.

    coefficients are ordered predictor-major (all lags of the first
    predictor, then the second, ...), lags 1..L within a predictor.
    ``sigma2_mle`` is rss/m, the maximum-likelihood noise variance.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    rss: float
    m: int
    k: int

    @property
    def sigma2_mle(self) -> float:
        return self.rss / self.m


@dataclass(frozen=True)
class ResidualCovariance:
    """2x2 contemporaneous covariance of two residual series."""

    matrix: np.ndarray

    @property
    def var_x(self) -> float:
        return float(self.matrix[0, 0])

    @property
    def var_y(self) -> float:
        return float(self.matrix[1, 1])

    @property
    def cov_xy(self) -> float:
        return float(self.matrix[0, 1])


def build_design(ts: TimeSeriesMatrix, spec: LagSpec, start: int = None):
    """Assemble the lagged design matrix and response vector for ``spec``.

    Row t of a lag-l column holds that variable at time t-l. The
    response is the target series truncated to rows ``start..end``;
    ``start`` defaults to the spec's max lag and may be set larger so
    several competing models share one response window.
    """
    values = ts.values
    max_lag = spec.max_lag
    if start is None:
        start = max_lag
    if start < max_lag:
        raise ValidationError(f"start={start} is below the max lag {max_lag}")
    n = values.shape[0]
    if n <= start:
        raise ValidationError(
            f"series of length {n} too short for a window starting at row {start}"
        )
    for v, _ in spec.predictors:
        if not 0 <= v < values.shape[1]:
            raise ValidationError(f"predictor variable {v} out of range")
    if not 0 <= spec.target < values.shape[1]:
        raise ValidationError(f"target variable {spec.target} out of range")

    columns = [(v, ell) for v, lags in spec.predictors for ell in range(1, lags + 1)]
    return _lagged(values, start, columns), values[start:, spec.target]


def _lagged(values: np.ndarray, start: int, columns) -> np.ndarray:
    """Rows start.. of the lagged series, one column per (variable, lag)."""
    variables, lags = np.array(columns).T
    return values[np.arange(start, values.shape[0])[:, None] - lags, variables]


def ols_fit(design: np.ndarray, response: np.ndarray) -> OlsFit:
    """Solve min ||X b - y||^2 on the engine's route: QR of [X | y], then R^-1.

    The first column that breaks :func:`_fit_prefixes`' rank policy raises
    RankDeficiencyError naming it.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise ValidationError("design must be 2-D")
    m, k = X.shape
    if y.shape != (m,):
        raise ValidationError(f"response length {y.shape} != design rows {m}")
    if m < k:
        raise ValidationError(f"underdetermined system: {m} rows < {k} columns")
    if k == 0:
        raise ValidationError("design has no columns")

    _, _, coef, rank_error = _fit_prefixes(_qr_r(np.column_stack([X, y])), np.array([k]), str)
    if rank_error is not None:
        raise rank_error
    coef = coef[:, 0]
    residuals = y - X @ coef
    rss = float(residuals @ residuals)
    return OlsFit(coefficients=coef, residuals=residuals, rss=rss, m=m, k=k)


def residual_covariance(fit_x: OlsFit, fit_y: OlsFit) -> ResidualCovariance:
    """Contemporaneous sample covariance of two residual vectors (divisor m)."""
    u = fit_x.residuals
    v = fit_y.residuals
    if u.shape != v.shape:
        raise ValidationError(
            f"residual length mismatch: {u.shape[0]} vs {v.shape[0]}"
        )
    m = u.shape[0]
    matrix = np.array(
        [
            [float(u @ u), float(u @ v)],
            [float(v @ u), float(v @ v)],
        ]
    ) / m
    return ResidualCovariance(matrix=matrix)


def stability_check(coefficients) -> float:
    """Spectral radius of the companion matrix of an AR/VAR coefficient set.

    Accepts either a 1-D array of scalar AR coefficients (a_1..a_p) or a
    sequence of (k x k) lag matrices A_1..A_p. A radius below 1 means
    the fitted difference equation is stationary; callers may warn
    otherwise.
    """
    arr = [np.atleast_2d(np.asarray(a, dtype=float)) for a in _as_lag_list(coefficients)]
    k = arr[0].shape[0]
    for a in arr:
        if a.shape != (k, k):
            raise ValidationError("lag matrices must share one square shape")
    p = len(arr)
    companion = np.zeros((k * p, k * p))
    companion[:k, :] = np.hstack(arr)
    if p > 1:
        companion[k:, : k * (p - 1)] = np.eye(k * (p - 1))
    return float(np.abs(np.linalg.eigvals(companion)).max())


def _as_lag_list(coefficients):
    arr = np.asarray(coefficients, dtype=float)
    if arr.ndim == 1:
        return [np.array([[c]]) for c in arr]
    if arr.ndim == 2:
        # single lag matrix
        return [arr]
    return list(arr)


@dataclass(frozen=True)
class OrderScanEntry:
    """One member of a nested model family: order, size, coefficients, rss."""

    order: int
    k: int
    coefficients: np.ndarray
    rss: float
    m: int
    response_sq: float


# Orders 1..n of one family as arrays over the order axis; see nested_scan.
# ``curves`` holds the family's criterion rows once scored (selection fills
# it), so an engine's memo entry keeps a family's scan and scores together.
# ``coefficients`` is None only for a drop-one family asked for its residual
# sums alone (see LagEngine._families).
NestedScan = namedtuple("NestedScan", "coefficients k rss m response_sq rank_error curves")


def _qr_r(a: np.ndarray) -> np.ndarray:
    """R of a = QR (LAPACK dgeqrf; Q is never formed), min(rows, cols) rows."""
    return np.triu(scipy.linalg.lapack.dgeqrf(a, overwrite_a=True)[0][: min(a.shape)])


def _inverse(r: np.ndarray):
    """R^-1 of ``r``'s columns before its first zero pivot, and kappa_1 of each leading block.

    R_k^-1 is R^-1's leading block, so kappa_1(R_k) is cummax(colsum|R|)
    * cummax(colsum|R^-1|) at k-1.
    """
    pivots = np.diag(r) != 0.0
    k = r.shape[0] if pivots.all() else int(np.argmin(pivots))
    # LAPACK's triangular inverse, not a solve against the identity (a level-3
    # BLAS call that stalls on threads in pool workers); it rejects 0x0
    r_inv = scipy.linalg.lapack.dtrtri(r[:k, :k])[0] if k else r[:0, :0]
    kappa = np.maximum.accumulate(np.abs(r[:k, :k]).sum(axis=0))
    kappa *= np.maximum.accumulate(np.abs(r_inv).sum(axis=0))
    return r_inv, kappa


def _fit_prefixes(factor: np.ndarray, sizes: np.ndarray, label):
    """Least squares of y on the leading ``sizes`` (ascending) columns of X: the one rank policy.

    ``factor`` is R of [X | y], so its last column is Q'y. The first
    column with a zero pivot or 1/kappa_1 (see :func:`_inverse`) below
    RANK_TOL breaks the rank, and the sizes reaching it are dropped.
    Returns (sizes that fit, their rss, their coefficients in columns,
    zero below each size, None or a RankDeficiencyError naming the column
    by ``label(index)``).
    """
    width = factor.shape[1] - 1
    r_inv, kappa = _inverse(factor[:width, :width])
    k = r_inv.shape[0]
    passed = kappa * RANK_TOL <= 1.0  # NaN fails
    rank_error = None
    if k < width or not passed.all():
        k = k if passed.all() else int(np.argmin(passed))
        condition = kappa[k] if k < kappa.size else np.inf  # inf: a zero pivot
        rank_error = RankDeficiencyError(
            f"rank-deficient design: column {label(k)} depends on the columns before it "
            f"(1-norm condition number {condition:.3g} > {1 / RANK_TOL:g})", columns=[k])
        sizes = sizes[sizes <= k]
    tail = factor[width:, width]
    rss, coefficients = _prefix_fits(r_inv, factor[:width, width], tail @ tail, sizes)
    return sizes, rss, coefficients, rank_error


def _through_blocks(per_block):
    """Sums over lag blocks 1..n, for every order n at once: one product with a triangle of ones."""
    p = per_block.shape[0]
    return (np.tril(np.ones((p, p))) @ per_block.reshape(p, -1)).reshape(per_block.shape)


def _prefix_fits(r_inv, qty, tail_sq, sizes):
    """rss and coefficients of the leading ``sizes`` columns from R^-1, Q'y over R, and ``tail_sq``.

    ``tail_sq`` is the squared norm of the part of Q'y below R. Leading
    axes stack independent fits, each summed in the same order as alone.
    """
    ok = int(sizes[-1]) if sizes.size else 0
    # rss(k) = y'y - sum_{j<k} qty_j^2, summed from the far end so nothing
    # cancels: what the widest fit leaves, plus qty_j^2 for j >= k
    squares = np.concatenate([qty ** 2, np.asarray(tail_sq)[..., None]], axis=-1)
    rss = np.cumsum(squares[..., ::-1], axis=-1)[..., ::-1][..., sizes]
    coefficients = np.cumsum(r_inv[..., :ok, :ok] * qty[..., None, :ok], axis=-1)[..., sizes - 1]
    return rss, coefficients


class LagEngine:
    """One factorisation of a series' lagged design, shared by its model families.

    ``Z = [lags 1..p_max of every variable, lag-major | the responses]`` on
    the window starting at row ``start`` (default p_max) is factored once
    as Z = QR, keeping only R. Any design (a model family's, whose blocks
    share one order, or an F test's) has columns S of Z, so a QR of the
    slice ``R[:, S + [target's response]]`` is a QR of its own design with
    its response appended: the top-left block is the design's R, the last
    column is Q'y over it. Columns that lead Z read R as it is.

    Two kinds of family skip the slice QR and come, for every target at
    once, from one inverse R_L^-1 of the lag block R_L = R[:V p, :V p]
    (V variables, p = p_max): the *full* family (every variable) and the
    *drop-one* families (every variable but one, x). At order n the full
    design is Z's first k = nV columns, so its coefficients b are R_L^-1's
    leading block times Q'y. The drop-one design is that prefix without
    x's n columns D, and with Sigma = R_k^-1 R_k^-T the Schur complement
    gives it: rss = rss_full + b_D' Sigma_DD^-1 b_D and coefficients
    b_keep - Sigma_keep,D Sigma_DD^-1 b_D. Sigma_DD does not depend on the
    target, so every order, source and target is one batched solve. The
    families with fewer blocks (a target's own history, a pair) that are
    asked for together are fitted in one batch per width.

    These routes run only if the engine certifies them: m > V p (every
    order fits the window), no zero pivot in R_L, and kappa_1(R_L) (V p)^2
    <= 1 / RANK_TOL. A family's design at order n is a column subset of
    Z's order-n prefix, so by column-deletion interlacing (Golub & Van
    Loan, 4th ed., section 8.6) its kappa_2 is at most the prefix's;
    kappa_1 and kappa_2 differ by at most a factor of the column count,
    and leading blocks of R_L have kappa_1 at most R_L's. So every column
    prefix of every family passes :func:`_fit_prefixes`' rank policy, and
    these routes skip it without changing a rank decision. An engine that
    does not certify (a short window, near-collinear columns) scans each
    family by its own slice QR and rank check.

    ``variables`` (labels or indices; default all, ascending) fixes the
    engine's order. Blocks are always taken in that order, and each
    family is scanned once per engine, however its blocks are listed; its
    memo entry, the scan, also keeps the family's criterion scores.
    """

    def __init__(self, ts: TimeSeriesMatrix, p_max: int, start: int = None, variables=None):
        p_max = checked_value(p_max, int, "p_max")
        if p_max < 1:
            raise ValidationError("p_max must be >= 1")
        start = p_max if start is None else checked_value(start, int, "start")
        if start < p_max:
            raise ValidationError(f"start={start} is below p_max {p_max}")
        values = ts.values
        n = values.shape[0]
        if n <= start:
            raise ValidationError(
                f"series of length {n} too short for orders up to {p_max}"
            )
        if variables is None:
            variables = range(values.shape[1])
        self.variables = list(dict.fromkeys(ts.column(v) for v in variables))
        self._position = {v: i for i, v in enumerate(self.variables)}
        self.ts, self.p_max, self.m = ts, p_max, n - start
        lags = _lagged(values, start, [(v, ell) for ell in range(1, p_max + 1) for v in self.variables])
        self._responses = values[start:]
        self._r = _qr_r(np.hstack([lags, self._responses[:, self.variables]]))
        self._response_sq = {v: float(self._responses[:, v] @ self._responses[:, v]) for v in self.variables}
        self._memo = {}
        self._lag_inverse = None  # R_L^-1 once the engine certifies it, False if it does not

    def scan(self, target, block_vars: Sequence, orders: int = None) -> NestedScan:
        """Orders 1..min(p_max, (m - 1) // b) of the family, as :func:`nested_scan`.

        ``orders`` (default p_max) is the highest order the caller reads;
        a window with no more rows than its b*orders columns would
        interpolate the data and is a ValidationError.
        """
        target, blocks = self._family(target, block_vars)
        error = self._underdetermined(len(blocks), self.p_max if orders is None else orders)
        if error is not None:
            raise error
        return self._families([(target, blocks)])[0]

    def _family(self, target, block_vars):
        """(target, blocks) as engine columns, blocks in the engine's order; repeated or no blocks: ValidationError."""
        target = self.ts.column(target)
        blocks = sorted((self.ts.column(v) for v in block_vars), key=self._position.__getitem__)
        if not blocks or len(set(blocks)) != len(blocks):
            raise ValidationError(f"predictor blocks must be distinct and non-empty, got {blocks}")
        return target, blocks

    def _underdetermined(self, width: int, orders: int):
        """The ValidationError of a family of ``width`` blocks read up to ``orders``, or None if it fits."""
        if self.m <= width * orders:
            return ValidationError(
                f"underdetermined scan: {self.m} rows ≤ {width * orders} columns at order {orders}"
            )
        return None

    def _families(self, families, coefficients: bool = True) -> List[NestedScan]:
        """The scans of (target, blocks) ``families``, blocks distinct engine variables in any order.

        Each family must fit at least its first order (m > b). Scans are
        memoised; on a certified engine the missing ones come off R_L^-1
        or, per width, from one batch of slice QRs (see the class docstring).
        Without ``coefficients`` the drop-one families may come without
        them (None), as residual sums only.
        """
        keys = [(target, tuple(sorted(blocks, key=self._position.__getitem__))) for target, blocks in families]
        missing = [key for key in dict.fromkeys(keys)
                   if key not in self._memo or coefficients and self._memo[key].coefficients is None]
        nv = len(self.variables)
        if missing and self._certified():
            if any(len(blocks) == nv - 1 for _, blocks in missing):
                self._drop_one_families(self._lag_inverse, coefficients)
            for width in sorted({len(blocks) for _, blocks in missing if len(blocks) < nv - 1}):
                self._stacked([key for key in missing if len(key[1]) == width])
        for key in missing:
            if key not in self._memo:
                self._memo[key] = self._scan(*key)
        return [self._memo[key] for key in keys]

    def residual_covariance(self) -> np.ndarray:
        """Residual covariance (divisor m) of the responses on every lag column.

        Each response of the engine's variables, in the engine's order, is
        regressed on lags 1..p_max of all of them. With T the trailing
        block of R (the responses' rows and columns), the residuals'
        cross-products are T'T, so this is T'T / m.
        """
        width = len(self.variables) * self.p_max
        t = self._r[width:, width:]
        return t.T @ t / self.m

    def _scan(self, target: int, blocks: List[int]) -> NestedScan:
        b = len(blocks)
        n_fit = min(self.p_max, (self.m - 1) // b)
        columns = [(v, ell) for ell in range(n_fit) for v in blocks]
        kk, rss, coefficients, rank_error = self._fit(target, columns, b * np.arange(1, n_fit + 1))
        return self._nested(target, coefficients, kk, rss, rank_error)

    def _nested(self, target, coefficients, k, rss, rank_error=None) -> NestedScan:
        return NestedScan(coefficients, k, rss, self.m, self._response_sq[target], rank_error, {})

    def _certified(self) -> bool:
        """Whether the engine certifies its inverse and stacked routes (see the class docstring).

        The first call decides it and, if so, memoises every full family.
        """
        if self._lag_inverse is None:
            width = len(self.variables) * self.p_max
            self._lag_inverse = False
            if self.m > width:
                r_inv, kappa = _inverse(self._r[:width, :width])
                if r_inv.shape[0] == width and kappa[-1] * width ** 2 * RANK_TOL <= 1.0:
                    self._lag_inverse = r_inv
                    self._full_families(r_inv)
        return self._lag_inverse is not False

    def _full_families(self, r_inv):
        """Each target's full family: :func:`_prefix_fits` on the shared R_L^-1."""
        width = r_inv.shape[0]
        sizes = len(self.variables) * np.arange(1, self.p_max + 1)
        for pos, target in enumerate(self.variables):
            # contiguous, as in the slice QR's factor: the tail's dot sums in the same order
            qty = np.ascontiguousarray(self._r[:, width + pos])
            rss, coefficients = _prefix_fits(r_inv, qty[:width], qty[width:] @ qty[width:], sizes)
            self._memo[target, tuple(self.variables)] = self._nested(target, coefficients, sizes, rss)

    def _drop_one_families(self, r_inv, coefficients: bool):
        """Every (target, all but x) family, from the full ones by the Schur complement.

        Order n's Sigma sums r r' over the columns r of R_L^-1 in lag blocks
        1..n (see :func:`_through_blocks`). Sigma_DD of orders below p_max
        is padded to p_max x p_max with an identity block against a zero
        right-hand side, so one batched solve serves every order, source
        and target and gives every rss. Only with ``coefficients`` (which
        code-length scores and :meth:`scan` read, and the F test does not)
        are they formed, with the columns Sigma_:,D of one source at a
        time, so little more than the output is held; a family already
        memoised keeps its scores.
        """
        nv, p = len(self.variables), self.p_max
        width = nv * p
        full = [self._memo[target, tuple(self.variables)] for target in self.variables]
        b = np.stack([scan.coefficients for scan in full], axis=-1)  # (row, order, target)
        blocks = np.ascontiguousarray(r_inv.reshape(width, p, nv).transpose(1, 0, 2))  # (block, row, col)
        d = blocks.reshape(p, p, nv, nv).transpose(0, 2, 1, 3)  # (block, x, lag of x, col)
        padding = np.eye(p) * (np.arange(p) > np.arange(p)[:, None])[:, None, :]
        sigma_dd = _through_blocks(d @ d.transpose(0, 1, 3, 2)) + padding[:, None]  # (order, x, lag, lag)
        b_d = b.reshape(p, nv, p, nv).transpose(2, 1, 0, 3)  # (order, x, lag, target)
        g = np.linalg.solve(sigma_dd, b_d)
        # the added rss is a quadratic form, nothing to cancel
        added = np.maximum(np.einsum("nxit,nxit->xtn", b_d, g), 0.0)
        rss = np.stack([scan.rss for scan in full])[None] + added  # (x, target, order)
        b_rows = b.reshape(p, nv, p, nv)  # (lag, v, order, target)
        sizes = (nv - 1) * np.arange(1, p + 1)
        for x in range(nv):
            keep = [v for v in range(nv) if v != x]
            formed = [None] * nv
            if coefficients:
                correction = _through_blocks(blocks @ d[:, x].transpose(0, 2, 1)) @ g[:, x]  # (order, row, target)
                correction = correction.reshape(p, p, nv, nv)[:, :, keep].transpose(1, 2, 0, 3)
                formed = (b_rows[:, keep] - correction).transpose(3, 0, 1, 2)  # (target, lag, v != x, order)
                formed = np.ascontiguousarray(formed).reshape(nv, -1, p)
            family = tuple(self.variables[v] for v in keep)
            for pos, target in enumerate(self.variables):
                known = self._memo.get((target, family))
                self._memo[target, family] = NestedScan(
                    formed[pos], sizes, rss[x, pos], self.m, self._response_sq[target], None,
                    {} if known is None else known.curves)

    def _stacked(self, keys):
        """Memoise families of one width together, as :meth:`_scan` on a certified engine.

        Each family takes the same slice of R, QR and triangular inverse,
        with no rank check to make; the prefix sums of all of them are one
        batched pass. The QRs stay one LAPACK call per slice: numpy's
        stacked ``qr`` is no faster on these sizes and would page in a
        second LAPACK.
        """
        nv, p = len(self.variables), self.p_max
        k = len(keys[0][1]) * p
        position = np.array([[self._position[v] for v in (*blocks, target)] for target, blocks in keys])
        lagged = np.arange(p)[:, None] * nv + position[:, None, :-1]  # (family, lag, block)
        index = np.hstack([lagged.reshape(len(keys), k), nv * p + position[:, -1:]])
        factors = np.stack([_qr_r(self._r[:, columns]) for columns in index])
        r_inv = np.stack([scipy.linalg.lapack.dtrtri(factor[:k, :k])[0] for factor in factors])
        sizes = len(keys[0][1]) * np.arange(1, p + 1)
        rss, coefficients = _prefix_fits(r_inv, factors[:, :k, k], factors[:, k, k] ** 2, sizes)
        for key, family_rss, family_coefficients in zip(keys, rss, coefficients):
            self._memo[key] = self._nested(key[0], family_coefficients, sizes, family_rss)

    def _fit(self, target: int, columns, sizes: np.ndarray):
        """:func:`_fit_prefixes` on Z's (variable, lag - 1) ``columns``: the one slice-and-QR step."""
        width_z = len(self.variables)
        index = [ell * width_z + self._position[v] for v, ell in columns]
        factor = self._r[:, index + [width_z * self.p_max + self._position[target]]]
        if index != list(range(len(index))):
            factor = _qr_r(factor)
        return _fit_prefixes(
            factor, sizes, lambda j: f"{self.ts.labels[columns[j][0]]}.lag{columns[j][1] + 1}"
        )


def nested_scan(
    ts: TimeSeriesMatrix,
    target: int,
    block_vars: Sequence[int],
    p_max: int,
    start: int = None,
) -> NestedScan:
    """Fit the shared-order family {order n: every block gets lags 1..n}.

    Columns are interleaved lag-major in the order of ``block_vars``, so
    order n is a column prefix and one QR serves every order on the
    window starting at ``start`` (default p_max), as :func:`_fit_prefixes`
    says. The family stops before its first rank-broken order, whose error
    ``rank_error`` holds (None when all p_max orders fit). This is a
    one-family :class:`LagEngine`.
    """
    return LagEngine(ts, p_max, start, [*block_vars, target]).scan(target, block_vars)


def ols_order_scan(
    ts: TimeSeriesMatrix,
    target: int,
    block_vars: Sequence[int],
    p_max: int,
    start: int = None,
) -> List[OrderScanEntry]:
    """:func:`nested_scan` as one entry per order, raising if rank-broken.

    Coefficients are put back in the predictor-major order used by
    :func:`build_design`.
    """
    scan = nested_scan(ts, target, block_vars, p_max, start)
    if scan.rank_error is not None:
        raise scan.rank_error
    b = len(block_vars)
    return [
        OrderScanEntry(
            order=order, k=b * order,
            coefficients=scan.coefficients[:b * order, order - 1].reshape(order, b).T.ravel(),
            rss=float(scan.rss[order - 1]), m=scan.m, response_sq=scan.response_sq,
        )
        for order in range(1, p_max + 1)
    ]
