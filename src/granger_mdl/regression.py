"""Lagged design matrices and linear least-squares estimation.

Builds the restricted/unrestricted autoregressions every causality test
rests on. Every fit takes one route: an R-only QR of [X | y], one rank
check on the 1-norm condition number of R's leading blocks, then R^-1.
A single design (`ols_fit`'s, an F test's) takes it as it stands; every
model family, one of four kinds (own, pair, drop-one, full) named by
index, is fitted by a `LagEngine` from one QR of all lags of a series'
variables, kind by kind as arrays.
"""

from __future__ import annotations

import mmap
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

    _, coef, rank_error = _fit_prefixes(_qr_r(np.column_stack([X, y])), np.array([k]), str)
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


# A family's scan as LagEngine.scan returns it: ``coefficients`` (trial, row, order), zero below each order's
# columns, ``rss`` (trial, order), NaN past the orders fitted, and the first rank-broken order's error or None. A
# kind's memo (``_Scans``) adds leading (target, source) axes and ``held``: 1 the rss, 2 the coefficients too.
NestedScan = namedtuple("NestedScan", "coefficients rss rank_error")
_Scans = namedtuple("_Scans", "coefficients rss rank_error held")


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
    Returns (the rss of the sizes that fit, their coefficients in columns,
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
    return _prefix_fits(r_inv, factor[:width, width], tail @ tail, sizes) + (rank_error,)


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
    products = r_inv[..., :ok, :ok] * qty[..., None, :ok]
    coefficients = np.cumsum(products, axis=-1, out=products)[..., sizes - 1]
    return rss, coefficients


class LagEngine:
    """One factorisation of each series' lagged design, shared by its model families.

    ``ts`` is one series or a stack of series with one shape and one set
    of labels, such as the trials of a Monte Carlo chunk. The stack is the
    engine's leading trial axis: R, R_L^-1 and every memoised array have
    it, of length 1 for one series, and each trial is summed in the same
    order as alone.

    A family regresses a target on lags 1..n of its blocks at every order
    n. ``variables`` (labels or indices; default all, ascending) fixes the
    engine's V positions, in which blocks are taken, and a family is one of
    four kinds named by (kind, target, source) in positions: ``own`` (t,
    [t]), ``pair`` (t, [t, s]), ``drop`` (t, all but s; s may be t) and
    ``full`` (t, all); own and full have source 0. Kinds that coincide at
    V <= 3 are one entry (see :meth:`_kind`). Each kind's scans are memoised
    as arrays indexed by (target, source) (``_Scans``); scores are not.

    ``Z = [lags 1..p_max of every variable, lag-major | the responses]`` on
    the window starting at row p_max is factored once as Z = QR, keeping
    only R. A family's design (its blocks share one order) has columns S
    of Z, so a QR of the slice ``R[:, S + [target's response]]`` is a QR
    of its own design with its response appended: the top-left block is
    the design's R, the last column is Q'y over it.

    The full and drop-one kinds come, for every target at once, from one
    inverse R_L^-1 of the lag block R_L = R[:V p, :V p] (p = p_max). At
    order n the full design is Z's first k = nV columns, so its
    coefficients b are R_L^-1's leading block times Q'y. The drop-one
    design is that prefix without the source x's n columns D, and with
    Sigma = R_k^-1 R_k^-T the Schur complement gives it: rss = rss_full +
    b_D' Sigma_DD^-1 b_D and coefficients b_keep - Sigma_keep,D Sigma_DD^-1
    b_D. Sigma_DD does not depend on the target, so every order, source,
    target and trial is one batched solve. The own and pair families asked
    for together are fitted in one batch of slice QRs.

    These routes run only if every trial certifies them, which the engine
    decides when it is built: m > V p (every order fits the window), no
    zero pivot in R_L, and kappa_1(R_L) (V p)^2 <= 1 / RANK_TOL. A
    family's design at order n is a column subset of Z's order-n prefix,
    so by column-deletion interlacing (Golub & Van Loan, 4th ed., section
    8.6) its kappa_2 is at most the prefix's; kappa_1 and kappa_2 differ
    by at most a factor of the column count, and leading blocks of R_L
    have kappa_1 at most R_L's. So every column prefix of every family
    passes :func:`_fit_prefixes`' rank policy, and these routes skip it
    without changing a rank decision. A one-series engine that does not
    certify (a short window, near-collinear columns) scans each family by
    its own slice QR and rank check; a stack that does not certify scans
    nothing (ValidationError), and is decided series by series through
    :meth:`_groups`.
    """

    def __init__(self, ts, p_max: int, variables=None):
        series = [ts] if isinstance(ts, TimeSeriesMatrix) else list(ts)
        ts = series[0]
        if any(s.values.shape != ts.values.shape or s.labels != ts.labels for s in series):
            raise ValidationError("the series of a stack must share one shape and one set of labels")
        p_max = checked_value(p_max, int, "p_max")
        if p_max < 1:
            raise ValidationError("p_max must be >= 1")
        n = ts.n_samples
        if n <= p_max:
            raise ValidationError(
                f"series of length {n} too short for orders up to {p_max}"
            )
        if variables is None:
            variables = range(ts.n_variables)
        self.variables = list(dict.fromkeys(ts.column(v) for v in variables))
        self._position = {v: i for i, v in enumerate(self.variables)}
        nv = len(self.variables)
        self._width = {"own": 1, "pair": 2, "drop": nv - 1, "full": nv}  # blocks per kind
        self.ts, self.p_max, self.m, self._series = ts, p_max, n - p_max, series
        columns = [(v, ell) for ell in range(1, p_max + 1) for v in self.variables]
        responses = [s.values[p_max:] for s in series]
        # one series at a time, so that one Z is held at once
        self._r = np.array([_qr_r(np.hstack([_lagged(s.values, p_max, columns), r[:, self.variables]]))
                            for s, r in zip(series, responses)])
        self._response_sq = np.array([[r[:, v] @ r[:, v] for v in self.variables] for r in responses]).T
        self._memo = {}  # kind: _Scans
        self._schur = None  # what the drop-one coefficients need (see _drop_one_families)
        self._split = None
        self._lag_inverse = None  # R_L^-1 if every trial certifies the routes above, which memoise every full family
        width = nv * p_max
        if self.m > width:
            inverses = [_inverse(r) for r in self._r[:, :width, :width]]
            if all(r_inv.shape[0] == width and kappa[-1] * width ** 2 * RANK_TOL <= 1.0
                   for r_inv, kappa in inverses):
                self._lag_inverse = np.array([r_inv for r_inv, _ in inverses])
                # the full families off R_L^-1; Q'y as (target, trial, row), contiguous: the tail sums as in a slice QR
                qty = np.ascontiguousarray(self._r[:, :, width:].transpose(2, 0, 1))
                tail_sq = np.array([[q[width:] @ q[width:] for q in target_qty] for target_qty in qty])
                full = self._scans("full")
                for pos in range(nv):
                    full.rss[pos, 0], full.coefficients[pos, 0] = _prefix_fits(
                        self._lag_inverse, qty[pos, :, :width], tail_sq[pos], nv * np.arange(1, p_max + 1))
                full.held[:] = 2

    def scan(self, target, block_vars: Sequence) -> NestedScan:
        """The family {order n: every block gets lags 1..n}: its memo entry, with the trial axis.

        Orders 1..p_max are fitted, stopping before the first rank-broken
        one, whose error ``rank_error`` holds (the rss past it are NaN). A
        window with no more rows than the b*p_max columns at p_max would
        interpolate the data and is a ValidationError, as is a block set of
        no kind (see :meth:`_index`).
        """
        kind, target, source = self._index(target, block_vars)
        error = self._underdetermined(self._width[kind], self.p_max)
        if error is not None:
            raise error
        (rss,), (coefficients,), (rank_error,) = self._families(kind, [target], [source])
        return NestedScan(coefficients, rss, rank_error)

    def _index(self, target, block_vars):
        """(kind, target, source) of the family (target, block_vars), by label or index; no kind: ValidationError."""
        block_vars = list(block_vars)
        t = self._position.get(self.ts.column(target))
        blocks = [self._position.get(self.ts.column(v)) for v in block_vars]
        nv, width = len(self.variables), len(blocks)
        if (t is not None and None not in blocks and len(set(blocks)) == width > 0
                and (width >= nv - 1 or width <= 2 and t in blocks)):
            return self._kind(width, t, sum(blocks))
        labels = [self.ts.labels[v] for v in self.variables]
        raise ValidationError(f"no model family has target {target!r} and blocks {block_vars!r}: distinct blocks are "
                              f"the target's own, a pair with it, or all or all but one of {labels}")

    def _kind(self, width: int, targets, sums):
        """(kind, targets, sources) of the families of ``width`` blocks whose positions sum to ``sums``, elementwise."""
        nv = len(self.variables)
        # the routes by width (V - 1 blocks leave the source out); where two kinds coincide, the later one
        kind = {1: "own", 2: "pair", nv - 1: "drop", nv: "full"}[width]
        return kind, targets, {"drop": nv * (nv - 1) // 2 - sums, "full": 0 * targets}.get(kind, sums - targets)

    def _underdetermined(self, width: int, orders: int):
        """The ValidationError of a family of ``width`` blocks read up to ``orders``, or None if it fits."""
        if self.m <= width * orders:
            return ValidationError(
                f"underdetermined scan: {self.m} rows ≤ {width * orders} columns at order {orders}"
            )
        return None

    def _groups(self):
        """(trials, engine) pairs that cover the engine's trials, each engine one the routes can serve.

        The engine itself if it holds one series or every trial certifies;
        else one engine per trial, since the rank-checked route reads one
        series. Those are built once.
        """
        trials = np.arange(len(self._series))
        if trials.size == 1 or self._lag_inverse is not None:
            return [(trials, self)]
        if self._split is None:
            self._split = [(trials[[t]], LagEngine(s, self.p_max, self.variables))
                           for t, s in enumerate(self._series)]
        return self._split

    def _scans(self, kind: str) -> _Scans:
        """The kind's memo, allocated empty on first use."""
        if kind not in self._memo:
            nv, trials, p = len(self.variables), len(self._series), self.p_max
            shape = (nv, nv if kind in ("pair", "drop") else 1)
            size = shape + (trials, self._width[kind] * p, p)
            # drop-one coefficients are formed only where read: an anonymous map is zeroed page by page as it is
            # written, where numpy's zeros may be touched whole (recycled memory, or huge pages past 4 MB)
            coefficients = np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(size)))) if kind == "drop" else np.zeros(size)
            self._memo[kind] = _Scans(coefficients.reshape(size), np.full(shape + (trials, p), np.nan),
                                      np.empty(shape, dtype=object), np.zeros(shape, dtype=np.int8))
        return self._memo[kind]

    def _families(self, kind: str, targets, sources, coefficients: bool = True):
        """(rss, coefficients or None, rank errors) of the families (kind, targets[j], sources[j]) from the memo.

        Each must fit its first order (m > its width). Missing scans are
        made first, on a certified engine by the routes above, else one by
        one (:meth:`_scan`); a stack that does not certify has no scan.
        """
        if self._lag_inverse is None and len(self._series) > 1:
            raise ValidationError("a stack of series that does not certify the shared routes has no one scan: "
                                  "scan each series alone")
        targets, sources = np.asarray(targets), np.asarray(sources)
        memo = self._scans(kind)
        missing = memo.held[targets, sources] < 1 + coefficients
        if missing.any():
            if self._lag_inverse is None:
                for target, source in zip(targets[missing], sources[missing]):
                    self._scan(kind, target, source)
            elif kind == "drop":
                self._drop_one_families(targets[missing & coefficients], sources[missing & coefficients])
            else:
                self._stacked(kind, targets[missing], sources[missing])
        return (memo.rss[targets, sources], memo.coefficients[targets, sources] if coefficients else None,
                memo.rank_error[targets, sources])

    def residual_covariance(self) -> np.ndarray:
        """Residual covariance (divisor m) of the first series' responses on every lag column.

        Each response of the engine's variables, in the engine's order, is
        regressed on lags 1..p_max of all of them. With T the trailing
        block of R (the responses' rows and columns), the residuals'
        cross-products are T'T, so this is T'T / m.
        """
        width = len(self.variables) * self.p_max
        t = self._r[0, width:, width:]
        return t.T @ t / self.m

    def _scan(self, kind: str, target: int, source: int):
        """Memoise the family by its own slice QR and rank check, on a one-series engine (see :meth:`_groups`)."""
        nv = len(self.variables)
        blocks = {"own": [target], "pair": sorted([target, source]),
                  "drop": [v for v in range(nv) if v != source], "full": list(range(nv))}[kind]
        n_fit = min(self.p_max, (self.m - 1) // len(blocks))
        columns = [(v, ell) for ell in range(n_fit) for v in blocks]
        index = [ell * nv + v for v, ell in columns]
        factor = self._r[0][:, index + [nv * self.p_max + target]]
        if index != list(range(len(index))):
            factor = _qr_r(factor)
        rss, coefficients, rank_error = _fit_prefixes(
            factor, len(blocks) * np.arange(1, n_fit + 1),
            lambda j: f"{self.ts.labels[self.variables[columns[j][0]]]}.lag{columns[j][1] + 1}")
        memo = self._scans(kind)
        memo.rss[target, source, 0, :rss.size] = rss
        memo.coefficients[target, source, 0, :len(coefficients), :rss.size] = coefficients
        memo.rank_error[target, source], memo.held[target, source] = rank_error, 2

    def _drop_one_families(self, targets, sources):
        """Every drop-one rss, and the coefficients of the families (targets, sources), by the Schur complement.

        Order n's Sigma sums r r' over the columns r of R_L^-1 in lag blocks
        1..n (see :func:`_through_blocks`). Sigma_DD of orders below p_max
        is padded to p_max x p_max with an identity block against a zero
        right-hand side, so one batched solve g, kept with the blocks of
        R_L^-1, serves every order, source, target and trial and gives every
        rss. Coefficients (which code-length scores and :meth:`scan` read, and
        the F test does not) are formed for the families asked for alone, with
        the columns Sigma_:,D of one source at a time.
        """
        nv, p, trials = len(self.variables), self.p_max, len(self._r)
        memo = self._scans("drop")
        if self._schur is None:
            full = self._scans("full")
            b = np.ascontiguousarray(np.moveaxis(full.coefficients[:, 0], 0, -1))  # (trial, row, order, target)
            # the block axis leads, so that _through_blocks' product only gains columns
            blocks = np.ascontiguousarray(
                self._lag_inverse.reshape(trials, -1, p, nv).transpose(2, 0, 1, 3))  # (block, trial, row, col)
            d = blocks.reshape(p, trials, p, nv, nv).transpose(0, 1, 3, 2, 4)  # (block, trial, x, lag of x, col)
            padding = np.eye(p) * (np.arange(p) > np.arange(p)[:, None])[:, None, :]
            sigma_dd = _through_blocks(d @ d.transpose(0, 1, 2, 4, 3))
            sigma_dd += padding[:, None, None]  # (order, trial, x, lag, lag)
            b_d = b.reshape(trials, p, nv, p, nv).transpose(3, 0, 2, 1, 4)  # (order, trial, x, lag, target)
            g = np.linalg.solve(sigma_dd, b_d)
            # the added rss is a quadratic form, nothing to cancel
            added = np.maximum(np.einsum("nsxit,nsxit->sxtn", b_d, g), 0.0)
            rss = full.rss[:, 0].transpose(1, 0, 2)[:, None] + added  # (trial, x, target, order)
            memo.rss[:], memo.held[:] = rss.transpose(2, 1, 0, 3), 1
            self._schur = blocks, d, g, b.reshape(trials, p, nv, p, nv)  # b as (trial, lag, v, order, target)
        blocks, d, g, b_rows = self._schur
        for x in np.unique(sources):
            formed = targets[sources == x]
            keep = [v for v in range(nv) if v != x]
            # the product is over every target, then selected: a product of
            # one column (a BLAS gemv) rounds differently from a wider one
            correction = _through_blocks(blocks @ d[:, :, x].transpose(0, 1, 3, 2)) @ g[:, :, x]
            # (order, trial, lag, v, target)
            correction = correction.reshape(p, trials, p, nv, nv)[:, :, :, keep][..., formed]
            shaped = b_rows[:, :, keep][..., formed].transpose(4, 0, 1, 2, 3) - correction.transpose(4, 1, 2, 3, 0)
            memo.coefficients[formed, x], memo.held[formed, x] = shaped.reshape(len(formed), trials, -1, p), 2

    def _stacked(self, kind: str, targets, sources):
        """Memoise own or pair families together, as :meth:`_scan` on a certified engine, for every trial.

        Each family and trial takes its slice of R, QR and triangular inverse,
        with no rank check to make, and the prefix sums of all of them are one
        batched pass. The QRs stay one LAPACK call per slice (numpy's stacked
        ``qr`` is no faster here); ``dtrtri`` leaves the Householder vectors
        below the diagonal, so the inverses are made upper triangular together.
        """
        nv, p = len(self.variables), self.p_max
        blocks = targets[:, None] if kind == "own" else np.sort(np.column_stack([targets, sources]), axis=1)
        k = blocks.shape[1] * p
        lagged = np.arange(p)[:, None] * nv + blocks[:, None, :]  # (family, lag, block)
        index = np.hstack([lagged.reshape(len(targets), k), nv * p + targets[:, None]])
        r_inv, qty = np.empty((len(targets), len(self._r), k, k)), np.empty((len(targets), len(self._r), k + 1))
        for r_inv_j, qty_j, columns in zip(r_inv, qty, index):
            # each slice in Fortran order, which LAPACK factors in place
            for t, slice_ in enumerate(self._r.transpose(0, 2, 1)[:, columns]):
                factor = scipy.linalg.lapack.dgeqrf(slice_.T, overwrite_a=True)[0]
                r_inv_j[t] = scipy.linalg.lapack.dtrtri(factor[:k, :k])[0]
                qty_j[t] = factor[:k + 1, k]
        r_inv[..., np.tri(k, k, -1, dtype=bool)] = 0.0
        memo = self._scans(kind)
        memo.rss[targets, sources], memo.coefficients[targets, sources] = _prefix_fits(
            r_inv, qty[..., :k], qty[..., k] ** 2, blocks.shape[1] * np.arange(1, p + 1))
        memo.held[targets, sources] = 2


def ols_order_scan(
    ts: TimeSeriesMatrix,
    target: int,
    block_vars: Sequence[int],
    p_max: int,
) -> List[OrderScanEntry]:
    """:meth:`LagEngine.scan` of ``ts``, blocks in the order given, as one entry per order, raising if rank-broken.

    Coefficients are put back in the predictor-major order used by
    :func:`build_design`.
    """
    block_vars = list(block_vars)
    engine = LagEngine(ts, p_max, [*block_vars, target])
    scan = engine.scan(target, block_vars)
    if scan.rank_error is not None:
        raise scan.rank_error
    b, response_sq = len(block_vars), float(engine._response_sq[engine._position[ts.column(target)], 0])
    return [
        OrderScanEntry(
            order=order, k=b * order,
            coefficients=scan.coefficients[0, :b * order, order - 1].reshape(order, b).T.ravel(),
            rss=float(scan.rss[0, order - 1]), m=engine.m, response_sq=response_sq,
        )
        for order in range(1, p_max + 1)
    ]
