"""Monotone mapping of objective metric scores onto the subjective scale,
plus Pearson/Spearman/Kendall correlation reporting.

The mapping is the five-parameter logistic
    mapped = b1 * (1/2 - 1/(1 + exp(b2 * (x - b3)))) + b4 * x + b5
kept non-decreasing by the parameter bounds b1, b2, b4 >= 0 and fitted by
bounded trust-region-reflective least squares (scipy.optimize.least_squares)
given its analytic Jacobian. Rank coefficients come from scipy.stats: average
ranks for ties (rankdata, Spearman) and the tie-corrected tau-b (kendalltau,
Knight's O(n log n) merge count). The logistic uses scipy.special.expit.

Each scipy routine is imported inside the function that calls it, not at
module level: scipy takes over a second to import, and importing perclip
or its CLI must not pay that for subcommands that never correlate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, FitDiverged, NonFiniteValue, TooFewPoints
from .powell import powell_box_minimize  # only perfbench/spans.py reads this name


@dataclass(frozen=True)
class LogisticParams:
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float

    def __call__(self, values) -> np.ndarray:
        from scipy.special import expit

        x = np.asarray(values, dtype=float)
        z = self.b2 * (x - self.b3)
        return self.b1 * (expit(z) - 0.5) + self.b4 * x + self.b5

    def is_monotone_on(self, lo: float, hi: float, n: int = 1000) -> bool:
        grid = np.linspace(lo, hi, n)
        return bool(np.all(np.diff(self(grid)) >= -1e-12))


@dataclass(frozen=True)
class CorrelationReport:
    plcc: float
    srocc: float
    krcc: float
    rmse: float
    n: int


def _sse(params: LogisticParams, x: np.ndarray, y: np.ndarray) -> float:
    r = params(x) - y
    return float(r @ r)


def _finite_pairs(objective, subjective) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(objective, dtype=float)
    y = np.asarray(subjective, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("objective and subjective must be 1-d and equal length")
    for name, v in (("objective", x), ("subjective", y)):
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue(f"{name} values must be finite")
    return x, y


def _linear_fallback(x: np.ndarray, y: np.ndarray, b3: float) -> LogisticParams:
    # best non-negative-slope line; the logistic family contains it
    vx = float(np.var(x))
    slope = float(np.cov(x, y, bias=True)[0, 1] / vx) if vx > 0 else 0.0
    slope = max(slope, 0.0)
    intercept = float(y.mean() - slope * x.mean())
    return LogisticParams(b1=0.0, b2=0.0, b3=b3, b4=slope, b5=intercept)


def fit_logistic5(objective, subjective) -> LogisticParams:
    """Least-squares fit of the monotone logistic mapping.

    Deterministic start (mid-range inflection, gentle slope), refined by
    bounded trust-region-reflective least squares (Branch, Coleman & Li
    1999) over parameters scaled to the unit box, given the analytic
    Jacobian. Never worse, in squared error, than the best non-decreasing line.
    Values so large, or so close together, that the arithmetic overflows
    raise FitDiverged.
    """
    x, y = _finite_pairs(objective, subjective)
    if len(x) < 6:
        raise TooFewPoints(f"need >= 6 pairs to fit, got {len(x)}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _fit_logistic5(x, y)
    except FloatingPointError as exc:
        raise FitDiverged(f"values out of range for the logistic fit: {exc}") from None


def _fit_logistic5(x: np.ndarray, y: np.ndarray) -> LogisticParams:
    from scipy.optimize import least_squares
    from scipy.special import expit

    rng_x = float(x.max() - x.min())
    if rng_x == 0.0:
        raise DegenerateInput("objective values are all equal")
    rng_y = float(y.max() - y.min())

    lower = np.array([0.0, 0.0, x.min() - rng_x, 0.0, y.min() - 5.0 * max(rng_y, 1.0)])
    upper = np.array([
        4.0 * max(rng_y, 1.0),
        100.0 / rng_x,
        x.max() + rng_x,
        10.0 * max(rng_y, 1.0) / rng_x,
        y.max() + 5.0 * max(rng_y, 1.0),
    ])
    start = np.clip(
        np.array([rng_y, 4.0 / rng_x, float(np.median(x)), 0.0, float(y.mean())]),
        lower, upper,
    )
    span = upper - lower

    def residuals(theta: np.ndarray) -> np.ndarray:
        b1, b2, b3, b4, b5 = lower + theta * span
        return b1 * (expit(b2 * (x - b3)) - 0.5) + b4 * x + b5 - y

    def jacobian(theta: np.ndarray) -> np.ndarray:
        # d/db of the logistic, times span for the unit-box scaling
        b1, b2, b3, _, _ = lower + theta * span
        s = expit(b2 * (x - b3))
        slope = b1 * s * (1.0 - s)
        return np.column_stack((s - 0.5, slope * (x - b3), -slope * b2, x, np.ones_like(x))) * span

    result = least_squares(residuals, (start - lower) / span, jac=jacobian,
                           bounds=(0.0, 1.0), method="trf")
    fitted = LogisticParams(*(float(v) for v in lower + result.x * span))
    baseline = _linear_fallback(x, y, b3=float(np.median(x)))
    return baseline if _sse(baseline, x, y) < _sse(fitted, x, y) else fitted


def average_ranks(values) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their positions."""
    from scipy.stats import rankdata

    return rankdata(values, method="average")


def pearson(x, y) -> float:
    # each side scaled by a power of two to a largest |value| below 1: exact,
    # so the result is bitwise that of the raw values wherever those do not overflow
    x, y = (np.asarray(v, dtype=float) for v in (x, y))
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("zero variance makes the correlation undefined")
    return float((xc @ yc) / math.sqrt(sx * sy))


def kendall_tau_b(x, y) -> float:
    """Tie-corrected Kendall rank correlation (tau-b)."""
    from scipy.stats import kendalltau

    tau = float(kendalltau(x, y).statistic)
    if math.isnan(tau):
        raise DegenerateInput("all values tied on one side")
    return tau


def correlate(objective, subjective, params: LogisticParams | None = None) -> CorrelationReport:
    """Correlation report between objective and subjective scores.

    With params, the Pearson coefficient and RMSE are computed on the
    mapped objective values; rank coefficients always use the raw values.
    Without params, RMSE is reported as 0.
    """
    x, y = _finite_pairs(objective, subjective)
    n = len(x)
    if n < 3:
        raise TooFewPoints(f"need >= 3 pairs, got {n}")
    mapped = params(x) if params is not None else None
    plcc = pearson(mapped if mapped is not None else x, y)
    srocc = pearson(average_ranks(x), average_ranks(y))
    krcc = kendall_tau_b(x, y)
    rmse = float(np.sqrt(np.mean((mapped - y) ** 2))) if mapped is not None else 0.0
    return CorrelationReport(plcc=plcc, srocc=srocc, krcc=krcc, rmse=rmse, n=n)
