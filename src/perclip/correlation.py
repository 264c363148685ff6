"""Monotone mapping of objective metric scores onto the subjective scale,
plus Pearson/Spearman/Kendall correlation reporting.

The mapping is the five-parameter logistic
    mapped = b1 * (1/2 - 1/(1 + exp(b2 * (x - b3)))) + b4 * x + b5
kept non-decreasing by the parameter bounds b1, b2, b4 >= 0. The fit is
separable least squares (variable projection: Golub & Pereyra, Inverse
Problems 19, 2003): b1, b4 and b5 enter linearly, so for each (b2, b3) they
are solved exactly by non-negative least squares (scipy.optimize.nnls), and
bounded trust-region-reflective least squares (scipy.optimize.least_squares)
searches (b2, b3) alone. Rank coefficients come from scipy.stats: average
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


def _finite_pairs(objective, subjective) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(objective, dtype=float)
    y = np.asarray(subjective, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("objective and subjective must be 1-d and equal length")
    for name, v in (("objective", x), ("subjective", y)):
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue(f"{name} values must be finite")
    return x, y


def fit_logistic5(objective, subjective) -> LogisticParams:
    """Least-squares fit of the monotone logistic mapping.

    b1, b4 >= 0 and b5 are solved exactly for each (b2, b3); bounded
    trust-region-reflective least squares (Branch, Coleman & Li 1999) searches
    (b2, b3) from the best point of a small grid. Every solve may set b1 = 0,
    so the fit is never worse, in squared error, than the best non-decreasing
    line. Values so large, or so close together, that the arithmetic
    overflows raise FitDiverged.
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
    from scipy.optimize import least_squares, nnls
    from scipy.special import expit

    np.square(x), np.square(y)  # an overflowing square raises before nnls can meet it
    rng_x = float(x.max() - x.min())
    if rng_x == 0.0:
        raise DegenerateInput("objective values are all equal")
    ones = np.ones_like(x)

    def design(theta) -> np.ndarray:
        b2, b3 = theta
        return np.column_stack((expit(b2 * (x - b3)) - 0.5, x, ones, -ones))

    def residuals(theta) -> np.ndarray:
        # at the exact best (b1, b4, b5+, b5-) >= 0 for this (b2, b3)
        a = design(theta)
        return a @ nnls(a, y)[0] - y

    start = min(((b2 / rng_x, b3) for b2 in (1.0, 4.0, 16.0, 64.0)
                 for b3 in np.quantile(x, (0.25, 0.5, 0.75))),
                key=lambda theta: nnls(design(theta), y)[1])
    result = least_squares(residuals, start, method="trf", x_scale=(1.0 / rng_x, rng_x),
                           bounds=((0.0, x.min() - rng_x), (100.0 / rng_x, x.max() + rng_x)))
    b1, b4, b5_up, b5_down = nnls(design(result.x), y)[0]
    b2, b3 = result.x
    return LogisticParams(*(float(v) for v in (b1, b2, b3, b4, b5_up - b5_down)))


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
