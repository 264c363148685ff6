"""Monotone mapping of objective metric scores onto the subjective scale,
plus Pearson/Spearman/Kendall correlation reporting.

The mapping is the five-parameter logistic
    mapped = b1 * (1/2 - 1/(1 + exp(b2 * (x - b3)))) + b4 * x + b5
kept non-decreasing by the parameter bounds b1, b2, b4 >= 0. Rank
coefficients use average ranks for ties (Spearman) and the tie-corrected
tau-b (Kendall).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DegenerateInput, FitDiverged, TooFewPoints
from .powell import powell_box_minimize


@dataclass(frozen=True)
class LogisticParams:
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float

    def __call__(self, values) -> np.ndarray:
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
    bounded derivative-free minimization over scaled parameters. The result
    is never worse, in squared error, than the best non-decreasing line.
    """
    x = np.asarray(objective, dtype=float)
    y = np.asarray(subjective, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("objective and subjective must be 1-d and equal length")
    if len(x) < 6:
        raise TooFewPoints(f"need >= 6 pairs to fit, got {len(x)}")
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

    def unscale(theta: np.ndarray) -> LogisticParams:
        p = lower + theta * span
        return LogisticParams(*(float(v) for v in p))

    def cost(theta: np.ndarray) -> float:
        val = _sse(unscale(theta), x, y)
        return val if math.isfinite(val) else 1e300

    search = dict(lower=np.zeros(5), upper=np.ones(5), ftol=1e-10, max_iters=200, xtol=1e-6)
    result = powell_box_minimize(cost, x0=(start - lower) / span, **search)
    # a restart with fresh coordinate directions leaves the narrow valleys
    # where the direction set of the first search can stall
    result = powell_box_minimize(cost, x0=result.x, **search)
    fitted = unscale(result.x)
    baseline = _linear_fallback(x, y, b3=float(np.median(x)))
    if _sse(baseline, x, y) < _sse(fitted, x, y):
        fitted = baseline
    if not math.isfinite(_sse(fitted, x, y)):
        raise FitDiverged("fit produced non-finite residuals")
    return fitted


def average_ranks(values) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their positions."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=float)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("zero variance makes the correlation undefined")
    return float((xc @ yc) / math.sqrt(sx * sy))


def kendall_tau_b(x, y) -> float:
    """Tie-corrected Kendall rank correlation (tau-b)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    concordance = float((dx[iu] * dy[iu]).sum())
    n0 = n * (n - 1) / 2.0
    n1 = sum(c * (c - 1) / 2.0 for c in np.unique(x, return_counts=True)[1])
    n2 = sum(c * (c - 1) / 2.0 for c in np.unique(y, return_counts=True)[1])
    denom = math.sqrt((n0 - n1) * (n0 - n2))
    if denom == 0.0:
        raise DegenerateInput("all values tied on one side")
    return concordance / denom


def correlate(objective, subjective, params: LogisticParams | None = None) -> CorrelationReport:
    """Correlation report between objective and subjective scores.

    With params, the Pearson coefficient and RMSE are computed on the
    mapped objective values; rank coefficients always use the raw values.
    Without params, RMSE is reported as 0.
    """
    x = np.asarray(objective, dtype=float)
    y = np.asarray(subjective, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("objective and subjective must be 1-d and equal length")
    n = len(x)
    if n < 3:
        raise TooFewPoints(f"need >= 3 pairs, got {n}")
    mapped = params(x) if params is not None else None
    plcc = pearson(mapped if mapped is not None else x, y)
    srocc = pearson(average_ranks(x), average_ranks(y))
    krcc = kendall_tau_b(x, y)
    rmse = float(np.sqrt(np.mean((mapped - y) ** 2))) if mapped is not None else 0.0
    return CorrelationReport(plcc=plcc, srocc=srocc, krcc=krcc, rmse=rmse, n=n)
