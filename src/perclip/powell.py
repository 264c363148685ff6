"""Derivative-free conjugate-direction minimization on a box.

Classic Powell scheme: line-minimize along each direction of a working set
(initially the coordinate axes), then replace the direction of largest
single-step decrease with the iteration's net displacement when the
standard acceptance test passes. Only the first iteration's searches along
the axes run Brent's bounded method (golden section with parabolic
interpolation, Brent 1973) over the whole feasible segment. Every other
search, a newly installed conjugate direction included, starts from the
current point, which earlier searches left near the line's minimum: it
steps outward from it and stops at once when neither first step is
better, or at a box bound that is still downhill (see _line_minimize). No
point is ever evaluated outside the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar


@dataclass
class PowellResult:
    x: np.ndarray
    fx: float
    iterations: int
    evaluations: list[tuple[tuple[float, ...], float]]
    converged: bool


def _feasible_interval(x, d, lower, upper) -> tuple[float, float]:
    # range of t with lower <= x + t*d <= upper
    t_lo, t_hi = -math.inf, math.inf
    for xi, di, lo, hi in zip(x, d, lower, upper):
        if di == 0.0:
            continue
        a, b = (lo - xi) / di, (hi - xi) / di
        if a > b:
            a, b = b, a
        t_lo = max(t_lo, a)
        t_hi = min(t_hi, b)
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        return 0.0, 0.0
    return t_lo, t_hi


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _line_minimize(f1d, t_lo: float, t_hi: float, f_at_zero: float, xtol: float,
                   local: bool = False):
    """Minimize f1d on [t_lo, t_hi] knowing f1d(0); returns (t, f) best seen.

    Without local, Brent's bounded method searches the whole segment. With
    local, t=0 is taken to lie near the minimum already: when neither probe
    at t = +-2*xtol is better than t=0 the search ends there; otherwise it
    steps downhill, each step the golden ratio times the last, until the
    cost rises, and Brent's bounded method searches between the points on
    either side of the lowest one. A step that would leave the segment
    evaluates the segment's end instead, and the search stops at the end
    when it is still downhill. Never returns a point worse than t=0.
    """
    best_t, best_f = 0.0, f_at_zero
    if t_hi - t_lo <= xtol:
        return best_t, best_f

    def probe(t: float) -> float:
        ft = f1d(t)
        nonlocal best_t, best_f
        if ft < best_f:
            best_t, best_f = t, ft
        return ft

    bounds = (t_lo, t_hi)
    if local:
        bounds = _downhill_bracket(probe, t_lo, t_hi, f_at_zero, xtol)
        if bounds is None:
            return best_t, best_f
    minimize_scalar(probe, bounds=bounds, method="bounded", options={"xatol": xtol})
    return best_t, best_f


def _downhill_bracket(probe, t_lo: float, t_hi: float, f_at_zero: float, xtol: float):
    """Step downhill from t=0 toward each end of [t_lo, t_hi] in turn, the
    first step 2*xtol long; returns the bracket around the lowest step, or
    None when t=0 or an end of the segment is the best point found."""
    for end in (t_hi, t_lo):
        if end == 0.0:
            continue
        step = math.copysign(2.0 * xtol, end)
        a, b, fb = 0.0, 0.0, f_at_zero
        while True:
            c = b + step
            at_end = abs(c) >= abs(end)
            if at_end:
                c = end
            fc = probe(c)
            if fc >= fb:
                break
            if at_end:
                return None
            a, b, fb = b, c, fc
            step *= _GOLDEN
        if b != 0.0:
            return min(a, c), max(a, c)
    return None


def powell_box_minimize(
    f,
    x0,
    lower,
    upper,
    ftol: float = 1e-8,
    max_iters: int = 50,
    xtol: float = 1e-4,
) -> PowellResult:
    """Minimize f over the box [lower, upper] starting at x0."""
    x = np.asarray(x0, dtype=float).copy()
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower >= upper):
        raise ValueError("each lower bound must be below its upper bound")
    if np.any(x < lower) or np.any(x > upper):
        raise ValueError(f"start point {x.tolist()} outside the box")
    n = len(x)
    evaluations: list[tuple[tuple[float, ...], float]] = []

    def call(pt: np.ndarray) -> float:
        pt = np.clip(pt, lower, upper)
        val = float(f(pt))
        evaluations.append((tuple(pt), val))
        return val

    dirs = [np.eye(n)[i] for i in range(n)]
    fx = call(x)

    def search(d: np.ndarray, local: bool) -> float:
        """Line-minimize along d from x, move x to the best point found and
        return the drop in fx."""
        nonlocal x, fx
        t_lo, t_hi = _feasible_interval(x, d, lower, upper)
        t, ft = _line_minimize(lambda t: call(x + t * d), t_lo, t_hi, fx, xtol, local)
        x = np.clip(x + t * d, lower, upper)
        drop, fx = fx - ft, ft
        return drop

    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        x_start = x.copy()
        f_start = fx
        drops = [search(d, local=iterations > 1) for d in dirs]
        if 2.0 * abs(f_start - fx) <= ftol * (abs(f_start) + abs(fx) + 1e-12):
            converged = True
            break
        # direction-set update: try the extrapolated point along the net move
        d_net = x - x_start
        norm = float(np.linalg.norm(d_net))
        if norm == 0.0:
            continue
        x_e = np.clip(x_start + 2.0 * d_net, lower, upper)
        if np.allclose(x_e, x):
            continue
        f_e = call(x_e)
        if f_e < f_start:
            i_big = int(np.argmax(drops))
            delta = drops[i_big]
            t1 = 2.0 * (f_start - 2.0 * fx + f_e) * (f_start - fx - delta) ** 2
            t2 = delta * (f_start - f_e) ** 2
            if t1 < t2:
                dirs[i_big] = dirs[n - 1]
                dirs[n - 1] = d_net / norm
                search(dirs[n - 1], local=True)
    best_x, best_f = min(evaluations, key=lambda e: e[1])
    return PowellResult(
        x=np.asarray(best_x),
        fx=best_f,
        iterations=iterations,
        evaluations=evaluations,
        converged=converged,
    )
