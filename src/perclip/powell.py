"""Derivative-free minimization on a box by a quadratic-model trust region,
after Powell's UOBYQA (Math. Program. 2002) and BOBYQA (2009).

The cost function takes a list of points and returns their costs. The
point set starts as x0, x0 +- rho*e_i and, per pair of axes, the
diagonal toward the better axis probes. The axis probes do not depend on
each other's costs, so they go to the cost function as one list, axis by
axis; every other point goes alone. Each step fits a full quadratic
through the best point to the set's finite costs and moves to its exact
minimum over the box and ||s||inf <= delta. The ratio of the actual to
the predicted decrease resizes delta, never below rho. With no useful
step left, the search ends once its model is validated: its error at the
latest point it placed and its best decrease over the whole box are both
below the caller's cost resolution. Otherwise a point farther than
3*delta from the best gives way to the best's neighbour at distance rho
in its direction, or else rho shrinks fivefold, down to xtol, where the
search ends too, as it does once every cost of a full point set is
within FTOL (relative) of the best. The cost at x0 must be finite; a
+inf cost never enters the model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, itemgetter, mul, sub

FTOL = 1e-6  # relative spread of a full point set's costs that ends the search


@dataclass
class PowellResult:
    x: tuple[float, ...]
    fx: float
    iterations: int
    evaluations: list[tuple[tuple[float, ...], float]]
    stop: str  # "model", "ftol" or "resolution": the test that ended the search


def _eliminate(rows: list[list[float]], spd: bool) -> list[float] | None:
    """Solve a x = b, given as rows [a_i, b_i], by Gaussian elimination in a
    fixed order. With spd, a must be positive definite: rows pivot in order
    and a pivot <= 0 gives None. Otherwise each column takes the largest
    pivot left, and a column without one above 1e-10 gets x_k = 0, so a
    short or degenerate system is solved in its earlier columns."""
    ncol = len(rows[0]) - 1 if rows else 0
    done = []
    for k in range(ncol):
        col = [abs(row[k]) for row in rows] or [0.0]
        i = 0 if spd else col.index(max(col))
        if spd and rows[0][k] <= 0.0:
            return None
        if not spd and col[i] <= 1e-10:
            continue
        p = rows.pop(i)
        rows = [[u - row[k] / p[k] * v for u, v in zip(row, p)] for row in rows]
        done.append((k, p))
    x = [0.0] * ncol
    for k, p in reversed(done):  # x is still 0 up to x[k]
        x[k] = (p[-1] - sum(map(mul, p, x))) / p[k]
    return x


def _fit(pts, xb, fb: float, scale: float, terms):
    """Quadratic q(s) = g.s + s.h.s / 2, s = x - xb, through the points
    (x, f(x)) of pts; returns (g, h). Unknowns run linear, square, cross
    (as in terms); those the points cannot resolve are 0."""
    n = len(xb)
    ys = [([d / scale for d in map(sub, x, xb)], v - fb) for x, v in pts if x != xb]
    rows = [y + [y[i] * y[j] for i, j in terms] + [v] for y, v in ys]
    c = _eliminate(rows, spd=False) or [0.0] * (n + len(terms))
    h = [[0.0] * n for _ in range(n)]
    for (i, j), v in zip(terms, c[n:]):
        h[i][j] = h[j][i] = (2.0 if i == j else 1.0) * v / scale ** 2
    return [v / scale for v in c[:n]], h


def _q(g, h, s) -> float:
    """q(s) = g.s + s.h.s / 2."""
    return sum((gi + 0.5 * sum(map(mul, hi, s))) * si for gi, hi, si in zip(g, h, s))


def _box_min(g, h, lo, hi) -> tuple[list[float], float]:
    """Minimum of q(s) = g.s + s.h.s / 2 over the box [lo, hi], which holds
    0, and the decrease -q there: the lowest stationary point of q, strictly
    convex there, on one of the box's 3**n faces (the interior first)."""
    n = len(g)
    best, q_best = [0.0] * n, 0.0
    for c in itertools.product(*[(None, a, b) for a, b in zip(lo, hi)]):
        s = [0.0 if v is None else v for v in c]
        free = [i for i, v in enumerate(c) if v is None]
        if free:
            sol = _eliminate([[h[i][j] for j in free] + [-g[i] - sum(map(mul, h[i], s))]
                              for i in free], spd=True)
            if sol is None or not all(lo[i] <= v <= hi[i] for i, v in zip(free, sol)):
                continue
            for i, v in zip(free, sol):
                s[i] = v
        q = _q(g, h, s)
        if len(free) == n:  # q is convex and its minimum lies in the box
            return s, -q
        if q < q_best:
            best, q_best = s, q
    return best, -q_best


def powell_box_minimize(f, x0, lower, upper, xtol: float = 1e-4,
                        cost_resolution: float = 0.0) -> PowellResult:
    """Minimize over the box [lower, upper] from x0 to a resolution of
    xtol, or until its model is validated to cost_resolution (never, at 0);
    iterations counts resolutions rho. f(xs) returns the costs of the
    points xs, tuples of floats, in order; the cost at x0 must be finite."""
    x0, lower, upper = (tuple(map(float, v)) for v in (x0, lower, upper))
    if any(lo >= hi for lo, hi in zip(lower, upper)):
        raise ValueError("each lower bound must be below its upper bound")
    if any(not lo <= v <= hi for v, lo, hi in zip(x0, lower, upper)):
        raise ValueError(f"start point {list(x0)} outside the box")
    n = len(x0)
    terms = [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))
    full = n + 1 + len(terms)  # points that fix a quadratic
    seen: dict[tuple[float, ...], float] = {}  # every evaluation, in order
    pts: list[tuple[tuple[float, ...], float]] = []  # the finite points

    def clip(x) -> tuple[float, ...]:
        return tuple(min(max(v, lo), hi) for v, lo, hi in zip(x, lower, upper))

    def call_many(xs) -> list[float]:
        """Costs at the points xs clipped to the box; each point is evaluated
        once, and those not evaluated yet go to f in one call."""
        xs = [clip(x) for x in xs]
        new = list(dict.fromkeys(x for x in xs if x not in seen))
        if new:
            for x, v in zip(new, f(new), strict=True):
                seen[x] = float(v)
                if seen[x] < math.inf:
                    pts.append((x, seen[x]))
        return [seen[x] for x in xs]

    def call(x) -> float:
        return call_many([x])[0]

    def shifted(x, i, t):
        return x[:i] + (x[i] + t,) + x[i + 1:]

    def far(x, y) -> float:
        return max(map(abs, map(sub, x, y)))

    def stencil(c) -> int:
        """Around c, evaluated already, evaluate c +- rho*e_i (both inward at
        a bound) as one batch, then, per pair of axes, the diagonal toward
        the better probes; count the new points."""
        count = len(seen)
        steps = []
        for i in range(n):
            up, down = upper[i] - c[i], c[i] - lower[i]
            steps.append((-rho, -min(2.0 * rho, down)) if up < rho / 2.0 else
                         (rho, min(2.0 * rho, up)) if down < rho / 2.0 else
                         (min(rho, up), -min(rho, down)))
        probes = call_many([shifted(c, i, t) for i, pair in enumerate(steps) for t in pair])
        better = [pair[1] if probes[2 * i + 1] < probes[2 * i] else pair[0]
                  for i, pair in enumerate(steps)]
        for i, j in itertools.combinations(range(n), 2):
            call(shifted(shifted(c, i, better[i]), j, better[j]))
        return len(seen) - count

    delta = rho = max(min(0.25, min(map(sub, upper, lower)) / 2.0), xtol)
    rho_end = min(xtol, rho)
    if not math.isfinite(f0 := call(x0)):
        raise ValueError(f"cost at the start point {list(x0)} is {f0}, not finite")
    stencil(x0)
    iterations, fitted, error = 1, -1, math.inf  # error: |f - model| at its latest point
    while True:
        xb, fb = min(pts, key=itemgetter(1))
        if len(pts) >= full and all(
                2.0 * abs(v - fb) <= FTOL * (abs(v) + abs(fb) + 1e-12) for _, v in pts):
            stop = "ftol"
            break
        dist = [far(x, xb) for x, _ in pts]
        if fitted != len(seen):  # no new point, no new model
            fitted, (g, h) = len(seen), _fit(pts, xb, fb, max(dist) or rho, terms)
        s, pred = _box_min(g, h, [max(a - b, -delta) for a, b in zip(lower, xb)],
                           [min(a - b, delta) for a, b in zip(upper, xb)])
        step = max(map(abs, s))
        if step >= rho / 2.0 and pred > 0.0:
            fn = call(tuple(map(add, xb, s)))
            error = abs(fn - (fb - pred))
            if len(pts) > full:  # it replaces the old point farthest from the best
                xn = min(pts, key=itemgetter(1))[0]
                pts.remove(max(pts[:-1], key=lambda p: (p[0] != xn, far(p[0], xn))))
            ratio = (fb - fn) / pred
            if ratio >= 0.7:
                delta = max(delta, 2.0 * step)
            if ratio >= 0.1 or delta > rho:  # a failed step at the floor ends the level
                delta = delta if ratio >= 0.1 else max(delta / 2.0, rho)
                continue
        if error < cost_resolution and _box_min(
                g, h, list(map(sub, lower, xb)), list(map(sub, upper, xb)))[1] < cost_resolution:
            stop = "model"
            break
        worst = pts[dist.index(max(dist))]
        x = clip(b + math.copysign(rho, w - b) if w != b else b for w, b in zip(worst[0], xb))
        if max(dist) > 3.0 * delta and x not in seen:
            fx = call(x)
            error = abs(fx - fb - _q(g, h, list(map(sub, x, xb))))
            if fx < math.inf:
                pts.remove(worst)
            continue
        if len(pts) <= n and stencil(xb):  # too few points for a linear model
            continue
        if rho <= rho_end:
            stop = "resolution"
            break
        iterations, rho = iterations + 1, max(rho / 5.0, rho_end)
        delta = max(delta / 2.0, rho)
    best_x, best_f = min(seen.items(), key=itemgetter(1))
    return PowellResult(best_x, best_f, iterations, list(seen.items()), stop)
