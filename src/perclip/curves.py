"""Rate-quality curves and shape-preserving cubic interpolation.

A curve is an ordered set of (rate, quality) operating points for one clip
and one quality metric. Interpolation uses the monotone piecewise cubic
Hermite scheme (Fritsch-Carlson slopes), so monotone data never overshoots.
An interpolant evaluates a number to a float and an array of any shape
and order to an array of that shape; a point outside the knot range, NaN
included, raises OutOfDomain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateRate,
    NonAscendingAbscissae,
    NonFiniteValue,
    OutOfDomain,
    TooFewPoints,
)


def finite(value, above: float = -math.inf) -> bool:
    """Whether value is a real number, not a bool, finite as a float and > above."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value) and value > above)
    except OverflowError:  # an int too large for a float
        return False


def check_point(rate, quality) -> None:
    """RdPoint's and EncodeResult's rule: rate finite and > 0, quality finite."""
    if not finite(rate, above=0):
        raise NonFiniteValue(f"rate must be positive and finite, got {rate!r}")
    if not finite(quality):
        raise NonFiniteValue(f"quality must be finite, got {quality!r}")


@dataclass(frozen=True)
class RdPoint:
    """One operating point: rate in kilobits per second, quality in metric
    units, the integer qp that produced it if known, and the half-width of
    the quality's 95 % confidence interval (0 when unknown). Rate, quality
    (check_point) and ci95 (>= 0) must pass finite and are kept as floats."""

    rate: float
    quality: float
    qp: int | None = None
    ci95: float = 0.0

    def __post_init__(self) -> None:
        check_point(self.rate, self.quality)
        if not (finite(self.ci95) and self.ci95 >= 0):
            raise NonFiniteValue(f"ci95 must be finite and >= 0, got {self.ci95!r}")
        if self.qp is not None and type(self.qp) is not int:  # 27.0 or true is no qp
            raise ValueError(f"qp {self.qp!r} is not an integer")
        for name in ("rate", "quality", "ci95"):  # a file's 100 prints as 100.0 would
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class RdCurve:
    """Rate-quality curve of >= 2 checked points, sorted by strictly increasing rate."""

    points: tuple[RdPoint, ...]
    metric_id: str

    def __post_init__(self) -> None:
        pts = sorted(self.points, key=lambda p: p.rate)
        if len(pts) < 2:
            raise TooFewPoints(f"curve needs >= 2 points, got {len(pts)}")
        for a, b in zip(pts, pts[1:]):
            if a.rate == b.rate:
                raise DuplicateRate(f"duplicate rate {a.rate} kbps")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(p.rate for p in self.points)

    @property
    def qualities(self) -> tuple[float, ...]:
        return tuple(p.quality for p in self.points)

    def quality_at_qp(self, qp: int) -> float | None:
        for p in self.points:
            if p.qp == qp:
                return p.quality
        return None


def build_curve(points, metric_id: str) -> RdCurve:
    """Sort operating points, RdPoints or their field tuples, into an RdCurve.

    Raises TooFewPoints, DuplicateRate, or RdPoint's NonFiniteValue or ValueError.
    """
    pts = tuple(p if isinstance(p, RdPoint) else RdPoint(*p) for p in points)
    return RdCurve(points=pts, metric_id=metric_id)


# Power-basis coefficients of one Hermite segment, for Horner evaluation
# and exact integration.
def _hermite_coeffs(y0: float, y1: float, a: float, b: float) -> tuple[float, float, float, float]:
    # cubic c0 + c1*t + c2*t^2 + c3*t^3 on the unit segment,
    # a = h*m0 and b = h*m1 are the scaled endpoint slopes
    dy = y1 - y0
    return y0, a, 3.0 * dy - 2.0 * a - b, -2.0 * dy + a + b


@dataclass(frozen=True)
class PchipInterpolant:
    """Monotone piecewise cubic Hermite interpolant.

    Knots are reproduced exactly; between knots the Fritsch-Carlson slope
    rule keeps the interpolant monotone wherever the data is monotone.
    Evaluation outside [xs[0], xs[-1]], NaN included, raises OutOfDomain
    (no extrapolation).
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    slopes: tuple[float, ...]
    _coeffs: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_coeffs", tuple(
            _hermite_coeffs(y0, y1, (x1 - x0) * m0, (x1 - x0) * m1)
            for x0, x1, y0, y1, m0, m1 in zip(
                self.xs, self.xs[1:], self.ys, self.ys[1:], self.slopes, self.slopes[1:])
        ))

    @property
    def domain(self) -> tuple[float, float]:
        return self.xs[0], self.xs[-1]

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        flat = arr.ravel()
        lo, hi = self.domain
        if flat.size and not (lo <= flat.min() and flat.max() <= hi):
            raise OutOfDomain(f"values outside [{lo}, {hi}]: min {flat.min()}, max {flat.max()}")
        unsorted = np.any(flat[1:] < flat[:-1])
        if unsorted:
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
        # sorted input: each segment owns one contiguous slice
        cuts = [0, *np.searchsorted(flat, self.xs[1:-1]).tolist(), flat.size]
        out = np.empty_like(flat)
        for x0, x1, (c0, c1, c2, c3), i, j in zip(
            self.xs, self.xs[1:], self._coeffs, cuts, cuts[1:]
        ):
            t = (flat[i:j] - x0) / (x1 - x0)
            out[i:j] = ((c3 * t + c2) * t + c1) * t + c0
        out[flat == hi] = self.ys[-1]
        if unsorted:
            out[order] = out.copy()
        return out.reshape(arr.shape) if isinstance(x, np.ndarray) or arr.ndim else float(out[0])

    def integrate(self, a: float, b: float) -> float:
        """Exact integral of the interpolant over [a, b] (closed form)."""
        lo, hi = self.domain
        if not (lo <= a <= hi and lo <= b <= hi):
            raise OutOfDomain(f"integration bounds [{a}, {b}] outside [{lo}, {hi}]")
        if b < a:
            return -self.integrate(b, a)
        total = 0.0
        for x0, x1, (c0, c1, c2, c3) in zip(self.xs, self.xs[1:], self._coeffs):
            t0, t1 = max(a, x0), min(b, x1)
            if t0 < t1:
                h = x1 - x0
                u0, u1 = (t0 - x0) / h, (t1 - x0) / h
                total += h * (
                    u1 * (c0 + u1 * (c1 / 2.0 + u1 * (c2 / 3.0 + u1 * c3 / 4.0)))
                    - u0 * (c0 + u0 * (c1 / 2.0 + u0 * (c2 / 3.0 + u0 * c3 / 4.0)))
                )
        return total


def _edge_slope(h0: float, h1: float, d0: float, d1: float) -> float:
    # one-sided three-point estimate, clamped so the boundary segment
    # cannot overshoot the adjacent secant
    m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if m * d0 <= 0.0:
        return 0.0
    if d0 * d1 < 0.0 and abs(m) > 3.0 * abs(d0):
        return 3.0 * d0
    return m


def pchip_fit(xs, ys) -> PchipInterpolant:
    """Fit a monotone cubic Hermite interpolant through (xs, ys).

    xs must be strictly increasing and everything finite. Interior slopes
    use the weighted harmonic mean of adjacent secants and drop to zero at
    local extrema, which is what keeps monotone data monotone.
    """
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"xs and ys lengths differ: {n} vs {len(ys)}")
    if n < 2:
        raise TooFewPoints(f"need >= 2 knots, got {n}")
    for v in xs + ys:
        if not math.isfinite(v):
            raise NonFiniteValue(f"non-finite knot value {v!r}")
    for a, b in zip(xs, xs[1:]):
        if b <= a:
            raise NonAscendingAbscissae(f"xs not strictly increasing at {a} -> {b}")

    h = [xs[i + 1] - xs[i] for i in range(n - 1)]
    d = [(ys[i + 1] - ys[i]) / h[i] for i in range(n - 1)]
    if n == 2:
        m = [d[0], d[0]]
    else:
        m = [0.0] * n
        for i in range(1, n - 1):
            if d[i - 1] == 0.0 or d[i] == 0.0 or (d[i - 1] > 0.0) != (d[i] > 0.0):
                m[i] = 0.0
            else:
                w1 = 2.0 * h[i] + h[i - 1]
                w2 = h[i] + 2.0 * h[i - 1]
                mean = w1 / d[i - 1] + w2 / d[i]
                m[i] = (w1 + w2) / mean if mean else math.inf
        m[0] = _edge_slope(h[0], h[1], d[0], d[1])
        m[-1] = _edge_slope(h[-1], h[-2], d[-1], d[-2])
    if not all(map(math.isfinite, d + m)):
        raise NonFiniteValue(f"a secant or slope is not finite for knots {xs} with values {ys}")
    return PchipInterpolant(xs=tuple(xs), ys=tuple(ys), slopes=tuple(m))


def enforce_monotone(curve: RdCurve) -> RdCurve:
    """Drop the fewest points needed so quality is non-decreasing with rate.

    Keeps a maximum-cardinality subset; when several subsets tie, the
    lower-rate points win. Raises TooFewPoints if fewer than 2 survive.
    """
    q = [p.quality for p in curve.points]
    n = len(q)
    # f[i] = length of the longest non-decreasing run starting at i
    f = [1] * n
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            if q[j] >= q[i] and 1 + f[j] > f[i]:
                f[i] = 1 + f[j]
    target = max(f)
    if target < 2:
        raise TooFewPoints(f"only {target} point(s) left after monotone cleanup")
    kept: list[int] = []
    last = -math.inf
    need = target
    for i in range(n):
        if q[i] >= last and f[i] >= need:
            kept.append(i)
            last = q[i]
            need -= 1
            if need == 0:
                break
    return RdCurve(points=tuple(curve.points[i] for i in kept), metric_id=curve.metric_id)


def load_curve_file(path) -> tuple[RdCurve, dict]:
    """Read a curve file, {"metric": id, "points": [{"rate_kbps", "quality",
    "qp"?, "ci95"?}]}, plus its optional annotations.

    Each point's values go to RdPoint as written: rate_kbps, quality and
    ci95 (0 when missing or null) must be JSON numbers, qp an integer when
    given. Returns (curve, meta), meta holding "clip" and "variant"; the
    clip is the file's "clip", else its file name before the first "__",
    and the variant None when absent. "metric" and, when given, "clip" and
    "variant" must be strings. A violation, a malformed point or two points
    with one qp is a ValueError naming the file, as is a curve of too few
    points or a duplicate rate, in its class.
    """
    doc = read_json(path)
    try:
        metric = doc["metric"]
        raw = doc["points"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a curve file: missing {exc}") from exc
    for key in ("metric", "clip", "variant"):
        value = doc.get(key)
        if not isinstance(value, str) and (key == "metric" or value is not None):
            raise ValueError(f"{path}: {key} must be a string, got {value!r}")
    try:
        curve = build_curve([(p["rate_kbps"], p["quality"], p.get("qp"),
                              0.0 if p.get("ci95") is None else p["ci95"]) for p in raw], metric)
    except (TooFewPoints, DuplicateRate) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed point entry: {exc}") from exc
    qps = [p.qp for p in curve.points if p.qp is not None]
    repeat = next((qp for i, qp in enumerate(qps) if qp in qps[:i]), None)
    if repeat is not None:  # bd's default anchors read one point per qp
        raise ValueError(f"{path}: duplicate qp {repeat}")
    clip = doc.get("clip") or Path(path).stem.split("__")[0]
    return curve, {"clip": clip, "variant": doc.get("variant")}


def read_json(path):
    """The JSON document in the file at path; a file that is not UTF-8 JSON
    is a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:  # too deep, not JSON, not UTF-8
            raise ValueError(f"{path}: {exc}") from None


def write_json(path, doc) -> None:
    """Write doc to the file at path as JSON indented by 2, with a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_curve_json(curve: RdCurve, path, clip: str | None = None,
                     variant: str | None = None) -> None:
    """Write curve in load_curve_file's format. A point's qp and a non-zero
    ci95 are written with it, so loading the file gives back the curve."""
    doc: dict = {"metric": curve.metric_id}
    if clip is not None:
        doc["clip"] = clip
    if variant is not None:
        doc["variant"] = variant
    pts = []
    for p in curve.points:
        entry: dict = {"rate_kbps": p.rate, "quality": p.quality}
        if p.qp is not None:
            entry["qp"] = p.qp
        if p.ci95:
            entry["ci95"] = p.ci95
        pts.append(entry)
    doc["points"] = pts
    write_json(path, doc)
