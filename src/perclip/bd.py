"""Bjontegaard delta metrics between two rate-quality curves.

bd_rate integrates log10(rate) as a function of quality over the common
quality interval, so the result is an average percent rate difference at
equal quality. bd_quality integrates quality as a function of log10(rate),
giving an average quality difference at equal rate. Both use the exact
piecewise-cubic integral of the fitted interpolants; no quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import RdCurve, enforce_monotone, pchip_fit
from .errors import AnchorOutOfRange, NoOverlap

DEFAULT_ANCHOR_QPS = (27, 39, 59)


@dataclass(frozen=True)
class BdResult:
    """Delta value plus the integration interval used."""

    value: float
    overlap: tuple[float, float]


@dataclass(frozen=True)
class SavingsResult:
    """Per-anchor percent rate savings at matched quality, and their mean."""

    per_anchor: tuple[tuple[str, float], ...]
    mean: float
    skipped: tuple[str, ...] = ()


def _inverse_fit(curve: RdCurve, transform=math.log10):
    # quality -> transform(rate) fit; quality must be strictly increasing, which a
    # cleaned curve normally is (exact quality ties raise NonAscendingAbscissae)
    pairs = sorted((p.quality, p.rate) for p in curve.points)
    return pchip_fit([q for q, _ in pairs], [transform(r) for _, r in pairs])


def _mean_gap(fr, ft) -> tuple[float, tuple[float, float]]:
    # average of ft - fr over the common domain, and that domain
    (a_lo, a_hi), (b_lo, b_hi) = fr.domain, ft.domain
    lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
    if not lo < hi:
        raise NoOverlap(f"no common interval: [{a_lo}, {a_hi}] vs [{b_lo}, {b_hi}]")
    return (ft.integrate(lo, hi) - fr.integrate(lo, hi)) / (hi - lo), (lo, hi)


def bd_rate(ref: RdCurve, test: RdCurve, clean: bool = True) -> BdResult:
    """Average percent rate difference of test vs ref at equal quality.

    Negative means the test curve needs less rate. With clean=True, points
    that break quality monotonicity are dropped first (enforce_monotone).
    """
    if clean:
        ref = enforce_monotone(ref)
        test = enforce_monotone(test)
    d, overlap = _mean_gap(_inverse_fit(ref), _inverse_fit(test))
    return BdResult(value=(10.0 ** d - 1.0) * 100.0, overlap=overlap)


def bd_quality(ref: RdCurve, test: RdCurve) -> BdResult:
    """Average quality difference of test vs ref at equal rate.

    Positive means the test curve is better. Computed on the curves as
    given, without monotone cleanup.
    """
    d, overlap = _mean_gap(
        pchip_fit([math.log10(r) for r in ref.rates], ref.qualities),
        pchip_fit([math.log10(r) for r in test.rates], test.qualities),
    )
    return BdResult(value=d, overlap=overlap)


def default_anchors(ref: RdCurve, qps=DEFAULT_ANCHOR_QPS) -> list[tuple[str, float]]:
    """Anchor qualities taken from the reference curve's labelled qp points."""
    return [(f"qp{qp}", q) for qp in qps if (q := ref.quality_at_qp(qp)) is not None]


def bitrate_savings(ref: RdCurve, test: RdCurve, anchors) -> SavingsResult:
    """Percent rate change of test vs ref at the (label, quality) anchors,
    such as default_anchors(ref).

    Each curve is cleaned to monotone quality, inverted (quality -> rate),
    and read at every anchor. Anchors outside either curve's quality range
    are skipped; if none survive, AnchorOutOfRange is raised.
    """
    ref_c = enforce_monotone(ref)
    test_c = enforce_monotone(test)
    inv_r = _inverse_fit(ref_c, transform=float)
    inv_t = _inverse_fit(test_c, transform=float)
    lo = max(inv_r.domain[0], inv_t.domain[0])
    hi = min(inv_r.domain[1], inv_t.domain[1])

    per_anchor: list[tuple[str, float]] = []
    skipped: list[str] = []
    for label, q in anchors:
        if not (lo <= q <= hi):
            skipped.append(label)
            continue
        r_ref = inv_r(q)
        r_test = inv_t(q)
        per_anchor.append((label, (r_test - r_ref) / r_ref * 100.0))
    if not per_anchor:
        raise AnchorOutOfRange(
            f"all anchors outside the common quality range [{lo}, {hi}]"
        )
    mean = sum(v for _, v in per_anchor) / len(per_anchor)
    return SavingsResult(
        per_anchor=tuple(per_anchor), mean=mean, skipped=tuple(skipped)
    )
