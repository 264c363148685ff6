"""Tests for the delta-rate / delta-quality metrics and bitrate savings."""

import math

import numpy as np
import pytest

from perclip import (
    RdPoint,
    bd_quality,
    bd_rate,
    bitrate_savings,
    build_curve,
    default_anchors,
    enforce_monotone,
    pchip_fit,
)
from perclip.errors import AnchorOutOfRange, NoOverlap

from conftest import random_monotone_curve, random_overlapping_pair


def scale_rates(curve, factor):
    return build_curve(
        [RdPoint(p.rate * factor, p.quality, qp=p.qp) for p in curve.points],
        curve.metric_id,
    )


def shift_quality(curve, offset):
    return build_curve(
        [RdPoint(p.rate, p.quality + offset, qp=p.qp) for p in curve.points],
        curve.metric_id,
    )


def oracle_bd_rate(ref, test, n=100_000):
    """Dense trapezoid integration over the same quality -> log10(rate) fits."""
    fr = pchip_fit(ref.qualities, [math.log10(r) for r in ref.rates])
    ft = pchip_fit(test.qualities, [math.log10(r) for r in test.rates])
    lo = max(fr.domain[0], ft.domain[0])
    hi = min(fr.domain[1], ft.domain[1])
    grid = np.linspace(lo, hi, n)
    d = (np.trapezoid(ft(grid), grid) - np.trapezoid(fr(grid), grid)) / (hi - lo)
    return (10.0**d - 1.0) * 100.0


def oracle_bd_quality(ref, test, n=100_000):
    fr = pchip_fit([math.log10(r) for r in ref.rates], ref.qualities)
    ft = pchip_fit([math.log10(r) for r in test.rates], test.qualities)
    lo = max(fr.domain[0], ft.domain[0])
    hi = min(fr.domain[1], ft.domain[1])
    grid = np.linspace(lo, hi, n)
    return (np.trapezoid(ft(grid), grid) - np.trapezoid(fr(grid), grid)) / (hi - lo)


class TestBdRate:
    def test_identity_is_zero(self, rng):
        curve = random_monotone_curve(rng)
        assert bd_rate(curve, curve).value == 0.0

    def test_constant_ratio_exact(self, rng):
        ref = random_monotone_curve(rng)
        test = scale_rates(ref, 0.9)
        assert bd_rate(ref, test).value == pytest.approx(-10.0, abs=1e-9)

    def test_matches_dense_oracle(self, rng):
        for _ in range(40):
            ref, test = random_overlapping_pair(rng)
            assert bd_rate(ref, test, clean=False).value == pytest.approx(
                oracle_bd_rate(ref, test), abs=1e-6
            )

    def test_reciprocity(self, rng):
        for _ in range(40):
            a, b = random_overlapping_pair(rng)
            fwd = bd_rate(a, b).value
            rev = bd_rate(b, a).value
            assert (1 + fwd / 100.0) * (1 + rev / 100.0) == pytest.approx(1.0, abs=1e-9)

    def test_point_order_irrelevant(self, rng):
        ref, test = random_overlapping_pair(rng)
        shuffled = build_curve(
            [test.points[i] for i in rng.permutation(len(test.points))],
            test.metric_id,
        )
        assert bd_rate(ref, shuffled).value == bd_rate(ref, test).value

    def test_common_rate_scale_invariant(self, rng):
        ref, test = random_overlapping_pair(rng)
        base = bd_rate(ref, test).value
        scaled = bd_rate(scale_rates(ref, 3.7), scale_rates(test, 3.7)).value
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_no_overlap(self):
        a = build_curve([RdPoint(100, 10), RdPoint(200, 20)], "mos")
        b = build_curve([RdPoint(100, 30), RdPoint(200, 40)], "mos")
        with pytest.raises(NoOverlap):
            bd_rate(a, b)

    def test_clean_drops_dip(self):
        ref = build_curve(
            [RdPoint(100, 10), RdPoint(200, 20), RdPoint(400, 30)], "mos"
        )
        dipped = build_curve(
            [RdPoint(100, 10), RdPoint(150, 25), RdPoint(200, 20), RdPoint(400, 30)],
            "mos",
        )
        cleaned = enforce_monotone(dipped)
        assert len(cleaned.points) == 3
        assert bd_rate(ref, dipped, clean=True) == bd_rate(ref, cleaned, clean=False)

    def test_overlap_interval_reported(self, rng):
        ref, test = random_overlapping_pair(rng)
        res = bd_rate(ref, test)
        lo, hi = res.overlap
        assert lo < hi
        assert lo >= min(min(ref.qualities), min(test.qualities))


class TestBdQuality:
    def test_identity_is_zero(self, rng):
        curve = random_monotone_curve(rng)
        assert bd_quality(curve, curve).value == 0.0

    def test_constant_offset_exact(self, rng):
        ref = random_monotone_curve(rng)
        test = shift_quality(ref, 2.5)
        assert bd_quality(ref, test).value == pytest.approx(2.5, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(40):
            ref, test = random_overlapping_pair(rng)
            assert bd_quality(ref, test).value == pytest.approx(
                oracle_bd_quality(ref, test), abs=1e-6
            )

    def test_antisymmetric(self, rng):
        for _ in range(20):
            a, b = random_overlapping_pair(rng)
            assert bd_quality(a, b).value == pytest.approx(
                -bd_quality(b, a).value, abs=1e-9
            )

    def test_no_cleanup_applied(self):
        # a non-monotone test curve is integrated as-is
        ref = build_curve([RdPoint(100, 10), RdPoint(200, 20), RdPoint(400, 30)], "mos")
        bumpy = build_curve(
            [RdPoint(100, 12), RdPoint(200, 11), RdPoint(400, 31)], "mos"
        )
        res = bd_quality(ref, bumpy)
        assert res.value == pytest.approx(oracle_bd_quality(ref, bumpy), abs=1e-6)

    def test_disjoint_rates(self):
        a = build_curve([RdPoint(10, 1), RdPoint(20, 2)], "mos")
        b = build_curve([RdPoint(1000, 1), RdPoint(2000, 2)], "mos")
        with pytest.raises(NoOverlap):
            bd_quality(a, b)


class TestBitrateSavings:
    def test_identity_zero(self, rng):
        curve = random_monotone_curve(rng)
        mid = (curve.qualities[1] + curve.qualities[2]) / 2
        res = bitrate_savings(curve, curve, anchors=[("mid", mid)])
        assert res.per_anchor == (("mid", 0.0),)
        assert res.mean == 0.0

    def test_constant_ratio_every_anchor(self, rng):
        ref = random_monotone_curve(rng)
        test = scale_rates(ref, 0.9)
        qs = ref.qualities
        anchors = [(f"a{i}", q) for i, q in enumerate(qs)]
        res = bitrate_savings(ref, test, anchors=anchors)
        for _, v in res.per_anchor:
            assert v == pytest.approx(-10.0, abs=1e-9)
        assert res.mean == pytest.approx(-10.0, abs=1e-9)

    def test_anchor_at_shared_knot_matches_rate_ratio(self, rng):
        for _ in range(20):
            ref = random_monotone_curve(rng)
            factor = float(rng.uniform(0.7, 1.3))
            test = scale_rates(ref, factor)
            i = int(rng.integers(0, len(ref.points)))
            q = ref.points[i].quality
            res = bitrate_savings(ref, test, anchors=[("knot", q)])
            expected = (test.points[i].rate - ref.points[i].rate) / ref.points[i].rate * 100
            assert res.per_anchor[0][1] == pytest.approx(expected, abs=1e-9)

    def test_out_of_range_anchor_skipped(self, rng):
        ref = random_monotone_curve(rng)
        lo_q = min(ref.qualities)
        mid = (ref.qualities[1] + ref.qualities[2]) / 2
        res = bitrate_savings(ref, ref, anchors=[("low", lo_q - 100), ("mid", mid)])
        assert res.skipped == ("low",)
        assert len(res.per_anchor) == 1

    def test_all_anchors_out_of_range(self, rng):
        ref = random_monotone_curve(rng)
        with pytest.raises(AnchorOutOfRange):
            bitrate_savings(ref, ref, anchors=[("way", 1e6)])

    def test_mean_is_arithmetic_mean(self, rng):
        ref, test = random_overlapping_pair(rng)
        lo = max(min(ref.qualities), min(test.qualities))
        hi = min(max(ref.qualities), max(test.qualities))
        anchors = [(f"a{i}", lo + f * (hi - lo)) for i, f in enumerate((0.2, 0.5, 0.8))]
        res = bitrate_savings(ref, test, anchors=anchors)
        values = [v for _, v in res.per_anchor]
        assert res.mean == pytest.approx(sum(values) / len(values), abs=1e-12)

    def test_default_anchors_from_qp_labels(self):
        curve = build_curve(
            [
                RdPoint(100, 10, qp=59),
                RdPoint(200, 20, qp=39),
                RdPoint(400, 30, qp=27),
            ],
            "mos",
        )
        anchors = default_anchors(curve)
        assert anchors == [("qp27", 30), ("qp39", 20), ("qp59", 10)]
