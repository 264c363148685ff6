"""Tests for curve validation, interpolation, and monotone cleanup."""

import json
import math
import re
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclip import (
    RdPoint,
    build_curve,
    enforce_monotone,
    pchip_fit,
    write_curve_json,
)
from perclip.curves import load_curve_file
from perclip.errors import (
    DuplicateRate,
    NonAscendingAbscissae,
    NonFiniteValue,
    OutOfDomain,
    TooFewPoints,
)


class TestBuildCurve:
    def test_sorts_by_rate(self):
        curve = build_curve([RdPoint(100, 3.0), RdPoint(50, 2.0)], "mos")
        assert curve.rates == (50, 100)
        assert curve.qualities == (2.0, 3.0)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            build_curve([RdPoint(100, 3.0)], "mos")

    def test_nan_quality_rejected(self):
        with pytest.raises(NonFiniteValue):
            build_curve([RdPoint(100, math.nan), RdPoint(50, 2.0)], "mos")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(NonFiniteValue):
            build_curve([RdPoint(-5, 1.0), RdPoint(50, 2.0)], "mos")

    def test_duplicate_rate_rejected(self):
        with pytest.raises(DuplicateRate):
            build_curve([RdPoint(50, 1.0), RdPoint(50, 2.0)], "mos")

    def test_quality_at_qp(self):
        curve = build_curve([RdPoint(100, 3.0, qp=27), RdPoint(50, 2.0, qp=39)], "mos")
        assert curve.quality_at_qp(27) == 3.0
        assert curve.quality_at_qp(63) is None


class TestPchipFit:
    def test_linear_data_reproduced(self):
        f = pchip_fit([0, 1, 2], [0, 1, 2])
        assert f(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_knot_interpolation(self):
        f = pchip_fit([0, 1], [5, 7])
        assert f(1) == 7
        assert f(0) == 5

    def test_knots_reproduced_exactly(self, rng):
        xs = np.sort(rng.uniform(0, 10, 7))
        ys = rng.uniform(-5, 5, 7)
        f = pchip_fit(xs, ys)
        for x, y in zip(xs, ys):
            assert f(float(x)) == pytest.approx(y, abs=1e-13)

    def test_monotone_data_stays_monotone(self):
        f = pchip_fit([0, 1, 2, 3], [0, 1, 1, 2])
        grid = np.linspace(0, 3, 10_000)
        vals = f(grid)
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals.min() >= 0.0 and vals.max() <= 2.0

    def test_non_ascending_rejected(self):
        with pytest.raises(NonAscendingAbscissae):
            pchip_fit([0, 2, 1], [1, 2, 3])
        with pytest.raises(NonAscendingAbscissae):
            pchip_fit([0, 1, 1], [1, 2, 3])

    def test_too_few_knots(self):
        with pytest.raises(TooFewPoints):
            pchip_fit([1], [1])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteValue):
            pchip_fit([0, 1, math.inf], [1, 2, 3])

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, 5e-324, 1e-300], [0.0, 1.0, 2.0]),  # harmonic mean divides by 0
        ([0.0, 1e-300, 2e-300], [0.0, 1.0, 2.0]),  # finite secants, same division
        ([0.0, 2.2e-309], [0.0, 1.0]),  # the secant overflows to inf
    ])
    def test_knots_too_close_for_finite_slopes_rejected(self, xs, ys):
        with pytest.raises(NonFiniteValue, match="not finite"):
            pchip_fit(xs, ys)

    @settings(max_examples=60, deadline=None)
    @given(
        ys=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_monotone_inputs_never_overshoot(self, ys):
        ys = sorted(ys)
        xs = list(range(len(ys)))
        f = pchip_fit(xs, ys)
        grid = np.linspace(xs[0], xs[-1], 2000)
        vals = f(grid)
        assert np.all(np.diff(vals) >= -1e-9)
        assert vals.min() >= ys[0] - 1e-9
        assert vals.max() <= ys[-1] + 1e-9


class TestPchipEval:
    def test_left_endpoint(self):
        f = pchip_fit([1, 2, 3], [4, 5, 9])
        assert f(1) == 4

    def test_out_of_domain(self):
        f = pchip_fit([1, 2, 3], [4, 5, 9])
        with pytest.raises(OutOfDomain):
            f(0.999)
        with pytest.raises(OutOfDomain):
            f(3.001)
        with pytest.raises(OutOfDomain):
            f(np.array([1.5, 3.5]))

    def test_strictly_increasing_fit_gives_increasing_midpoints(self, rng):
        xs = np.sort(rng.uniform(0, 10, 6))
        ys = np.sort(rng.uniform(0, 50, 6))
        while np.min(np.diff(ys)) <= 0.1:
            ys = np.sort(rng.uniform(0, 50, 6))
        f = pchip_fit(xs, ys)
        mids = (xs[:-1] + xs[1:]) / 2
        vals = [f(float(m)) for m in mids]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_nan_raises_in_every_input_form(self):
        f = pchip_fit([1, 2, 3], [4, 5, 9])
        for x in (math.nan, np.array(math.nan), np.array([1.5, math.nan]),
                  np.array([[1.5], [math.nan]])):
            with pytest.raises(OutOfDomain):
                f(x)

    def test_zero_dimensional_and_empty_arrays_keep_their_shape(self):
        f = pchip_fit([1, 2, 3], [4, 5, 9])
        out = f(np.array(1.5))
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert float(out) == f(1.5)
        assert f(np.array(3.0)) == 9.0
        assert f(np.empty((0, 3))).shape == (0, 3)

    def test_scalar_and_array_agree(self, rng):
        xs = np.sort(rng.uniform(0, 5, 5))
        ys = rng.uniform(0, 5, 5)
        f = pchip_fit(xs, ys)
        grid = np.linspace(xs[0], xs[-1], 100)
        arr = f(grid)
        for x, v in zip(grid, arr):
            assert f(float(x)) == pytest.approx(v, abs=1e-14)


def horner_reference(f, x: float) -> float:
    """Per-point reference evaluation: bisect for the segment, then Horner
    in the local coordinate, with the power-basis coefficients rebuilt
    from the knots and slopes."""
    if x == f.xs[-1]:
        return f.ys[-1]
    i = min(max(bisect_right(f.xs, x) - 1, 0), len(f.xs) - 2)
    h = f.xs[i + 1] - f.xs[i]
    a, b, dy = h * f.slopes[i], h * f.slopes[i + 1], f.ys[i + 1] - f.ys[i]
    c0, c1, c2, c3 = f.ys[i], a, 3.0 * dy - 2.0 * a - b, -2.0 * dy + a + b
    t = (x - f.xs[i]) / h
    return c0 + t * (c1 + t * (c2 + t * c3))


def integral_reference(f, a: float, b: float) -> float:
    """Reference closed-form integral: bisect for the end segments, then
    the partial end pieces and the whole segments in between."""
    if b < a:
        return -integral_reference(f, b, a)

    def seg(x):
        return min(max(bisect_right(f.xs, x) - 1, 0), len(f.xs) - 2)

    def piece(i, t0, t1):
        h = f.xs[i + 1] - f.xs[i]
        m0, m1, dy = h * f.slopes[i], h * f.slopes[i + 1], f.ys[i + 1] - f.ys[i]
        c0, c1, c2, c3 = f.ys[i], m0, 3.0 * dy - 2.0 * m0 - m1, -2.0 * dy + m0 + m1

        def anti(t):
            return t * (c0 + t * (c1 / 2.0 + t * (c2 / 3.0 + t * c3 / 4.0)))

        return h * (anti(t1) - anti(t0))

    ia, ib = seg(a), seg(b)
    ta = (a - f.xs[ia]) / (f.xs[ia + 1] - f.xs[ia])
    tb = (b - f.xs[ib]) / (f.xs[ib + 1] - f.xs[ib])
    if ia == ib:
        return piece(ia, ta, tb)
    total = piece(ia, ta, 1.0)
    for i in range(ia + 1, ib):
        total += piece(i, 0.0, 1.0)
    return total + piece(ib, 0.0, tb)


# knot gaps of at least 1e-3 keep the slopes finite
interpolants = st.tuples(
    st.floats(min_value=-100, max_value=100),
    st.lists(st.floats(min_value=1e-3, max_value=50), min_size=1, max_size=7),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=8, max_size=8),
).map(lambda k: pchip_fit(k[0] + np.cumsum([0.0, *k[1]]), k[2][: len(k[1]) + 1]))
unit_points = st.lists(st.floats(min_value=0, max_value=1), max_size=150)


class TestPchipEvaluationMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(f=interpolants, units=unit_points, seed=st.integers(0, 2**32 - 1))
    def test_every_input_form_is_bitwise_the_reference(self, f, units, seed):
        lo, hi = f.domain
        xs = np.array([min(max(lo + u * (hi - lo), lo), hi) for u in units] + list(f.xs))
        np.random.default_rng(seed).shuffle(xs)
        want = np.array([horner_reference(f, float(x)) for x in xs])
        assert np.array([f(float(x)) for x in xs]).tobytes() == want.tobytes()
        assert f(xs).tobytes() == want.tobytes()
        order = np.argsort(xs, kind="stable")
        assert f(xs[order]).tobytes() == want[order].tobytes()
        even = xs.size - xs.size % 2
        grid = f(xs[:even].reshape(2, -1))
        assert grid.shape == (2, even // 2)
        assert grid.tobytes() == want[:even].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(f=interpolants, ends=st.lists(st.floats(min_value=0, max_value=1),
                                      min_size=2, max_size=2),
           pick=st.integers(0, 3))
    def test_integral_equals_the_reference(self, f, ends, pick):
        lo, hi = f.domain
        a, b = (min(max(lo + u * (hi - lo), lo), hi) for u in ends)
        if pick & 1:  # a knot as the lower bound
            a = f.xs[len(f.xs) // 2]
        if pick & 2:  # a knot as the upper bound
            b = f.xs[-1 - len(f.xs) // 3]
        # the same double, except that a zero result may differ in sign
        assert f.integrate(a, b) == integral_reference(f, a, b)


class TestPchipIntegrate:
    def test_linear_segment_area(self):
        f = pchip_fit([0, 2], [0, 4])
        assert f.integrate(0, 2) == pytest.approx(4.0, abs=1e-14)
        assert f.integrate(0.5, 1.5) == pytest.approx(2.0, abs=1e-14)

    def test_matches_dense_trapezoid(self, rng):
        for _ in range(20):
            xs = np.sort(rng.uniform(0, 10, 6))
            while np.min(np.diff(xs)) < 0.2:
                xs = np.sort(rng.uniform(0, 10, 6))
            ys = rng.uniform(-3, 3, 6)
            f = pchip_fit(xs, ys)
            a = float(rng.uniform(xs[0], xs[2]))
            b = float(rng.uniform(xs[3], xs[-1]))
            grid = np.linspace(a, b, 200_001)
            oracle = np.trapezoid(f(grid), grid)
            assert f.integrate(a, b) == pytest.approx(oracle, abs=1e-7)

    def test_reversed_bounds_negate(self):
        f = pchip_fit([0, 1, 2], [1, 3, 2])
        assert f.integrate(2, 0) == -f.integrate(0, 2)

    def test_out_of_domain(self):
        f = pchip_fit([0, 1], [1, 1])
        with pytest.raises(OutOfDomain):
            f.integrate(-0.5, 1)


def brute_force_max_monotone(qualities):
    best = 0
    n = len(qualities)
    for mask in range(1 << n):
        subset = [qualities[i] for i in range(n) if mask >> i & 1]
        if all(a <= b for a, b in zip(subset, subset[1:])):
            best = max(best, len(subset))
    return best


class TestEnforceMonotone:
    def _curve(self, qualities):
        return build_curve(
            [RdPoint(100.0 * (i + 1), q) for i, q in enumerate(qualities)], "mos"
        )

    def test_already_monotone_unchanged(self):
        curve = self._curve([1, 2, 3, 4])
        assert enforce_monotone(curve) == curve

    def test_single_dip_removed(self):
        curve = self._curve([1, 3, 2, 4])
        cleaned = enforce_monotone(curve)
        assert len(cleaned.points) == 3 == brute_force_max_monotone([1, 3, 2, 4])
        # lower-rate point wins the tie between {1,3,4} and {1,2,4}
        assert [p.quality for p in cleaned.points] == [1, 3, 4]

    def test_fully_decreasing_raises(self):
        with pytest.raises(TooFewPoints):
            enforce_monotone(self._curve([4, 3, 2, 1]))

    def test_matches_brute_force_on_random_curves(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 11))
            q = list(rng.uniform(0, 10, n))
            curve = self._curve(q)
            expected = brute_force_max_monotone(q)
            if expected < 2:
                with pytest.raises(TooFewPoints):
                    enforce_monotone(curve)
            else:
                assert len(enforce_monotone(curve).points) == expected

    def test_idempotent(self, rng):
        for _ in range(50):
            q = list(rng.uniform(0, 10, 8))
            curve = self._curve(q)
            try:
                once = enforce_monotone(curve)
            except TooFewPoints:
                continue
            assert enforce_monotone(once) == once

    def test_keeps_equal_qualities(self):
        curve = self._curve([1, 2, 2, 3])
        assert len(enforce_monotone(curve).points) == 4

    @settings(max_examples=80, deadline=None)
    @given(
        qualities=st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            min_size=2,
            max_size=10,
        )
    )
    def test_retained_subset_is_maximal(self, qualities):
        curve = self._curve(qualities)
        expected = brute_force_max_monotone(qualities)
        if expected < 2:
            with pytest.raises(TooFewPoints):
                enforce_monotone(curve)
            return
        cleaned = enforce_monotone(curve)
        assert len(cleaned.points) == expected
        kept = [p.quality for p in cleaned.points]
        assert all(a <= b for a, b in zip(kept, kept[1:]))
        assert enforce_monotone(cleaned) == cleaned


class TestCurveJson:
    def test_round_trip(self, tmp_path):
        # listed out of rate order: each ci95 must travel with its own point
        curve = build_curve(
            [RdPoint(100, 3.0, qp=27, ci95=0.5), RdPoint(50, 2.0, qp=39, ci95=0.25),
             RdPoint(75, 2.5)], "ms_ssim"
        )
        path = tmp_path / "c.json"
        write_curve_json(curve, path, clip="clipA", variant="tuned")
        back, meta = load_curve_file(path)
        assert back == curve
        assert [p.ci95 for p in back.points] == [0.25, 0.0, 0.5]
        assert meta == {"clip": "clipA", "variant": "tuned"}
        doc = json.loads(path.read_text())
        assert doc["clip"] == "clipA"
        assert doc["points"][0] == {"rate_kbps": 50, "quality": 2.0, "qp": 39, "ci95": 0.25}
        assert doc["points"][1] == {"rate_kbps": 75, "quality": 2.5}

    @pytest.mark.parametrize("ci95", [-0.5, math.nan, math.inf])
    def test_ci95_must_be_finite_and_non_negative(self, ci95):
        with pytest.raises(NonFiniteValue, match="^ci95 must be finite and >= 0"):
            build_curve([RdPoint(50, 2.0, ci95=ci95), RdPoint(100, 3.0)], "mos")

    def test_validation_applies(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"metric": "mos", "points": [
            {"rate_kbps": 10, "quality": 1.0}
        ]}))
        with pytest.raises(TooFewPoints, match="^" + re.escape(str(path))):
            load_curve_file(path)

    @pytest.mark.parametrize("doc_clip, clip", [("clipA", "clipA"), (None, "meadow"),
                                                ("", "meadow")])
    def test_clip_is_the_files_else_its_name_before_the_double_underscore(
            self, tmp_path, doc_clip, clip):
        path = tmp_path / "meadow__tuned.curve.json"
        write_curve_json(build_curve([RdPoint(50, 2.0), RdPoint(100, 3.0)], "mos"), path,
                         clip=doc_clip)
        assert load_curve_file(path)[1] == {"clip": clip, "variant": None}

    def test_duplicate_qp_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        write_curve_json(build_curve([RdPoint(50, 1.0, qp=39), RdPoint(70, 1.5),
                                      RdPoint(90, 2.0, qp=39)], "mos"), path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate qp 39$"):
            load_curve_file(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": []}))
        with pytest.raises(ValueError):
            load_curve_file(path)


class TestImmutability:
    def test_frozen_types(self):
        p = RdPoint(10, 1.0)
        with pytest.raises(AttributeError):
            p.rate = 20
        f = pchip_fit([0, 1], [0, 1])
        with pytest.raises(AttributeError):
            f.xs = (0, 2)
