"""Tests for the box-constrained trust-region minimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclip import OptimizationConfig
from perclip.powell import powell_box_minimize


def quadratic_bowl(x):
    return (x[0] - 1.3) ** 2 + (x[1] - 0.8) ** 2


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def pointwise(f):
    """The cost function of a list of points that the search takes, from
    f, the cost of one point."""
    return lambda xs: [f(x) for x in xs]


def minimize(f, x0=(1.0, 1.0), lo=0.2, hi=4.0):
    """f, the cost of one point, minimized over [lo, hi]^2, by default the
    search box of the default OptimizationConfig, to a resolution of 1e-4."""
    return powell_box_minimize(pointwise(f), x0, (lo, lo), (hi, hi), 1e-4)


class TestPowellMinimize:
    def test_quadratic_bowl(self):
        res = minimize(quadratic_bowl)
        assert res.x[0] == pytest.approx(1.3, abs=1e-4)
        assert res.x[1] == pytest.approx(0.8, abs=1e-4)
        assert len(res.evaluations) <= 40
        assert res.stop == "resolution"

    def test_exact_model_stops_once_validated(self):
        res = powell_box_minimize(pointwise(quadratic_bowl), (1.0, 1.0), (0.2, 0.2),
                                  (4.0, 4.0), 1e-4, cost_resolution=1e-9)
        assert res.stop == "model"
        assert res.x[0] == pytest.approx(1.3, abs=1e-6)
        assert res.x[1] == pytest.approx(0.8, abs=1e-6)
        assert len(res.evaluations) < len(minimize(quadratic_bowl).evaluations)

    def test_rosenbrock_from_default_start(self):
        res = minimize(rosenbrock)
        assert res.x[0] == pytest.approx(1.0, abs=1e-3)
        assert res.x[1] == pytest.approx(1.0, abs=1e-3)
        assert len(res.evaluations) < 200

    def test_constant_function_stops_immediately(self):
        res = minimize(lambda x: 42.0)
        assert res.iterations == 1
        assert res.x[0] == 1.0
        assert res.x[1] == 1.0
        assert res.fx == 42.0
        assert res.stop == "ftol"

    def test_never_evaluates_outside_box(self):
        lo, hi = 0.2, 4.0
        seen = []

        def f(x):
            seen.append(tuple(x))
            return quadratic_bowl(x)

        minimize(f, lo=lo, hi=hi)
        for k1, k2 in seen:
            assert lo <= k1 <= hi
            assert lo <= k2 <= hi

    def test_best_matches_min_of_evaluations(self):
        res = minimize(quadratic_bowl)
        assert res.fx == min(cost for _, cost in res.evaluations)

    def test_running_best_non_increasing(self):
        res = minimize(quadratic_bowl)
        best = np.inf
        bests = []
        for _, cost in res.evaluations:
            best = min(best, cost)
            bests.append(best)
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_arbitrary_dimension_core(self):
        target = np.array([0.3, 0.7, 0.1])
        res = powell_box_minimize(
            pointwise(lambda x: float(np.sum((x - target) ** 2))),
            x0=(0.5, 0.5, 0.5),
            lower=(0.0, 0.0, 0.0),
            upper=(1.0, 1.0, 1.0),
            xtol=1e-6,
        )
        assert np.allclose(res.x, target, atol=1e-5)

    def test_minimum_on_boundary(self):
        res = powell_box_minimize(
            pointwise(lambda x: float(x[0] + x[1])),
            x0=(0.5, 0.5),
            lower=(0.2, 0.2),
            upper=(4.0, 4.0),
        )
        assert np.allclose(res.x, [0.2, 0.2], atol=1e-3)

    def test_optimum_beyond_box_lands_on_the_bound(self):
        res = powell_box_minimize(
            pointwise(lambda x: float((x[0] - 4.5) ** 2 + (x[1] - 0.7) ** 2)),
            x0=(1.0, 1.0),
            lower=(0.2, 0.2),
            upper=(4.0, 4.0),
        )
        assert res.x[0] == 4.0
        assert res.x[1] == pytest.approx(0.7, abs=1e-4)

    def test_optimum_beyond_box_evaluates_no_point_twice(self):
        # points are told apart at 1e-6, the resolution of the encode
        # cache's key
        res = powell_box_minimize(
            pointwise(lambda x: float((x[0] - 4.5) ** 2 + (x[1] - 0.7) ** 2)),
            x0=(1.0, 1.0),
            lower=(0.2, 0.2),
            upper=(4.0, 4.0),
        )
        points = [tuple(round(v, 6) for v in pt) for pt, _ in res.evaluations]
        assert len(set(points)) == len(points)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            powell_box_minimize(pointwise(quadratic_bowl), x0=(1, 1), lower=(2, 2), upper=(1, 1))
        with pytest.raises(ValueError):
            powell_box_minimize(pointwise(quadratic_bowl), x0=(9, 9), lower=(0, 0), upper=(1, 1))

    def test_infinite_start_cost_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            minimize(lambda x: math.inf)


class TestStencilBatch:
    @pytest.mark.parametrize("x0, probes, count", [
        ((1.0, 1.0), [(1.25, 1.0), (0.75, 1.0), (1.0, 1.25), (1.0, 0.75)], 13),
        # both probes of an axis step inward from a bound
        ((0.25, 3.95), [(0.5, 3.95), (0.75, 3.95), (0.25, 3.7), (0.25, 3.45)], 20),
    ], ids=["interior", "near-corner"])
    def test_axis_probes_are_one_list_later_points_alone(self, x0, probes, count):
        calls = []

        def f(xs):
            calls.append([tuple(x) for x in xs])
            return [quadratic_bowl(x) for x in xs]

        res = powell_box_minimize(f, x0, (0.2, 0.2), (4.0, 4.0), 1e-4)
        assert calls[1] == probes
        assert [len(xs) for xs in calls] == [1, len(probes)] + [1] * (count - 1 - len(probes))
        # the sequence the search evaluated before its probes were batched
        points = [x for xs in calls for x in xs]
        assert points == [x for x, _ in res.evaluations]
        assert points[:5] == [x0, *probes] and len(points) == count


@st.composite
def box_problems(draw):
    """Bounds straddling 1, a start inside them and a bowl whose centre may
    lie outside them."""
    lo = draw(st.floats(0.05, 0.95))
    hi = draw(st.floats(1.05, 6.0))
    x0 = tuple(draw(st.floats(lo, hi)) for _ in range(2))
    centre = tuple(draw(st.floats(0.01, 7.0)) for _ in range(2))
    weights = tuple(draw(st.floats(0.1, 10.0)) for _ in range(2))
    return (lo, hi), x0, centre, weights


class TestPowellProperties:
    @staticmethod
    def _bowl(centre, weights):
        return lambda x: sum(w * (xi - c) ** 2 for xi, c, w in zip(x, centre, weights))

    @settings(max_examples=40, deadline=None)
    @given(problem=box_problems())
    def test_stays_in_box_and_never_worse_than_start(self, problem):
        (lo, hi), x0, centre, weights = problem
        res = minimize(self._bowl(centre, weights), x0, lo, hi)
        for (k1, k2), _ in res.evaluations:
            assert lo <= k1 <= hi and lo <= k2 <= hi
        assert res.evaluations[0][0] == x0
        assert res.fx <= res.evaluations[0][1]

    @settings(max_examples=20, deadline=None)
    @given(problem=box_problems())
    def test_identical_runs_give_identical_traces(self, problem):
        (lo, hi), x0, centre, weights = problem
        f = self._bowl(centre, weights)
        first, second = (minimize(f, x0, lo, hi) for _ in range(2))
        assert first.evaluations == second.evaluations
        assert (first.x, first.fx, first.iterations) == (second.x, second.fx, second.iterations)


class TestOptimizationConfig:
    def test_defaults(self):
        cfg = OptimizationConfig()
        assert cfg.qps == (27, 39, 49, 59, 63)
        assert cfg.bounds == (0.2, 4.0)

    def test_duplicate_qps_rejected(self):
        with pytest.raises(ValueError):
            OptimizationConfig(qps=(27, 27, 39))

    def test_qp_range_checked(self):
        with pytest.raises(ValueError):
            OptimizationConfig(qps=(27, 64))

    def test_bounds_must_straddle_one(self):
        with pytest.raises(ValueError):
            OptimizationConfig(bounds=(1.5, 4.0))
