"""Tests for the monotone logistic mapping and correlation coefficients."""

import csv
import itertools
from pathlib import Path

import numpy as np
import pytest

from perclip import LogisticParams, correlate, fit_logistic5
from perclip.correlation import _sse, average_ranks, kendall_tau_b, pearson
from perclip.errors import DegenerateInput, TooFewPoints

DATA = Path(__file__).resolve().parent.parent / "data"


def brute_force_kendall_tau_b(x, y):
    """Direct concordant/discordant pair counting with tie corrections."""
    n = len(x)
    c_minus_d = 0
    tx = ty = 0
    for i, j in itertools.combinations(range(n), 2):
        sx = int(x[i] > x[j]) - int(x[i] < x[j])
        sy = int(y[i] > y[j]) - int(y[i] < y[j])
        c_minus_d += sx * sy
        tx += sx == 0
        ty += sy == 0
    n0 = n * (n - 1) / 2
    return c_minus_d / np.sqrt((n0 - tx) * (n0 - ty))


def brute_force_average_ranks(values):
    """Each value's rank: one plus the count below it plus half the other ties."""
    return [1 + sum(w < v for w in values) + (sum(w == v for w in values) - 1) / 2
            for v in values]


def brute_force_spearman(x, y):
    return pearson(average_ranks(x), average_ranks(y))


SHIPPED_METRICS = ("msssim_db", "psnr_y_db", "pvqm")


def shipped_pairs(column):
    """One data/metrics.csv column and the matching data/subjective.csv scores."""
    with open(DATA / "subjective.csv", newline="") as fh:
        subjective = {r["pvs_id"]: float(r["subjective"]) for r in csv.DictReader(fh)}
    with open(DATA / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    x = np.array([float(r[column]) for r in rows])
    y = np.array([subjective[r["pvs_id"]] for r in rows])
    return x, y


@pytest.fixture
def solver_calls(monkeypatch):
    """Records each scipy least_squares call fit_logistic5 makes: its
    residual function, its jac argument and how often the solver evaluated
    the residuals (finite-difference steps included)."""
    import scipy.optimize

    real = scipy.optimize.least_squares
    calls = []

    def recording(fun, x0, jac="2-point", **kwargs):
        call = {"fun": fun, "jac": jac, "residual_calls": 0}
        calls.append(call)

        def counted(theta):
            call["residual_calls"] += 1
            return fun(theta)

        return real(counted, x0, jac=jac, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", recording)
    return calls


class TestRanks:
    def test_simple_ranks(self):
        assert list(average_ranks([30, 10, 20])) == [3, 1, 2]

    def test_ties_get_average_rank(self):
        assert list(average_ranks([1, 1, 2])) == [1.5, 1.5, 3]
        assert list(average_ranks([5, 5, 5])) == [2, 2, 2]

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(50):
            v = rng.integers(0, 6, int(rng.integers(1, 15))).astype(float)
            assert list(average_ranks(v)) == brute_force_average_ranks(list(v))


class TestCorrelate:
    def test_affine_relation_gives_all_ones(self):
        x = np.linspace(0, 10, 20)
        rep = correlate(x, 2 * x + 1)
        assert rep.plcc == pytest.approx(1.0, abs=1e-12)
        assert rep.srocc == pytest.approx(1.0, abs=1e-12)
        assert rep.krcc == pytest.approx(1.0, abs=1e-12)
        assert rep.rmse == 0.0
        assert rep.n == 20

    def test_monotone_nonlinear_rank_perfect(self):
        x = np.linspace(0, 5, 15)
        y = np.exp(x)
        rep = correlate(x, y)
        assert rep.srocc == pytest.approx(1.0, abs=1e-12)
        assert rep.krcc == pytest.approx(1.0, abs=1e-12)
        assert rep.plcc < 1.0

    def test_tie_fixture_matches_published_values(self):
        rep = correlate([1, 1, 2], [1, 2, 3])
        assert rep.srocc == pytest.approx(0.8660254038, abs=1e-9)
        assert rep.krcc == pytest.approx(0.8164965809, abs=1e-9)

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 12))
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 5, n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            rep = correlate(x, y)
            assert rep.krcc == pytest.approx(brute_force_kendall_tau_b(x, y), abs=1e-12)
            assert rep.srocc == pytest.approx(brute_force_spearman(x, y), abs=1e-12)

    def test_rank_coefficients_invariant_under_monotone_transforms(self, rng):
        x = rng.uniform(0.1, 10, 30)
        y = rng.uniform(0.1, 10, 30)
        base = correlate(x, y)
        cubed = correlate(x**3, y)
        exped = correlate(x, np.exp(y))
        both = correlate(x**3, np.exp(y))
        for rep in (cubed, exped, both):
            assert rep.srocc == pytest.approx(base.srocc, abs=1e-12)
            assert rep.krcc == pytest.approx(base.krcc, abs=1e-12)

    def test_negation_flips_rank_signs_exactly(self, rng):
        x = rng.uniform(0, 10, 25)
        y = rng.uniform(0, 10, 25)
        base = correlate(x, y)
        neg = correlate(-x, y)
        assert neg.srocc == -base.srocc
        assert neg.krcc == -base.krcc

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPoints):
            correlate([1, 2], [1, 2])

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateInput):
            correlate([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            correlate([1, 2, 3], [4.0, 4.0, 4.0])

    def test_kendall_constant_side_degenerate(self):
        with pytest.raises(DegenerateInput):
            kendall_tau_b([2.0, 2.0, 2.0, 2.0], [1, 2, 3, 4])
        with pytest.raises(DegenerateInput):
            kendall_tau_b([1, 2, 3, 4], [5, 5, 5, 5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_rejected(self, bad, side):
        pair = [np.linspace(0, 10, 12), np.linspace(5, 50, 12)]
        pair[side][4] = bad
        with pytest.raises(ValueError, match="finite"):
            correlate(*pair)
        with pytest.raises(ValueError, match="finite"):
            correlate(*pair, params=LogisticParams(1.0, 1.0, 5.0, 1.0, 0.0))

    def test_bounds_hold_on_random_data(self, rng):
        for _ in range(20):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            rep = correlate(x, y)
            assert -1 <= rep.plcc <= 1
            assert -1 <= rep.srocc <= 1
            assert -1 <= rep.krcc <= 1


class TestFitLogistic5:
    def test_linear_data_fits_exactly(self):
        x = np.linspace(0, 10, 24)
        params = fit_logistic5(x, x)
        rmse = float(np.sqrt(np.mean((params(x) - x) ** 2)))
        assert rmse < 1e-6

    def test_known_parameter_surface_reproduced(self):
        true = LogisticParams(b1=50.0, b2=0.1, b3=40.0, b4=0.2, b5=10.0)
        x = np.linspace(0, 80, 24)
        y = true(x)
        fitted = fit_logistic5(x, y)
        rmse = float(np.sqrt(np.mean((fitted(x) - y) ** 2)))
        assert rmse < 1e-3

    def test_constant_objective_rejected(self):
        with pytest.raises(DegenerateInput):
            fit_logistic5(np.full(10, 3.0), np.linspace(0, 1, 10))

    @pytest.mark.parametrize("column, seed_sse", [
        ("msssim_db", 39.3915972),
        ("psnr_y_db", 857.377133),
        ("pvqm", 15.5617710),
    ], ids=SHIPPED_METRICS)
    def test_shipped_metrics_fit_no_worse_than_before(self, column, seed_sse):
        # seed_sse: the squared error of the bounded trust-region least-squares
        # fit (the Powell search it replaced reached 42.0878, 857.4697 and
        # 20.0223); a later change of solver may not cost accuracy
        x, y = shipped_pairs(column)
        assert _sse(fit_logistic5(x, y), x, y) <= seed_sse * (1 + 1e-6)

    @pytest.mark.parametrize("column", SHIPPED_METRICS)
    def test_analytic_jacobian_matches_central_differences(self, rng, solver_calls, column):
        fit_logistic5(*shipped_pairs(column))
        (call,) = solver_calls
        fun, jac = call["fun"], call["jac"]
        assert callable(jac)
        h = 1e-6
        for theta in rng.uniform(0.0, 1.0, size=(50, 5)):
            analytic = jac(theta)
            central = np.column_stack([
                (fun(theta + h * e) - fun(theta - h * e)) / (2 * h) for e in np.eye(5)
            ])
            # per column, plus the rounding error of the differences, which
            # dominates where a steep logistic saturates and the column is tiny
            rounding = 4 * np.sqrt(len(central)) * np.finfo(float).eps * np.abs(fun(theta)).max() / h
            err = np.linalg.norm(analytic - central, axis=0)
            assert np.all(err <= 1e-6 * np.linalg.norm(central, axis=0) + rounding), (theta, err)

    def test_shipped_metrics_fit_within_residual_budget(self, solver_calls):
        # pins the solver's work: 913 residual evaluations with the 2-point
        # finite-difference Jacobian, 178 with the analytic one
        for column in SHIPPED_METRICS:
            fit_logistic5(*shipped_pairs(column))
        assert len(solver_calls) == len(SHIPPED_METRICS)
        assert sum(c["residual_calls"] for c in solver_calls) <= 250

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_rejected(self, bad, side):
        pair = [np.linspace(0, 10, 12), np.linspace(5, 50, 12)]
        pair[side][4] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_logistic5(*pair)

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPoints):
            fit_logistic5([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])

    def test_fitted_mapping_is_monotone(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            x = np.sort(r.uniform(0, 10, 25))
            y = 80 / (1 + np.exp(-(x - 5))) + r.normal(0, 2, 25) + 10
            params = fit_logistic5(x, y)
            assert params.is_monotone_on(float(x.min()), float(x.max()))
            assert params.b1 * params.b2 >= 0
            assert params.b4 >= 0

    def test_mapping_never_hurts_plcc(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            x = np.sort(r.uniform(0, 10, 30))
            y = np.exp(x / 2.5) + r.normal(0, 0.5, 30)
            params = fit_logistic5(x, y)
            raw = correlate(x, y)
            mapped = correlate(x, y, params=params)
            assert mapped.plcc >= raw.plcc - 1e-9

    def test_rmse_reported_after_mapping(self, rng):
        x = np.linspace(0, 10, 20)
        y = 3 * x + 2 + rng.normal(0, 0.1, 20)
        params = fit_logistic5(x, y)
        rep = correlate(x, y, params=params)
        assert rep.rmse > 0
        assert rep.rmse < 0.5
