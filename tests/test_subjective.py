"""Tests for opinion-score statistics, screening, and bias recovery."""

import math

import numpy as np
import pytest

from perclip import (
    ScoreMatrix,
    bt500_screen,
    build_score_matrix,
    compute_dmos,
    compute_mos,
    read_pairing_csv,
    read_scores_csv,
    recover_mle,
)
from perclip.errors import MissingPair, TooFewRaters
from perclip.subjective import ScoreRow, subject_cohorts

from conftest import (
    make_matrix,
    simulate_biased_scores,
    simulate_clean_panel,
    simulate_screening_panel,
)


class TestScoreMatrix:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_matrix([[101.0, 50.0], [40.0, 50.0]])

    def test_stimulus_needs_two_scores(self):
        with pytest.raises(TooFewRaters):
            make_matrix([[50.0, np.nan], [40.0, np.nan], [30.0, 20.0]])

    def test_subject_needs_one_score(self):
        with pytest.raises(ValueError):
            make_matrix([[np.nan, np.nan], [40.0, 50.0], [30.0, 20.0]])

    def test_scores_read_only(self):
        m = make_matrix([[50.0, 60.0], [40.0, 50.0]])
        with pytest.raises(ValueError):
            m.scores[0, 0] = 10.0

    def test_subset_subjects(self):
        m = make_matrix([[50.0, 60.0], [40.0, 50.0], [30.0, 20.0]])
        sub = m.subset_subjects(["s00", "s02"])
        assert sub.subjects == ("s00", "s02")
        assert sub.scores.shape == (2, 2)

    def test_subset_subjects_takes_any_iterable(self):
        m = make_matrix([[50.0, 60.0], [40.0, 50.0], [30.0, 20.0]])
        sub = m.subset_subjects(s for s in ("s00", "s02"))
        assert sub.subjects == ("s00", "s02")


class TestComputeMos:
    def test_unanimous_scores(self):
        m = make_matrix([[70.0, 10.0], [70.0, 20.0], [70.0, 30.0]])
        table = compute_mos(m)
        assert table["e00"].mos == 70.0
        assert table["e00"].ci95 == 0.0
        assert table["e00"].n == 3

    def test_two_rater_interval_uses_t_distribution(self):
        m = make_matrix([[60.0, 10.0], [80.0, 20.0]])
        entry = compute_mos(m)["e00"]
        assert entry.mos == 70.0
        # t(0.975, df=1) = 12.706; s = sqrt(200); ci = 12.706 * s / sqrt(2)
        assert entry.ci95 == pytest.approx(12.706204736 * math.sqrt(200) / math.sqrt(2), rel=1e-9)
        assert entry.ci95 == pytest.approx(127.06, abs=0.01)

    def test_missing_entry_decrements_n(self):
        m = make_matrix([[60.0, 10.0], [80.0, 20.0], [np.nan, 30.0]])
        table = compute_mos(m)
        assert table["e00"].n == 2
        assert table["e01"].n == 3

    def test_permutation_invariance(self, rng):
        matrix, _, _, _ = simulate_biased_scores(7, n_subjects=10, n_stimuli=8)
        perm_s = rng.permutation(10)
        perm_e = rng.permutation(8)
        shuffled = ScoreMatrix(
            subjects=tuple(matrix.subjects[i] for i in perm_s),
            stimuli=tuple(matrix.stimuli[j] for j in perm_e),
            scores=matrix.scores[np.ix_(perm_s, perm_e)],
        )
        base = compute_mos(matrix)
        out = compute_mos(shuffled)
        for pvs in matrix.stimuli:
            assert out[pvs].mos == pytest.approx(base[pvs].mos, abs=1e-12)
            assert out[pvs].ci95 == pytest.approx(base[pvs].ci95, abs=1e-12)


class TestComputeDmos:
    def _table(self, scores):
        return compute_mos(make_matrix(scores))

    def test_formula(self):
        table = self._table([[90.0, 70.0], [90.0, 70.0]])
        dmos = compute_dmos(table, {"e01": "e00"})
        assert dmos["e01"].mos == 80.0

    def test_transparent_encoding_scores_100(self):
        table = self._table([[75.0, 75.0], [85.0, 85.0]])
        dmos = compute_dmos(table, {"e01": "e00"})
        assert dmos["e01"].mos == 100.0

    def test_distorted_above_source_exceeds_100(self):
        table = self._table([[80.0, 95.0], [80.0, 95.0]])
        dmos = compute_dmos(table, {"e01": "e00"})
        assert dmos["e01"].mos == 115.0

    def test_missing_pair(self):
        table = self._table([[80.0, 95.0], [80.0, 95.0]])
        with pytest.raises(MissingPair):
            compute_dmos(table, {"e01": "nope"})
        with pytest.raises(MissingPair):
            compute_dmos(table, {"ghost": "e00"})

    def test_ci_propagates_in_quadrature(self, rng):
        matrix, _, _, _ = simulate_biased_scores(11, n_subjects=8, n_stimuli=6)
        table = compute_mos(matrix)
        pairing = {"e01": "e00", "e03": "e02"}
        dmos = compute_dmos(table, pairing)
        for dist, src in pairing.items():
            expected = math.hypot(table[src].ci95, table[dist].ci95)
            assert dmos[dist].ci95 == pytest.approx(expected, abs=1e-12)
            assert dmos[dist].ci95 >= max(table[src].ci95, table[dist].ci95) / math.sqrt(2)


class TestBt500Screen:
    def test_identical_scorers_not_rejected(self):
        m = make_matrix(np.tile([[50.0, 60.0, 70.0, 40.0]], (5, 1)))
        report = bt500_screen(m)
        assert report.rejected == ()

    def test_needs_three_subjects(self):
        with pytest.raises(ValueError):
            bt500_screen(make_matrix([[50.0, 60.0], [40.0, 50.0]]))

    def test_uniform_random_scorer_rejected(self):
        hits = sum(
            "s41" in bt500_screen(simulate_screening_panel(seed)).rejected
            for seed in range(100, 140)
        )
        assert hits >= 38

    def test_clean_panel_zero_rejections(self):
        for seed in range(40):
            report = bt500_screen(simulate_clean_panel(seed))
            assert report.rejected == ()

    def test_offset_subject_not_rejected(self):
        rng = np.random.default_rng(5)
        psi = rng.uniform(45, 55, 48)
        scores = psi[None, :] + 1.5 * rng.standard_normal((41, 48))
        offset = psi + 5.0 + 1.5 * rng.standard_normal(48)
        m = make_matrix(np.clip(np.vstack([scores, offset[None, :]]), 0, 100))
        report = bt500_screen(m)
        biased = m.subjects[-1]
        assert biased not in report.rejected
        screen = report.per_subject[biased]
        # plenty of outliers, but all on one side
        assert screen.outlier_ratio > 0.05
        assert screen.asymmetry >= 0.3

    def test_per_subject_counts_reported(self):
        report = bt500_screen(simulate_screening_panel(0))
        assert set(report.per_subject) == {f"s{i:02d}" for i in range(42)}
        for screen in report.per_subject.values():
            assert screen.n_scored == 48
            assert 0 <= screen.outlier_ratio <= 1


class TestRecoverMle:
    def test_noiseless_matches_plain_means(self):
        rng = np.random.default_rng(3)
        psi = rng.uniform(20, 80, 12)
        scores = np.tile(psi, (6, 1))
        m = make_matrix(scores)
        model = recover_mle(m)
        assert np.allclose(model.psi, psi, atol=1e-12)
        assert np.allclose(model.delta, 0.0, atol=1e-12)
        assert all(nu == pytest.approx(0.1) for nu in model.nu)  # floored

    def test_bias_recovered_for_offset_subject(self):
        rng = np.random.default_rng(4)
        n_subj, n_stim = 60, 30
        psi = rng.uniform(30, 70, n_stim)
        scores = np.tile(psi, (n_subj, 1))
        scores[0] += 5.0
        m = make_matrix(scores)
        model = recover_mle(m)
        # centering spreads the +5 across subjects: 5 * (S-1) / S
        assert model.delta[0] == pytest.approx(5.0, abs=0.1)
        unbiased = recover_mle(make_matrix(np.tile(psi, (n_subj, 1))))
        assert np.allclose(model.psi, unbiased.psi, atol=0.1)

    def test_delta_sums_to_zero(self):
        matrix, _, _, _ = simulate_biased_scores(9)
        model = recover_mle(matrix)
        assert sum(model.delta) == pytest.approx(0.0, abs=1e-9)

    def test_recovery_beats_plain_averaging(self):
        wins = 0
        for seed in range(20):
            matrix, psi, _, _ = simulate_biased_scores(seed)
            model = recover_mle(matrix)
            mos = compute_mos(matrix)
            mos_vals = np.array([mos[e].mos for e in matrix.stimuli])
            rmse_rec = float(np.sqrt(np.mean((np.array(model.psi) - psi) ** 2)))
            rmse_mos = float(np.sqrt(np.mean((mos_vals - psi) ** 2)))
            wins += rmse_rec < rmse_mos
        assert wins >= 19

    def test_loglik_never_decreases(self):
        matrix, _, _, _ = simulate_biased_scores(21)
        model = recover_mle(matrix)
        diffs = np.diff(model.loglik_trace)
        assert np.all(diffs >= -1e-9 * max(1.0, abs(model.loglik)))

    @pytest.mark.parametrize("fixed", [None, 3.0])
    def test_iterations_count_every_sweep(self, fixed):
        matrix, _, _, _ = simulate_biased_scores(21)
        model = recover_mle(matrix, fixed_inconsistency=fixed)
        assert model.iterations == len(model.loglik_trace)

    def test_constant_shift_moves_psi_only(self):
        matrix, _, _, _ = simulate_biased_scores(13, bias_half_range=5.0, nu_range=(1, 3))
        shifted = ScoreMatrix(
            subjects=matrix.subjects,
            stimuli=matrix.stimuli,
            scores=np.clip(matrix.scores + 7.0, 0, 100),
        )
        # keep the shift exact: only compare when no clipping occurred
        assert np.all(matrix.scores + 7.0 <= 100.0)
        base = recover_mle(matrix)
        moved = recover_mle(shifted)
        assert np.allclose(np.array(moved.psi) - np.array(base.psi), 7.0, atol=1e-6)
        assert np.allclose(moved.delta, base.delta, atol=1e-6)
        assert np.allclose(moved.nu, base.nu, atol=1e-6)

    def test_fixed_equal_inconsistency_reproduces_mos(self):
        matrix, _, _, _ = simulate_biased_scores(17, bias_half_range=0.0)
        model = recover_mle(matrix, fixed_inconsistency=3.0)
        mos = compute_mos(matrix)
        for pvs, psi in zip(matrix.stimuli, model.psi):
            assert psi == pytest.approx(mos[pvs].mos, abs=1e-9)

    def test_ci_from_subject_information(self):
        matrix, _, _, _ = simulate_biased_scores(19)
        model = recover_mle(matrix)
        nu = np.array(model.nu)
        expected = 1.96 / math.sqrt(float((1.0 / nu**2).sum()))
        assert model.ci95[0] == pytest.approx(expected, rel=1e-12)

    def test_presets_share_the_solver(self):
        matrix, _, _, _ = simulate_biased_scores(23)
        a = recover_mle(matrix, method="p910")
        b = recover_mle(matrix, method="p913")
        assert a.psi == b.psi
        assert a.method == "p910" and b.method == "p913"

    def test_unknown_method_rejected(self):
        matrix, _, _, _ = simulate_biased_scores(25)
        with pytest.raises(ValueError):
            recover_mle(matrix, method="p999")

    def test_subject_with_one_score_rejected(self):
        scores = np.array([[50.0, np.nan, np.nan], [40.0, 50.0, 60.0], [45.0, 55.0, 65.0]])
        m = make_matrix(scores)
        with pytest.raises(TooFewRaters):
            recover_mle(m)

    def test_missing_entries_tolerated(self):
        matrix, psi, _, _ = simulate_biased_scores(27, nu_range=(1, 2))
        scores = matrix.scores.copy()
        rng = np.random.default_rng(0)
        mask = rng.random(scores.shape) < 0.1
        scores[mask] = np.nan
        m = make_matrix(scores)
        model = recover_mle(m)
        assert np.sqrt(np.mean((np.array(model.psi) - psi) ** 2)) < 2.0


class TestCsvIngestion:
    def test_scores_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "subject_id,pvs_id,score,role,cohort\n"
            "s1,src_a,90,src,expert\n"
            "s1,dist_a,70,dist,expert\n"
            "s2,src_a,92,src,naive\n"
            "s2,dist_a,74,dist,naive\n"
        )
        rows = read_scores_csv(path)
        matrix = build_score_matrix(rows)
        assert matrix.subjects == ("s1", "s2")
        assert matrix.stimuli == ("src_a", "dist_a")
        assert matrix.scores[0, 1] == 70.0
        assert subject_cohorts(rows, "cohort") == {"s1": "expert", "s2": "naive"}

    def test_malformed_score_names_line(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("subject_id,pvs_id,score\ns1,a,90\ns1,b,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            read_scores_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_names_line(self, tmp_path, value):
        path = tmp_path / "scores.csv"
        path.write_text(f"subject_id,pvs_id,score\ns1,a,90\ns1,b,{value}\ns1,b,80\n")
        with pytest.raises(ValueError, match="line 3"):
            read_scores_csv(path)

    def test_interleaved_rows_keep_first_appearance_order(self):
        rows = [
            ScoreRow("s2", "b", 10.0, {}),
            ScoreRow("s1", "c", 20.0, {}),
            ScoreRow("s2", "a", 30.0, {}),
            ScoreRow("s3", "b", 40.0, {}),
            ScoreRow("s1", "b", 50.0, {}),
            ScoreRow("s3", "c", 60.0, {}),
            ScoreRow("s3", "a", 70.0, {}),
        ]
        matrix = build_score_matrix(rows)
        assert matrix.subjects == ("s2", "s1", "s3")
        assert matrix.stimuli == ("b", "c", "a")
        for r in rows:
            i, j = matrix.subjects.index(r.subject_id), matrix.stimuli.index(r.pvs_id)
            assert matrix.scores[i, j] == r.score
        assert np.isnan(matrix.scores[1, 2])

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("who,what,much\ns1,a,90\n")
        with pytest.raises(ValueError, match="header"):
            read_scores_csv(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        rows = [
            ScoreRow("s1", "a", 90.0, {}),
            ScoreRow("s1", "a", 91.0, {}),
            ScoreRow("s2", "a", 80.0, {}),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            build_score_matrix(rows)

    def test_pairing_round_trip(self, tmp_path):
        path = tmp_path / "pairing.csv"
        path.write_text("dist_pvs_id,src_pvs_id\ndist_a,src_a\ndist_b,src_b\n")
        assert read_pairing_csv(path) == {"dist_a": "src_a", "dist_b": "src_b"}

    def test_conflicting_cohort_rejected(self):
        rows = [
            ScoreRow("s1", "a", 90.0, {"cohort": "expert"}),
            ScoreRow("s1", "b", 80.0, {"cohort": "naive"}),
        ]
        with pytest.raises(ValueError, match="conflicting"):
            subject_cohorts(rows, "cohort")
