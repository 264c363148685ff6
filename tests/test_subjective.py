"""Tests for opinion-score statistics, screening, and bias recovery."""

import csv
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t as student_t

from perclip import (
    MosTable,
    ScoreMatrix,
    bt500_screen,
    build_score_matrix,
    compute_dmos,
    compute_mos,
    read_pairing_csv,
    read_scores_csv,
    recover_mle,
)
from perclip.errors import MissingPair, NonConvergence, TooFewRaters
from perclip.subjective import ScoreTable, csv_rows, read_cohorts

from conftest import (
    make_matrix,
    simulate_biased_scores,
    simulate_clean_panel,
    simulate_screening_panel,
)



def score_table(rows) -> ScoreTable:
    """A ScoreTable from (subject_id, pvs_id, score) rows."""
    subjects, pvs, scores = zip(*rows)
    return ScoreTable(list(subjects), list(pvs), np.array(scores, dtype=float))


# The row-by-row ingestion, cohort grouping, MOS and DMOS that the columnar
# path replaced, kept as its reference. One row is (subject_id, pvs_id, score).

def rowwise_read_scores_csv(path) -> list[tuple]:
    required = ("subject_id", "pvs_id", "score")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not set(required) <= set(header):
            raise ValueError(f"{path}: header must contain {sorted(required)}")
        columns = {name: i for i, name in enumerate(header)}
        i_subject, i_pvs, i_score = (columns[name] for name in required)
        for rec in reader:
            if not rec:
                continue
            lineno = reader.line_num  # each row here is one line
            if len(rec) < len(header):
                rec += [None] * (len(header) - len(rec))
            try:
                score = float(rec[i_score])
            except (TypeError, ValueError):
                score = math.nan
            if not math.isfinite(score):
                raise ValueError(f"{path}: line {lineno}: bad score {rec[i_score]!r}")
            if not 0.0 <= score <= 100.0:
                raise ValueError(
                    f"{path}: line {lineno}: score {rec[i_score]!r} outside [0, 100]"
                )
            if not (rec[i_subject] and rec[i_pvs]):
                raise ValueError(f"{path}: line {lineno}: empty subject_id or pvs_id")
            rows.append((rec[i_subject], rec[i_pvs], score))
    if not rows:
        raise ValueError(f"{path}: no score rows")
    return rows


def rowwise_build_score_matrix(rows) -> ScoreMatrix:
    s_idx = {s: i for i, s in enumerate(dict.fromkeys(r[0] for r in rows))}
    e_idx = {e: j for j, e in enumerate(dict.fromkeys(r[1] for r in rows))}
    scores = np.full((len(s_idx), len(e_idx)), np.nan)
    for subject_id, pvs_id, score in rows:
        i, j = s_idx[subject_id], e_idx[pvs_id]
        if not math.isnan(scores[i, j]):
            raise ValueError(f"duplicate score for ({subject_id}, {pvs_id})")
        scores[i, j] = score
    return ScoreMatrix(subjects=tuple(s_idx), stimuli=tuple(e_idx), scores=scores)


def rowwise_read_cohorts(path, column) -> dict[str, list[str]]:
    required = {"subject_id", column}
    label_of: dict[str, str] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not required <= set(header):
            raise ValueError(f"{path}: header must contain {sorted(required)}")
        i_subject, i_label = header.index("subject_id"), header.index(column)
        for rec in reader:
            if not rec:
                continue
            lineno = reader.line_num  # each row here is one line
            rec += [""] * (len(header) - len(rec))
            subject, label = rec[i_subject], rec[i_label]
            if not label:
                raise ValueError(f"{path}: line {lineno}: no {column!r} label "
                                 f"for subject {subject!r}")
            if label_of.setdefault(subject, label) != label:
                raise ValueError(f"{path}: line {lineno}: subject {subject!r} has conflicting "
                                 f"{column!r} labels {label_of[subject]!r} and {label!r}")
    cohorts: dict[str, list[str]] = {}
    for subject, label in label_of.items():
        cohorts.setdefault(label, []).append(subject)
    return cohorts


def rowwise_compute_mos(matrix) -> MosTable:
    mos, ci95, count = [], [], []
    for j in range(len(matrix.stimuli)):
        col = matrix.scores[:, j]
        vals = col[np.isfinite(col)]
        n = int(vals.size)
        ci = float(student_t.ppf(0.975, n - 1) * float(vals.std(ddof=1)) / math.sqrt(n))
        mos.append(float(vals.mean()))
        ci95.append(ci)
        count.append(n)
    return MosTable(matrix.stimuli, np.array(mos, dtype=float), np.array(ci95, dtype=float),
                    np.array(count, dtype=np.intp))


def rowwise_compute_dmos(table, pairing) -> MosTable:
    index = {pvs: j for j, pvs in enumerate(table.stimuli)}
    dmos, ci95, count = [], [], []
    for dist, src in pairing.items():
        if dist not in index:
            raise MissingPair(f"distorted stimulus {dist!r} not in the MOS table")
        if src not in index:
            raise MissingPair(f"source stimulus {src!r} (pair of {dist!r}) not in the MOS table")
        d, s = index[dist], index[src]
        dmos.append(100.0 - (float(table.mos[s]) - float(table.mos[d])))
        ci95.append(math.hypot(float(table.ci95[s]), float(table.ci95[d])))
        count.append(min(int(table.n[s]), int(table.n[d])))
    return MosTable(tuple(pairing), np.array(dmos, dtype=float), np.array(ci95, dtype=float),
                    np.array(count, dtype=np.intp))


def assert_same_table(got, want) -> None:
    """Same stimuli in the same order, and bitwise the same columns."""
    assert got.stimuli == want.stimuli
    for name in ("mos", "ci95", "n"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


def sweep_recover_mle(matrix, max_sweeps=10_000):
    """The P.913 sweep with np.where masks and the log-likelihood taken over
    every matrix entry, as recover_mle computed it before it reused the
    per-subject residual sums. Returns psi, delta, nu and the log-likelihood
    trace, or None when the sweeps do not converge."""
    present = matrix.present
    scores = np.where(present, matrix.scores, 0.0)
    n_scored = present.sum(axis=1).astype(float)
    psi = np.zeros(len(matrix.stimuli))
    delta = np.zeros(len(matrix.subjects))
    nu = np.ones(len(matrix.subjects))
    trace = []
    for _ in range(max_sweeps):
        psi_old, delta_old, nu_old = psi, delta, nu
        w = np.where(present, (1.0 / nu**2)[:, None], 0.0)
        psi = (w * (scores - delta[:, None])).sum(axis=0) / w.sum(axis=0)
        delta = np.where(present, scores - psi[None, :], 0.0).sum(axis=1) / n_scored
        resid = np.where(present, scores - psi[None, :] - delta[:, None], 0.0)
        nu = np.maximum(np.sqrt((resid**2).sum(axis=1) / n_scored), 0.1)
        shift = float(delta.mean())
        delta = delta - shift
        psi = psi + shift
        resid = np.where(present, scores - psi[None, :] - delta[:, None], 0.0)
        var = nu[:, None] ** 2
        per_entry = -0.5 * (np.log(2.0 * math.pi * var) + resid**2 / var)
        trace.append(float(np.where(present, per_entry, 0.0).sum()))
        change = max(float(np.abs(psi - psi_old).max()),
                     float(np.abs(delta - delta_old).max()),
                     float(np.abs(nu - nu_old).max()))
        if change < 1e-8:
            return psi, delta, nu, trace
    return None


@st.composite
def sparse_panels(draw, max_subjects=24, max_stimuli=30):
    """A ScoreMatrix with missing entries, so that the score counts of the
    stimuli spread from 2 up to the number of subjects; every subject
    scores at least two stimuli."""
    n_subjects = draw(st.integers(2, max_subjects))
    n_stimuli = draw(st.integers(2, max_stimuli))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    presence = rng.uniform(0.0, 1.0, n_stimuli)  # per stimulus
    present = rng.random((n_subjects, n_stimuli)) < presence
    for j in range(n_stimuli):
        present[rng.choice(n_subjects, 2, replace=False), j] = True
    for i in range(n_subjects):
        present[i, rng.choice(n_stimuli, 2, replace=False)] = True
    quality = rng.uniform(0, 100, n_stimuli)
    scores = quality + rng.normal(0, rng.uniform(0.5, 20), (n_subjects, n_stimuli))
    scores = np.clip(np.round(scores, draw(st.integers(0, 17))), 0, 100)
    return make_matrix(np.where(present, scores, np.nan))


@st.composite
def paired_panels(draw):
    """A sparse panel and a pairing of every stimulus, in random order, with
    a random source; in half of the pairings one entry names an unknown
    distorted or source stimulus, or both."""
    matrix = draw(sparse_panels())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = matrix.stimuli
    pairs = [[ids[j], ids[rng.integers(len(ids))]] for j in rng.permutation(len(ids))]
    unknown = draw(st.sampled_from(["none", "none", "none", "dist", "src", "both"]))
    k = rng.integers(len(pairs))
    if unknown in ("dist", "both"):
        pairs[k][0] = "ghost"
    if unknown in ("src", "both"):
        pairs[k][1] = "nope"
    return matrix, dict(pairs)


LINE_DEFECTS = ("text", "nan", "inf", "empty_score", "above", "below", "empty_subject",
                "empty_pvs", "score_and_id")
DEFECTS = (*LINE_DEFECTS, "duplicate", "conflicting_cohort", "no_cohort")


@st.composite
def score_panels(draw):
    """CSV text of a random panel: missing cells, shuffled columns, cohort and
    free-text columns, empty and short trailing cells, blank lines, and at
    most one defect. Returns the text and the defect's name."""
    n_subjects, n_stimuli = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = [(f"s{i}", f"p{j}") for i in range(n_subjects) for j in range(n_stimuli)]
    mostly_present = st.sampled_from([True, True, True, False])
    keep = draw(st.lists(mostly_present, min_size=len(cells), max_size=len(cells)))
    pairs = draw(st.permutations([c for c, k in zip(cells, keep) if k] or cells[:1]))
    score_text = st.one_of(st.integers(0, 100).map(str),
                           st.floats(0.0, 100.0).map(repr),
                           st.floats(0.0, 100.0).map(lambda v: f"{v:.2f}"))
    cohort = {f"s{i}": draw(st.sampled_from(["expert", "naive"])) for i in range(n_subjects)}
    defect = draw(st.one_of(st.none(), st.sampled_from(DEFECTS)))
    columns = ["subject_id", "pvs_id", "score"]
    if defect != "no_cohort":
        columns.append("cohort")
    extras = draw(st.lists(st.sampled_from(["clip", "qp"]), unique=True))
    header = draw(st.permutations(columns)) + extras
    rows = []
    for subject, pvs in pairs:
        row = {"subject_id": subject, "pvs_id": pvs, "score": draw(score_text),
               "cohort": cohort[subject], "clip": f"c{pvs}",
               "qp": draw(st.sampled_from(["", "27", "n/a"]))}
        rows.append(row)
    if defect is not None:
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        if defect == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), dict(row, score="50"))
        elif defect == "conflicting_cohort":
            rows.insert(draw(st.integers(0, len(rows))),
                        dict(row, pvs_id="extra", cohort="other"))
        elif defect in ("empty_subject", "empty_pvs"):
            row["pvs_id" if defect == "empty_pvs" else "subject_id"] = ""
        elif defect == "score_and_id":
            row.update(score=draw(st.sampled_from(["oops", "101"])), subject_id="")
        elif defect != "no_cohort":
            row["score"] = {"text": "oops", "nan": "nan", "inf": "-inf", "empty_score": "",
                            "above": "100.5", "below": "-1"}[defect]
    lines = []
    for row in rows:
        cut = draw(st.integers(0, len(extras)))  # short row: trailing cells absent
        lines.append([row[name] for name in header][:len(header) - cut])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for line in lines:
        if line:
            writer.writerow(line)
        else:
            buf.write("\n")
    return buf.getvalue(), defect


def outcome(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return "ok", fn(*args)
    except (ValueError, TooFewRaters) as exc:
        return type(exc).__name__, str(exc)


class TestColumnarIngestionMatchesRowwise:
    @settings(max_examples=300, deadline=None)
    @given(panel=score_panels())
    def test_same_matrix_order_mos_cohorts_and_errors(self, panel):
        text, defect = panel
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "scores.csv"
            path.write_text(text)
            got_table = outcome(read_scores_csv, path)
            want_rows = outcome(rowwise_read_scores_csv, path)
            cohorts = outcome(read_cohorts, path, "cohort")
            want_cohorts = outcome(rowwise_read_cohorts, path, "cohort")
        assert (got_table[0] == "ok") == (defect not in LINE_DEFECTS)
        assert got_table[0] == want_rows[0]
        if got_table[0] != "ok":
            assert got_table == want_rows
            return
        table, rows = got_table[1], want_rows[1]
        assert table.subject_ids == [r[0] for r in rows]
        assert table.pvs_ids == [r[1] for r in rows]
        assert table.scores.tobytes() == np.array([r[2] for r in rows]).tobytes()
        assert cohorts == want_cohorts
        if defect == "no_cohort":
            assert cohorts[1] == f"{path}: header must contain ['cohort', 'subject_id']"
        elif defect == "conflicting_cohort":
            assert re.match(rf"{re.escape(str(path))}: line \d+: subject 's\d' has "
                            "conflicting 'cohort' labels", cohorts[1])
        else:
            assert cohorts[0] == "ok"

        got, want = outcome(build_score_matrix, table), outcome(rowwise_build_score_matrix, rows)
        if defect == "duplicate":
            assert got[1].startswith("duplicate score for")
        if got[0] != "ok":
            assert got == want
            return
        assert want[0] == "ok"
        got, want = got[1], want[1]
        assert (got.subjects, got.stimuli) == (want.subjects, want.stimuli)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert_same_table(compute_mos(got), rowwise_compute_mos(want))


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
        assert table.mos[0] == 70.0
        assert table.ci95[0] == 0.0
        assert table.n[0] == 3

    def test_two_rater_interval_uses_t_distribution(self):
        m = make_matrix([[60.0, 10.0], [80.0, 20.0]])
        table = compute_mos(m)
        assert table.mos[0] == 70.0
        # t(0.975, df=1) = 12.706; s = sqrt(200); ci = 12.706 * s / sqrt(2)
        assert table.ci95[0] == pytest.approx(12.706204736 * math.sqrt(200) / math.sqrt(2),
                                              rel=1e-9)
        assert table.ci95[0] == pytest.approx(127.06, abs=0.01)

    def test_quantile_is_bitwise_the_t_distribution_ppf(self):
        # compute_mos takes its quantile from scipy.special.stdtrit, which
        # imports much faster than scipy.stats
        from scipy.special import stdtrit

        n = range(2, 5000)
        got = np.array([stdtrit(k - 1, 0.975) for k in n])
        want = student_t.ppf(0.975, np.array(n) - 1)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(matrix=sparse_panels())
    def test_grouped_by_count_is_bitwise_the_per_stimulus_loop(self, matrix):
        assert_same_table(compute_mos(matrix), rowwise_compute_mos(matrix))

    def test_missing_entry_decrements_n(self):
        m = make_matrix([[60.0, 10.0], [80.0, 20.0], [np.nan, 30.0]])
        table = compute_mos(m)
        assert table.n.tolist() == [2, 3]

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
        assert out.stimuli == shuffled.stimuli
        np.testing.assert_allclose(out.mos, base.mos[perm_e], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.ci95, base.ci95[perm_e], rtol=0, atol=1e-12)


class TestComputeDmos:
    def _table(self, scores):
        return compute_mos(make_matrix(scores))

    def test_formula(self):
        table = self._table([[90.0, 70.0], [90.0, 70.0]])
        dmos = compute_dmos(table, {"e01": "e00"})
        assert dmos.stimuli == ("e01",)
        assert dmos.mos[0] == 80.0

    def test_transparent_encoding_scores_100(self):
        table = self._table([[75.0, 75.0], [85.0, 85.0]])
        dmos = compute_dmos(table, {"e01": "e00"})
        assert dmos.mos[0] == 100.0

    def test_distorted_above_source_exceeds_100(self):
        table = self._table([[80.0, 95.0], [80.0, 95.0]])
        dmos = compute_dmos(table, {"e01": "e00"})
        assert dmos.mos[0] == 115.0

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
        for k, (dist, src) in enumerate(pairing.items()):
            ci_d, ci_s = table.ci95[table.stimuli.index(dist)], table.ci95[table.stimuli.index(src)]
            assert dmos.ci95[k] == pytest.approx(math.hypot(ci_s, ci_d), abs=1e-12)
            assert dmos.ci95[k] >= max(ci_s, ci_d) / math.sqrt(2)

    @settings(max_examples=200, deadline=None)
    @given(panel=paired_panels())
    def test_gathered_columns_are_bitwise_the_per_pair_loop(self, panel):
        matrix, pairing = panel
        table = compute_mos(matrix)
        got = outcome(compute_dmos, table, pairing)
        want = outcome(rowwise_compute_dmos, table, pairing)
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got == want
            return
        assert_same_table(got[1], want[1])


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
        # plenty of outliers, but all on one side
        assert report.outlier_ratio[-1] > 0.05
        assert report.asymmetry[-1] >= 0.3

    def test_per_subject_counts_reported(self):
        report = bt500_screen(simulate_screening_panel(0))
        assert report.subjects == tuple(f"s{i:02d}" for i in range(42))
        assert report.n_scored.tolist() == [48] * 42
        assert np.all((report.outlier_ratio >= 0) & (report.outlier_ratio <= 1))

    @settings(max_examples=100, deadline=None)
    @given(matrix=sparse_panels().filter(lambda m: len(m.subjects) >= 3))
    def test_ratio_columns_are_the_per_subject_int_division(self, matrix):
        # the per-subject loop the columns replaced, from the same counts
        report = bt500_screen(matrix)
        rejected = []
        for i, subject in enumerate(report.subjects):
            p, q, n = int(report.p[i]), int(report.q[i]), int(report.n_scored[i])
            ratio = (p + q) / n
            asym = abs(p - q) / (p + q) if p + q > 0 else 0.0
            assert report.outlier_ratio[i].item().hex() == ratio.hex()
            assert report.asymmetry[i].item().hex() == asym.hex()
            if ratio > 0.05 and asym < 0.3:
                rejected.append(subject)
        assert report.rejected == tuple(rejected)


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
            mos_vals = compute_mos(matrix).mos
            rmse_rec = float(np.sqrt(np.mean((np.array(model.psi) - psi) ** 2)))
            rmse_mos = float(np.sqrt(np.mean((mos_vals - psi) ** 2)))
            wins += rmse_rec < rmse_mos
        assert wins >= 19

    def test_loglik_never_decreases(self):
        matrix, _, _, _ = simulate_biased_scores(21)
        model = recover_mle(matrix)
        diffs = np.diff(model.loglik_trace)
        assert np.all(diffs >= -1e-9 * max(1.0, abs(model.loglik)))

    @settings(max_examples=60, deadline=None)
    @given(matrix=sparse_panels())
    def test_sweep_is_bitwise_the_full_matrix_sweep(self, matrix):
        want = sweep_recover_mle(matrix)
        if want is None:  # about 1 panel in 700 does not converge
            with pytest.raises(NonConvergence):
                recover_mle(matrix)
            return
        psi, delta, nu, trace = want
        model = recover_mle(matrix)
        assert np.array(model.psi).tobytes() == psi.tobytes()
        assert np.array(model.delta).tobytes() == delta.tobytes()
        assert np.array(model.nu).tobytes() == nu.tobytes()
        assert model.iterations == len(trace)
        np.testing.assert_allclose(model.loglik_trace, trace, rtol=1e-12, atol=0)

    def test_iterations_count_every_sweep(self):
        matrix, _, _, _ = simulate_biased_scores(21)
        model = recover_mle(matrix)
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

    def test_ci_from_subject_information(self):
        matrix, _, _, _ = simulate_biased_scores(19)
        model = recover_mle(matrix)
        nu = np.array(model.nu)
        expected = 1.96 / math.sqrt(float((1.0 / nu**2).sum()))
        assert model.ci95[0] == pytest.approx(expected, rel=1e-12)

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
        assert read_cohorts(path, "cohort") == {"expert": ["s1"], "naive": ["s2"]}

    def test_equal_ids_share_one_string(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("subject_id,pvs_id,score\n" + "".join(
            f"subj{i},pvs{j},50\n" for i in range(3) for j in range(4)))
        table = read_scores_csv(path)
        for ids in (table.subject_ids, table.pvs_ids):
            first = {}
            for v in ids:
                assert first.setdefault(v, v) is v
            assert len({id(v) for v in ids}) == len(first)

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

    @pytest.mark.parametrize("value", ["101", "-1", "100.000001"])
    def test_out_of_range_score_names_line_and_value(self, tmp_path, value):
        path = tmp_path / "scores.csv"
        path.write_text(f"subject_id,pvs_id,score\ns1,a,100\ns1,b,{value}\ns2,b,0\n")
        with pytest.raises(ValueError, match=rf"line 3: score '{value}' outside \[0, 100\]"):
            read_scores_csv(path)

    @pytest.mark.parametrize("score, message", [
        ("oops", "line 4: bad score 'oops'"),
        ("101", r"line 4: score '101' outside \[0, 100\]"),
    ])
    def test_first_offending_line_wins_and_score_before_empty_id(self, tmp_path, score,
                                                                 message):
        path = tmp_path / "scores.csv"
        path.write_text(f"subject_id,pvs_id,score\n\ns1,a,90\n,b,{score}\ns1,\n")
        with pytest.raises(ValueError, match=message):
            read_scores_csv(path)

    def test_short_row_and_empty_cells_read_as_missing(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("subject_id,pvs_id,score,qp,cohort\ns1,a,90,,x\ns2,a,80\n")
        table = read_scores_csv(path)
        assert table.subject_ids == ["s1", "s2"]
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 3: no 'cohort' label for subject 's2'")):
            read_cohorts(path, "cohort")

    def test_interleaved_rows_keep_first_appearance_order(self):
        rows = [
            ("s2", "b", 10.0),
            ("s1", "c", 20.0),
            ("s2", "a", 30.0),
            ("s3", "b", 40.0),
            ("s1", "b", 50.0),
            ("s3", "c", 60.0),
            ("s3", "a", 70.0),
        ]
        matrix = build_score_matrix(score_table(rows))
        assert matrix.subjects == ("s2", "s1", "s3")
        assert matrix.stimuli == ("b", "c", "a")
        for subject_id, pvs_id, score in rows:
            i, j = matrix.subjects.index(subject_id), matrix.stimuli.index(pvs_id)
            assert matrix.scores[i, j] == score
        assert np.isnan(matrix.scores[1, 2])

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("who,what,much\ns1,a,90\n")
        with pytest.raises(ValueError, match="header"):
            read_scores_csv(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        rows = [
            ("s1", "a", 90.0),
            ("s1", "a", 91.0),
            ("s2", "a", 80.0),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            build_score_matrix(score_table(rows))

    def test_csv_rows_skip_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n\n1,2,3\n4\n\n5,6,7,8\n")
        with csv_rows(path, ("a", "c")) as (columns, rows):
            assert columns == {"a": 0, "b": 1, "c": 2}
            assert list(rows) == [["1", "2", "3"], ["4"], ["5", "6", "7", "8"]]

    @pytest.mark.parametrize("text, message", [
        ("", "header must contain ['a', 'c']"),
        ("a,b\n1,2\n", "header must contain ['a', 'c']"),
        ("a,c,b,c\n1,2,3,4\n", "header repeats column 'c'"),
        ("a,c\n1,2\n\n3,4\n5," + "6" * 200_000 + "\n",
         "line 5: field larger than field limit (131072)"),
    ], ids=["empty", "missing", "repeated", "over-field-limit"])
    def test_csv_rows_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            with csv_rows(path, ("a", "c")) as (_, rows):
                list(rows)

    def test_csv_rows_name_the_line_of_a_byte_that_is_not_utf8(self, tmp_path):
        # the decoder reads the file in chunks, ahead of the csv reader's line
        path = tmp_path / "t.csv"
        path.write_bytes("a,c\n".encode() + "é,1\n".encode() * 3000 + b"x,\xe9\n"
                         + b"y,2\n" * 3000)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3002: not UTF-8"):
            with csv_rows(path, ("a", "c")) as (_, rows):
                list(rows)

    def test_pairing_short_row_rejected_naming_line(self, tmp_path):
        path = tmp_path / "pairing.csv"
        path.write_text("dist_pvs_id,src_pvs_id\ndist_a,src_a\n\ndist_b\n")
        with pytest.raises(ValueError, match=r"pairing.csv: line 4: empty pairing entry"):
            read_pairing_csv(path)

    def test_pairing_round_trip(self, tmp_path):
        path = tmp_path / "pairing.csv"
        path.write_text("dist_pvs_id,src_pvs_id\ndist_a,src_a\ndist_b,src_b\n")
        assert read_pairing_csv(path) == {"dist_a": "src_a", "dist_b": "src_b"}

    def test_pairing_repeated_dist_rejected_naming_line(self, tmp_path):
        path = tmp_path / "pairing.csv"
        path.write_text("dist_pvs_id,src_pvs_id\ndist_a,src_a\ndist_b,src_b\ndist_a,src_b\n")
        with pytest.raises(ValueError, match=r"pairing.csv: line 4: duplicate dist_pvs_id 'dist_a'"):
            read_pairing_csv(path)

    def test_duplicate_names_first_repeat_in_file_order(self):
        rows = [("s1", "a", 1.0), ("s2", "b", 2.0), ("s2", "b", 3.0), ("s1", "a", 4.0)]
        with pytest.raises(ValueError, match=r"duplicate score for \(s2, b\)"):
            build_score_matrix(score_table(rows))

    def test_conflicting_cohort_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("subject_id,pvs_id,score,cohort\ns1,a,90,expert\n\ns1,b,80,naive\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 4: subject 's1' has conflicting 'cohort' labels "
                "'expert' and 'naive'")):
            read_cohorts(path, "cohort")

    def test_cohorts_group_subjects_in_order_of_first_appearance(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("cohort,subject_id\nb,s3\na,s1\nb,s2\nb,s3\na,s4\na,s1\n")
        assert read_cohorts(path, "cohort") == {"b": ["s3", "s2"], "a": ["s1", "s4"]}

    def test_cohorts_need_the_named_column(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("subject_id,pvs_id,score\ns1,a,90\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header must contain ['group', 'subject_id']")):
            read_cohorts(path, "group")
