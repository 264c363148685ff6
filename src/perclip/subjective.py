"""Opinion-score statistics: MOS/DMOS with confidence intervals, observer
screening, and maximum-likelihood recovery of per-subject bias and
inconsistency.

Scores live in a subject x stimulus matrix on the [0, 100] continuous
scale, with NaN marking missing entries. Every estimator sums over present
entries only; nothing is imputed. compute_mos reduces the stimuli that share
a score count as the rows of one array, bitwise the per-stimulus sums, and
recover_mle takes its log-likelihood from per-subject residual sums.

MOS, DMOS and screening tables are columnar: the stimulus or subject ids
plus one array per statistic. compute_dmos maps the pairing to indices and
gathers the paired columns.

Every CSV input goes through csv_rows. Score ingestion is columnar: one
pass appends the subject ids, the stimulus ids and the score cells to one
list each (read_cohorts reads the one optional column --cohort names); the
scores convert in one np.fromiter call and pass one vectorised range
check. Only when it fails are the rows walked again, to find the first
offending row, and the file read again up to it, to name its line: an
error names the line in the file, blank lines counted, as csv and UTF-8
errors do. build_score_matrix scatters the scores in bulk and runs
np.unique only to name a repeated pair.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import MissingPair, NonConvergence, TooFewRaters

NU_FLOOR = 0.1  # keeps 1/nu^2 finite for perfectly consistent subjects
TOL = 1e-8  # recover_mle stops when no parameter moves more than this in a sweep
MAX_SWEEPS = 10_000
CSV_ENCODING = "utf-8-sig"  # UTF-8, a leading byte-order mark dropped


@dataclass(frozen=True)
class ScoreMatrix:
    subjects: tuple[str, ...]
    stimuli: tuple[str, ...]
    scores: np.ndarray  # shape (n_subjects, n_stimuli), NaN = missing

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        if scores.shape != (len(self.subjects), len(self.stimuli)):
            raise ValueError(
                f"scores shape {scores.shape} does not match "
                f"{len(self.subjects)} subjects x {len(self.stimuli)} stimuli"
            )
        present = np.isfinite(scores)
        vals = scores[present]
        if vals.size and (vals.min() < 0.0 or vals.max() > 100.0):
            raise ValueError("scores must lie in [0, 100]")
        scored = present.sum(axis=1)
        if np.any(scored < 1):
            bad = self.subjects[int(np.argmin(scored))]
            raise ValueError(f"subject {bad!r} has no scores")
        per_stim = present.sum(axis=0)
        if np.any(per_stim < 2):
            bad = self.stimuli[int(np.argmin(per_stim))]
            raise TooFewRaters(f"stimulus {bad!r} has fewer than 2 scores")
        scores = scores.copy()
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    @property
    def present(self) -> np.ndarray:
        return np.isfinite(self.scores)

    def subset_subjects(self, keep) -> "ScoreMatrix":
        keep = set(keep)
        idx = [i for i, s in enumerate(self.subjects) if s in keep]
        return ScoreMatrix(
            subjects=tuple(self.subjects[i] for i in idx),
            stimuli=self.stimuli,
            scores=self.scores[idx, :],
        )


class MosTable(NamedTuple):
    """Per-stimulus columns: mos (a DMOS in compute_dmos's tables), the 95%
    half-width ci95 and the score count n, in the order of stimuli."""

    stimuli: tuple[str, ...]
    mos: np.ndarray
    ci95: np.ndarray
    n: np.ndarray


class ScreeningReport(NamedTuple):
    """Per-subject columns: p (q) counts the scores above (below) the
    per-stimulus threshold, outlier_ratio is (p + q) / n_scored and asymmetry
    |p - q| / (p + q), 0 when p + q == 0. rejected: the rejected subjects."""

    subjects: tuple[str, ...]
    p: np.ndarray
    q: np.ndarray
    n_scored: np.ndarray
    outlier_ratio: np.ndarray
    asymmetry: np.ndarray
    rejected: tuple[str, ...]


@dataclass(frozen=True)
class SubjectModel:
    """Recovered quality and per-subject nuisance parameters, as float64
    columns in the order of stimuli or subjects.

    psi: per-stimulus quality; delta: per-subject bias (zero mean);
    nu: per-subject inconsistency (std, floored); ci95: per-stimulus
    half-width from the information of the scoring subjects.
    """

    stimuli: tuple[str, ...]
    subjects: tuple[str, ...]
    psi: np.ndarray
    delta: np.ndarray
    nu: np.ndarray
    ci95: np.ndarray
    loglik: float
    iterations: int
    loglik_trace: tuple[float, ...]


def compute_mos(matrix: ScoreMatrix) -> MosTable:
    """Per-stimulus mean with a Student-t 95% confidence half-width."""
    # the t quantile without scipy.stats, whose import takes over a second;
    # stdtrit(df, 0.975) equals scipy.stats.t.ppf(0.975, df) bitwise for
    # every df below 5000 (a test pins it)
    from scipy.special import stdtrit

    present = matrix.present
    counts = present.sum(axis=0)  # each >= 2, as ScoreMatrix checks
    mean, ci = np.empty((2, counts.size))
    # The stimuli with n scores are the rows of one (k, n) array, and a row sum
    # adds in the order of a 1-d sum: bitwise per-stimulus np.mean/np.std(ddof=1).
    for n in np.unique(counts):
        cols = np.flatnonzero(counts == n)
        vals = matrix.scores[:, cols].T[present[:, cols].T].reshape(cols.size, n)
        mean[cols] = m = vals.sum(axis=1) / n
        d = vals - m[:, None]
        ci[cols] = stdtrit(n - 1, 0.975) * np.sqrt((d * d).sum(axis=1) / (n - 1)) / math.sqrt(n)
    return MosTable(matrix.stimuli, mean, ci, counts)


def compute_dmos(mos: MosTable, pairing: dict[str, str]) -> MosTable:
    """Differential scores: 100 - (mos_src - mos_dist), one row per distorted
    stimulus in pairing order. Confidence intervals add in quadrature."""
    index = {pvs: j for j, pvs in enumerate(mos.stimuli)}
    d, s = [], []
    for dist, src in pairing.items():
        if dist not in index:
            raise MissingPair(f"distorted stimulus {dist!r} not in the MOS table")
        if src not in index:
            raise MissingPair(f"source stimulus {src!r} (pair of {dist!r}) not in the MOS table")
        d.append(index[dist])
        s.append(index[src])
    d, s = np.array([d, s], dtype=np.intp).reshape(2, -1)
    # math.hypot, as np.hypot differs from it by one ulp on some pairs
    ci = map(math.hypot, mos.ci95[s].tolist(), mos.ci95[d].tolist())
    return MosTable(tuple(pairing), 100.0 - (mos.mos[s] - mos.mos[d]),
                    np.fromiter(ci, float, len(d)), np.minimum(mos.n[s], mos.n[d]))


def bt500_screen(matrix: ScoreMatrix) -> ScreeningReport:
    """Observer screening by per-stimulus outlier counting.

    A score counts toward P (Q) when it exceeds (falls below) the stimulus
    mean by 2 standard deviations for roughly normal score distributions
    (kurtosis in [2, 4]) or sqrt(20) standard deviations otherwise. A
    subject is rejected when more than 5% of their scores are outliers and
    the outliers are roughly symmetric (|P - Q| / (P + Q) < 0.3).
    """
    if len(matrix.subjects) < 3:
        raise ValueError(f"screening needs >= 3 subjects, got {len(matrix.subjects)}")
    scores = matrix.scores
    present = matrix.present
    n_per_stim = present.sum(axis=0)
    mean = np.nanmean(scores, axis=0)
    std = np.nanstd(scores, axis=0, ddof=1)
    centered = np.where(present, scores - mean, 0.0)
    c2 = centered * centered
    m2 = c2.sum(axis=0) / n_per_stim
    m4 = (c2 * c2).sum(axis=0) / n_per_stim
    with np.errstate(divide="ignore", invalid="ignore"):
        beta2 = np.where(m2 > 0.0, m4 / np.where(m2 > 0.0, m2, 1.0) ** 2, 0.0)
    threshold = np.where((beta2 >= 2.0) & (beta2 <= 4.0), 2.0 * std, math.sqrt(20.0) * std)

    above = present & (scores > mean + threshold)
    below = present & (scores < mean - threshold)
    p = above.sum(axis=1)
    q = below.sum(axis=1)
    n_scored = present.sum(axis=1)
    # int64 / int64 rounds as Python's int / int does for counts below 2**53
    ratio = (p + q) / n_scored
    asym = np.abs(p - q) / np.maximum(p + q, 1)  # 0 / 1 when p + q == 0
    rejected = tuple(compress(matrix.subjects, (ratio > 0.05) & (asym < 0.3)))
    return ScreeningReport(matrix.subjects, p, q, n_scored, ratio, asym, rejected)


def recover_mle(matrix: ScoreMatrix) -> SubjectModel:
    """Fit scores = psi[stimulus] + delta[subject] + nu[subject] * noise.

    Alternating coordinate maximum likelihood: stimulus qualities are
    precision-weighted means, biases are per-subject residual means,
    inconsistencies are per-subject residual stds (floored). Biases are
    recentered to zero mean each sweep, compensating psi so the likelihood
    is untouched. The first sweep starts from zero bias and unit
    inconsistency, so its psi is the plain mean; iterations counts it.
    """
    present = matrix.present
    scored = present.sum(axis=1)
    if np.any(scored < 2):
        bad = matrix.subjects[int(np.argmin(scored))]
        raise TooFewRaters(f"subject {bad!r} has fewer than 2 scores")
    scores = np.where(present, matrix.scores, 0.0)
    # products with this 0/1 mask are np.where(present, ..., 0.0) bitwise at a
    # third of the cost, since scores holds +0.0 where the mask is 0.0
    mask = present.astype(float)
    n_scored = scored.astype(float)
    n_subjects = len(matrix.subjects)
    psi = np.zeros(len(matrix.stimuli))
    delta = np.zeros(n_subjects)
    nu = np.ones(n_subjects)

    trace: list[float] = []
    for sweeps in range(1, MAX_SWEEPS + 1):
        psi_old, delta_old, nu_old = psi, delta, nu
        w = mask * (1.0 / nu**2)[:, None]
        psi = (w * (scores - delta[:, None])).sum(axis=0) / w.sum(axis=0)
        dev = scores - mask * psi
        delta = dev.sum(axis=1) / n_scored
        resid = dev - mask * delta[:, None]
        rss = (resid**2).sum(axis=1)
        nu = np.maximum(np.sqrt(rss / n_scored), NU_FLOOR)
        shift = float(delta.mean())
        delta = delta - shift
        psi = psi + shift
        # the log-likelihood from each subject's residual sum (recentring keeps it)
        var = nu**2
        trace.append(float(-0.5 * (n_scored * np.log(2.0 * math.pi * var) + rss / var).sum()))
        change = max(
            float(np.abs(psi - psi_old).max()),
            float(np.abs(delta - delta_old).max()),
            float(np.abs(nu - nu_old).max()),
        )
        if change < TOL:
            break
    else:
        raise NonConvergence(f"no convergence after {MAX_SWEEPS} sweeps")

    info = (mask * (1.0 / nu**2)[:, None]).sum(axis=0)
    ci95 = 1.96 / np.sqrt(info)
    return SubjectModel(
        stimuli=matrix.stimuli,
        subjects=matrix.subjects,
        psi=psi,
        delta=delta,
        nu=nu,
        ci95=ci95,
        loglik=trace[-1],
        iterations=sweeps,
        loglik_trace=tuple(trace),
    )


class ScoreTable(NamedTuple):
    """Score rows by column, in file order."""

    subject_ids: list[str]
    pvs_ids: list[str]
    scores: np.ndarray


@contextmanager
def csv_rows(path, required):
    """Yield (columns, rows) of the CSV file at path: each header name's index
    and the non-blank rows, which may stop short of the header. The header must
    hold every required name and repeat none; csv and UTF-8 errors name the line."""
    with open(path, newline="", encoding=CSV_ENCODING) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            columns = {name: i for i, name in enumerate(header)}
            if len(columns) < len(header):
                repeat = next(name for i, name in enumerate(header) if name in header[:i])
                raise ValueError(f"{path}: header repeats column {repeat!r}")
            if not set(required) <= columns.keys():
                raise ValueError(f"{path}: header must contain {sorted(required)}")
            yield columns, filter(None, reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # the decoder reads ahead of the reader
            with open(path, "rb") as raw:  # a line with a bad byte decodes two ways
                lineno = next(n for n, line in enumerate(raw, start=1) if
                              line.decode("utf-8", "replace") != line.decode("utf-8", "ignore"))
            raise ValueError(f"{path}: line {lineno}: not UTF-8 ({exc.reason})") from None


def row_error(path, index: int, problem: str) -> ValueError:
    """A ValueError naming problem and the line on which the CSV file's
    index-th non-blank row after the header starts; it reads the file again."""
    with open(path, newline="", encoding=CSV_ENCODING) as fh:
        reader = csv.reader(fh)
        next(reader)
        start = reader.line_num + 1
        for rec in reader:
            if rec and (index := index - 1) < 0:
                break
            start = reader.line_num + 1
    return ValueError(f"{path}: line {start}: {problem}")


def number(text) -> float:
    """float(text), or NaN when text is missing or not a number."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def read_scores_csv(path) -> ScoreTable:
    """Read rows of subject_id,pvs_id,score; optional columns (clip, qp,
    cohort...) are skipped, and a short row's missing cells read as None. A
    score that is not a finite number in [0, 100] or an empty id is a
    ValueError naming its line in the file."""
    required = ("subject_id", "pvs_id", "score")
    with csv_rows(path, required) as (columns, rows):
        i_subject, i_pvs, i_score = (columns[name] for name in required)
        width, pad = len(columns), [None] * len(columns)
        subjects, pvs, raw = [], [], []  # ids and score cells, one per row
        add_subject, add_pvs, add_raw = subjects.append, pvs.append, raw.append
        subject_id, pvs_id = {}.setdefault, {}.setdefault  # one str per distinct id
        for rec in rows:
            if len(rec) < width:
                rec += pad[len(rec):]
            add_subject(subject_id(rec[i_subject], rec[i_subject]))
            add_pvs(pvs_id(rec[i_pvs], rec[i_pvs]))
            add_raw(rec[i_score])
    if not raw:
        raise ValueError(f"{path}: no score rows")
    try:
        scores = np.fromiter(map(float, raw), float, len(raw))
        ok = bool(scores.min() >= 0.0 and scores.max() <= 100.0)  # NaN fails both
    except (TypeError, ValueError):
        ok = False
    if not (ok and all(subjects) and all(pvs)):
        _raise_first_bad_line(path, subjects, pvs, raw)
    return ScoreTable(subjects, pvs, scores)


def _raise_first_bad_line(path, subjects, pvs, raw) -> None:
    """Walk the rows in file order and raise for the first offending one; on
    a line with both a bad score and an empty id, the score is named."""
    for k, (subject, pvs_id, cell) in enumerate(zip(subjects, pvs, raw)):
        score = number(cell)
        if not math.isfinite(score):
            raise row_error(path, k, f"bad score {cell!r}")
        if not 0.0 <= score <= 100.0:
            raise row_error(path, k, f"score {cell!r} outside [0, 100]")
        if not (subject and pvs_id):
            raise row_error(path, k, "empty subject_id or pvs_id")
    raise AssertionError("no offending line found")


def build_score_matrix(table: ScoreTable) -> ScoreMatrix:
    """Subjects and stimuli in order of first appearance; one score per pair."""
    s_idx = {s: i for i, s in enumerate(dict.fromkeys(table.subject_ids))}
    e_idx = {e: j for j, e in enumerate(dict.fromkeys(table.pvs_ids))}
    n = len(table.subject_ids)
    rows = np.fromiter(map(s_idx.__getitem__, table.subject_ids), np.intp, n)
    cols = np.fromiter(map(e_idx.__getitem__, table.pvs_ids), np.intp, n)
    flat = rows * len(e_idx) + cols
    scores = np.full(len(s_idx) * len(e_idx), np.nan)
    scores[flat] = table.scores
    if np.bincount(flat, minlength=1).max() > 1:  # some pair has more than one row
        _, first = np.unique(flat, return_index=True)
        repeat = np.ones(n, dtype=bool)
        repeat[first] = False
        k = int(np.argmax(repeat))  # the first row whose pair came before
        raise ValueError(
            f"duplicate score for ({table.subject_ids[k]}, {table.pvs_ids[k]})"
        )
    return ScoreMatrix(
        subjects=tuple(s_idx),
        stimuli=tuple(e_idx),
        scores=scores.reshape(len(s_idx), len(e_idx)),
    )


def read_cohorts(path, column: str) -> dict[str, list[str]]:
    """Map each label in the scores CSV's column (a cohort, say) to its
    subjects, labels and subjects in order of first appearance. A row without
    a label, or a subject labelled two ways, is a ValueError naming its line."""
    cohorts, label_of = {}, {}  # label -> subjects, subject -> label
    with csv_rows(path, ("subject_id", column)) as (columns, rows):
        i_subject, i_label, pad = columns["subject_id"], columns[column], [None] * len(columns)
        for k, rec in enumerate(rows):
            rec += pad[len(rec):]
            subject, label = rec[i_subject], rec[i_label]
            if not label:
                raise row_error(path, k, f"no {column!r} label for subject {subject!r}")
            if subject not in label_of:
                label_of[subject] = label
                cohorts.setdefault(label, []).append(subject)
            elif label_of[subject] != label:
                raise row_error(path, k, f"subject {subject!r} has conflicting {column!r} "
                                         f"labels {label_of[subject]!r} and {label!r}")
    return cohorts


def read_pairing_csv(path) -> dict[str, str]:
    """Read dist_pvs_id,src_pvs_id rows into a pairing map; each distorted
    stimulus is paired once, and a bad row is a ValueError naming its line."""
    pairing: dict[str, str] = {}
    with csv_rows(path, ("dist_pvs_id", "src_pvs_id")) as (columns, rows):
        i_dist, i_src, pad = columns["dist_pvs_id"], columns["src_pvs_id"], [None] * len(columns)
        for k, rec in enumerate(rows):
            rec += pad[len(rec):]
            dist, src = rec[i_dist], rec[i_src]
            if not dist or not src:
                raise row_error(path, k, "empty pairing entry")
            if dist in pairing:
                raise row_error(path, k, f"duplicate dist_pvs_id {dist!r}")
            pairing[dist] = src
    return pairing
