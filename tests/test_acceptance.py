"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. The
checks pin oracle equivalence, exactness identities, convergence budgets,
and end-to-end CLI determinism on the shipped synthetic dataset.
"""

import csv
import itertools
import json
import math
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from perclip import (
    LambdaMultipliers,
    RdPoint,
    SyntheticBackend,
    SyntheticModel,
    bd_quality,
    bd_rate,
    bitrate_savings,
    bt500_screen,
    build_curve,
    build_score_matrix,
    compute_mos,
    correlate,
    fit_logistic5,
    optimize_clip,
    read_scores_csv,
    recover_mle,
)
from perclip.backends import EncodeRequest, synthetic_encode
from perclip.cli import main as cli_main
from perclip.curves import enforce_monotone
from perclip.errors import TooFewPoints
from perclip.powell import powell_box_minimize

from conftest import (
    random_monotone_curve,
    random_overlapping_pair,
    simulate_biased_scores,
    simulate_clean_panel,
    simulate_screening_panel,
)
from test_bd import oracle_bd_quality, oracle_bd_rate, scale_rates
from test_curves import brute_force_max_monotone

DATA = Path(__file__).resolve().parent.parent / "data"
SVG_NS = "{http://www.w3.org/2000/svg}"


def report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(map(str, failures))


@pytest.fixture(scope="module")
def curve_pairs():
    rng = np.random.default_rng(515253)
    return [random_overlapping_pair(rng) for _ in range(500)]


@pytest.fixture(scope="module")
def grid_scan():
    """200x200 grid argmin of the BD-rate cost over the synthetic backend."""
    model = SyntheticModel()
    qps = (27, 39, 49, 59, 63)

    def curve_at(k1, k2):
        ks = LambdaMultipliers(k1, k2)
        points = [
            RdPoint(rate=res.rate, quality=res.quality, qp=qp)
            for qp, res in (
                (qp, synthetic_encode(model, EncodeRequest(clip="c", qp=qp, ks=ks)))
                for qp in qps
            )
        ]
        return build_curve(points, "ms_ssim")

    baseline = curve_at(1.0, 1.0)
    axis = np.linspace(0.2, 4.0, 200)
    best_ks, best_cost = None, math.inf
    for k1 in axis:
        for k2 in axis:
            cost = bd_rate(baseline, curve_at(float(k1), float(k2)), clean=True).value
            if cost < best_cost:
                best_ks, best_cost = (float(k1), float(k2)), cost
    return best_ks, best_cost


def test_criterion_01_bd_oracle_equivalence(curve_pairs):
    failures = []
    start = time.perf_counter()
    for i, (ref, test) in enumerate(curve_pairs):
        r = bd_rate(ref, test, clean=False).value
        r_oracle = oracle_bd_rate(ref, test)
        if abs(r - r_oracle) >= 1e-6:
            failures.append(f"pair {i}: bd_rate off by {abs(r - r_oracle):.3g}")
        q = bd_quality(ref, test).value
        q_oracle = oracle_bd_quality(ref, test)
        if abs(q - q_oracle) >= 1e-6:
            failures.append(f"pair {i}: bd_quality off by {abs(q - q_oracle):.3g}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(1, "bd oracle equivalence (500 pairs, 1e-6)", failures)


def test_criterion_02_bd_reciprocity(curve_pairs):
    failures = []
    for i, (a, b) in enumerate(curve_pairs):
        fwd = bd_rate(a, b).value
        rev = bd_rate(b, a).value
        residual = abs((1 + fwd / 100.0) * (1 + rev / 100.0) - 1.0)
        if residual >= 1e-9:
            failures.append(f"pair {i}: residual {residual:.3g}")
    report(2, "bd reciprocity (1e-9)", failures)


def test_criterion_03_constant_ratio_exactness():
    failures = []
    rng = np.random.default_rng(99)
    for i in range(50):
        ref = random_monotone_curve(rng)
        test = scale_rates(ref, 0.9)
        rate = bd_rate(ref, test).value
        if abs(rate - (-10.0)) >= 1e-9:
            failures.append(f"curve {i}: bd_rate {rate!r}")
        anchors = [(f"a{j}", q) for j, q in enumerate(ref.qualities)]
        savings = bitrate_savings(ref, test, anchors=anchors)
        for label, value in savings.per_anchor:
            if abs(value - (-10.0)) >= 1e-9:
                failures.append(f"curve {i} anchor {label}: {value!r}")
    report(3, "constant-ratio exactness (-10% to 1e-9)", failures)


def test_criterion_04_monotone_cleanup_optimality():
    failures = []
    rng = np.random.default_rng(424344)
    for i in range(1000):
        n = int(rng.integers(2, 11))
        qualities = list(rng.uniform(0, 10, n))
        curve = build_curve(
            [RdPoint(100.0 * (j + 1), q) for j, q in enumerate(qualities)], "mos"
        )
        expected = brute_force_max_monotone(qualities)
        try:
            got = len(enforce_monotone(curve).points)
        except TooFewPoints:
            got = None
        if expected < 2:
            if got is not None:
                failures.append(f"curve {i}: expected TooFewPoints, kept {got}")
        elif got != expected:
            failures.append(f"curve {i}: kept {got}, brute force {expected}")
    report(4, "monotone cleanup optimality (1000 curves)", failures)


def test_criterion_05_optimizer_convergence(grid_scan):
    failures = []
    backend = SyntheticBackend()
    start = time.perf_counter()
    ks, trace = optimize_clip(backend, "clip")
    elapsed = time.perf_counter() - start
    (gk1, gk2), grid_cost = grid_scan
    if abs(ks.k1 - gk1) >= 0.05 or abs(ks.k2 - gk2) >= 0.05:
        failures.append(f"ks ({ks.k1:.4f}, {ks.k2:.4f}) vs grid argmin ({gk1:.4f}, {gk2:.4f})")
    if not trace.best[1] < 0:
        failures.append(f"best cost {trace.best[1]} not negative")
    if trace.evaluations[0].cost != 0.0:
        failures.append(f"cost at (1,1) is {trace.evaluations[0].cost!r}, not exactly 0")
    if len(trace.evaluations) > 150:
        failures.append(f"{len(trace.evaluations)} cost evaluations > 150")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report(5, "optimizer convergence on synthetic backend", failures)


def test_criterion_06_powell_unit_minima():
    failures = []
    # the default search box from (1, 1), resolved to 1e-4
    box = (1.0, 1.0), (0.2, 0.2), (4.0, 4.0), 1e-4
    bowl = lambda x: (x[0] - 1.3) ** 2 + (x[1] - 0.8) ** 2
    res = powell_box_minimize(lambda xs: [bowl(x) for x in xs], *box)
    k1, k2 = res.x
    if abs(k1 - 1.3) >= 1e-4 or abs(k2 - 0.8) >= 1e-4:
        failures.append(f"bowl minimum at ({k1:.6f}, {k2:.6f})")
    if len(res.evaluations) >= 200:
        failures.append(f"bowl used {len(res.evaluations)} evaluations")

    rosen = lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    res = powell_box_minimize(lambda xs: [rosen(x) for x in xs], *box)
    k1, k2 = res.x
    if abs(k1 - 1.0) >= 1e-3 or abs(k2 - 1.0) >= 1e-3:
        failures.append(f"rosenbrock minimum at ({k1:.6f}, {k2:.6f})")
    if len(res.evaluations) >= 200:
        failures.append(f"rosenbrock used {len(res.evaluations)} evaluations")
    report(6, "powell unit minima", failures)


def test_criterion_07_recovery_beats_averaging():
    failures = []
    start = time.perf_counter()
    wins = 0
    for seed in range(100):
        matrix, psi, _, _ = simulate_biased_scores(seed)
        model = recover_mle(matrix)
        mos_vals = compute_mos(matrix).mos
        rmse_rec = float(np.sqrt(np.mean((np.array(model.psi) - psi) ** 2)))
        rmse_mos = float(np.sqrt(np.mean((mos_vals - psi) ** 2)))
        wins += rmse_rec < rmse_mos
        diffs = np.diff(model.loglik_trace)
        if not np.all(diffs >= -1e-9 * max(1.0, abs(model.loglik))):
            failures.append(f"seed {seed}: log-likelihood decreased")
    elapsed = time.perf_counter() - start
    if wins < 95:
        failures.append(f"recovery beat plain averaging in only {wins}/100 runs")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(7, f"recovery beats averaging ({wins}/100)", failures)


def test_criterion_08_screening_sensitivity_specificity():
    failures = []
    hits = 0
    for seed in range(200):
        matrix = simulate_screening_panel(seed)
        rejected = bt500_screen(matrix).rejected
        hits += matrix.subjects[-1] in rejected
    if hits < 190:
        failures.append(f"random scorer rejected in only {hits}/200 trials")
    clean = bt500_screen(simulate_clean_panel(0))
    if clean.rejected:
        failures.append(f"clean panel rejected {clean.rejected}")
    shipped = bt500_screen(build_score_matrix(read_scores_csv(DATA / "scores.csv")))
    if shipped.rejected:
        failures.append(f"shipped fixture rejected {shipped.rejected}")
    report(8, f"screening sensitivity ({hits}/200) and specificity", failures)


def test_criterion_09_correlation_invariances():
    failures = []
    rng = np.random.default_rng(777)
    x = rng.uniform(0.1, 10.0, 40)
    y = rng.uniform(0.1, 10.0, 40)
    base = correlate(x, y)
    for name, xt, yt in (
        ("cube-x", x**3, y),
        ("exp-y", x, np.exp(y)),
        ("both", x**3, np.exp(y)),
    ):
        rep = correlate(xt, yt)
        if abs(rep.srocc - base.srocc) >= 1e-12 or abs(rep.krcc - base.krcc) >= 1e-12:
            failures.append(f"{name}: rank coefficients moved")

    tie = correlate([1, 1, 2], [1, 2, 3])
    if abs(tie.srocc - math.sqrt(3.0) / 2.0) >= 1e-12:
        failures.append(f"tie srocc {tie.srocc!r}")
    if abs(tie.krcc - 2.0 / math.sqrt(6.0)) >= 1e-12:
        failures.append(f"tie krcc {tie.krcc!r}")
    # brute-force pair counting on random tied data
    for i in range(20):
        xs = rng.integers(0, 4, 10).astype(float)
        ys = rng.integers(0, 4, 10).astype(float)
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        c_minus_d = tx = ty = 0
        for a, b in itertools.combinations(range(10), 2):
            sx = int(xs[a] > xs[b]) - int(xs[a] < xs[b])
            sy = int(ys[a] > ys[b]) - int(ys[a] < ys[b])
            c_minus_d += sx * sy
            tx += sx == 0
            ty += sy == 0
        expected = c_minus_d / math.sqrt((45 - tx) * (45 - ty))
        if abs(correlate(xs, ys).krcc - expected) >= 1e-12:
            failures.append(f"tied sample {i}: krcc mismatch")

    for seed in range(5):
        r = np.random.default_rng(seed)
        xs = np.sort(r.uniform(0, 10, 30))
        ys = np.exp(xs / 2.5) + r.normal(0, 0.5, 30)
        params = fit_logistic5(xs, ys)
        raw = correlate(xs, ys)
        mapped = correlate(xs, ys, params=params)
        if mapped.plcc < raw.plcc - 1e-9:
            failures.append(f"seed {seed}: mapping hurt plcc")
    report(9, "correlation invariances", failures)


def _run_cli_pipeline(out: Path) -> list:
    failures = []
    jobs = [
        (
            ["--out", str(out / "opt"), "optimize", "meadow", "harbor",
             "--config", str(DATA / "backend_synthetic.json")],
            0,
        ),
        (
            ["--out", str(out / "bd"), "bd",
             str(DATA / "curves" / "meadow__default.curve.json"),
             str(DATA / "curves" / "meadow__tuned.curve.json")],
            0,
        ),
        (
            ["--out", str(out / "scores"), "scores", str(DATA / "scores.csv"),
             "--pairing", str(DATA / "pairing.csv"),
             "--screen", "--recover", "p913", "--cohort", "cohort"],
            0,
        ),
        (
            ["--out", str(out / "corr"), "correlate",
             str(DATA / "metrics.csv"), str(DATA / "subjective.csv")],
            0,
        ),
        (
            ["--out", str(out / "rep"), "report"]
            + [str(p) for p in sorted((DATA / "curves").glob("*.curve.json"))],
            0,
        ),
    ]
    for argv, want in jobs:
        code = cli_main(argv)
        if code != want:
            failures.append(f"{argv[2]} exited {code}")
    return failures


def test_criterion_10_cli_end_to_end(tmp_path):
    failures = _run_cli_pipeline(tmp_path / "one")
    failures += _run_cli_pipeline(tmp_path / "two")

    one = tmp_path / "one"
    files = sorted(
        p.relative_to(one)
        for p in one.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    if not files:
        failures.append("no outputs produced")
    for rel in files:
        if (one / rel).read_bytes() != (tmp_path / "two" / rel).read_bytes():
            failures.append(f"{rel} not byte-identical across runs")

    for svg in sorted((one / "rep").glob("*.svg")):
        root = ET.parse(svg).getroot()
        polylines = root.findall(f".//{SVG_NS}polyline")
        bars = root.findall(f".//{SVG_NS}g[@class='errorbar']")
        points = sum(
            len(p.attrib["points"].split()) for p in polylines
        )
        if len(polylines) != 2:
            failures.append(f"{svg.name}: {len(polylines)} polylines")
        if len(bars) != points:
            failures.append(f"{svg.name}: {len(bars)} error bars for {points} points")

    with open(one / "corr" / "correlations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 3:
        failures.append(f"correlations.csv has {len(rows)} rows")

    result = json.loads((one / "opt" / "meadow.result.json").read_text())
    if not result["cost_bdrate_pct"] < 0:
        failures.append("optimize found no improvement on meadow")
    report(10, "end-to-end cli determinism", failures)
