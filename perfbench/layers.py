"""Per-layer metrics computed from the spans of the traced passes.

Counts are per pass (each pass does identical work, so they repeat
exactly); times are the median over traced passes of the per-pass total;
distributions (p50, tail) pool the spans of every traced pass. A layer a
workload does not reach reads 0.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import Span, covered, self_times

# (name, unit, better)
CATALOGUE = [
    ("backends.build_rd_curve.calls", "count", "lower"),
    ("backends.build_rd_curve.self_s", "s", "lower"),
    ("backends.encode.calls", "count", "lower"),
    ("backends.encode.s_p50", "s", "lower"),
    ("backends.encode.s_tail", "s", "lower"),
    ("backends.encode.wait_s_p50", "s", "lower"),
    ("backends.encode.failed", "count", "lower"),
    ("backends.encode.in_flight_mean", "count", "higher"),
    ("backends.encodes_per_s", "1/s", "higher"),
    ("powell.powell_box_minimize.calls", "count", "lower"),
    ("powell.powell_box_minimize.self_s", "s", "lower"),
    ("powell.iterations", "count", "lower"),
    ("powell.evals_per_call", "count", "lower"),
    ("optimizer.evaluate_cost.calls", "count", "lower"),
    ("optimizer.distinct_points", "count", "lower"),
    ("optimizer.inf_costs", "count", "lower"),
    ("optimizer.cache.lookups", "count", "lower"),
    ("optimizer.cache.hit_ratio", "ratio", "higher"),
    ("optimizer.cache.save_s", "s", "lower"),
    ("optimizer.cache.load_s", "s", "lower"),
    ("optimizer.cache.file_bytes", "bytes", "lower"),
    ("optimizer.optimize_clip.s_p50", "s", "lower"),
    ("optimizer.optimize_clip.s_tail", "s", "lower"),
    ("optimizer.evaluate_cost.self_s", "s", "lower"),
    ("bd.bd_rate.calls", "count", "lower"),
    ("bd.bd_rate.self_s", "s", "lower"),
    ("curves.enforce_monotone.calls", "count", "lower"),
    ("curves.enforce_monotone.s", "s", "lower"),
    ("curves.pchip_fit.calls", "count", "lower"),
    ("curves.pchip_fit.s", "s", "lower"),
    ("curves.integrate.calls", "count", "lower"),
    ("curves.integrate.s", "s", "lower"),
    ("curves.build_curve.calls", "count", "lower"),
    ("curves.build_curve.s", "s", "lower"),
    ("subjective.read_scores_csv.s", "s", "lower"),
    ("subjective.build_score_matrix.s", "s", "lower"),
    ("subjective.bt500_screen.s", "s", "lower"),
    ("subjective.bt500_screen.rejected", "count", "lower"),
    ("subjective.compute_mos.s", "s", "lower"),
    ("subjective.recover_mle.s", "s", "lower"),
    ("subjective.recover_mle.sweeps", "count", "lower"),
    ("subjective.compute_dmos.s", "s", "lower"),
    ("correlation.fit_logistic5.s", "s", "lower"),
    ("correlation.fit_logistic5.evals", "count", "lower"),
    ("correlation.kendall_tau_b.s", "s", "lower"),
    ("correlation.average_ranks.s", "s", "lower"),
    ("correlation.pearson.s", "s", "lower"),
    ("cli.optimize.self_s", "s", "lower"),
    ("cli.scores.self_s", "s", "lower"),
    ("cli.correlate.self_s", "s", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("src_lines", "count", "lower"),
]


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    v = sorted(values)
    if not v:
        return 0.0
    return v[min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))]


def tail(values) -> float:
    """The highest percentile with at least ten samples beyond it; with
    fewer than 20 samples there is none above the median, so the median."""
    n = len(values)
    return quantile(values, max(0.5, 1.0 - 10.0 / n) if n else 0.5)


def _pass_figures(spans: list[Span]) -> dict[str, float]:
    """Counts and time totals of one traced pass."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return float(len(by_name[name]))

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(selfs[s.id] for s in by_name[name])

    f: dict[str, float] = {}
    for name in ("backends.build_rd_curve", "powell.powell_box_minimize",
                 "optimizer.evaluate_cost", "bd.bd_rate", "cli.optimize", "cli.scores",
                 "cli.correlate"):
        f[f"{name}.self_s"] = self_total(name)
    for name in ("backends.build_rd_curve", "backends.encode", "powell.powell_box_minimize",
                 "optimizer.evaluate_cost", "bd.bd_rate", "curves.enforce_monotone",
                 "curves.pchip_fit", "curves.integrate", "curves.build_curve"):
        f[f"{name}.calls"] = calls(name)
    for name in ("curves.enforce_monotone", "curves.pchip_fit", "curves.integrate",
                 "curves.build_curve", "subjective.read_scores_csv",
                 "subjective.build_score_matrix", "subjective.bt500_screen",
                 "subjective.compute_mos", "subjective.recover_mle", "subjective.compute_dmos",
                 "correlation.fit_logistic5", "correlation.kendall_tau_b",
                 "correlation.average_ranks", "correlation.pearson"):
        f[f"{name}.s"] = total(name)

    encodes = by_name["backends.encode"]
    encoding = covered(encodes)  # time with at least one encode in progress
    f["backends.encode.failed"] = float(sum(1 for s in encodes if s.error))
    f["backends.encode.in_flight_mean"] = (
        sum(s.duration for s in encodes) / encoding if encoding else 0.0)
    f["backends.encodes_per_s"] = len(encodes) / encoding if encoding else 0.0

    powell = by_name["powell.powell_box_minimize"]
    evals = sum(s.info.get("evals", 0) for s in powell)
    f["powell.iterations"] = float(sum(s.info.get("iterations", 0) for s in powell))
    f["powell.evals_per_call"] = evals / len(powell) if powell else 0.0
    fits = {s.id for s in by_name["correlation.fit_logistic5"]}
    f["correlation.fit_logistic5.evals"] = float(
        sum(s.info.get("evals", 0) for s in powell if s.parent in fits))

    costs = by_name["optimizer.evaluate_cost"]
    f["optimizer.distinct_points"] = float(len({
        (s.info["clip"], *s.info["k"]) for s in costs if "k" in s.info}))
    f["optimizer.inf_costs"] = float(sum(1 for s in costs if s.error or s.info.get("inf")))

    gets = by_name["optimizer.cache.get"]
    f["optimizer.cache.lookups"] = float(len(gets))
    f["optimizer.cache.hit_ratio"] = (
        sum(1 for s in gets if s.info.get("hit")) / len(gets) if gets else 0.0)
    f["optimizer.cache.save_s"] = total("optimizer.cache.save")
    f["optimizer.cache.load_s"] = total("optimizer.cache.load")
    f["optimizer.cache.file_bytes"] = float(
        sum(s.info.get("bytes", 0) for s in by_name["optimizer.cache.save"]))

    screens = by_name["subjective.bt500_screen"]
    f["subjective.bt500_screen.rejected"] = float(
        sum(s.info.get("rejected", 0) for s in screens))
    f["subjective.recover_mle.sweeps"] = float(
        sum(s.info.get("sweeps", 0) for s in by_name["subjective.recover_mle"]))
    return f


def layer_metrics(traced: list[list[Span]]) -> dict[str, float]:
    """Per-layer figures over the traced passes, except trace_overhead_pct
    and src_lines, which the caller measures."""
    per_pass = [_pass_figures(spans) for spans in traced]
    out = {name: float(statistics.median(f[name] for f in per_pass)) for name in per_pass[0]}

    encodes = [s for spans in traced for s in spans if s.name == "backends.encode"]
    out["backends.encode.s_p50"] = quantile([s.duration for s in encodes], 0.5)
    out["backends.encode.s_tail"] = tail([s.duration for s in encodes])
    out["backends.encode.wait_s_p50"] = quantile(
        [s.info["stub_start"] - s.t0 for s in encodes if "stub_start" in s.info], 0.5)
    clips = [s.duration for spans in traced for s in spans
             if s.name == "optimizer.optimize_clip"]
    out["optimizer.optimize_clip.s_p50"] = quantile(clips, 0.5)
    out["optimizer.optimize_clip.s_tail"] = tail(clips)
    return out
