"""Command-line interface: optimize, bd, scores, correlate, report.

Exit codes: 0 success, 1 error. All CSV output uses 6 significant digits so
reruns on identical inputs diff clean.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .backends import backend_from_config, from_section, known_keys
from .bd import DEFAULT_ANCHOR_QPS, bd_quality, bd_rate, bitrate_savings, default_anchors
from .correlation import fit_logistic5, correlate
from .curves import RdCurve, load_curve_file, read_json, write_json
from .errors import PerclipError
from .optimizer import OptimizationConfig, optimize_clip, EncodeCache
from .report import render_rq_svg
from .subjective import (
    MosTable,
    bt500_screen,
    build_score_matrix,
    compute_dmos,
    compute_mos,
    csv_rows,
    number,
    read_cohorts,
    read_pairing_csv,
    read_scores_csv,
    recover_mle,
    row_error,
)


def fmt(value) -> str:
    """Fixed CSV cell formatting: 6 significant digits for floats."""
    if isinstance(value, float):  # first: nearly every cell is a float
        return "0" if value == 0.0 else f"{value:.6g}"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class Run:
    """One command's account of itself for manifest.json: what it read, the
    config it ran with, the files it wrote under out and its own facts. Each
    writer puts one named file under out and lists it once the write is done,
    so outputs names only files that were written."""

    out: Path
    inputs: list[str] = field(default_factory=list)
    config: str | None = None
    outputs: list[Path] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    started: str = field(default_factory=_now)

    def text(self, name: str, text: str) -> str:
        (self.out / name).write_text(text)
        self.outputs.append(self.out / name)
        return text

    def json(self, name: str, doc) -> str:
        return self.text(name, json.dumps(doc, indent=2) + "\n")

    def csv(self, name: str, header: list[str], rows) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)
        return self.text(name, buf.getvalue())

    def columns(self, name: str, header: list[str], *columns) -> str:
        return self.csv(name, header, zip(
            *(c.tolist() if hasattr(c, "tolist") else c for c in columns)))


def _bare_name(clip: str, prefix: str = "") -> str:
    """clip, which names output files in --out, if it is a bare file name:
    no path separator, and not empty, . or ..; else a ValueError whose
    message starts with prefix."""
    if clip in ("", ".", "..") or Path(clip).name != clip:
        raise ValueError(f"{prefix}clip {clip!r} is not a bare file name "
                         f"(it names output files in --out)")
    return clip


def cmd_optimize(args, run: Run) -> None:
    run.inputs, run.config = list(args.clips), args.config
    for clip in args.clips:
        _bare_name(clip)
    cfg = known_keys(read_json(args.config), args.config, {"backend", "optimizer"})
    if "backend" not in cfg:
        raise ValueError(f"{args.config}: missing section 'backend'")
    backend = backend_from_config(cfg["backend"])
    config = from_section(OptimizationConfig, cfg.get("optimizer", {}), "optimizer")
    cache = EncodeCache() if args.cache else None
    if args.cache and Path(args.cache).exists():
        cache.load(args.cache)
    sent = run.facts["clips"] = {}  # per clip: encodes and backend batches
    try:  # a failed or interrupted clip keeps the finished encodes in the cache
        for clip in args.clips:
            ks, trace = optimize_clip(backend, clip, config, proxy=args.proxy, cache=cache)
            run.json(f"{clip}.result.json", {
                "clip": clip, "k1": ks.k1, "k2": ks.k2, "cost_bdrate_pct": trace.best[1],
                "iterations": trace.iterations, "encodes": trace.encode_count,
                "stop": trace.stop})
            run.csv(f"{clip}.trace.csv", ["eval_idx", "k1", "k2", "cost", "cache_hit"],
                    [[i, e.ks.k1, e.ks.k2, e.cost, e.cache_hit]
                     for i, e in enumerate(trace.evaluations)])
            sent[clip] = {"encodes": trace.encode_count, "batches": trace.batch_count}
            print(f"{clip}: k1={ks.k1:.6g} k2={ks.k2:.6g} cost={trace.best[1]:.6g}%")
    finally:
        if cache is not None:
            cache.save(args.cache)


def cmd_bd(args, run: Run) -> None:
    run.inputs = [args.ref, args.test]
    ref, ref_meta = load_curve_file(args.ref)
    test, _ = load_curve_file(args.test)
    clip = ref_meta["clip"]
    rate_res = bd_rate(ref, test)
    qual_res = bd_quality(ref, test)
    if args.anchors:
        texts = args.anchors.split(",")
        for i, text in enumerate(texts):
            if not math.isfinite(number(text)):
                raise ValueError(f"--anchors: {text!r} is not a finite number")
            if number(text) in map(number, texts[:i]):
                raise ValueError(f"--anchors: {text!r} repeats an earlier anchor")
        anchors = [(f"q{text}", float(text)) for text in texts]
    else:
        anchors = default_anchors(ref)
        if not anchors:
            raise ValueError(f"{args.ref}: no point labelled qp "
                             f"{'/'.join(map(str, DEFAULT_ANCHOR_QPS))}; give --anchors")
    savings = bitrate_savings(ref, test, anchors=anchors)
    for label in savings.skipped:
        print(f"warning: anchor {label} outside the common quality range", file=sys.stderr)
    header = ["clip", "metric", "bd_rate_pct", "bd_quality", "savings_mean_pct",
              *(f"savings_{label}_pct" for label, _ in savings.per_anchor)]
    row = [clip, ref.metric_id, rate_res.value, qual_res.value, savings.mean,
           *(value for _, value in savings.per_anchor)]
    sys.stdout.write(run.csv("bd.csv", header, [row]))


def cmd_scores(args, run: Run) -> None:
    run.inputs = [args.scores] + ([args.pairing] if args.pairing else [])
    if args.dmos_from == "recovered" and not args.recover:
        raise ValueError("--dmos-from recovered requires --recover")
    matrix = build_score_matrix(read_scores_csv(args.scores))
    pairing = read_pairing_csv(args.pairing) if args.pairing else None
    # "" is every subject; a label's tables are mos.<label>.csv and so on
    cohorts = {"": matrix.subjects}
    if args.cohort:
        cohorts |= read_cohorts(args.scores, args.cohort)

    if args.screen:
        screening = bt500_screen(matrix)
        run.columns("screening.csv",
                    ["subject_id", "p", "q", "n_scored", "outlier_ratio", "asymmetry", "rejected"],
                    *screening[:-1], [s in screening.rejected for s in screening.subjects])
        print("rejected: " + (",".join(screening.rejected) or "none"))
        matrix = matrix.subset_subjects(s for s in matrix.subjects if s not in screening.rejected)

    for label, subjects in cohorts.items():
        suffix = f".{label}" if label else ""
        sub = matrix if label == "" else matrix.subset_subjects(subjects)
        mos = compute_mos(sub)
        run.columns(f"mos{suffix}.csv", ["pvs_id", "mos", "ci95", "n"], *mos)

        if args.recover:
            model = recover_mle(sub)
            run.columns(f"psi{suffix}.csv", ["pvs_id", "psi", "ci95"],
                        model.stimuli, model.psi, model.ci95)
            run.columns(f"subjects{suffix}.csv", ["subject_id", "delta", "nu"],
                        model.subjects, model.delta, model.nu)

        if pairing is not None:
            if args.dmos_from == "recovered":
                mos = MosTable(model.stimuli, model.psi, model.ci95, mos.n)
            run.columns(f"dmos{suffix}.csv", ["pvs_id", "dmos", "ci95", "n"],
                        *compute_dmos(mos, pairing))


def _read_table(path) -> tuple[dict[str, int], dict[str, list]]:
    """Column indices and rows by pvs_id of a CSV; a repeated pvs_id names the
    file and its line."""
    with csv_rows(path, ("pvs_id",)) as (columns, rows):
        i, by_id, pad = columns["pvs_id"], {}, [None] * len(columns)
        for row in rows:
            row += pad[len(row):]
            if by_id.setdefault(row[i], row) is not row:
                raise row_error(path, len(by_id), f"duplicate pvs_id {row[i]!r}")
    return columns, by_id


def _floats(path, columns: dict[str, int], by_id: dict[str, list], ids, name: str) -> list[float]:
    """Column name of the rows ids as finite floats; a bad cell names the file,
    its line, the column and the pvs_id."""
    i = columns[name]
    values = [number(by_id[pvs][i]) for pvs in ids]
    for pvs, value in zip(ids, values):
        if not math.isfinite(value):  # by_id is in file order, as no pvs_id repeats
            raise row_error(path, [*by_id].index(pvs),
                            f"column {name}: bad value {by_id[pvs][i]!r} for {pvs!r}")
    return values


def cmd_correlate(args, run: Run) -> None:
    run.inputs = [args.metrics, args.subjective]
    (m_cols, m_rows), (s_cols, s_rows) = _read_table(args.metrics), _read_table(args.subjective)
    subj_col = next((c for c in ("subjective", "mos", "dmos") if c in s_cols), None)
    if subj_col is None:
        raise ValueError(f"{args.subjective}: no subjective/mos/dmos column")
    subjective = dict(zip(s_rows, _floats(args.subjective, s_cols, s_rows, s_rows, subj_col)))
    joined = [pvs for pvs in m_rows if pvs in subjective]
    if len(joined) < 3:
        raise ValueError(f"join produced {len(joined)} rows; need >= 3")
    y = [subjective[pvs] for pvs in joined]

    out_rows = []
    for name in (c for c in m_cols if c != "pvs_id"):
        x = _floats(args.metrics, m_cols, m_rows, joined, name)
        try:
            params = fit_logistic5(x, y) if args.map else None
            rep = correlate(x, y, params=params)
        except (PerclipError, ValueError) as exc:
            raise ValueError(f"{args.metrics}: column {name}: {exc}") from exc
        out_rows.append([name, rep.plcc, rep.srocc, rep.krcc, rep.rmse, rep.n])
    sys.stdout.write(run.csv("correlations.csv", ["metric", "plcc", "srocc", "krcc", "rmse", "n"],
                             out_rows))


def cmd_report(args, run: Run) -> None:
    run.inputs = list(args.curves)
    if not args.curves:
        raise ValueError("no curve files given")
    by_clip: dict[str, list[tuple[str, RdCurve, str]]] = {}  # (variant, curve, file)
    for path in args.curves:
        curve, meta = load_curve_file(path)
        clip = _bare_name(meta["clip"], f"{path}: ")
        variant = meta.get("variant") or Path(path).stem
        by_clip.setdefault(clip, []).append((variant, curve, path))

    summary_rows = []
    for clip in sorted(by_clip):
        entries = sorted(by_clip[clip], key=lambda e: e[0])
        try:
            svg = render_rq_svg(clip, [e[:2] for e in entries], metric_id=entries[0][1].metric_id)
        except OverflowError:  # a chart span or tick past the largest float
            files = ", ".join(e[2] for e in entries)
            raise ValueError(f"{files}: values too large to plot") from None
        run.text(f"{clip}.svg", svg)
        for variant, curve, _ in entries:
            summary_rows.append(
                [clip, variant, curve.metric_id, len(curve.points), min(curve.rates),
                 max(curve.rates), min(curve.qualities), max(curve.qualities)]
            )
    run.csv("report_summary.csv", ["clip", "variant", "metric", "n_points", "rate_min_kbps",
                                   "rate_max_kbps", "quality_min", "quality_max"], summary_rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perclip",
        description="Per-clip encoder lambda tuning and quality analytics",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="search lambda multipliers per clip")
    p.add_argument("clips", nargs="+", help="clip names resolvable by the backend")
    p.add_argument("--config", required=True, help="backend + optimizer config JSON")
    p.add_argument("--proxy", default=None, help="settings profile for the search")
    p.add_argument("--cache", default=None, help="persistent encode cache path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bd", help="delta metrics between two curve files")
    p.add_argument("ref")
    p.add_argument("test")
    p.add_argument("--anchors", default=None,
                   help="comma-separated anchor qualities for bitrate savings")
    p.set_defaults(func=cmd_bd)

    p = sub.add_parser("scores", help="MOS/DMOS tables from raw opinion scores")
    p.add_argument("scores", help="CSV of subject_id,pvs_id,score")
    p.add_argument("--pairing", default=None, help="CSV of dist_pvs_id,src_pvs_id")
    p.add_argument("--screen", action="store_true", help="run observer screening")
    p.add_argument("--recover", choices=("p913",), default=None,
                   help="recover per-subject bias and inconsistency")
    p.add_argument("--cohort", default=None,
                   help="scores column to split subjects into cohorts")
    p.add_argument("--dmos-from", choices=("mos", "recovered"), default="mos")
    p.set_defaults(func=cmd_scores)

    p = sub.add_parser("correlate", help="objective-vs-subjective correlations")
    p.add_argument("metrics", help="CSV of pvs_id plus one column per metric")
    p.add_argument("subjective", help="CSV of pvs_id,subjective")
    p.add_argument("--map", action=argparse.BooleanOptionalAction, default=True,
                   help="fit the monotone logistic mapping before PLCC/RMSE")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("report", help="SVG rate-quality charts with error bars")
    p.add_argument("curves", nargs="*", help="curve JSON files (clip/variant tagged)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        stream=sys.stderr,
    )
    errors = (PerclipError, OSError, ValueError, KeyError)  # a JSON error is a ValueError
    run, error = Run(Path(args.out)), None
    try:
        run.out.mkdir(parents=True, exist_ok=True)
        try:
            args.func(args, run)
        except errors as exc:  # the manifest records a failed run too
            error = exc
        write_json(run.out / "manifest.json", {
            "command": args.command,
            "inputs": run.inputs,
            "config": run.config,
            "outputs": [str(p) for p in run.outputs],
            "started": run.started,
            "finished": _now(),
            "exit_code": 0 if error is None else 1,
            **({} if error is None else {"error": str(error)}),
            **run.facts,
        })
    except errors as exc:  # a command's own error is the one reported
        error = error or exc
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return 0 if error is None else 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
