"""Command-line interface: optimize, bd, scores, correlate, report.

Exit codes: 0 success, 1 error. All CSV output uses 6 significant digits so
reruns on identical inputs diff clean.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .backends import backend_from_config, from_section, known_keys
from .bd import bd_quality, bd_rate, bitrate_savings, default_anchors
from .correlation import fit_logistic5, correlate
from .curves import RdCurve, load_curve_file, read_json
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
    read_pairing_csv,
    read_scores_csv,
    recover_mle,
    subject_cohorts,
)


def fmt(value) -> str:
    """Fixed CSV cell formatting: 6 significant digits for floats."""
    if isinstance(value, float):  # first: nearly every cell is a float
        return "0" if value == 0.0 else f"{value:.6g}"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)


def _write_table(path: Path, column: str, table: MosTable) -> None:
    _write_csv(path, ["pvs_id", column, "ci95", "n"], zip(
        table.stimuli, table.mos.tolist(), table.ci95.tolist(), table.n.tolist()))


def _write_manifest(args, command: str, inputs: list[str], outputs: list[Path],
                    config: str | None = None, **extra) -> None:
    """manifest.json in the output directory; extra holds the command's
    own run facts."""
    doc = {
        "command": command,
        "inputs": inputs,
        "config": config,
        "outputs": [str(p) for p in outputs],
        "started": args.started,
        "finished": _now(),
        "exit_code": 0,
        **extra,
    }
    with open(Path(args.out) / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _bare_name(clip: str, prefix: str = "") -> str:
    """clip, which names output files in --out, if it is a bare file name:
    no path separator, and not empty, . or ..; else a ValueError whose
    message starts with prefix."""
    if clip in ("", ".", "..") or Path(clip).name != clip:
        raise ValueError(f"{prefix}clip {clip!r} is not a bare file name "
                         f"(it names output files in --out)")
    return clip


def cmd_optimize(args) -> int:
    out = Path(args.out)
    for clip in args.clips:
        _bare_name(clip)
    cfg = known_keys(read_json(args.config), args.config, {"backend", "optimizer"})
    if "backend" not in cfg:
        raise ValueError(f"{args.config}: missing section 'backend'")
    backend = backend_from_config(cfg["backend"])
    config = from_section(OptimizationConfig, cfg.get("optimizer", {}), "optimizer")
    cache = None
    if args.cache:
        cache = EncodeCache()
        if Path(args.cache).exists():
            cache.load(args.cache)
    outputs: list[Path] = []
    sent: dict[str, dict[str, int]] = {}  # per clip: encodes and backend batches
    for clip in args.clips:
        ks, trace = optimize_clip(
            backend, clip, config, proxy=args.proxy, cache=cache
        )
        result_path = out / f"{clip}.result.json"
        with open(result_path, "w") as fh:
            json.dump(
                {
                    "clip": clip,
                    "k1": ks.k1,
                    "k2": ks.k2,
                    "cost_bdrate_pct": trace.best[1],
                    "iterations": trace.iterations,
                    "encodes": trace.encode_count,
                    "stop": trace.stop,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        trace_path = out / f"{clip}.trace.csv"
        _write_csv(
            trace_path,
            ["eval_idx", "k1", "k2", "cost", "cache_hit"],
            [
                [i, e.ks.k1, e.ks.k2, e.cost, e.cache_hit]
                for i, e in enumerate(trace.evaluations)
            ],
        )
        outputs += [result_path, trace_path]
        sent[clip] = {"encodes": trace.encode_count, "batches": trace.batch_count}
        print(f"{clip}: k1={ks.k1:.6g} k2={ks.k2:.6g} cost={trace.best[1]:.6g}%")
    if args.cache:
        cache.save(args.cache)
    _write_manifest(args, "optimize", list(args.clips), outputs, args.config, clips=sent)
    return 0


def cmd_bd(args) -> int:
    out = Path(args.out)
    ref, ref_meta = load_curve_file(args.ref)
    test, _ = load_curve_file(args.test)
    clip = ref_meta["clip"]
    rate_res = bd_rate(ref, test, clean=args.clean)
    qual_res = bd_quality(ref, test)
    if args.anchors:
        texts = args.anchors.split(",")
        for i, text in enumerate(texts):
            if not math.isfinite(_number(text)):
                raise ValueError(f"--anchors: {text!r} is not a finite number")
            if _number(text) in map(_number, texts[:i]):
                raise ValueError(f"--anchors: {text!r} repeats an earlier anchor")
        anchors = [(f"q{text}", float(text)) for text in texts]
    else:
        anchors = default_anchors(ref) or None
    savings = bitrate_savings(ref, test, anchors=anchors)
    for label in savings.skipped:
        print(f"warning: anchor {label} outside the common quality range", file=sys.stderr)
    header = ["clip", "metric", "bd_rate_pct", "bd_quality", "savings_mean_pct"]
    row: list = [clip, ref.metric_id, rate_res.value, qual_res.value, savings.mean]
    for label, value in savings.per_anchor:
        header.append(f"savings_{label}_pct")
        row.append(value)
    path = out / "bd.csv"
    _write_csv(path, header, [row])
    with open(path) as fh:
        sys.stdout.write(fh.read())
    _write_manifest(args, "bd", [args.ref, args.test], [path])
    return 0


def cmd_scores(args) -> int:
    out = Path(args.out)
    if args.dmos_from == "recovered" and not args.recover:
        raise ValueError("--dmos-from recovered requires --recover")
    table = read_scores_csv(args.scores)
    matrix = build_score_matrix(table)
    pairing = read_pairing_csv(args.pairing) if args.pairing else None
    outputs: list[Path] = []

    cohorts: dict[str, list[str]] = {"": list(matrix.subjects)}
    if args.cohort:
        by_subject = subject_cohorts(table, args.cohort)
        for subj, label in by_subject.items():
            cohorts.setdefault(label, []).append(subj)

    if args.screen:
        screening = bt500_screen(matrix)
        path = out / "screening.csv"
        _write_csv(
            path,
            ["subject_id", "p", "q", "n_scored", "outlier_ratio", "asymmetry", "rejected"],
            [
                [s, r.p, r.q, r.n_scored, r.outlier_ratio, r.asymmetry,
                 s in screening.rejected]
                for s, r in screening.per_subject.items()
            ],
        )
        outputs.append(path)
        if screening.rejected:
            print("rejected: " + ",".join(screening.rejected))
            matrix = matrix.subset_subjects(
                [s for s in matrix.subjects if s not in screening.rejected]
            )
        else:
            print("rejected: none")

    for label, subjects in cohorts.items():
        suffix = f".{label}" if label else ""
        sub = matrix if label == "" else matrix.subset_subjects(subjects)
        mos = compute_mos(sub)
        path = out / f"mos{suffix}.csv"
        _write_table(path, "mos", mos)
        outputs.append(path)

        if args.recover:
            model = recover_mle(sub)
            path = out / f"psi{suffix}.csv"
            _write_csv(path, ["pvs_id", "psi", "ci95"],
                       zip(model.stimuli, model.psi.tolist(), model.ci95.tolist()))
            outputs.append(path)
            path = out / f"subjects{suffix}.csv"
            _write_csv(path, ["subject_id", "delta", "nu"],
                       zip(model.subjects, model.delta.tolist(), model.nu.tolist()))
            outputs.append(path)

        if pairing is not None:
            base = mos
            if args.dmos_from == "recovered":
                base = MosTable(model.stimuli, model.psi, model.ci95, mos.n)
            path = out / f"dmos{suffix}.csv"
            _write_table(path, "dmos", compute_dmos(base, pairing))
            outputs.append(path)

    inputs = [args.scores] + ([args.pairing] if args.pairing else [])
    _write_manifest(args, "scores", inputs, outputs)
    return 0


def _read_table(path) -> tuple[dict[str, int], dict[str, list]]:
    """Column indices and rows by pvs_id of a CSV; a repeated pvs_id names the file."""
    with csv_rows(path, ("pvs_id",)) as (columns, rows):
        i, by_id, pad = columns["pvs_id"], {}, [None] * len(columns)
        for row in rows:
            row += pad[len(row):]
            if by_id.setdefault(row[i], row) is not row:
                raise ValueError(f"{path}: duplicate pvs_id {row[i]!r}")
    return columns, by_id


def _number(text) -> float:
    """float(text), or NaN when text is missing or not a number."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _floats(path, columns: dict[str, int], rows: list[list], name: str) -> list[float]:
    """One column as finite floats; a bad cell names the file, column and pvs_id."""
    i, k = columns[name], columns["pvs_id"]
    values = [_number(r[i]) for r in rows]
    for r, value in zip(rows, values):
        if not math.isfinite(value):
            raise ValueError(f"{path}: column {name}: bad value {r[i]!r} for {r[k]!r}")
    return values


def cmd_correlate(args) -> int:
    out = Path(args.out)
    (m_cols, m_rows), (s_cols, s_rows) = _read_table(args.metrics), _read_table(args.subjective)
    subj_col = next((c for c in ("subjective", "mos", "dmos") if c in s_cols), None)
    if subj_col is None:
        raise ValueError(f"{args.subjective}: no subjective/mos/dmos column")
    subjective = dict(zip(s_rows, _floats(args.subjective, s_cols, [*s_rows.values()], subj_col)))
    joined = [pvs for pvs in m_rows if pvs in subjective]
    if len(joined) < 3:
        raise ValueError(f"join produced {len(joined)} rows; need >= 3")
    rows, y = [m_rows[pvs] for pvs in joined], [subjective[pvs] for pvs in joined]

    out_rows = []
    for name in (c for c in m_cols if c != "pvs_id"):
        x = _floats(args.metrics, m_cols, rows, name)
        try:
            params = fit_logistic5(x, y) if args.map else None
            rep = correlate(x, y, params=params)
        except (PerclipError, ValueError) as exc:
            raise ValueError(f"{args.metrics}: column {name}: {exc}") from exc
        out_rows.append([name, rep.plcc, rep.srocc, rep.krcc, rep.rmse, rep.n])
    path = out / "correlations.csv"
    _write_csv(path, ["metric", "plcc", "srocc", "krcc", "rmse", "n"], out_rows)
    sys.stdout.write(path.read_text())
    _write_manifest(args, "correlate", [args.metrics, args.subjective], [path])
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    if not args.curves:
        raise ValueError("no curve files given")
    by_clip: dict[str, list[tuple[str, RdCurve]]] = {}
    for path in args.curves:
        curve, meta = load_curve_file(path)
        clip = _bare_name(meta["clip"], f"{path}: ")
        variant = meta.get("variant") or Path(path).stem
        by_clip.setdefault(clip, []).append((variant, curve))

    outputs: list[Path] = []
    summary_rows = []
    for clip in sorted(by_clip):
        entries = sorted(by_clip[clip], key=lambda e: e[0])
        svg = render_rq_svg(clip, entries, metric_id=entries[0][1].metric_id)
        path = out / f"{clip}.svg"
        path.write_text(svg)
        outputs.append(path)
        for variant, curve in entries:
            summary_rows.append(
                [clip, variant, curve.metric_id, len(curve.points), min(curve.rates),
                 max(curve.rates), min(curve.qualities), max(curve.qualities)]
            )
    summary = out / "report_summary.csv"
    _write_csv(
        summary,
        ["clip", "variant", "metric", "n_points",
         "rate_min_kbps", "rate_max_kbps", "quality_min", "quality_max"],
        summary_rows,
    )
    outputs.append(summary)
    _write_manifest(args, "report", list(args.curves), outputs)
    return 0


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
    p.add_argument("--clean", action=argparse.BooleanOptionalAction, default=True,
                   help="drop non-monotone points before the rate delta")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        stream=sys.stderr,
    )
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        args.started = _now()
        return args.func(args)
    except (PerclipError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
