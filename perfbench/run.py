"""perclip benchmark.

    python3 perfbench/run.py --workload {tune,study} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Set-up generates the workload's
inputs from the seed (three times, to time set-up by its median); then
measured passes of the workload's perclip commands repeat for about S
seconds (a pass that would end after S seconds is not started, but a run
makes at least one pass, two with --trace 1). The outputs are checked, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones, from passes run with span recording (every other pass; the
passes between run untraced, to measure the recording's overhead). See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3

# (name, unit): the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s"),
    ("command_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]
# Units of the workload-specific end-to-end figures, printed above the
# result line but not part of it (a figure may be prefixed by a clip set).
DETAIL_UNITS = {
    "clips_per_s": "1/s",
    "encodes_per_clip": "count",
    "evals_per_clip": "count",
    "bdrate_gap_pct": "pct-points",
    "scores_s": "s",
    "correlate_s": "s",
    "failed_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "perclip").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def environment() -> str:
    import numpy
    import scipy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}, "
            f"{platform.machine()}")


def measure(args, run_dir: Path) -> dict:
    import layers
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    for i in range(SETUP_REPS):
        t0 = time.perf_counter()
        workloads.import_seconds(SRC)
        workload.setup(run_dir / f"setup{i}")
        setup_times.append(time.perf_counter() - t0)

    passes: list[workloads.Pass] = []
    traced: list[spans.Recorder] = []
    peak_rss_mb = None
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        d = run_dir / f"pass{len(passes)}"
        if args.trace and len(passes) % 2 == 1:
            recorder = spans.Recorder()
            with spans.instrumented(recorder):
                p = workload.run_pass(d)
            p.traced = True
            traced.append(recorder)
        else:
            p = workload.run_pass(d)
        passes.append(p)
        if peak_rss_mb is None:
            # Later passes repeat the same work, but the allocator's heap
            # creeps up by a few MB per pass, which would tie the figure
            # to the number of passes.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # start no pass that would end after the deadline
        now = time.perf_counter()
        if now + (now - started) > deadline and (traced or not args.trace):
            break

    checked = workload.check(passes)
    untraced = [p for p in passes if not p.traced]
    figures = {
        "setup_s": statistics.median(setup_times),
        "command_s": statistics.median(p.wall for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - checked.failed / checked.attempted,
        "failed_frac": checked.failed / checked.attempted,
        **checked.metrics,
    }

    print(f"perclip benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} passes ({len(traced)} traced), set-up x{SETUP_REPS}")
    print(f"environment: {environment()}")
    units = dict(END_TO_END)
    for name, value in figures.items():
        unit = units.get(name) or DETAIL_UNITS[name.rsplit(".", 1)[-1]]
        print(f"  {name:28s} {value:.6g} {unit}")
    for problem in checked.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layers.layer_metrics([r.spans for r in traced])
        metrics["trace_overhead_pct"] = 100.0 * (
            statistics.median(p.wall for p in passes if p.traced)
            / figures["command_s"] - 1.0)
        metrics["src_lines"] = float(src_lines())
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit, _ in layers.CATALOGUE}
        spans_file = WORK / f"spans-{args.workload}.jsonl"
        with open(spans_file, "w") as fh:
            for recorder in traced:
                recorder.write(fh)
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        out = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": checked.failed == 0 and not checked.problems,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": out,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "perclip" / "__init__.py").is_file():
        print(f"error: no perclip sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
