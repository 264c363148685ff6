"""The benchmark's workloads: set-up, one measured pass, and the checks
on what the program wrote.

Each pass runs perclip's own command-line entry point in this process, on
files the set-up generated from the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from scipy import stats

import inputs
from perclip import cli
from perclip.backends import LambdaMultipliers, SyntheticModel, backend_from_config, build_rd_curve
from perclip.correlation import correlate
from perclip.optimizer import OptimizationConfig, evaluate_cost

HERE = Path(__file__).resolve().parent
STUB = HERE / "stub_encoder.sh"

# Largest |best cost found - cost at the clamped k_star| a clip may show, in
# BD-rate percentage points. It is absolute because the reference is zero
# for the k_star = (1, 1) clips. The search stops on ftol = 1e-6 relative
# and a 1e-4 line tolerance, which costs far less than this.
GAP_BOUND_PCT = 0.01

# Largest |recovered - injected| subject bias, in score points, once both
# are centred on the kept subjects. Regular subjects have inconsistency at
# most 5 over about 1200 scores, so the bias standard error is about 0.15.
BIAS_TOL = 1.0

# PLCC/SROCC/KRCC of perclip.correlation against scipy.stats, unmapped.
CORR_TOL = 1e-9


def run_cli(argv: list[str]) -> tuple[int, float]:
    """perclip's CLI on argv; returns (exit code, wall seconds). An
    exception that escapes the CLI counts as exit code -1."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - t0


@dataclass
class Pass:
    """One measured pass: wall time and exit code per command."""

    dir: Path
    traced: bool = False
    walls: dict[str, float] = field(default_factory=dict)
    codes: dict[str, int] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


@dataclass
class Checked:
    attempted: int
    failed: int
    metrics: dict[str, float]  # workload-specific end-to-end figures
    problems: list[str]


def output_bytes(out: Path) -> dict[str, bytes]:
    """Every data file a command wrote, except manifest.json (timestamps)."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, d: Path) -> None:
        raise NotImplementedError

    def run_pass(self, d: Path) -> Pass:
        raise NotImplementedError

    def check(self, passes: list[Pass]) -> Checked:
        raise NotImplementedError


class _ClipSet:
    """One optimize command over a clip set, run once per tune pass; one
    operation is one clip in one pass. Its files live in <dir>/<label>."""

    label = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.label}:{seed}")

    def _write_config(self, d: Path) -> None:
        raise NotImplementedError

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        self.config = d / "config.json"
        self._write_config(d)

    def _cache_for_pass(self, d: Path) -> Path:
        return d / "cache.json"

    def run(self, d: Path) -> tuple[int, float]:
        d.mkdir(parents=True)
        cache = self._cache_for_pass(d)
        return run_cli([
            "--out", str(d / "out"), "optimize", *self.clips,
            "--config", str(self.config), "--cache", str(cache),
        ])

    def reference_costs(self) -> dict[str, float]:
        """Cost the backend gives at each clip's clamped k_star; the gap to
        the search's best is the search's shortfall."""
        with open(self.config) as fh:
            backend = backend_from_config(json.load(fh)["backend"])
        config = OptimizationConfig()
        costs = {}
        for clip in self.clips:
            baseline = build_rd_curve(backend, clip, LambdaMultipliers(1.0, 1.0), config.qps,
                                      metric_id=config.metric_id)
            ks = LambdaMultipliers(*inputs.clamp_k_star(self.models[clip]))
            costs[clip] = evaluate_cost(backend, clip, ks, baseline, config)
        return costs

    def check(self, passes: list[Pass]) -> Checked:
        label = self.label
        problems: list[str] = []
        first = passes[0].dir / label / "out"
        reference = self.reference_costs()
        clip_ok: dict[str, bool] = {}
        gaps, encodes, evals = [], [], []
        for clip in self.clips:
            try:
                with open(first / f"{clip}.result.json") as fh:
                    result = json.load(fh)
                with open(first / f"{clip}.trace.csv") as fh:
                    n_evals = sum(1 for _ in fh) - 1
            except (OSError, ValueError) as exc:
                problems.append(f"{label} {clip}: unreadable output: {exc}")
                clip_ok[clip] = False
                continue
            gap = result["cost_bdrate_pct"] - reference[clip]
            gaps.append(gap)
            encodes.append(result["encodes"])
            evals.append(n_evals)
            clip_ok[clip] = abs(gap) <= GAP_BOUND_PCT
            if not clip_ok[clip]:
                problems.append(f"{label} {clip}: BD-rate gap {gap:.6g} pct-points "
                                f"exceeds {GAP_BOUND_PCT}")
        baseline = output_bytes(first) if first.is_dir() else {}
        cache_rows = _cache_rows(passes[0].dir / label / "cache.json")
        attempted = failed = 0
        for p in passes:
            out = p.dir / label / "out"
            files = output_bytes(out) if out.is_dir() else {}
            code_ok = p.codes[label] in (0, 2)
            if not code_ok:
                problems.append(f"{p.dir.name}: {label} optimize exited {p.codes[label]}")
            cache_ok = (cache_rows is not None
                        and _cache_rows(p.dir / label / "cache.json") == cache_rows)
            if not cache_ok:
                problems.append(f"{p.dir.name}: {label} cache entries differ from the first pass")
            for clip in self.clips:
                attempted += 1
                same = all(
                    name in files and files[name] == baseline.get(name)
                    for name in (f"{clip}.result.json", f"{clip}.trace.csv")
                )
                if not same:
                    problems.append(f"{p.dir.name}: {label} {clip} outputs differ "
                                    f"from the first pass")
                if not (code_ok and same and cache_ok and clip_ok[clip]):
                    failed += 1
        walls = [p.walls[label] for p in passes if not p.traced]
        metrics = {
            f"{label}.clips_per_s": len(self.clips) / statistics.median(walls),
            f"{label}.encodes_per_clip": sum(encodes) / len(encodes) if encodes else math.nan,
            f"{label}.evals_per_clip": sum(evals) / len(evals) if evals else math.nan,
            f"{label}.bdrate_gap_pct": sum(gaps) / len(gaps) if gaps else math.nan,
        }
        return Checked(attempted, failed, metrics, problems)


def _cache_rows(path: Path) -> list | None:
    """The cache file's entries in a fixed order. The file lists them in
    the order encodes finished, which concurrent encodes make vary, so
    passes are compared on the entries, not the bytes."""
    try:
        with open(path) as fh:
            return sorted(map(tuple, json.load(fh)))
    except (OSError, ValueError, TypeError):
        return None


class SyntheticClips(_ClipSet):
    """Many SyntheticBackend clips, fresh cache file per pass."""

    label = "synthetic"
    clips_per_case = 4

    def _write_config(self, d: Path) -> None:
        cases = [c for _ in range(self.clips_per_case) for c in inputs.CASES]
        self.models = inputs.synthetic_clips(self.rng, cases)
        self.clips = list(self.models)
        inputs.write_json(self.config, inputs.synthetic_config(self.models))


class ProcessClips(_ClipSet):
    """ProcessBackend over stub_encoder.sh, resuming from a cache that
    set-up seeded with the first half of the clips."""

    label = "process"
    latency_s = 0.02
    # The seeded half is the k_star = (1, 1) case, which has the fewest
    # evaluations, to keep set-up short; the cold half is the common case.
    cases = (inputs.IDENTITY, inputs.INTERIOR)

    def _write_config(self, d: Path) -> None:
        self.models = inputs.synthetic_clips(self.rng, self.cases)
        self.clips = list(self.models)
        models = d / "models.txt"
        inputs.write_models_table(models, self.models)
        self.encodes = d / "encodes"
        self.encodes.mkdir()
        pool_size = len(os.sched_getaffinity(0))
        inputs.write_json(self.config, inputs.process_config(
            STUB, models, self.encodes, self.latency_s, pool_size))
        self._check_stub(models)
        self.seed_cache = d / "seed_cache.json"
        half = self.clips[: len(self.clips) // 2]
        code, _ = run_cli(["--out", str(d / "seed_out"), "optimize", *half,
                           "--config", str(self.config), "--cache", str(self.seed_cache)])
        if code not in (0, 2):
            raise RuntimeError(f"seeding the cache: optimize exited {code}")

    def _check_stub(self, models: Path) -> None:
        """The stub must reproduce SyntheticModel before anything is timed."""
        clip = self.clips[-1]
        qp, k1, k2 = 27, 1.1, 0.9
        out, stats = self.encodes / "stub_check.bin", self.encodes / "stub_check.json"
        subprocess.run(
            ["bash", str(STUB), str(models), "0", repr(inputs.STUB_DURATION_S), clip,
             str(qp), repr(k1), repr(k2), str(out), str(stats)],
            check=True, timeout=60,
        )
        model = SyntheticModel(**self.models[clip])
        g = model.bowl(k1, k2)
        rate = 8.0 * out.stat().st_size / inputs.STUB_DURATION_S / 1000.0
        with open(stats) as fh:
            quality = json.load(fh)["ms_ssim"]
        if abs(rate / model.rate(qp, g) - 1.0) > 1e-6 or abs(quality - model.quality(qp, g)) > 1e-9:
            raise RuntimeError(f"stub encoder disagrees with SyntheticModel: "
                               f"rate {rate} vs {model.rate(qp, g)}, "
                               f"quality {quality} vs {model.quality(qp, g)}")
        out.unlink()
        stats.unlink()

    def _cache_for_pass(self, d: Path) -> Path:
        shutil.rmtree(self.encodes)
        self.encodes.mkdir()
        cache = d / "cache.json"
        shutil.copyfile(self.seed_cache, cache)
        return cache


class Tune(Workload):
    """optimize on the synthetic clip set, then on the process clip set."""

    name = "tune"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.parts = [SyntheticClips(seed), ProcessClips(seed)]

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        for part in self.parts:
            part.setup(d / part.label)

    def run_pass(self, d: Path) -> Pass:
        d.mkdir(parents=True)
        p = Pass(d)
        for part in self.parts:
            p.codes[part.label], p.walls[part.label] = part.run(d / part.label)
        return p

    def check(self, passes: list[Pass]) -> Checked:
        merged = Checked(0, 0, {}, [])
        for part in self.parts:
            c = part.check(passes)
            merged.attempted += c.attempted
            merged.failed += c.failed
            merged.metrics.update(c.metrics)
            merged.problems += c.problems
        return merged


class Study(Workload):
    """scores on a seeded opinion panel, then correlate on metric tables;
    one operation is one command in one pass."""

    name = "study"
    commands = ("scores", "correlate")
    panel = dict(n_src=160, n_dist=9, n_subjects=48, n_outliers=3, presence=0.75)
    # The logistic fit's evaluation count swings by +-50 % from one column
    # to the next, with a long tail on low-noise power-law columns. Eight
    # columns of moderate noise keep the sum, and so the pass time, within
    # a few percent from seed to seed.
    n_pvs, n_metric_groups = 1000, 2

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True)
        rng = random.Random(self.seed)
        self.scores = d / "scores.csv"
        self.pairing = d / "pairing.csv"
        self.truth = inputs.write_score_panel(rng, self.scores, self.pairing, **self.panel)
        self.metrics = d / "metrics.csv"
        self.subjective = d / "subjective.csv"
        self.metric_names = inputs.write_metric_tables(
            rng, self.metrics, self.subjective, self.n_pvs, self.n_metric_groups)

    def run_pass(self, d: Path) -> Pass:
        d.mkdir(parents=True)
        p = Pass(d)
        p.codes["scores"], p.walls["scores"] = run_cli([
            "--out", str(d / "scores"), "scores", str(self.scores), "--screen",
            "--recover", "p913", "--pairing", str(self.pairing), "--dmos-from", "recovered",
        ])
        p.codes["correlate"], p.walls["correlate"] = run_cli([
            "--out", str(d / "correlate"), "correlate", str(self.metrics), str(self.subjective),
        ])
        return p

    def _check_scores(self, out: Path) -> list[str]:
        problems = []
        with open(out / "screening.csv", newline="") as fh:
            rejected = {r["subject_id"] for r in csv.DictReader(fh) if r["rejected"] == "1"}
        if rejected != self.truth.outliers:
            problems.append(f"screening rejected {sorted(rejected)}, "
                            f"injected outliers are {sorted(self.truth.outliers)}")
        with open(out / "subjects.csv", newline="") as fh:
            recovered = {r["subject_id"]: float(r["delta"]) for r in csv.DictReader(fh)}
        if not recovered:
            problems.append("subjects.csv lists no subjects")
        else:
            shift = sum(self.truth.bias[s] for s in recovered) / len(recovered)
            worst = max(abs(d - (self.truth.bias[s] - shift)) for s, d in recovered.items())
            if worst > BIAS_TOL:
                problems.append(f"recovered bias off by {worst:.3g} > {BIAS_TOL}")
        for name in ("mos.csv", "psi.csv", "dmos.csv"):
            if not (out / name).is_file():
                problems.append(f"scores wrote no {name}")
        return problems

    def _check_correlate(self, out: Path) -> list[str]:
        problems = []
        x_cols, y = _read_columns(self.metrics), _read_columns(self.subjective)["subjective"]
        with open(out / "correlations.csv", newline="") as fh:
            written = {r["metric"]: r for r in csv.DictReader(fh)}
        for name in self.metric_names:
            x = x_cols[name]
            rep = correlate(x, y)
            expect = {
                "plcc": stats.pearsonr(x, y).statistic,
                "srocc": stats.spearmanr(x, y).statistic,
                "krcc": stats.kendalltau(x, y).statistic,
            }
            for key, want in expect.items():
                if abs(getattr(rep, key) - want) > CORR_TOL:
                    problems.append(f"{name}: {key} {getattr(rep, key)!r} vs scipy {want!r}")
            # the CSV holds 6 significant digits; rank statistics ignore the map
            for key in ("srocc", "krcc"):
                got = float(written[name][key]) if name in written else math.nan
                if not abs(got - expect[key]) <= 5e-6 * abs(expect[key]):
                    problems.append(f"{name}: correlations.csv {key} {got} vs scipy {expect[key]!r}")
        return problems

    def check(self, passes: list[Pass]) -> Checked:
        first = passes[0].dir
        problems: list[str] = []
        content_ok = {}
        for cmd, checker in (("scores", self._check_scores), ("correlate", self._check_correlate)):
            try:
                found = checker(first / cmd)
            except (OSError, KeyError, ValueError) as exc:
                found = [f"{cmd}: unreadable output: {exc}"]
            problems += found
            content_ok[cmd] = not found
        baseline = {cmd: output_bytes(first / cmd) if (first / cmd).is_dir() else None
                    for cmd in self.commands}
        attempted = failed = 0
        for p in passes:
            for cmd in self.commands:
                attempted += 1
                out = p.dir / cmd
                same = out.is_dir() and output_bytes(out) == baseline[cmd]
                if p.codes[cmd] != 0:
                    problems.append(f"{p.dir.name}: {cmd} exited {p.codes[cmd]}")
                if not same:
                    problems.append(f"{p.dir.name}: {cmd} outputs differ from the first pass")
                if not (p.codes[cmd] == 0 and same and content_ok[cmd]):
                    failed += 1
        metrics = {
            "scores_s": statistics.median(p.walls["scores"] for p in passes if not p.traced),
            "correlate_s": statistics.median(
                p.walls["correlate"] for p in passes if not p.traced),
        }
        return Checked(attempted, failed, metrics, problems)


def _read_columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols: dict[str, list[float]] = {k: [] for k in reader.fieldnames if k != "pvs_id"}
        for row in reader:
            for k in cols:
                cols[k].append(float(row[k]))
    return cols


WORKLOADS = {w.name: w for w in (Tune, Study)}


def import_seconds(src: Path) -> float:
    """Wall time for a fresh interpreter to import perclip's CLI, which is
    what each command-line invocation pays before doing any work."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import perclip.cli"], env=env, check=True,
                   timeout=120)
    return time.perf_counter() - t0
