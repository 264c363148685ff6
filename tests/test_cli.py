"""End-to-end tests of the command-line surface."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclip.cli import main

from conftest import simulate_screening_panel

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
SVG_NS = "{http://www.w3.org/2000/svg}"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_matches_golden(out: Path, name: str) -> None:
    """Every file written to out, manifest.json aside, is byte for byte the
    one under tests/golden/<name>, and nothing is missing or extra."""
    golden = ROOT / "tests" / "golden" / name
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert written == sorted(p.name for p in golden.iterdir())
    for file in written:
        assert (out / file).read_bytes() == (golden / file).read_bytes(), file


def src_env() -> dict:
    """The environment for a fresh interpreter that imports perclip from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


# Imports perclip, then runs main on each argv of the JSON list in argv[1];
# its last stdout line is a JSON list with, per step, the exit code (None
# for the import) and the scipy modules loaded so far.
COLD_START = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

import perclip
steps = [[None, scipy_modules()]]
from perclip.cli import main
for argv in json.loads(sys.argv[1]):
    steps.append([main(argv), scipy_modules()])
print(json.dumps(steps))
"""


def cold_start(*argvs) -> list[tuple[int | None, list[str]]]:
    """[(exit code, scipy modules loaded)] after import perclip and after
    each main(argv), all in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps([[str(a) for a in argv] for argv in argvs])],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(step) for step in json.loads(proc.stdout.splitlines()[-1])]


def write_curve_variant(path: Path, edit, variant: str = "default") -> Path:
    """A shipped meadow curve file with edit applied to its parsed JSON."""
    doc = json.loads((DATA / "curves" / f"meadow__{variant}.curve.json").read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def run_quietly(*argv) -> tuple[int, str]:
    """main's exit code and stderr, with stdout dropped and a runtime or user
    warning raised as an error, so that any warning fails the caller."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("error", UserWarning)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(*argv)
    return code, err.getvalue()


# Cell values an edited CSV input may hold, drawn by index to keep a failing
# example's repr short: a 401-digit integer is inf as a float, and a
# 200 000-character cell is over the csv module's field limit
CSV_CELLS = ["", "nan", "1e308", "5e-324", "-0", "9" * 401, "qualité ✓ 画質", "x" * 200_000]


def edit_csv(path: Path, kind: str, row: int, col: int, value: str) -> bytes:
    """The bytes of the CSV file at path with one edit: a body cell or a
    header name set to value, a column dropped, a header name repeating the
    next one, or a byte that is not UTF-8 put before a body line; row and
    col pick the place, modulo the file's size."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    col %= len(rows[0])
    row = 1 + row % (len(rows) - 1)
    if kind == "cell":
        rows[row][col] = value
    elif kind == "header":
        rows[0][col] = value
    elif kind == "drop":
        for rec in rows:
            del rec[col:col + 1]
    elif kind == "repeat":
        rows[0][col] = rows[0][(col + 1) % len(rows[0])]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    lines = buf.getvalue().encode().splitlines(keepends=True)
    if kind == "utf8":
        lines[row] = b"\xff" + lines[row]
    return b"".join(lines)


def assert_one_error_line_or_ok(code: int, err: str) -> None:
    assert code in (0, 1)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        assert err == ""


# Values a fuzzed config field or cache cell may take, drawn by index: a
# 401-digit integer is no float, and json.dumps writes NaN and Infinity
JSON_VALUES = [None, True, False, "", "meadow", [], [1.0, 1.0], {}, {"kind": "synthetic"},
               0, -1, 27, -0.0, 5e-324, 1e308, 10**401, math.nan, math.inf]


def json_places(doc, place=()):
    """The key or index path of doc itself and of every value inside it."""
    yield place
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from json_places(value, (*place, key))


def replaced(doc, place, value):
    """A copy of doc with the value at place, a json_places path, set to value."""
    if not place:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in place[:-1]:
        parent = parent[key]
    parent[place[-1]] = value
    return doc


# (edit of a shipped curve file, start of the error after the file name)
BAD_CURVE_FILES = [
    pytest.param(lambda doc: doc.update(metric=3),
                 "metric must be a string, got 3", id="metric-int"),
    pytest.param(lambda doc: doc.update(clip=["meadow"]),
                 "clip must be a string, got ['meadow']", id="clip-list"),
    pytest.param(lambda doc: doc.update(variant=7),
                 "variant must be a string, got 7", id="variant-int"),
    pytest.param(lambda doc: doc["points"][1].update(ci95="nan"),
                 "malformed point entry: ci95 must be finite and >= 0, got 'nan'", id="ci95-nan"),
    pytest.param(lambda doc: doc["points"][1].update(ci95=-2),
                 "malformed point entry: ci95 must be finite and >= 0, got -2",
                 id="ci95-negative"),
    pytest.param(lambda doc: doc["points"][1].update(ci95="wide"),
                 "malformed point entry", id="ci95-text"),
    pytest.param(lambda doc: doc["points"][1].update(qp=27.9),
                 "malformed point entry: qp 27.9 is not an integer", id="qp-fraction"),
    pytest.param(lambda doc: doc["points"][1].update(qp=True),
                 "malformed point entry: qp True is not an integer", id="qp-bool"),
    pytest.param(lambda doc: doc["points"][1].update(quality="nan"),
                 "malformed point entry: quality must be finite, got 'nan'", id="quality-nan"),
    pytest.param(lambda doc: doc["points"][1].update(quality=True),
                 "malformed point entry: quality must be finite, got True", id="quality-bool"),
    pytest.param(lambda doc: doc["points"][1].update(rate_kbps=-5),
                 "malformed point entry: rate must be positive and finite, got -5",
                 id="rate-negative"),
    pytest.param(lambda doc: doc["points"][1].update(rate_kbps="8357.285"),
                 "malformed point entry: rate must be positive and finite, got '8357.285'",
                 id="rate-text"),
    pytest.param(lambda doc: doc["points"][1].update(rate_kbps=10**400),
                 f"malformed point entry: rate must be positive and finite, got {10**400}",
                 id="rate-huge-int"),
    pytest.param(lambda doc: doc["points"][1].update(rate_kbps=doc["points"][0]["rate_kbps"]),
                 "duplicate rate", id="rate-duplicate"),
    pytest.param(lambda doc: doc.update(points=doc["points"][:1]),
                 "curve needs >= 2 points, got 1", id="one-point"),
]


class TestOptimizeCommand:
    def test_synthetic_run_improves_on_default(self, tmp_path):
        code = run(
            "--out", tmp_path, "optimize", "meadow",
            "--config", DATA / "backend_synthetic.json",
        )
        assert code == 0
        result = json.loads((tmp_path / "meadow.result.json").read_text())
        assert result["clip"] == "meadow"
        assert result["cost_bdrate_pct"] < 0
        assert abs(result["k1"] - 1.3) < 0.05
        assert abs(result["k2"] - 0.8) < 0.05
        trace = read_rows(tmp_path / "meadow.trace.csv")
        assert trace[0]["cost"] == "0"  # baseline self-comparison
        assert int(result["encodes"]) <= len(trace) * 5

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = run("--out", tmp_path, "optimize", "meadow", "--config", "no_such.json")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unreachable_encoder_exits_1(self, tmp_path, capsys):
        cfg = {
            "backend": {
                "kind": "process",
                "encode_template": "/missing/encoder {input} {output} {qp} {k1} {k2}",
                "metric_template": "true",
                "default_duration_s": 5.0,
                "workdir": str(tmp_path),
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "clip", "--config", cfg_path)
        assert code == 1
        assert "/missing/encoder" in capsys.readouterr().err

    def test_baseline_not_comparable_with_itself_exits_1(self, tmp_path, capsys):
        # the stub encoder's output shrinks with qp; the metric is constant
        enc, met = tmp_path / "enc.sh", tmp_path / "met.sh"
        enc.write_text('#!/bin/sh\nhead -c $((1000 * (70 - $3))) /dev/zero > "$2"\n')
        met.write_text('#!/bin/sh\necho \'{"ms_ssim": 5.0}\' > "$2"\n')
        for script in (enc, met):
            script.chmod(0o755)
        cfg = {
            "backend": {
                "kind": "process",
                "encode_template": f"{enc} {{input}} {{output}} {{qp}}",
                "metric_template": f"{met} {{output}} {{stats}}",
                "default_duration_s": 5.0,
                "workdir": str(tmp_path),
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "meadow", "--config", cfg_path)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "meadow" in err
        assert not (tmp_path / "meadow.result.json").exists()

    def test_persistent_cache_reused(self, tmp_path):
        cache = tmp_path / "cache.json"
        run("--out", tmp_path / "a", "optimize", "meadow",
            "--config", DATA / "backend_synthetic.json", "--cache", cache)
        run("--out", tmp_path / "b", "optimize", "meadow",
            "--config", DATA / "backend_synthetic.json", "--cache", cache)
        second = json.loads((tmp_path / "b" / "meadow.result.json").read_text())
        assert second["encodes"] == 0

    def test_candidate_with_a_negative_rate_costs_inf_and_is_not_cached(self, tmp_path):
        # a steep bowl drives the rate of most candidates below 0; such an
        # answer used to be cached, then end the run at the first probe
        cfg, cache = tmp_path / "cfg.json", tmp_path / "cache.json"
        cfg.write_text(json.dumps({"backend": {"kind": "synthetic", "model": {"gamma": 1000.0}}}))
        argv = ["optimize", "meadow", "--config", cfg, "--cache", cache]
        assert run_quietly("--out", tmp_path / "a", *argv)[0] == 0
        assert "inf" in {row["cost"] for row in read_rows(tmp_path / "a" / "meadow.trace.csv")}
        assert run_quietly("--out", tmp_path / "b", *argv)[0] == 0  # the cache loads again

    def test_cache_without_metric_field_exits_1(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps([["meadow", "native", 27, 1.0, 1.0, 100.0, 18.0]]))
        before = cache.read_bytes()
        code = run("--out", tmp_path, "optimize", "meadow",
                   "--config", DATA / "backend_synthetic.json", "--cache", cache)
        assert code == 1
        assert "7 fields" in capsys.readouterr().err
        assert cache.read_bytes() == before  # a cache that fails to load is kept

    @pytest.mark.parametrize("doc", [3, None, {"a": [1]}])
    def test_cache_not_a_list_exits_1(self, tmp_path, capsys, doc):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps(doc))
        before = cache.read_bytes()
        code = run("--out", tmp_path, "optimize", "meadow",
                   "--config", DATA / "backend_synthetic.json", "--cache", cache)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{cache}: cache file is not a JSON list" in err
        assert cache.read_bytes() == before

    def test_cache_with_invalid_row_exits_1(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps([["meadow", "native", "ms_ssim", 27, 1.0, 1.0, -1.0, 18.0]]))
        before = cache.read_bytes()
        code = run("--out", tmp_path, "optimize", "meadow",
                   "--config", DATA / "backend_synthetic.json", "--cache", cache)
        assert code == 1
        assert "cache row" in capsys.readouterr().err
        assert cache.read_bytes() == before

    def test_failed_later_clip_keeps_the_finished_encodes_in_the_cache(self, tmp_path):
        # the encoder knows clip a only, so b's baseline fails and ends the
        # run; a's encodes used to be lost with it
        enc, met = tmp_path / "enc.sh", tmp_path / "met.sh"
        enc.write_text('#!/bin/sh\n[ "$1" = a ] || exit 7\n'
                       'head -c $((1000 * (70 - $3))) /dev/zero > "$2"\n')
        met.write_text('#!/bin/sh\necho "{\\"ms_ssim\\": $((100 - $3))}" > "$2"\n')
        for script in (enc, met):
            script.chmod(0o755)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backend": {
            "kind": "process", "encode_template": f"{enc} {{input}} {{output}} {{qp}}",
            "metric_template": f"{met} {{output}} {{stats}} {{qp}}",
            "default_duration_s": 5.0, "workdir": str(tmp_path)}}))
        cache = tmp_path / "cache.json"
        code, err = run_quietly("--out", tmp_path / "ab", "optimize", "a", "b",
                                "--config", cfg, "--cache", cache)
        assert code == 1 and "exited 7" in err
        # the manifest records the failure and a's files and counts
        manifest = json.loads((tmp_path / "ab" / "manifest.json").read_text())
        assert list(manifest) == ["command", "inputs", "config", "outputs", "started",
                                  "finished", "exit_code", "error", "clips"]
        assert manifest["exit_code"] == 1 and f"error: {manifest['error']}\n" == err
        assert manifest["outputs"] == [str(tmp_path / "ab" / name)
                                       for name in ("a.result.json", "a.trace.csv")]
        result = json.loads((tmp_path / "ab" / "a.result.json").read_text())
        assert list(manifest["clips"]) == ["a"]
        assert manifest["clips"]["a"]["encodes"] == result["encodes"] > 0
        assert {row[0] for row in json.loads(cache.read_text())} == {"a"}
        assert run_quietly("--out", tmp_path / "a", "optimize", "a", "--config", cfg,
                           "--cache", cache)[0] == 0
        assert json.loads((tmp_path / "a" / "a.result.json").read_text())["encodes"] == 0

    def test_interrupted_run_keeps_the_first_clips_encodes_in_the_cache(self, tmp_path,
                                                                        monkeypatch):
        from perclip import cli

        search = cli.optimize_clip

        def interrupted(backend, clip, *args, **kwargs):
            if clip == "harbor":
                raise KeyboardInterrupt
            return search(backend, clip, *args, **kwargs)

        monkeypatch.setattr(cli, "optimize_clip", interrupted)
        cache = tmp_path / "cache.json"
        with pytest.raises(KeyboardInterrupt):
            run_quietly("--out", tmp_path, "optimize", "meadow", "harbor",
                        "--config", DATA / "backend_synthetic.json", "--cache", cache)
        rows = json.loads(cache.read_text())
        assert rows and {row[0] for row in rows} == {"meadow"}
        assert (tmp_path / "meadow.result.json").exists()
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["backend"].update(model={"qmaxx": 3}),
         "backend.model: unknown key 'qmaxx'"),
        (lambda cfg: cfg["optimizer"].update(max_iter=1),
         "optimizer: unknown key 'max_iter'"),
        # the search always starts at (1, 1) and has no tuning knobs
        (lambda cfg: cfg["optimizer"].update(x0=[1.0, 1.0]), "optimizer: unknown key 'x0'"),
        (lambda cfg: cfg["optimizer"].update(ftol=1e-6), "optimizer: unknown key 'ftol'"),
        (lambda cfg: cfg["optimizer"].update(max_iters=20),
         "optimizer: unknown key 'max_iters'"),
    ], ids=["model", "optimizer", "x0", "ftol", "max_iters"])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, edit, message):
        cfg = json.loads((DATA / "backend_synthetic.json").read_text())
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "meadow", "--config", cfg_path)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("edit, section", [
        (lambda cfg: cfg["backend"].update(clips=3), "backend.clips"),
        (lambda cfg: cfg["backend"].update(model=[]), "backend.model"),
        (lambda cfg: cfg.update(backend=[]), "backend"),
        (lambda cfg: cfg.update(optimizer=5), "optimizer"),
    ], ids=["clips", "model", "backend", "optimizer"])
    def test_config_section_not_an_object_exits_1(self, tmp_path, capsys, edit, section):
        cfg = json.loads((DATA / "backend_synthetic.json").read_text())
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "meadow", "--config", cfg_path)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {section}: ")

    def test_shipped_config_matches_golden_outputs(self, tmp_path):
        code = run("--out", tmp_path, "optimize", "meadow", "harbor", "lanterns",
                   "--config", DATA / "backend_synthetic.json",
                   "--cache", tmp_path / "cache.json")
        assert code == 0
        assert_matches_golden(tmp_path, "optimize")

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(optimiser={"max_iters": 1}), "unknown key 'optimiser'"),
        (lambda cfg: cfg.pop("backend"), "missing section 'backend'"),
    ], ids=["unknown", "no-backend"])
    def test_config_top_level_checked(self, tmp_path, capsys, edit, message):
        cfg = json.loads((DATA / "backend_synthetic.json").read_text())
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "meadow", "--config", cfg_path)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {cfg_path}: {message}")

    def test_config_not_an_object_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[]")
        code = run("--out", tmp_path, "optimize", "meadow", "--config", cfg_path)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {cfg_path}: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["optimizer"].update(qps=[27.5, 39, 49, 59, 63]),
         "optimizer.qps: qp 27.5 is not an integer"),
        (lambda cfg: cfg["optimizer"].update(qps=[True, 39, 49, 59, 63]),
         "optimizer.qps: qp True is not an integer"),
        (lambda cfg: cfg["optimizer"].update(metric_id=5),
         "optimizer.metric_id must be a string, got 5"),
        (lambda cfg: cfg["optimizer"].update(qps=[27]),
         "optimizer.qps: need >= 2 distinct qps, got [27]"),
    ], ids=["qp-float", "qp-bool", "metric-int", "qps-one"])
    def test_optimizer_value_the_cache_cannot_hold_exits_1(self, tmp_path, capsys, edit,
                                                          message):
        # such values used to be written to --cache, whose next load failed
        cfg = json.loads((DATA / "backend_synthetic.json").read_text())
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        cache = tmp_path / "cache.json"
        code = run("--out", tmp_path, "optimize", "meadow", "--config", cfg_path,
                   "--cache", cache)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not cache.exists()

    @pytest.mark.parametrize("key, value", [
        ("timeout_s", "x"),
        ("default_duration_s", "8"),
        ("settings", [1]),
        ("settings", {"native": 5}),
        ("clip_durations", [1]),
    ], ids=["timeout", "duration", "settings-list", "settings-profile", "durations"])
    def test_process_backend_value_of_wrong_type_exits_1(self, tmp_path, capsys, key, value):
        cfg = {"backend": {"kind": "process", "encode_template": "true",
                           "metric_template": "true", "default_duration_s": 5.0,
                           "workdir": str(tmp_path), key: value}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "clip", "--config", cfg_path)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: backend.{key}: ")

    def test_positional_template_field_exits_1(self, tmp_path, capsys):
        cfg = {"backend": {"kind": "process", "encode_template": "true {0}",
                           "metric_template": "true", "default_duration_s": 5.0,
                           "workdir": str(tmp_path)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "clip", "--config", cfg_path)
        assert code == 1
        err = capsys.readouterr().err
        assert [line.split(":")[0] for line in err.splitlines()] == ["error"]
        assert err.startswith("error: backend.encode_template: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["backend"]["clips"]["meadow"].update(k_star=[1.2]),
         "backend.clips.meadow.k_star must be two positive numbers, got (1.2,)"),
        (lambda cfg: cfg["backend"]["clips"]["meadow"].update(k_star=[1.2, 0.9, 3]),
         "backend.clips.meadow.k_star must be two positive numbers, got (1.2, 0.9, 3)"),
        (lambda cfg: cfg["backend"].update(model={"k_star": [1.2]}),
         "backend.model.k_star must be two positive numbers, got (1.2,)"),
        (lambda cfg: cfg["optimizer"].update(bounds=[0.5]),
         "optimizer.bounds must be a pair of finite numbers, got (0.5,)"),
        (lambda cfg: cfg["backend"].update(model={"alpha": True}),
         "backend.model.alpha must be a positive number, got True"),
        (lambda cfg: cfg["backend"].update(model={"alpha": "x"}),
         "backend.model.alpha must be a positive number, got 'x'"),
        (lambda cfg: cfg["backend"]["clips"]["harbor"].update(beta=math.nan),
         "backend.clips.harbor.beta must be a positive number, got nan"),
        (lambda cfg: cfg["backend"].update(model={"alpha": 10**400}),
         f"backend.model.alpha must be a positive number, got {10**400}"),
    ], ids=["k_star-one", "k_star-three", "model-k_star-one", "bounds-one", "alpha-bool",
            "alpha-text", "beta-nan", "alpha-huge-int"])
    def test_config_value_of_wrong_shape_exits_1(self, tmp_path, capsys, edit, message):
        # k_star [1.2] used to escape main as an IndexError, [1.2, 0.9, 3]
        # to fail at the first encode with an unpacking error
        cfg = json.loads((DATA / "backend_synthetic.json").read_text())
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "meadow", "--config", cfg_path)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_template_field_exits_1_naming_the_template(self, tmp_path, capsys):
        cfg = {"backend": {"kind": "process", "encode_template": "true {bogus}",
                           "metric_template": "true", "default_duration_s": 5.0,
                           "workdir": str(tmp_path)}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run("--out", tmp_path, "optimize", "clip", "--config", cfg_path)
        assert code == 1
        err = capsys.readouterr().err
        assert [line.split(":")[0] for line in err.splitlines()] == ["error"]
        assert "backend.encode_template: unknown field {bogus}" in err
        assert "settings profile 'native'" in err

    @pytest.mark.parametrize("clip", ["sub/clip", "..", ".", ""])
    def test_clip_that_is_not_a_bare_file_name_exits_1_before_any_encode(self, tmp_path,
                                                                        capsys, clip):
        # sub/clip used to be searched, then fail writing its result file,
        # after meadow's result and before the cache was saved
        cache = tmp_path / "cache.json"
        code = run("--out", tmp_path / "out", "optimize", "meadow", clip,
                   "--config", DATA / "backend_synthetic.json", "--cache", cache)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: clip {clip!r} is not a bare file name (it names output files in --out)"]
        assert not (tmp_path / "out" / "meadow.result.json").exists()
        assert not cache.exists()

    def test_rerun_with_the_cache_sends_no_batch(self, tmp_path):
        config, cache = DATA / "backend_synthetic.json", tmp_path / "cache.json"
        clips = ("meadow", "harbor", "lanterns")
        runs = []
        for name in ("cold", "warm"):
            assert run("--out", tmp_path / name, "optimize", *clips, "--config", config,
                       "--cache", cache) == 0
            runs.append(json.loads((tmp_path / name / "manifest.json").read_text())["clips"])
        cold, warm = runs
        for clip in clips:
            result = json.loads((tmp_path / "cold" / f"{clip}.result.json").read_text())
            evaluations = len(read_rows(tmp_path / "cold" / f"{clip}.trace.csv"))
            # the baseline is one batch, the start point is its cache hit
            # and the first stencil's four axis probes are one batch
            assert cold[clip] == {"encodes": result["encodes"], "batches": evaluations - 3}
            assert warm[clip] == {"encodes": 0, "batches": 0}

    def test_python_m_runs_the_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "perclip.cli", "--help"],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 0
        assert "optimize" in proc.stdout


class TestBdCommand:
    def test_identical_files_all_zero(self, tmp_path, capsys):
        ref = DATA / "curves" / "meadow__default.curve.json"
        code = run("--out", tmp_path, "bd", ref, ref)
        assert code == 0
        row = read_rows(tmp_path / "bd.csv")[0]
        assert float(row["bd_rate_pct"]) == 0.0
        assert float(row["bd_quality"]) == 0.0
        assert float(row["savings_mean_pct"]) == 0.0

    def test_tuned_curve_reports_savings(self, tmp_path):
        code = run(
            "--out", tmp_path, "bd",
            DATA / "curves" / "meadow__default.curve.json",
            DATA / "curves" / "meadow__tuned.curve.json",
        )
        assert code == 0
        row = read_rows(tmp_path / "bd.csv")[0]
        assert float(row["bd_rate_pct"]) < 0
        assert float(row["savings_qp39_pct"]) < 0
        assert row["clip"] == "meadow"
        assert row["metric"] == "mos"

    def test_constant_ratio_file(self, tmp_path):
        doc = json.loads((DATA / "curves" / "meadow__default.curve.json").read_text())
        scaled = dict(doc)
        scaled["points"] = [dict(p, rate_kbps=p["rate_kbps"] * 0.9) for p in doc["points"]]
        ref_path = tmp_path / "ref.json"
        test_path = tmp_path / "test.json"
        ref_path.write_text(json.dumps(doc))
        test_path.write_text(json.dumps(scaled))
        code = run("--out", tmp_path, "bd", ref_path, test_path)
        assert code == 0
        row = read_rows(tmp_path / "bd.csv")[0]
        assert float(row["bd_rate_pct"]) == pytest.approx(-10.0, abs=1e-6)
        for key, value in row.items():
            if key.startswith("savings_"):
                assert float(value) == pytest.approx(-10.0, abs=1e-6)

    @pytest.mark.parametrize("clip", ["meadow", "harbor", "lanterns"])
    def test_shipped_curves_match_golden_outputs(self, tmp_path, clip):
        code = run("--out", tmp_path, "bd", DATA / "curves" / f"{clip}__default.curve.json",
                   DATA / "curves" / f"{clip}__tuned.curve.json")
        assert code == 0
        assert_matches_golden(tmp_path, f"bd/{clip}")

    @pytest.mark.parametrize("edit, message", BAD_CURVE_FILES)
    def test_bad_curve_file_exits_1_naming_it(self, tmp_path, capsys, edit, message):
        bad = write_curve_variant(tmp_path / "bad.json", edit)
        code = run("--out", tmp_path, "bd", DATA / "curves" / "meadow__tuned.curve.json", bad)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("text", ["abc", "nan", "inf", ""])
    def test_anchor_that_is_not_a_finite_number_exits_1_naming_the_option(self, tmp_path,
                                                                        capsys, text):
        # abc used to fail as "could not convert string to float", and nan
        # to be reported as an out-of-range anchor qnan
        curves = DATA / "curves"
        code = run("--out", tmp_path, "bd", curves / "meadow__default.curve.json",
                   curves / "meadow__tuned.curve.json", "--anchors", f"60,{text}")
        assert code == 1
        assert capsys.readouterr().err == f"error: --anchors: {text!r} is not a finite number\n"
        assert not (tmp_path / "bd.csv").exists()

    @pytest.mark.parametrize("anchors, repeat", [("60,60", "60"), ("60,70,60.0", "60.0")])
    def test_repeated_anchor_exits_1_naming_it(self, tmp_path, capsys, anchors, repeat):
        # 60,60,60.0 used to write savings_q60_pct twice plus savings_q60.0_pct,
        # each counted in savings_mean_pct
        curves = DATA / "curves"
        code = run("--out", tmp_path, "bd", curves / "meadow__default.curve.json",
                   curves / "meadow__tuned.curve.json", "--anchors", anchors)
        assert code == 1
        assert capsys.readouterr().err == f"error: --anchors: {repeat!r} repeats an earlier anchor\n"
        assert not (tmp_path / "bd.csv").exists()

    def test_file_without_clip_takes_the_name_report_gives_it(self, tmp_path):
        # bd used to call meadow__default.curve.json's clip meadow__default.curve
        ref = write_curve_variant(tmp_path / "meadow__default.curve.json",
                                  lambda doc: doc.pop("clip"))
        assert run("--out", tmp_path / "bd", "bd", ref,
                   DATA / "curves" / "meadow__tuned.curve.json") == 0
        assert run("--out", tmp_path / "report", "report", ref) == 0
        assert read_rows(tmp_path / "bd" / "bd.csv")[0]["clip"] == "meadow"
        assert read_rows(tmp_path / "report" / "report_summary.csv")[0]["clip"] == "meadow"

    @pytest.mark.parametrize("command", ["bd", "report"])
    def test_repeated_qp_exits_1_naming_file_and_qp(self, tmp_path, capsys, command):
        # relabelling the qp-59 point as 39 used to make bd exit 0 with a
        # savings_qp39_pct read off the first such point and no qp59 column
        bad = write_curve_variant(tmp_path / "bad.json",
                                  lambda doc: doc["points"][0].update(qp=39))
        code = run("--out", tmp_path, command, bad, DATA / "curves" / "meadow__tuned.curve.json")
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: duplicate qp 39\n"
        assert not (tmp_path / "bd.csv").exists()

    @settings(max_examples=200, deadline=None)
    @given(point=st.integers(0, 3), key=st.sampled_from(["rate_kbps", "quality", "qp", "ci95"]),
           value=st.sampled_from([True, False, None, "", "nan", "8357.285", [], {}, 1e308,
                                  5e-324, -0.0, 0, -1, 10**400]))
    def test_any_edited_point_value_exits_0_or_with_one_error_line(self, tmp_path_factory,
                                                                    point, key, value):
        # one field of one of meadow's four default points; a value that
        # passes the point rule but breaks the curve math (a quality of 1e308)
        # may fail with bd_rate's message, which does not name the file
        tmp = tmp_path_factory.mktemp("fuzz")
        edited = write_curve_variant(tmp / "edited.json",
                                     lambda doc: doc["points"][point].update({key: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run("--out", tmp, "bd", edited, DATA / "curves" / "meadow__tuned.curve.json")
        assert code in (0, 1)
        if code == 1:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")

    def test_knots_too_close_for_finite_slopes_exit_1(self, tmp_path, capsys):
        a = {"metric": "mos", "points": [{"rate_kbps": r, "quality": q}
                                         for r, q in ((100, 0.0), (200, 5e-324), (300, 1e-300))]}
        b = {"metric": "mos", "points": [
            {"rate_kbps": 100, "quality": -1.0}, {"rate_kbps": 300, "quality": 1.0}]}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        code = run("--out", tmp_path, "bd", pb, pa)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "not finite" in err

    def test_quality_too_large_for_a_finite_secant_exits_1_naming_it(self, tmp_path, capsys):
        # the error used to blame the spacing of well-spaced knots
        ref = write_curve_variant(tmp_path / "ref.json",
                                  lambda doc: doc["points"][1].update(quality=1e308))
        code = run("--out", tmp_path, "bd", ref, DATA / "curves" / "meadow__tuned.curve.json")
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: a secant or slope is not finite for knots [")
        assert "with values [51.119, 1e+308, 70.614, 81.893]" in err
        assert "too close" not in err

    def test_reference_without_default_anchors_exits_1_naming_it_and_the_option(
            self, tmp_path, capsys):
        # used to report every anchor outside the common quality range
        # when the reference labelled none of qp 27, 39 and 59
        ref = write_curve_variant(tmp_path / "ref.json",
                                  lambda doc: [point.pop("qp") for point in doc["points"]])
        tuned = DATA / "curves" / "meadow__tuned.curve.json"
        code = run("--out", tmp_path, "bd", ref, tuned)
        assert code == 1
        assert capsys.readouterr().err == (f"error: {ref}: no point labelled qp 27/39/59; "
                                           "give --anchors\n")
        assert run("--out", tmp_path, "bd", ref, tuned, "--anchors", "60") == 0

    def test_disjoint_quality_ranges_exit_1(self, tmp_path, capsys):
        a = {"metric": "mos", "points": [
            {"rate_kbps": 100, "quality": 10}, {"rate_kbps": 200, "quality": 20}]}
        b = {"metric": "mos", "points": [
            {"rate_kbps": 100, "quality": 50}, {"rate_kbps": 200, "quality": 60}]}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        code = run("--out", tmp_path, "bd", pa, pb)
        assert code == 1
        assert "common interval" in capsys.readouterr().err


class TestScoresCommand:
    def test_screen_reports_none_rejected(self, tmp_path, capsys):
        code = run("--out", tmp_path, "scores", DATA / "scores.csv", "--screen")
        assert code == 0
        assert "rejected: none" in capsys.readouterr().out
        rows = read_rows(tmp_path / "screening.csv")
        assert all(r["rejected"] == "0" for r in rows)

    def test_screen_drops_a_rejected_subject_from_mos(self, tmp_path, capsys):
        # s41 scores uniformly at random; the others agree closely
        matrix = simulate_screening_panel(0)
        lines = ["subject_id,pvs_id,score\n"] + [
            f"{s},{e},{float(matrix.scores[i, j])!r}\n"
            for i, s in enumerate(matrix.subjects) for j, e in enumerate(matrix.stimuli)]
        panel, kept = tmp_path / "panel.csv", tmp_path / "kept.csv"
        panel.write_text("".join(lines))
        kept.write_text("".join(line for line in lines if not line.startswith("s41,")))
        assert run("--out", tmp_path / "screened", "scores", panel, "--screen") == 0
        assert capsys.readouterr().out == "rejected: s41\n"
        rows = read_rows(tmp_path / "screened" / "screening.csv")
        assert [r["subject_id"] for r in rows if r["rejected"] == "1"] == ["s41"]
        assert run("--out", tmp_path / "kept", "scores", kept) == 0
        mos = (tmp_path / "screened" / "mos.csv").read_bytes()
        assert mos == (tmp_path / "kept" / "mos.csv").read_bytes()

    def test_dmos_from_recovered_without_recover_exits_1(self, tmp_path):
        code, err = run_quietly("--out", tmp_path / "out", "scores", DATA / "scores.csv",
                                "--pairing", DATA / "pairing.csv", "--dmos-from", "recovered")
        assert (code, err) == (1, "error: --dmos-from recovered requires --recover\n")
        # only the manifest of the failed run, which lists no output
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert (manifest["exit_code"], manifest["outputs"]) == (1, [])

    def test_header_without_rows_exits_1(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("subject_id,pvs_id,score\n\n")
        code, err = run_quietly("--out", tmp_path / "out", "scores", scores)
        assert (code, err) == (1, f"error: {scores}: no score rows\n")

    def test_recovered_biases_match_injected(self, tmp_path):
        code = run(
            "--out", tmp_path, "scores", DATA / "scores.csv",
            "--recover", "p913",
        )
        assert code == 0
        truth = json.loads((DATA / "scores_truth.json").read_text())["delta"]
        for row in read_rows(tmp_path / "subjects.csv"):
            assert float(row["delta"]) == pytest.approx(
                truth[row["subject_id"]], abs=0.1
            )

    def test_dmos_written_with_pairing(self, tmp_path):
        code = run(
            "--out", tmp_path, "scores", DATA / "scores.csv",
            "--pairing", DATA / "pairing.csv",
        )
        assert code == 0
        rows = read_rows(tmp_path / "dmos.csv")
        assert len(rows) == 24
        assert all(0 < float(r["dmos"]) <= 120 for r in rows)

    def test_cohort_split_produces_per_cohort_tables(self, tmp_path):
        code = run(
            "--out", tmp_path, "scores", DATA / "scores.csv",
            "--cohort", "cohort",
        )
        assert code == 0
        assert (tmp_path / "mos.expert.csv").exists()
        assert (tmp_path / "mos.nonexpert.csv").exists()
        overall = read_rows(tmp_path / "mos.csv")
        expert = read_rows(tmp_path / "mos.expert.csv")
        assert len(overall) == len(expert) == 27
        assert all(r["n"] == "6" for r in expert)

    @pytest.mark.parametrize("label, message", [
        ("", "no 'cohort' label for subject 's01'"),
        ("nonexpert", "subject 's01' has conflicting 'cohort' labels 'expert' and 'nonexpert'"),
    ], ids=["empty", "conflicting"])
    def test_bad_cohort_cell_names_its_line(self, tmp_path, label, message):
        # a bad cohort cell used to be the one row error naming no file or line
        lines = (DATA / "scores.csv").read_text().splitlines(keepends=True)
        assert lines[0].rstrip().endswith(",cohort") and lines[5].startswith("s01,")
        lines[5] = f"{lines[5].rsplit(',', 1)[0]},{label}\n"
        scores = tmp_path / "scores.csv"
        scores.write_text("".join(lines))
        code, err = run_quietly("--out", tmp_path / "out", "scores", scores, "--cohort", "cohort")
        assert (code, err) == (1, f"error: {scores}: line 6: {message}\n")

    def test_missing_pairing_row_exits_1(self, tmp_path, capsys):
        pairing = tmp_path / "pairing.csv"
        pairing.write_text("dist_pvs_id,src_pvs_id\nmeadow_default_qp27,ghost_src\n")
        code = run("--out", tmp_path, "scores", DATA / "scores.csv", "--pairing", pairing)
        assert code == 1
        assert "ghost_src" in capsys.readouterr().err

    def test_missing_pair_error_line_is_unquoted(self, tmp_path, capsys):
        pairing = tmp_path / "pairing.csv"
        pairing.write_text("dist_pvs_id,src_pvs_id\nghost,nope\n")
        code = run("--out", tmp_path, "scores", DATA / "scores.csv", "--pairing", pairing)
        assert code == 1
        assert capsys.readouterr().err == "error: distorted stimulus 'ghost' not in the MOS table\n"

    def test_malformed_csv_exit_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject_id,pvs_id,score\ns1,a,12\ns1,b,elephant\ns2,a,40\ns2,b,50\n")
        code = run("--out", tmp_path, "scores", bad)
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_score_exits_1_naming_the_line(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            f"subject_id,pvs_id,score\ns1,a,12\ns1,b,{value}\ns2,a,40\ns2,b,50\ns3,b,60\n"
        )
        code = run("--out", tmp_path, "scores", bad)
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["101", "-0.5"])
    def test_out_of_range_score_exits_1_naming_file_line_and_value(self, tmp_path, capsys,
                                                                   value):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            f"subject_id,pvs_id,score\ns1,a,12\n\ns1,b,{value}\ns2,a,40\ns2,b,50\n"
        )
        code = run("--out", tmp_path, "scores", bad)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 4: score {value!r} outside [0, 100]\n"

    def test_repeated_pairing_exits_1_naming_file_and_line(self, tmp_path, capsys):
        pairing = tmp_path / "pairing.csv"
        pairing.write_text(
            (DATA / "pairing.csv").read_text() + "meadow_default_qp59,lanterns_src\n"
        )
        code = run("--out", tmp_path, "scores", DATA / "scores.csv", "--pairing", pairing)
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {pairing}: line 26: duplicate dist_pvs_id "
                       "'meadow_default_qp59'\n")
        assert not (tmp_path / "dmos.csv").exists()

    def test_shipped_data_matches_golden_outputs(self, tmp_path):
        code = run(
            "--out", tmp_path, "scores", DATA / "scores.csv",
            "--pairing", DATA / "pairing.csv", "--screen", "--recover", "p913",
            "--cohort", "cohort", "--dmos-from", "recovered",
        )
        assert code == 0
        assert_matches_golden(tmp_path, "scores")

    def test_shipped_data_dmos_from_mos_matches_golden_outputs(self, tmp_path):
        code = run(
            "--out", tmp_path, "scores", DATA / "scores.csv",
            "--pairing", DATA / "pairing.csv", "--cohort", "cohort",
        )
        assert code == 0
        assert_matches_golden(tmp_path, "scores_mos")

    @pytest.mark.parametrize("qp", ["27.0", "n/a"])
    def test_free_form_metadata_columns_accepted(self, tmp_path, qp):
        path = tmp_path / "scores.csv"
        path.write_text(
            "subject_id,pvs_id,score,clip,qp,variant,role\n"
            f"s1,a,12,meadow,{qp},default,dist\ns1,b,30,meadow,,,src\n"
            f"s2,a,40,meadow,{qp},default,dist\ns2,b,50,meadow,,,src\n"
        )
        code = run("--out", tmp_path, "scores", path)
        assert code == 0
        assert [r["pvs_id"] for r in read_rows(tmp_path / "mos.csv")] == ["a", "b"]

    def test_dmos_from_recovered_psi(self, tmp_path):
        code = run(
            "--out", tmp_path, "scores", DATA / "scores.csv",
            "--pairing", DATA / "pairing.csv",
            "--recover", "p913", "--dmos-from", "recovered",
        )
        assert code == 0
        truth = json.loads((DATA / "scores_truth.json").read_text())["psi"]
        for row in read_rows(tmp_path / "dmos.csv"):
            pvs = row["pvs_id"]
            src = pvs.split("_")[0] + "_src"
            expected = 100 - (truth[src] - truth[pvs])
            assert float(row["dmos"]) == pytest.approx(expected, abs=0.5)


class TestCorrelateCommand:
    def test_shipped_data_matches_golden_outputs(self, tmp_path):
        code = run("--out", tmp_path, "correlate", DATA / "metrics.csv", DATA / "subjective.csv")
        assert code == 0
        assert_matches_golden(tmp_path, "correlate")

    def test_monotone_metric_correlates(self, tmp_path):
        code = run(
            "--out", tmp_path, "correlate",
            DATA / "metrics.csv", DATA / "subjective.csv",
        )
        assert code == 0
        rows = {r["metric"]: r for r in read_rows(tmp_path / "correlations.csv")}
        assert set(rows) == {"msssim_db", "psnr_y_db", "pvqm"}
        assert float(rows["msssim_db"]["srocc"]) > 0.9
        assert int(rows["msssim_db"]["n"]) == 24

    def test_map_improves_or_matches_plcc(self, tmp_path):
        run("--out", tmp_path / "m", "correlate",
            DATA / "metrics.csv", DATA / "subjective.csv", "--map")
        run("--out", tmp_path / "r", "correlate",
            DATA / "metrics.csv", DATA / "subjective.csv", "--no-map")
        mapped = {r["metric"]: r for r in read_rows(tmp_path / "m" / "correlations.csv")}
        raw = {r["metric"]: r for r in read_rows(tmp_path / "r" / "correlations.csv")}
        for metric in mapped:
            assert float(mapped[metric]["plcc"]) >= float(raw[metric]["plcc"]) - 1e-9
            assert float(raw[metric]["rmse"]) == 0.0

    def test_unjoinable_ids_exit_1(self, tmp_path, capsys):
        other = tmp_path / "subjective.csv"
        other.write_text("pvs_id,subjective\nnope_a,50\nnope_b,60\n")
        code = run("--out", tmp_path, "correlate", DATA / "metrics.csv", other)
        assert code == 1
        assert "join" in capsys.readouterr().err

    def test_exact_monotone_transform_gives_srocc_one(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        subj = tmp_path / "subjective.csv"
        values = [1.0, 2.5, 3.1, 4.8, 6.0, 7.7, 9.2, 11.0]
        metrics.write_text(
            "pvs_id,m\n" + "".join(f"p{i},{v}\n" for i, v in enumerate(values))
        )
        subj.write_text(
            "pvs_id,subjective\n"
            + "".join(f"p{i},{v**3 + 2}\n" for i, v in enumerate(values))
        )
        code = run("--out", tmp_path, "correlate", metrics, subj)
        assert code == 0
        row = read_rows(tmp_path / "correlations.csv")[0]
        assert float(row["srocc"]) == 1.0
        assert float(row["krcc"]) == 1.0


    @pytest.mark.parametrize("which", ["metrics", "subjective"])
    def test_duplicate_pvs_id_exits_1_naming_file_and_id(self, tmp_path, capsys, which):
        paths = {"metrics": DATA / "metrics.csv", "subjective": DATA / "subjective.csv"}
        lines = paths[which].read_text().splitlines(keepends=True)
        repeat = lines[3].split(",")[0]
        lines.append(repeat + "," + ",".join(["50"] * (len(lines[0].split(",")) - 1)) + "\n")
        paths[which] = tmp_path / f"{which}.csv"
        paths[which].write_text("".join(lines))
        code = run("--out", tmp_path, "correlate", paths["metrics"], paths["subjective"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {paths[which]}: line {len(lines)}: duplicate pvs_id {repeat!r}\n"
        assert not (tmp_path / "correlations.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_metric_exits_1_naming_the_column(self, tmp_path, capsys, value):
        metrics = tmp_path / "metrics.csv"
        rows = read_rows(DATA / "metrics.csv")
        rows[5]["psnr_y_db"] = value
        with open(metrics, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        for mode in ("--map", "--no-map"):
            code = run("--out", tmp_path / mode, "correlate", metrics,
                       DATA / "subjective.csv", mode)
            assert code == 1
            assert "psnr_y_db" in capsys.readouterr().err
            assert not (tmp_path / mode / "correlations.csv").exists()

    @pytest.mark.parametrize("which, column", [("metrics", "psnr_y_db"),
                                               ("subjective", "subjective")])
    @pytest.mark.parametrize("bad", ["cell", "repeat"])
    def test_row_error_names_the_line_a_blank_line_counts(self, tmp_path, which, column, bad):
        paths = {"metrics": DATA / "metrics.csv", "subjective": DATA / "subjective.csv"}
        lines = paths[which].read_text().splitlines(keepends=True)
        cells = lines[3].rstrip("\n").split(",")
        if bad == "cell":
            cells[lines[0].rstrip("\n").split(",").index(column)] = "x"
            problem = f"column {column}: bad value 'x' for {cells[0]!r}"
        else:
            cells[0] = lines[1].split(",")[0]
            problem = f"duplicate pvs_id {cells[0]!r}"
        lines[3] = ",".join(cells) + "\n"
        lines.insert(2, "\n")  # the bad row is now on line 5
        paths[which] = tmp_path / f"{which}.csv"
        paths[which].write_text("".join(lines))
        code, err = run_quietly("--out", tmp_path, "correlate", paths["metrics"],
                                paths["subjective"])
        assert (code, err) == (1, f"error: {paths[which]}: line 5: {problem}\n")

    @pytest.mark.parametrize("which", ["metrics", "subjective"])
    def test_value_of_extreme_size_gives_no_nan_and_no_warning(self, tmp_path, which):
        # one cell of 1e308 used to print numpy overflow warnings, then write
        # plcc nan without the map, or fail inside scipy with it
        paths = {"metrics": DATA / "metrics.csv", "subjective": DATA / "subjective.csv"}
        paths[which] = tmp_path / f"{which}.csv"
        paths[which].write_bytes(edit_csv(DATA / f"{which}.csv", "cell", 3, 1, "1e308"))
        code, err = run_quietly("--out", tmp_path / "raw", "correlate", paths["metrics"],
                                paths["subjective"], "--no-map")
        assert (code, err) == (0, "")
        rows = read_rows(tmp_path / "raw" / "correlations.csv")
        assert all(math.isfinite(float(r[key])) for r in rows for key in ("plcc", "srocc"))
        code, err = run_quietly("--out", tmp_path / "mapped", "correlate", paths["metrics"],
                                paths["subjective"])
        assert code == 1
        assert err.startswith(f"error: {paths['metrics']}: column msssim_db: values out of "
                              "range for the logistic fit: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("which, row, column", [
        ("metrics", "p3,1.5\n", "m2"),
        ("metrics", "p3,1.5,abc\n", "m2"),
        ("subjective", "p3\n", "subjective"),
        ("subjective", "p3,high\n", "subjective"),
        ("subjective", "p3,nan\n", "subjective"),
    ], ids=["metrics-short", "metrics-text", "subjective-short", "subjective-text",
            "subjective-nan"])
    def test_bad_cell_exits_1_naming_file_and_column(self, tmp_path, capsys,
                                                    which, row, column):
        lines = {
            "metrics": ["pvs_id,m1,m2\n"]
            + [f"p{i},{i + 1.0},{2 * i + 1.0}\n" for i in range(8)],
            "subjective": ["pvs_id,subjective\n"] + [f"p{i},{10.0 * i + 5}\n" for i in range(8)],
        }
        lines[which][4] = row  # p3
        paths = {name: tmp_path / f"{name}.csv" for name in lines}
        for name, text in lines.items():
            paths[name].write_text("".join(text))
        code = run("--out", tmp_path, "correlate", paths["metrics"], paths["subjective"])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {paths[which]}: ")
        assert f"column {column}" in err


class TestCsvInputs:
    """The four CSV inputs of scores and correlate share one reader, so a
    bad file of any of them ends in one error line naming it."""

    INPUTS = {"scores": DATA / "scores.csv", "pairing": DATA / "pairing.csv",
              "metrics": DATA / "metrics.csv", "subjective": DATA / "subjective.csv"}

    def run_on(self, tmp_path, which: str, data: bytes, *options) -> tuple[int, str, Path]:
        """The command that reads input which, run with options and that
        input replaced by data: its exit code, stderr and the replaced file."""
        paths = dict(self.INPUTS)
        paths[which] = tmp_path / f"{which}.csv"
        paths[which].write_bytes(data)
        if which in ("scores", "pairing"):
            argv = ["scores", paths["scores"], "--pairing", paths["pairing"]]
        else:
            argv = ["correlate", paths["metrics"], paths["subjective"]]
        return (*run_quietly("--out", tmp_path / "out", *argv, *options), paths[which])

    @pytest.mark.parametrize("which", list(INPUTS))
    def test_cell_over_the_field_limit_exits_1_naming_file_and_line(self, tmp_path, which):
        # the csv module's _csv.Error used to escape main as a traceback
        data = edit_csv(self.INPUTS[which], "cell", 2, 1, "x" * 200_000)
        code, err, path = self.run_on(tmp_path, which, data)
        assert code == 1
        assert err == f"error: {path}: line 4: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("which", list(INPUTS))
    def test_repeated_column_name_exits_1_naming_it(self, tmp_path, which):
        # a metrics CSV with two psnr_y_db columns used to exit 0 with two
        # identical rows, both from the last such column
        data = edit_csv(self.INPUTS[which], "repeat", 0, 0, "")
        code, err, path = self.run_on(tmp_path, which, data)
        repeat = self.INPUTS[which].read_text().splitlines()[0].split(",")[1]
        assert (code, err) == (1, f"error: {path}: header repeats column {repeat!r}\n")
        assert not (tmp_path / "out" / "correlations.csv").exists()

    def test_subjective_csv_without_pvs_id_exits_1_naming_it(self, tmp_path):
        # used to fail as "both CSVs need a pvs_id column", naming no file
        data = edit_csv(self.INPUTS["subjective"], "header", 0, 0, "id")
        code, err, path = self.run_on(tmp_path, "subjective", data)
        assert (code, err) == (1, f"error: {path}: header must contain ['pvs_id']\n")

    @pytest.mark.parametrize("which", list(INPUTS))
    def test_byte_that_is_not_utf8_exits_1_naming_file_and_line(self, tmp_path, which):
        # the codec's message used to name neither the file nor the line
        data = edit_csv(self.INPUTS[which], "utf8", 20, 0, "")
        code, err, path = self.run_on(tmp_path, which, data)
        assert (code, err) == (1, f"error: {path}: line 22: not UTF-8 (invalid start byte)\n")

    @pytest.mark.parametrize("which", list(INPUTS))
    def test_byte_order_mark_is_no_part_of_the_header(self, tmp_path, which):
        # a file saved with a byte-order mark used to lack its first column
        data = self.INPUTS[which].read_bytes()
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            assert self.run_on(tmp_path / name, which, prefix + data)[:2] == (0, "")
        plain, bom = (sorted((tmp_path / name / "out").glob("*.csv")) for name in ("plain", "bom"))
        assert [p.name for p in bom] == [p.name for p in plain] and plain
        assert [p.read_bytes() for p in bom] == [p.read_bytes() for p in plain]

    @pytest.mark.parametrize("which, text, message", [
        ("scores", "subject_id,pvs_id,score\n\ns1,a,oops\n", "line 3: bad score 'oops'"),
        ("pairing", "dist_pvs_id,src_pvs_id\n\nd1,s1\nx,\n", "line 4: empty pairing entry"),
    ])
    def test_bad_value_names_its_line_in_the_file(self, tmp_path, which, text, message):
        # blank lines used to go uncounted, unlike in csv and UTF-8 errors
        code, err, path = self.run_on(tmp_path, which, text.encode())
        assert (code, err) == (1, f"error: {path}: {message}\n")

    @settings(max_examples=60, deadline=None)
    @given(which=st.sampled_from(["scores", "pairing"]),
           kind=st.sampled_from(["cell", "header", "drop", "repeat", "utf8"]),
           row=st.integers(0, 10**6), col=st.integers(0, 10**6),
           cell=st.integers(0, len(CSV_CELLS) - 1))
    def test_any_edited_scores_input_exits_0_or_with_one_error_line(
            self, tmp_path_factory, which, kind, row, col, cell):
        tmp = tmp_path_factory.mktemp("fuzz")
        data = edit_csv(self.INPUTS[which], kind, row, col, CSV_CELLS[cell])
        assert_one_error_line_or_ok(*self.run_on(tmp, which, data)[:2])

    @settings(max_examples=100, deadline=None)
    @given(which=st.sampled_from(["metrics", "subjective"]),
           kind=st.sampled_from(["cell", "header", "drop", "repeat", "utf8"]),
           row=st.integers(0, 10**6), col=st.integers(0, 10**6),
           cell=st.integers(0, len(CSV_CELLS) - 1), mapped=st.booleans())
    def test_any_edited_correlate_input_exits_0_or_with_one_error_line(
            self, tmp_path_factory, which, kind, row, col, cell, mapped):
        tmp = tmp_path_factory.mktemp("fuzz")
        data = edit_csv(self.INPUTS[which], kind, row, col, CSV_CELLS[cell])
        code, err, _ = self.run_on(tmp, which, data, "--map" if mapped else "--no-map")
        assert_one_error_line_or_ok(code, err)
        if code == 0:
            for rec in read_rows(tmp / "out" / "correlations.csv"):
                assert all(math.isfinite(float(rec[key]))
                           for key in ("plcc", "srocc", "krcc", "rmse")), rec


class TestJsonInputs:
    """A config, cache or curve file that is not JSON names itself."""

    @pytest.mark.parametrize("data, message", [
        (b'{"backend": {\n', "Expecting property name enclosed in double quotes: line 2 "
                              "column 1 (char 14)"),
        (b'{"backend": "\xff"}\n', "'utf-8' codec can't decode byte 0xff in position 13: "
                                   "invalid start byte"),
    ], ids=["truncated", "not-utf8"])
    def test_bad_config_exits_1_naming_it(self, tmp_path, data, message):
        config = tmp_path / "cfg.json"
        config.write_bytes(data)
        code, err = run_quietly("--out", tmp_path, "optimize", "meadow", "--config", config,
                                "--cache", tmp_path / "cache.json")
        assert (code, err) == (1, f"error: {config}: {message}\n")

    def test_truncated_cache_exits_1_naming_it(self, tmp_path):
        # with both --config and --cache the bare decoder message named neither
        cache = tmp_path / "cache.json"
        cache.write_text('[["meadow", "native", "ms_ssim", 27,\n')
        before = cache.read_bytes()
        code, err = run_quietly("--out", tmp_path, "optimize", "meadow",
                                "--config", DATA / "backend_synthetic.json", "--cache", cache)
        assert (code, err) == (1, f"error: {cache}: Expecting value: line 2 column 1 (char 37)\n")
        assert cache.read_bytes() == before

    @pytest.mark.parametrize("command", ["bd", "report"])
    @pytest.mark.parametrize("text", [
        (DATA / "curves" / "meadow__default.curve.json").read_text()[:40],
        "[" * 100_000,  # used to escape main as a RecursionError traceback
    ], ids=["truncated", "nested-too-deep"])
    def test_curve_file_that_is_not_json_exits_1_naming_it(self, tmp_path, command, text):
        curve = tmp_path / "meadow__default.curve.json"
        curve.write_text(text)
        code, err = run_quietly("--out", tmp_path / "out", command, curve,
                                DATA / "curves" / "meadow__tuned.curve.json")
        assert code == 1
        assert err.startswith(f"error: {curve}: ") and len(err.splitlines()) == 1

    @settings(max_examples=40, deadline=None)
    @given(which=st.sampled_from(["config", "cache"]), place=st.integers(0, 10**6),
           value=st.integers(0, len(JSON_VALUES) - 1))
    def test_any_edited_config_or_cache_exits_0_or_with_one_error_line(
            self, tmp_path_factory, which, place, value):
        tmp = tmp_path_factory.mktemp("fuzz")
        docs = {"config": json.loads((DATA / "backend_synthetic.json").read_text()),
                "cache": [row for row in json.loads((ROOT / "tests" / "golden" / "optimize" /
                                                     "cache.json").read_text())
                          if row[0] == "meadow"]}
        places = list(json_places(docs[which]))
        docs[which] = replaced(docs[which], places[place % len(places)], JSON_VALUES[value])
        for name, doc in docs.items():
            (tmp / f"{name}.json").write_text(json.dumps(doc))
        assert_one_error_line_or_ok(*run_quietly(
            "--out", tmp / "out", "optimize", "meadow",
            "--config", tmp / "config.json", "--cache", tmp / "cache.json"))


class TestReportCommand:
    def test_svg_structure(self, tmp_path):
        curves = sorted((DATA / "curves").glob("*.curve.json"))
        code = run("--out", tmp_path, "report", *curves)
        assert code == 0
        for clip in ("meadow", "harbor", "lanterns"):
            svg_path = tmp_path / f"{clip}.svg"
            assert svg_path.exists()
            root = ET.parse(svg_path).getroot()
            polylines = root.findall(f".//{SVG_NS}polyline")
            errorbars = root.findall(f".//{SVG_NS}g[@class='errorbar']")
            assert len(polylines) == 2
            assert len(errorbars) == 2 * 4  # two variants, four points each
        summary = read_rows(tmp_path / "report_summary.csv")
        assert len(summary) == 6

    def test_shipped_curves_match_golden_outputs(self, tmp_path):
        code = run("--out", tmp_path, "report", *sorted((DATA / "curves").glob("*.curve.json")))
        assert code == 0
        assert_matches_golden(tmp_path, "report")

    @pytest.mark.parametrize("edit, message", BAD_CURVE_FILES)
    def test_bad_curve_file_exits_1_naming_it(self, tmp_path, capsys, edit, message):
        bad = write_curve_variant(tmp_path / "bad.json", edit)
        code = run("--out", tmp_path, "report", DATA / "curves" / "meadow__tuned.curve.json", bad)
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {bad}: {message}")

    def test_points_listed_in_descending_rate_draw_the_same_chart(self, tmp_path):
        # each error bar must stay on its own point whatever the file's order
        curves = [write_curve_variant(tmp_path / f"meadow__{variant}.curve.json",
                                      lambda doc: doc["points"].reverse(), variant)
                  for variant in ("default", "tuned")]
        rates = [p["rate_kbps"] for p in json.loads(curves[0].read_text())["points"]]
        assert rates == sorted(rates, reverse=True)
        code = run("--out", tmp_path / "out", "report", *curves)
        assert code == 0
        assert (tmp_path / "out" / "meadow.svg").read_bytes() == (
            ROOT / "tests" / "golden" / "report" / "meadow.svg").read_bytes()

    def test_markup_characters_in_names_are_escaped(self, tmp_path):
        names = {"clip": 'a&b<c>"d', "variant": 'v<1> & "2"', "metric": 'mos<&>"x'}
        curve = write_curve_variant(tmp_path / "odd.json", lambda doc: doc.update(names))
        code = run("--out", tmp_path / "out", "report", curve)
        assert code == 0
        root = ET.parse(tmp_path / "out" / f"{names['clip']}.svg").getroot()
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        # title first, then the tick labels, the two axis labels, the legend
        assert texts[0] == names["clip"]
        assert texts[-3:] == ["rate (kbps, log scale)", names["metric"], names["variant"]]

    @pytest.mark.parametrize("clip", ["../escaped", "sub/clip", ".", ".."])
    def test_clip_that_is_not_a_bare_file_name_exits_1(self, tmp_path, capsys, clip):
        bad = write_curve_variant(tmp_path / "bad.json", lambda doc: doc.update(clip=clip))
        out = tmp_path / "out"
        code = run("--out", out, "report", DATA / "curves" / "meadow__tuned.curve.json", bad)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: clip {clip!r} is not a bare file name "
            "(it names output files in --out)"]
        assert not list(tmp_path.rglob("*.svg"))

    def test_empty_input_exits_1(self, tmp_path, capsys):
        code = run("--out", tmp_path, "report")
        assert code == 1
        assert "no curve files" in capsys.readouterr().err

    def test_unwritable_out_dir_exits_1(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = run(
            "--out", target, "report",
            DATA / "curves" / "meadow__default.curve.json",
        )
        assert code == 1


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        def run_all(out: Path):
            out.mkdir()
            assert run("--out", out / "opt", "optimize", "meadow", "lanterns",
                       "--config", DATA / "backend_synthetic.json") == 0
            assert run("--out", out / "bd", "bd",
                       DATA / "curves" / "meadow__default.curve.json",
                       DATA / "curves" / "meadow__tuned.curve.json") == 0
            assert run("--out", out / "scores", "scores", DATA / "scores.csv",
                       "--pairing", DATA / "pairing.csv", "--screen",
                       "--recover", "p913", "--cohort", "cohort") == 0
            assert run("--out", out / "corr", "correlate",
                       DATA / "metrics.csv", DATA / "subjective.csv") == 0
            assert run("--out", out / "rep", "report",
                       *sorted((DATA / "curves").glob("*.curve.json"))) == 0

        run_all(tmp_path / "one")
        run_all(tmp_path / "two")
        files_one = sorted(
            p.relative_to(tmp_path / "one")
            for p in (tmp_path / "one").rglob("*")
            if p.is_file() and p.name != "manifest.json"
        )
        assert files_one
        for rel in files_one:
            a = (tmp_path / "one" / rel).read_bytes()
            b = (tmp_path / "two" / rel).read_bytes()
            assert a == b, f"{rel} differs between runs"

    def test_manifest_lists_outputs_that_exist(self, tmp_path):
        run("--out", tmp_path, "bd",
            DATA / "curves" / "meadow__default.curve.json",
            DATA / "curves" / "meadow__tuned.curve.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "bd"
        assert manifest["exit_code"] == 0
        for out in manifest["outputs"]:
            assert Path(out).exists()


class TestColdStart:
    """scipy costs over a second to import, so each subcommand loads only
    the parts of it that it calls."""

    def test_optimize_bd_report_load_no_scipy(self, tmp_path):
        steps = cold_start(
            ["--out", tmp_path / "opt", "optimize", "meadow", "harbor", "lanterns",
             "--config", DATA / "backend_synthetic.json"],
            ["--out", tmp_path / "bd", "bd", DATA / "curves" / "meadow__default.curve.json",
             DATA / "curves" / "meadow__tuned.curve.json"],
            ["--out", tmp_path / "rep", "report", *sorted((DATA / "curves").glob("*.curve.json"))],
        )
        assert steps == [(None, []), (0, []), (0, []), (0, [])]

    def test_scores_loads_only_scipy_special(self, tmp_path):
        steps = cold_start(
            ["--out", tmp_path, "scores", DATA / "scores.csv", "--screen",
             "--recover", "p913", "--pairing", DATA / "pairing.csv"],
        )
        assert steps[0] == (None, [])
        code, modules = steps[1]
        assert code == 0
        assert "scipy.special" in modules
        for package in ("scipy.stats", "scipy.optimize"):
            assert not [m for m in modules if m == package or m.startswith(package + ".")]
