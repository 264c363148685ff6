"""Tests for the synthetic and process encode backends."""

import json
import os
import shlex
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from perclip import (
    EncodeRequest,
    LambdaMultipliers,
    ProcessBackend,
    SyntheticBackend,
    SyntheticModel,
    bd_rate,
    build_rd_curve,
    synthetic_encode,
)
from perclip.backends import EncodeResult, backend_from_config
from perclip.errors import BackendFailure

KS_DEFAULT = LambdaMultipliers(1.0, 1.0)


def req(qp, ks=KS_DEFAULT, clip="clip"):
    return EncodeRequest(clip=clip, qp=qp, ks=ks)


class TestSyntheticModel:
    def test_rate_and_quality_decrease_with_qp(self):
        backend = SyntheticBackend()
        r27 = backend.encode(req(27))
        r59 = backend.encode(req(59))
        assert r27.rate > r59.rate
        assert r27.quality > r59.quality

    def test_deterministic(self):
        backend = SyntheticBackend()
        a = backend.encode(req(39))
        b = backend.encode(req(39))
        assert a == b

    def test_baseline_anchoring(self):
        model = SyntheticModel()
        assert model.bowl(1.0, 1.0) == 0.0
        res = synthetic_encode(model, req(39))
        assert res.rate == model.r0 * 2.0 ** (-39 / model.alpha)
        assert res.quality == model.qmax - model.beta * 39

    def test_bowl_peaks_at_k_star(self):
        model = SyntheticModel()
        k1s, k2s = model.k_star
        g_star = model.bowl(k1s, k2s)
        assert g_star > 0
        for k1 in np.linspace(0.2, 4.0, 40):
            for k2 in np.linspace(0.2, 4.0, 40):
                assert model.bowl(float(k1), float(k2)) <= g_star + 1e-12

    def test_quality_maximized_at_k_star_for_fixed_qp(self):
        model = SyntheticModel()
        best = max(
            ((k1, k2) for k1 in np.linspace(0.2, 4.0, 96)
             for k2 in np.linspace(0.2, 4.0, 96)),
            key=lambda ks: synthetic_encode(
                model, req(39, LambdaMultipliers(float(ks[0]), float(ks[1])))
            ).quality,
        )
        assert abs(best[0] - model.k_star[0]) < 0.05
        assert abs(best[1] - model.k_star[1]) < 0.05

    def test_k_star_curve_beats_baseline(self):
        model = SyntheticModel()
        backend = SyntheticBackend(model)
        qps = (27, 39, 49, 59, 63)
        base = build_rd_curve(backend, "c", KS_DEFAULT, qps)
        tuned = build_rd_curve(backend, "c", LambdaMultipliers(*model.k_star), qps)
        assert bd_rate(base, tuned).value < 0

    def test_cost_surface_minimum_sits_at_k_star(self):
        # fine local grid: the BD-rate cost bowl bottoms out at the model's
        # built-in optimum to within the grid resolution
        from perclip import RdPoint, build_curve

        model = SyntheticModel()
        qps = (27, 39, 49, 59, 63)

        def curve_at(k1, k2):
            ks = LambdaMultipliers(k1, k2)
            return build_curve(
                [
                    RdPoint(res.rate, res.quality, qp=qp)
                    for qp, res in (
                        (qp, synthetic_encode(model, req(qp, ks))) for qp in qps
                    )
                ],
                "ms_ssim",
            )

        base = curve_at(1.0, 1.0)
        k1s, k2s = model.k_star
        axis1 = np.linspace(k1s - 0.05, k1s + 0.05, 101)
        axis2 = np.linspace(k2s - 0.05, k2s + 0.05, 101)
        best, best_cost = None, np.inf
        for k1 in axis1:
            for k2 in axis2:
                cost = bd_rate(base, curve_at(float(k1), float(k2))).value
                if cost < best_cost:
                    best, best_cost = (float(k1), float(k2)), cost
        assert abs(best[0] - k1s) < 1e-3
        assert abs(best[1] - k2s) < 1e-3
        assert best_cost < 0

    def test_per_clip_models(self):
        special = SyntheticModel(qmax=25.0)
        backend = SyntheticBackend(per_clip={"hero": special})
        assert backend.encode(req(27, clip="hero")).quality > backend.encode(
            req(27, clip="other")
        ).quality

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            SyntheticModel(alpha=-1)

    @pytest.mark.parametrize("k_star", [(1.2,), (1.2, 0.9, 3.0), (1.2, -0.9), (True, 1.0),
                                        (1.2, float("nan")), "ab", 1.2])
    def test_k_star_must_be_two_positive_numbers(self, k_star):
        with pytest.raises(ValueError, match="^k_star must be two positive numbers"):
            SyntheticModel(k_star=k_star)

    def test_qp_range_validated(self):
        with pytest.raises(ValueError):
            EncodeRequest(clip="c", qp=64, ks=KS_DEFAULT)

    def test_multipliers_must_be_positive(self):
        with pytest.raises(ValueError):
            LambdaMultipliers(0.0, 1.0)

    @pytest.mark.parametrize("qp", [27.5, True, "27"])
    def test_qp_must_be_an_integer(self, qp):
        # 27.5 and True used to pass the range check alone
        with pytest.raises(ValueError, match="is not an integer"):
            EncodeRequest(clip="c", qp=qp, ks=KS_DEFAULT)

    @pytest.mark.parametrize("field", ["clip", "settings", "metric_id"])
    def test_names_must_be_strings(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be a string, got 7"):
            EncodeRequest(**{"clip": "c", "qp": 27, "ks": KS_DEFAULT, field: 7})

    @pytest.mark.parametrize("k", [float("inf"), float("nan")])
    def test_multipliers_must_be_finite(self, k):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            LambdaMultipliers(k, 1.0)


class TestBuildRdCurve:
    def test_five_point_curve(self):
        backend = SyntheticBackend()
        curve = build_rd_curve(backend, "c", KS_DEFAULT, (27, 39, 49, 59, 63))
        assert len(curve.points) == 5
        qps = [p.qp for p in curve.points]
        assert qps == [63, 59, 49, 39, 27]  # ascending rate means descending qp

    def test_duplicate_qp_rejected(self):
        backend = SyntheticBackend()
        with pytest.raises(ValueError):
            build_rd_curve(backend, "c", KS_DEFAULT, (27, 27, 39))

    def test_too_few_qps(self):
        backend = SyntheticBackend()
        with pytest.raises(ValueError):
            build_rd_curve(backend, "c", KS_DEFAULT, (27,))

    def test_failure_names_the_qp(self):
        class Broken(SyntheticBackend):
            def encode(self, request):
                if request.qp == 49:
                    raise BackendFailure("synthetic fault")
                return super().encode(request)

        with pytest.raises(BackendFailure, match="qp 49"):
            build_rd_curve(Broken(), "c", KS_DEFAULT, (27, 49, 63))

    def test_failure_names_the_qp_through_process_backend(self, tmp_path):
        enc = tmp_path / "enc.sh"
        write_script(enc, '#!/bin/sh\n[ "$3" != 49 ] || exit 5\nhead -c 1000 /dev/zero > "$2"\n')
        met = tmp_path / "met.sh"
        write_script(met, FAKE_METRIC.format(payload=json.dumps({"ms_ssim": 18.4})))
        backend = ProcessBackend(
            encode_template=f"{enc} {{input}} {{output}} {{qp}}",
            metric_template=f"{met} {{output}} {{stats}}",
            default_duration_s=5.0,
            workdir=str(tmp_path),
        )
        with pytest.raises(BackendFailure, match="qp 49: .*exited 5"):
            build_rd_curve(backend, "c", KS_DEFAULT, (27, 49, 63))
        # the batch reports each request's own outcome; a failure stops nothing
        results = backend.encode_many([req(qp, clip="c") for qp in (27, 49, 63)])
        assert [type(r) for r in results] == [EncodeResult, BackendFailure, EncodeResult]
        assert str(results[1]).startswith("qp 49: ")

    def test_serial_batch_reports_each_failure_in_place(self):
        class Broken(SyntheticBackend):
            def encode(self, request):
                if request.qp == 49:
                    raise BackendFailure("synthetic fault")
                return super().encode(request)

        results = Broken().encode_many([req(qp) for qp in (27, 49, 63)])
        assert [type(r) for r in results] == [EncodeResult, BackendFailure, EncodeResult]
        assert str(results[1]) == "qp 49: synthetic fault"
        assert results[2] == SyntheticBackend().encode(req(63))

    def test_model_arithmetic_that_overflows_is_a_failure_naming_the_qp(self):
        # a k_star of 1e300 overflows the bowl's square, which used to escape
        # the batch, and main, as an OverflowError traceback
        backend = SyntheticBackend(SyntheticModel(k_star=(1e300, 1.0)))
        (result,) = backend.encode_many([req(27)])
        assert isinstance(result, BackendFailure)
        assert str(result).startswith("qp 27: ")


FAKE_ENCODER = """#!/bin/sh
# fake encoder: writes a fixed-size payload
head -c {size} /dev/zero > "$2"
"""

FAKE_METRIC = """#!/bin/sh
# fake metric tool: emits a stats file
echo '{payload}' > "$2"
"""


def write_script(path, text):
    path.write_text(text)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)


@pytest.fixture
def process_backend(tmp_path):
    enc = tmp_path / "fake_encode.sh"
    met = tmp_path / "fake_metric.sh"
    write_script(enc, FAKE_ENCODER.format(size=1_000_000))
    write_script(met, FAKE_METRIC.format(payload=json.dumps({"ms_ssim": 18.4})))
    return ProcessBackend(
        encode_template=f"{enc} {{input}} {{output}} {{qp}} {{k1}} {{k2}}",
        metric_template=f"{met} {{output}} {{stats}}",
        settings={"native": {}, "proxy": {"preset": "6"}},
        clip_durations={"clip.y4m": 5.0},
        workdir=str(tmp_path),
    )


class TestProcessBackend:
    def test_rate_from_size_and_duration(self, process_backend):
        res = process_backend.encode(req(27, clip="clip.y4m"))
        assert res.rate == pytest.approx(1600.0)  # 8 * 1e6 / 5 / 1000
        assert res.quality == 18.4
        assert res.artifacts and os.path.exists(res.artifacts["bitstream"])

    def test_missing_encoder_binary(self, tmp_path):
        backend = ProcessBackend(
            encode_template="/nonexistent/encoder {input} {output} {qp} {k1} {k2}",
            metric_template="true",
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        with pytest.raises(BackendFailure, match="/nonexistent/encoder"):
            backend.encode(req(27, clip="c"))

    @pytest.mark.parametrize("key, template, problem", [
        ("encode_template", "true {bogus}", "unknown field {bogus}"),
        ("encode_template", "true {input.x}", "no attribute 'x'"),
        ("metric_template", "true {qp[0]}", "not subscriptable"),
        ("metric_template", "true {k1:d}", "Unknown format code 'd'"),
    ], ids=["unknown", "attribute", "item", "spec"])
    def test_field_a_template_cannot_fill_is_a_backend_failure(self, tmp_path, key, template,
                                                               problem):
        enc = tmp_path / "enc.sh"
        write_script(enc, FAKE_ENCODER.format(size=1000))
        fields = {"encode_template": f"{enc} {{input}} {{output}}", "metric_template": "true",
                  key: template}
        backend = ProcessBackend(**fields, settings={"proxy": {"preset": "6"}},
                                 clip_durations={"c": 5.0}, workdir=str(tmp_path))
        with pytest.raises(BackendFailure) as info:
            backend.encode(EncodeRequest(clip="c", qp=27, ks=KS_DEFAULT, settings="proxy"))
        message = str(info.value)
        assert message.startswith(f"backend.{key}: ")
        assert problem in message and repr(template) in message
        assert "settings profile 'proxy' gives preset, input, output" in message

    def test_stats_missing_metric_key(self, tmp_path):
        enc = tmp_path / "enc.sh"
        met = tmp_path / "met.sh"
        write_script(enc, FAKE_ENCODER.format(size=1000))
        write_script(met, FAKE_METRIC.format(payload=json.dumps({"psnr": 40.0})))
        backend = ProcessBackend(
            encode_template=f"{enc} {{input}} {{output}} {{qp}} {{k1}} {{k2}}",
            metric_template=f"{met} {{output}} {{stats}}",
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        with pytest.raises(BackendFailure, match="ms_ssim"):
            backend.encode(req(27, clip="c"))

    @pytest.mark.parametrize("payload, message", [
        (["ms_ssim"], "is not a JSON object"),
        ({"ms_ssim": None}, "'ms_ssim' is None, not a finite number"),
        ({"ms_ssim": "abc"}, "'ms_ssim' is 'abc', not a finite number"),
        ({"ms_ssim": True}, "'ms_ssim' is True, not a finite number"),
        ({"ms_ssim": "0.9"}, "'ms_ssim' is '0.9', not a finite number"),
        ({"ms_ssim": [0.9]}, r"'ms_ssim' is \[0.9\], not a finite number"),
    ])
    def test_stats_value_must_be_a_number(self, tmp_path, payload, message):
        enc = tmp_path / "enc.sh"
        met = tmp_path / "met.sh"
        write_script(enc, FAKE_ENCODER.format(size=1000))
        write_script(met, FAKE_METRIC.format(payload=json.dumps(payload)))
        backend = ProcessBackend(
            encode_template=f"{enc} {{input}} {{output}} {{qp}} {{k1}} {{k2}}",
            metric_template=f"{met} {{output}} {{stats}}",
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        with pytest.raises(BackendFailure, match=message) as info:
            backend.encode(req(27, clip="c"))
        assert ".stats.json" in str(info.value) and "ms_ssim" in str(info.value)

    def test_integer_stats_value_is_quality(self, process_backend, tmp_path):
        write_script(tmp_path / "fake_metric.sh", FAKE_METRIC.format(payload='{"ms_ssim": 18}'))
        res = process_backend.encode(req(27, clip="clip.y4m"))
        assert res.quality == 18.0 and type(res.quality) is float

    def test_no_output_file_is_failure(self, tmp_path):
        enc = tmp_path / "enc.sh"
        write_script(enc, "#!/bin/sh\nexit 0\n")
        backend = ProcessBackend(
            encode_template=f"{enc} {{input}} {{output}}",
            metric_template="true",
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        with pytest.raises(BackendFailure, match="no output"):
            backend.encode(req(27, clip="c"))

    def test_empty_output_is_a_failure_naming_the_rate(self, tmp_path):
        write_script(tmp_path / "enc.sh", FAKE_ENCODER.format(size=0))
        write_script(tmp_path / "met.sh", FAKE_METRIC.format(payload='{"ms_ssim": 18}'))
        backend = ProcessBackend(
            encode_template=f"{tmp_path / 'enc.sh'} {{input}} {{output}}",
            metric_template=f"{tmp_path / 'met.sh'} {{output}} {{stats}}",
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        [res] = backend.encode_many([req(27, clip="c")])
        assert isinstance(res, BackendFailure)
        assert str(res) == "qp 27: rate must be positive and finite, got 0.0"

    def test_nonzero_exit_is_failure(self, tmp_path):
        enc = tmp_path / "enc.sh"
        write_script(enc, "#!/bin/sh\necho boom >&2\nexit 3\n")
        backend = ProcessBackend(
            encode_template=f"{enc} {{input}} {{output}}",
            metric_template="true",
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        with pytest.raises(BackendFailure, match="exited 3"):
            backend.encode(req(27, clip="c"))

    @pytest.mark.parametrize("stderr, tail", [("", ""), ("echo boom >&2\n", ": boom")],
                             ids=["silent", "stderr"])
    def test_failure_message_ends_in_the_tools_stderr_if_any(self, tmp_path, stderr, tail):
        enc = tmp_path / "enc.sh"
        write_script(enc, f"#!/bin/sh\n{stderr}exit 7\n")
        backend = ProcessBackend(
            encode_template=f"{enc} {{input}} {{output}}",
            metric_template="true",
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        [res] = backend.encode_many([req(27, clip="c")])
        assert str(res) == f"qp 27: {enc} exited 7{tail}"

    def test_timeout_is_failure(self, tmp_path):
        write_script(tmp_path / "enc.sh", "#!/bin/sh\nexec sleep 5\n")
        backend = ProcessBackend(
            encode_template=f"{tmp_path / 'enc.sh'} {{input}} {{output}}",
            metric_template="true",
            timeout_s=0.2,
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        with pytest.raises(BackendFailure, match=r"^timed out after 0.2s: .*enc\.sh$"):
            backend.encode(req(27, clip="c"))

    @pytest.mark.parametrize("metric", ["true", "{met} {{output}} {{stats}}"],
                             ids=["missing", "not-json"])
    def test_unreadable_stats_file_is_failure(self, tmp_path, metric):
        write_script(tmp_path / "enc.sh", FAKE_ENCODER.format(size=1000))
        write_script(tmp_path / "met.sh", FAKE_METRIC.format(payload="{not json"))
        backend = ProcessBackend(
            encode_template=f"{tmp_path / 'enc.sh'} {{input}} {{output}}",
            metric_template=metric.format(met=tmp_path / "met.sh"),
            clip_durations={"c": 5.0},
            workdir=str(tmp_path),
        )
        with pytest.raises(BackendFailure, match=r"^unreadable stats file .*\.stats\.json: "):
            backend.encode(req(27, clip="c"))

    def test_unknown_settings_profile(self, process_backend):
        with pytest.raises(BackendFailure, match="profile"):
            process_backend.encode(
                EncodeRequest(clip="clip.y4m", qp=27, ks=KS_DEFAULT, settings="turbo")
            )

    def test_missing_duration(self, process_backend, tmp_path):
        with pytest.raises(BackendFailure, match="duration"):
            process_backend.encode(req(27, clip="unknown.y4m"))
        # found before the encoder runs, so no output was written
        assert not list(tmp_path.glob("*.bin"))

    @pytest.mark.parametrize("name", ["my clip.y4m", "it's.y4m", "a 'b' \"c\" $d.y4m"])
    def test_paths_reach_the_tools_as_one_argument_each(self, tmp_path, name):
        log = tmp_path / "argv.log"
        # each tool logs its argument count, then one line per argument
        record = f'#!/bin/sh\nprintf "%s\\n" "$#" "$@" >> {shlex.quote(str(log))}\n'
        enc = tmp_path / "enc.sh"
        write_script(enc, record + 'head -c 1000 /dev/zero > "$2"\n')
        met = tmp_path / "met.sh"
        write_script(met, record + 'echo \'{"ms_ssim": 18.4}\' > "$2"\n')
        workdir = tmp_path / "work dir"
        workdir.mkdir()
        clip = str(tmp_path / name)
        backend = ProcessBackend(
            encode_template=f"{enc} {{input}} {{output}} {{qp}}",
            metric_template=f"{met} {{output}} {{stats}}",
            default_duration_s=1.0,
            workdir=str(workdir),
        )
        res = backend.encode(req(27, clip=clip))
        assert res.rate == pytest.approx(8.0)
        bitstream, stats = res.artifacts["bitstream"], res.artifacts["stats"]
        assert log.read_text().splitlines() == [
            "3", clip, bitstream, "27", "2", bitstream, stats,
        ]

    def test_same_stem_clips_keep_separate_outputs(self, tmp_path):
        met = tmp_path / "met.sh"
        write_script(met, FAKE_METRIC.format(payload=json.dumps({"ms_ssim": 18.4})))
        backend = ProcessBackend(
            encode_template="cp {input} {output}",
            metric_template=f"{met} {{output}} {{stats}}",
            default_duration_s=1.0,
            workdir=str(tmp_path),
        )
        clips = []
        for name, size in (("a", 1000), ("b", 3000)):
            (tmp_path / name).mkdir()
            clip = tmp_path / name / "x.y4m"
            clip.write_bytes(b"\0" * size)
            clips.append(str(clip))
        first, second = (backend.encode(req(27, clip=c)) for c in clips)
        assert first.artifacts["bitstream"] != second.artifacts["bitstream"]
        assert os.path.getsize(first.artifacts["bitstream"]) == 1000
        assert os.path.getsize(second.artifacts["bitstream"]) == 3000
        assert first.rate == pytest.approx(8.0) and second.rate == pytest.approx(24.0)

    def test_encode_many_keeps_pool_size_encodes_in_flight(self, tmp_path):
        pool_size = 3
        # every encode waits at the barrier until pool_size of them are in
        # flight, so the batch only completes if the pool reaches pool_size
        barrier = threading.Barrier(pool_size, timeout=30)
        lock = threading.Lock()
        in_flight, peak = 0, 0

        class Counting(ProcessBackend):
            def _run(self, cmd):
                nonlocal in_flight, peak
                tool, path = cmd.split()
                if tool == "met":
                    Path(path).write_text(json.dumps({"ms_ssim": 18.4}))
                    return
                with lock:
                    in_flight += 1
                    peak = max(peak, in_flight)
                barrier.wait()
                Path(path).write_bytes(b"\0" * 1000)
                with lock:
                    in_flight -= 1

        backend = Counting(
            encode_template="enc {output}",
            metric_template="met {stats}",
            pool_size=pool_size,
            default_duration_s=1.0,
            workdir=str(tmp_path),
        )
        qps = [27, 31, 35, 39, 43, 47]
        results = backend.encode_many([req(qp, clip="c") for qp in qps])
        assert len(results) == len(qps)
        assert peak == pool_size

    def test_executor_threads_end_with_the_backend(self, tmp_path):
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"ms_ssim": 18.4}))
        backend = ProcessBackend(
            encode_template=f"cp {payload} {{output}}",
            metric_template=f"cp {payload} {{stats}}",
            default_duration_s=1.0,
            workdir=str(tmp_path),
        )
        backend.encode_many([req(qp, clip="c") for qp in (27, 39)])
        threads = list(backend._pool._threads)
        assert threads
        del backend
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()


class TestBackendFromConfig:
    def test_process_defaults_come_from_the_dataclass(self):
        backend = backend_from_config(
            {"kind": "process", "encode_template": "e", "metric_template": "m"}
        )
        assert backend == ProcessBackend(encode_template="e", metric_template="m")

    @pytest.mark.parametrize("cfg, section, key", [
        ({"kind": "synthetic", "model": {"qmaxx": 3}}, "backend.model", "qmaxx"),
        ({"kind": "synthetic", "clips": {"hero": {"k_stra": [1, 1]}}},
         "backend.clips.hero", "k_stra"),
        ({"kind": "synthetic", "modle": {}}, "backend", "modle"),
        ({"kind": "process", "encode_template": "e", "metric_template": "m",
          "pool": 2}, "backend", "pool"),
    ])
    def test_unknown_key_names_section_and_key(self, cfg, section, key):
        with pytest.raises(ValueError, match=f"^{section}: unknown key '{key}'"):
            backend_from_config(cfg)

    @pytest.mark.parametrize("key, value", [
        ("encode_template", None),
        ("settings", {"native": []}),
        ("timeout_s", float("inf")),
        ("pool_size", 0),
        ("pool_size", 2.5),
        ("stats_keys", {"ms_ssim": 3}),
        ("clip_durations", {"clip.y4m": -1.0}),
        ("default_duration_s", True),
        ("workdir", 5),
    ])
    def test_process_value_of_wrong_type_names_the_key(self, key, value):
        cfg = {"kind": "process", "encode_template": "e", "metric_template": "m", key: value}
        with pytest.raises(ValueError, match=f"^backend\\.{key}: expected "):
            backend_from_config(cfg)

    @pytest.mark.parametrize("key, template", [
        ("encode_template", "true {0}"),
        ("encode_template", "enc {input} {} {output}"),
        ("encode_template", "enc {0.real}"),
        ("metric_template", "met {[0]}"),
        ("metric_template", "met {qp:{}}"),
        ("metric_template", "met {stats"),
        ("metric_template", "met stats}"),
    ], ids=["index", "auto", "index-attribute", "auto-item", "in-spec", "open", "close"])
    def test_positional_field_or_unbalanced_brace_rejected(self, key, template):
        fields = {"encode_template": "e {input}", "metric_template": "m {stats}", key: template}
        with pytest.raises(ValueError) as info:
            ProcessBackend(**fields)
        assert str(info.value).startswith(f"{key}: ")
        assert repr(template) in str(info.value)

    def test_named_fields_and_escaped_braces_accepted(self):
        backend = ProcessBackend(encode_template="enc {input} {qp:{width}d} {k1!r} {{x}}",
                                 metric_template="met {stats} {output.real}")
        assert backend.encode_template.startswith("enc")

    def test_missing_template_is_value_error(self):
        with pytest.raises(ValueError, match="^backend: .*metric_template"):
            backend_from_config({"kind": "process", "encode_template": "e"})

    def test_list_values_become_tuples(self):
        backend = backend_from_config(
            {"kind": "synthetic", "clips": {"hero": {"k_star": [1.5, 0.5]}}}
        )
        assert backend.per_clip["hero"] == SyntheticModel(k_star=(1.5, 0.5))
