"""Tests for cost evaluation, memoization, and the per-clip search."""

import collections
import dataclasses
import json
import math
import os
import random
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclip import (
    EncodeCache,
    LambdaMultipliers,
    OptimizationConfig,
    SyntheticBackend,
    SyntheticModel,
    bd_rate,
    build_rd_curve,
    evaluate_cost,
    optimize_clip,
)
from perclip.backends import EncodeRequest, EncodeResult
from perclip.errors import BackendFailure, PerclipError
from perclip.optimizer import COST_RESOLUTION, K_RESOLUTION, CachingEncoder
from perclip.powell import powell_box_minimize

QPS = (27, 39, 49, 59, 63)


class ByteRounded(SyntheticBackend):
    """Rate from a whole number of bytes over an 8 s clip, as a real
    encoder's output size gives it."""

    duration_s = 8.0

    def encode(self, request):
        res = super().encode(request)
        size = int(res.rate * 1000.0 * self.duration_s / 8.0 + 0.5)
        return EncodeResult(rate=8.0 * size / self.duration_s / 1000.0, quality=res.quality)


class Staircase(ByteRounded):
    """A real encoder's flat-stepped cost: it scales an integer Lagrangian
    multiplier, so k snaps to multiples of 1/base, the base growing with qp
    as the multiplier does, and the rate is byte-rounded."""

    bases = {27: 24, 39: 48, 49: 96, 59: 192, 63: 384}

    def encode(self, request):
        base = self.bases[request.qp]
        ks = LambdaMultipliers(round(request.ks.k1 * base) / base, round(request.ks.k2 * base) / base)
        return super().encode(dataclasses.replace(request, ks=ks))


def seeded_models(seed: int, count: int) -> list[SyntheticModel]:
    """count models with k_star strictly inside the default box and count
    with one k beyond its upper bound, both ks in shuffled order."""
    rng = random.Random(seed)
    models = []
    for ranges in [((0.55, 0.85), (1.25, 1.8))] * count + [((4.2, 5.0), (0.6, 0.85))] * count:
        k_star = [rng.uniform(*r) for r in ranges]
        rng.shuffle(k_star)
        models.append(SyntheticModel(r0=rng.uniform(8000.0, 60000.0), k_star=tuple(k_star),
                                     gamma=rng.uniform(0.8, 1.2), w1=rng.uniform(0.3, 0.5),
                                     w2=rng.uniform(0.5, 0.7)))
    return models


class FailsOneQp(SyntheticBackend):
    """Counts its encodes and keeps the cache keys of their requests; qp
    bad_qp fails whenever k1 > 1.2, by raising a BackendFailure or, given
    bad, by answering with bad's fields in place of its own."""

    def __init__(self, bad_qp, bad=None):
        super().__init__()
        self.bad_qp, self.bad = bad_qp, bad
        self.calls = 0
        self.keys = set()

    def encode(self, request):
        self.calls += 1
        self.keys.add(EncodeCache.key(request))
        res = super().encode(request)
        if request.qp == self.bad_qp and request.ks.k1 > 1.2:
            if self.bad is None:
                raise BackendFailure("simulated crash")
            return dataclasses.replace(res, **self.bad)
        return res


@pytest.fixture
def backend():
    return SyntheticBackend()


@pytest.fixture
def baseline(backend):
    return build_rd_curve(backend, "clip", LambdaMultipliers(1.0, 1.0), QPS)


class TestEvaluateCost:
    def test_identity_cost_is_exactly_zero(self, backend, baseline):
        cache = EncodeCache()
        enc = CachingEncoder(backend, cache)
        config = OptimizationConfig()
        base = build_rd_curve(enc, "clip", LambdaMultipliers(1.0, 1.0), QPS)
        cost = evaluate_cost(enc, "clip", LambdaMultipliers(1.0, 1.0), base, config)
        assert cost == 0.0
        # the second pass reused every encode
        assert enc.encodes_issued == len(QPS)

    def test_optimum_has_negative_cost(self, backend, baseline):
        config = OptimizationConfig()
        model = SyntheticModel()
        cost = evaluate_cost(
            backend, "clip", LambdaMultipliers(*model.k_star), baseline, config
        )
        assert cost < 0

    def test_out_of_bounds_rejected(self, backend, baseline):
        config = OptimizationConfig()
        with pytest.raises(ValueError):
            evaluate_cost(backend, "clip", LambdaMultipliers(5.0, 1.0), baseline, config)

    def test_no_overlap_maps_to_inf(self, baseline):
        class Disjoint(SyntheticBackend):
            def encode(self, request):
                res = super().encode(request)
                # push candidate qualities far above the baseline range
                return type(res)(rate=res.rate, quality=res.quality + 1000.0)

        config = OptimizationConfig()
        cost = evaluate_cost(
            Disjoint(), "clip", LambdaMultipliers(1.0, 1.0), baseline, config
        )
        assert math.isinf(cost) and cost > 0

    @pytest.mark.parametrize("bad", [None, {"rate": 0.0}], ids=["raised", "rate-0"])
    def test_failed_encode_maps_to_inf(self, baseline, bad):
        # a BackendFailure used to escape evaluate_cost for the caller to map
        cost = evaluate_cost(FailsOneQp(49, bad), "clip", LambdaMultipliers(1.25, 1.0),
                             baseline, OptimizationConfig())
        assert math.isinf(cost) and cost > 0


class TestEncodeCache:
    def test_round_trip(self, tmp_path, backend):
        cache = EncodeCache()
        enc = CachingEncoder(backend, cache)
        request = EncodeRequest(clip="c", qp=27, ks=LambdaMultipliers(1.0, 1.0))
        first = enc.encode_many([request])[0]
        path = tmp_path / "cache.json"
        cache.save(path)
        fresh = EncodeCache()
        fresh.load(path)
        hit = fresh.get(request)
        assert hit is not None
        assert hit.rate == first.rate and hit.quality == first.quality
        # the store keeps rate and quality only, whatever else a result carries
        other = EncodeRequest(clip="c", qp=39, ks=LambdaMultipliers(1.0, 1.0))
        cache.put(other, EncodeResult(5.0, 0.9, artifacts={"bitstream": "c.bin"}))
        assert cache.get(other) == EncodeResult(5.0, 0.9)

    @pytest.mark.parametrize("qps", [(), (27,), (27, 39, 51)])
    def test_save_writes_what_json_dump_writes(self, tmp_path, backend, qps):
        cache = EncodeCache()
        for qp in qps:
            request = EncodeRequest(clip="c", qp=qp, ks=LambdaMultipliers(1.1, 0.9))
            cache.put(request, backend.encode(request))
        cache.save(tmp_path / "cache.json")
        rows = [[*k, v.rate, v.quality] for k, v in sorted(cache._data.items())]
        with open(tmp_path / "dumped.json", "w") as fh:
            json.dump(rows, fh)
        assert (tmp_path / "cache.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()

    def test_key_rounds_multipliers(self):
        a = EncodeRequest(clip="c", qp=27, ks=LambdaMultipliers(1.0000000001, 1.0))
        b = EncodeRequest(clip="c", qp=27, ks=LambdaMultipliers(1.0, 1.0))
        assert EncodeCache.key(a) == EncodeCache.key(b)

    def test_distinct_settings_distinct_keys(self):
        a = EncodeRequest(clip="c", qp=27, ks=LambdaMultipliers(1.0, 1.0), settings="proxy")
        b = EncodeRequest(clip="c", qp=27, ks=LambdaMultipliers(1.0, 1.0), settings="native")
        assert EncodeCache.key(a) != EncodeCache.key(b)

    def test_metric_is_part_of_the_key(self, tmp_path, backend):
        ks = LambdaMultipliers(1.0, 1.0)
        psnr = EncodeRequest(clip="c", qp=27, ks=ks, metric_id="psnr")
        ms_ssim = EncodeRequest(clip="c", qp=27, ks=ks, metric_id="ms_ssim")
        cache = EncodeCache()
        cache.put(psnr, backend.encode(psnr))
        assert cache.get(ms_ssim) is None
        path = tmp_path / "cache.json"
        cache.save(path)
        fresh = EncodeCache()
        fresh.load(path)
        assert fresh.get(psnr) is not None
        assert fresh.get(ms_ssim) is None

    def test_rows_without_metric_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps([["c", "native", 27, 1.0, 1.0, 100.0, 18.0]]))
        with pytest.raises(ValueError, match="7 fields"):
            EncodeCache().load(path)

    @pytest.mark.parametrize("row", [
        [7, "native", "ms_ssim", 27, 1.0, 1.0, 100.0, 18.0],
        ["c", None, "ms_ssim", 27, 1.0, 1.0, 100.0, 18.0],
        ["c", "native", 3, 27, 1.0, 1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", 27.5, 1.0, 1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", "27", 1.0, 1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", True, 1.0, 1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", -1, 1.0, 1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", 64, 1.0, 1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", 27, 0.0, 1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", 27, 1.0, -1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", 27, math.inf, 1.0, 100.0, 18.0],
        ["c", "native", "ms_ssim", 27, 1.0, 1.0, -1.0, math.inf],
        ["c", "native", "ms_ssim", 27, 1.0, 1.0, 0.0, 18.0],
        ["c", "native", "ms_ssim", 27, 1.0, 1.0, math.nan, 18.0],
        ["c", "native", "ms_ssim", 27, 1.0, 1.0, "NaN", -5],
        ["c", "native", "ms_ssim", 27, 1.0, 1.0, 100.0, math.nan],
        ["c", "native", "ms_ssim", 27, 1.0, 1.0, 100.0, None],
        ["c", "native", "ms_ssim", 27, 1.0, 1.0, 10**400, 18.0],
    ])
    def test_invalid_rows_rejected(self, tmp_path, row):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([["c", "native", "ms_ssim", 39, 1.0, 1.0, 80.0, 16.0], row]))
        cache = EncodeCache()
        with pytest.raises(ValueError, match="cache row") as info:
            cache.load(path)
        assert repr(row) in str(info.value)
        assert len(cache) == 0

    @pytest.mark.parametrize("doc", [3, None, "rows", {"a": [1]}])
    def test_top_level_not_a_list_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="not a JSON list") as info:
            EncodeCache().load(path)
        assert str(path) in str(info.value)

    def test_loaded_row_is_found_under_the_rounded_key(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps([["c", "native", "ms_ssim", 27, 1.0000004, 1.0, 100.0, 18.0]]))
        cache = EncodeCache()
        cache.load(path)
        for ks in (LambdaMultipliers(1.0000004, 1.0), LambdaMultipliers(1.0, 1.0)):
            assert cache.get(EncodeRequest(clip="c", qp=27, ks=ks)) == EncodeResult(100.0, 18.0)

    def test_saved_file_loads_to_the_same_entries(self, tmp_path, backend):
        cache = EncodeCache()
        for k in (0.2, 1.0000004, 1.23456789, 3.9999996):
            request = EncodeRequest(clip="c", qp=27, ks=LambdaMultipliers(k, 1.0 / k))
            cache.put(request, backend.encode(request))
        cache.save(tmp_path / "first.json")
        fresh = EncodeCache()
        fresh.load(tmp_path / "first.json")
        fresh.save(tmp_path / "second.json")
        assert len(fresh) == len(cache)
        assert (tmp_path / "second.json").read_bytes() == (tmp_path / "first.json").read_bytes()

    def test_valid_edge_rows_load(self, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps([
            ["c", "native", "ms_ssim", 0, 0.2, 4, 1e-3, -7.5],
            ["c", "native", "ms_ssim", 63, 1.0, 1.0, 100.0, 0.0],
        ]))
        cache = EncodeCache()
        cache.load(path)
        assert len(cache) == 2

    def test_saved_file_independent_of_insertion_order(self, tmp_path, backend):
        requests = [
            EncodeRequest(clip=clip, qp=qp, ks=LambdaMultipliers(k, 1.0))
            for clip in ("b", "a") for qp in (39, 27) for k in (1.5, 0.5)
        ]
        forward, backward = EncodeCache(), EncodeCache()
        for r in requests:
            forward.put(r, backend.encode(r))
        for r in reversed(requests):
            backward.put(r, backend.encode(r))
        forward.save(tmp_path / "forward.json")
        backward.save(tmp_path / "backward.json")
        assert (tmp_path / "forward.json").read_bytes() == (tmp_path / "backward.json").read_bytes()

    def test_failed_save_keeps_previous_file(self, tmp_path, backend, monkeypatch):
        request = EncodeRequest(clip="c", qp=27, ks=LambdaMultipliers(1.0, 1.0))
        cache = EncodeCache()
        cache.put(request, backend.encode(request))
        path = tmp_path / "cache.json"
        cache.save(path)
        before = path.read_bytes()
        other = EncodeRequest(clip="c", qp=39, ks=LambdaMultipliers(1.0, 1.0))
        cache.put(other, backend.encode(other))

        def crash(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", crash)  # after the rows are written to the temp file
        with pytest.raises(OSError, match="disk full"):
            cache.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


class TestCachingEncoder:
    class Recording(SyntheticBackend):
        def __init__(self):
            super().__init__()
            self.batches = []

        def encode_many(self, requests):
            self.batches.append([r.qp for r in requests])
            return super().encode_many(requests)

    def test_only_misses_go_to_the_backend_in_request_order(self):
        inner = self.Recording()
        cache = EncodeCache()
        ks = LambdaMultipliers(1.2, 0.9)
        for qp in (39, 59):
            request = EncodeRequest(clip="c", qp=qp, ks=ks)
            cache.put(request, inner.encode(request))
        enc = CachingEncoder(inner, cache)
        curve = build_rd_curve(enc, "c", ks, QPS)
        assert inner.batches == [[27, 49, 63]]
        assert enc.encodes_issued == 3
        assert curve == build_rd_curve(SyntheticBackend(), "c", ks, QPS)

    def test_failed_batch_caches_its_successes_and_sends_no_request_twice(self):
        class Fails49(self.Recording):
            def encode(self, request):
                if request.qp == 49:
                    raise BackendFailure("synthetic fault")
                return super().encode(request)

        inner, cache = Fails49(), EncodeCache()
        enc = CachingEncoder(inner, cache)
        for _ in range(2):
            with pytest.raises(BackendFailure, match="qp 49: synthetic fault"):
                build_rd_curve(enc, "c", LambdaMultipliers(1.2, 0.9), QPS)
        assert inner.batches == [list(QPS)]
        assert len(cache) == len(QPS) - 1
        assert (enc.encodes_issued, enc.batches_sent) == (len(QPS), 1)

    def test_repeated_curve_sends_nothing(self):
        inner = self.Recording()
        enc = CachingEncoder(inner)
        first = build_rd_curve(enc, "c", LambdaMultipliers(1.0, 1.0), QPS)
        second = build_rd_curve(enc, "c", LambdaMultipliers(1.0, 1.0), QPS)
        assert inner.batches == [list(QPS)]
        assert second == first
        assert enc.encodes_issued == len(QPS)


class RecordsBatches(SyntheticBackend):
    """Keeps each batch it is sent as a list of (qp, k1, k2)."""

    def __init__(self, model=None):
        super().__init__(model)
        self.batches = []

    def encode_many(self, requests):
        self.batches.append([(r.qp, r.ks.k1, r.ks.k2) for r in requests])
        return super().encode_many(requests)


# the first stencil's axis probes from (1, 1), in the order the search takes them
AXIS_PROBES = ((1.25, 1.0), (0.75, 1.0), (1.0, 1.25), (1.0, 0.75))


class TestOptimizeClip:
    def test_first_stencil_is_one_batch(self):
        backend = RecordsBatches()
        _, trace = optimize_clip(backend, "clip")
        baseline, probes, *rest = backend.batches
        assert baseline == [(qp, 1.0, 1.0) for qp in QPS]
        assert probes == [(qp, *ks) for ks in AXIS_PROBES for qp in QPS]
        assert [len(batch) for batch in rest] == [len(QPS)] * len(rest)
        # the start point is the baseline's cache hit; every other point past
        # the probes is a batch of its own
        assert trace.batch_count == len(backend.batches) == len(trace.evaluations) - 3
        assert trace.encode_count == sum(map(len, backend.batches))
        assert [(e.ks.k1, e.ks.k2) for e in trace.evaluations[1:5]] == list(AXIS_PROBES)

    def test_cache_hit_marks_the_points_that_issued_no_encode(self):
        cache, backend = EncodeCache(), RecordsBatches()
        for qp in QPS:  # the curve of the second probe is cached beforehand
            request = EncodeRequest(clip="clip", qp=qp, ks=LambdaMultipliers(*AXIS_PROBES[1]))
            cache.put(request, backend.encode(request))
        _, trace = optimize_clip(backend, "clip", cache=cache)
        assert [e.cache_hit for e in trace.evaluations[:5]] == [True, False, True, False, False]
        assert len(backend.batches[1]) == 3 * len(QPS)
        assert not any(e.cache_hit for e in trace.evaluations[5:])
        _, again = optimize_clip(backend, "clip", cache=cache)
        assert all(e.cache_hit for e in again.evaluations)
        assert (again.encode_count, again.batch_count) == (0, 0)

    @pytest.mark.parametrize("bad_qp", [None, 63], ids=["ok", "fail"])
    def test_search_asks_the_shared_cache_for_each_request_once(self, bad_qp):
        class CountsGets(EncodeCache):
            def __init__(self):
                super().__init__()
                self.gets = collections.Counter()

            def get(self, request):
                self.gets[self.key(request)] += 1
                return super().get(request)

        cache = CountsGets()
        backend = SyntheticBackend() if bad_qp is None else FailsOneQp(bad_qp)
        for _ in range(2):  # cold, then on the filled cache
            cache.gets.clear()
            optimize_clip(backend, "clip", cache=cache)
            assert cache.gets and max(cache.gets.values()) == 1
            # a failed request is asked for once in each run and never cached
            # (the cache key is clip, settings, metric, qp, k1, k2)
            failed = [key for key in cache.gets if key[3] == bad_qp and key[4] > 1.2]
            assert len(cache.gets) == len(cache) + len(failed)
            assert bool(failed) == (bad_qp is not None)

    def test_synthetic_encodes_run_on_the_calling_thread(self):
        threads = set()

        class Recording(SyntheticBackend):
            def encode(self, request):
                threads.add(threading.get_ident())
                return super().encode(request)

        _, trace = optimize_clip(Recording(), "clip")
        assert trace.encode_count > 0
        assert threads == {threading.get_ident()}

    def test_converges_to_model_optimum(self, backend):
        ks, trace = optimize_clip(backend, "clip")
        model = SyntheticModel()
        assert abs(ks.k1 - model.k_star[0]) < 0.05
        assert abs(ks.k2 - model.k_star[1]) < 0.05
        assert trace.best[1] < 0
        assert trace.evaluations[0].cost == 0.0  # start point is the baseline
        assert len(trace.evaluations) <= 45

    def test_optimum_beyond_box_reaches_clamped_cost(self):
        backend = SyntheticBackend(SyntheticModel(k_star=(4.5, 0.7)))
        config = OptimizationConfig()
        baseline = build_rd_curve(backend, "clip", LambdaMultipliers(1.0, 1.0), config.qps)
        clamped = evaluate_cost(backend, "clip", LambdaMultipliers(4.0, 0.7), baseline, config)
        _, trace = optimize_clip(backend, "clip", config)
        assert abs(trace.best[1] - clamped) <= 0.01  # BD-rate pct-points
        assert len(trace.evaluations) <= 40
        assert trace.encode_count <= 180

    def test_optimum_beyond_box_lands_on_the_bound(self):
        backend = SyntheticBackend(SyntheticModel(k_star=(4.5, 0.7)))
        ks, _ = optimize_clip(backend, "clip")
        assert ks.k1 == 4.0

    def test_confirming_iteration_probes_each_direction_at_most_twice(self, backend, baseline):
        config = OptimizationConfig()

        def costs(xs):
            return [evaluate_cost(backend, "clip", LambdaMultipliers(*map(float, x)), baseline,
                                  config) for x in xs]

        fine, coarse = (powell_box_minimize(costs, (1.0, 1.0), (0.2, 0.2), (4.0, 4.0), xtol)
                        for xtol in (K_RESOLUTION, 2 * K_RESOLUTION))
        assert fine.iterations > coarse.iterations
        # the run that stops one resolution earlier is the same run up to there
        assert fine.evaluations[: len(coarse.evaluations)] == coarse.evaluations
        assert len(fine.evaluations) - len(coarse.evaluations) <= 2 * 2

    def test_validated_model_ends_the_same_search_earlier(self, backend, baseline):
        config = OptimizationConfig()

        def costs(xs):
            return [evaluate_cost(backend, "clip", LambdaMultipliers(*map(float, x)), baseline,
                                  config) for x in xs]

        full, early = (powell_box_minimize(costs, (1.0, 1.0), (0.2, 0.2), (4.0, 4.0),
                                           K_RESOLUTION, resolution)
                       for resolution in (0.0, COST_RESOLUTION))
        assert (full.stop, early.stop) == ("resolution", "model")
        assert len(early.evaluations) < len(full.evaluations)
        assert early.evaluations == full.evaluations[: len(early.evaluations)]
        assert early.fx - full.fx <= COST_RESOLUTION

    def test_byte_rounded_rate_spends_few_encodes(self):
        # the cold ProcessBackend clip of the benchmark's tune workload, seed 1
        model = SyntheticModel(r0=56317.749, k_star=(0.829938, 1.428032),
                               gamma=0.858817, w1=0.341133, w2=0.546877)
        backend = ByteRounded(model)
        config = OptimizationConfig()
        baseline = build_rd_curve(backend, "clip", LambdaMultipliers(1.0, 1.0), config.qps)
        optimum = evaluate_cost(backend, "clip", LambdaMultipliers(*model.k_star),
                                baseline, config)
        _, trace = optimize_clip(backend, "clip", config)
        assert trace.encode_count <= 55
        assert abs(trace.best[1] - optimum) <= 0.01  # BD-rate pct-points

    def test_staircase_cost_stays_within_the_gap_bound(self):
        config = OptimizationConfig()
        evaluations = []
        for model in seeded_models(seed=3, count=10):
            backend = Staircase(model)
            baseline = build_rd_curve(backend, "clip", LambdaMultipliers(1.0, 1.0), config.qps)
            clamped = LambdaMultipliers(*(min(max(k, 0.2), 4.0) for k in model.k_star))
            optimum = evaluate_cost(backend, "clip", clamped, baseline, config)
            _, trace = optimize_clip(backend, "clip", config)
            assert trace.best[1] - optimum <= 0.01, model  # BD-rate pct-points
            evaluations.append(len(trace.evaluations))
        # 29 and 392 on this set; without the validated stop it takes 453
        assert max(evaluations) <= 30
        assert sum(evaluations) <= 400

    def test_optimum_on_the_edge_of_comparable_curves(self):
        # the cost falls toward the edge of the region where the candidate's
        # qualities overlap the baseline's and is +inf beyond it
        backend = SyntheticBackend(SyntheticModel(k_star=(5.61, 3.32), gamma=1.24,
                                                  w1=0.66, w2=0.21))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = optimize_clip(backend, "clip")
        assert abs(trace.best[1] - -92.128) <= 0.01  # BD-rate pct-points
        assert sum(math.isinf(e.cost) for e in trace.evaluations) < 27

    def test_baseline_already_optimal(self):
        backend = SyntheticBackend(SyntheticModel(k_star=(1.0, 1.0)))
        ks, trace = optimize_clip(backend, "clip")
        assert abs(ks.k1 - 1.0) < 1e-3
        assert abs(ks.k2 - 1.0) < 1e-3
        assert trace.best[1] == pytest.approx(0.0, abs=1e-9)
        assert len(trace.evaluations) <= 7
        assert trace.encode_count <= 35
        assert trace.stop == "model"

    def test_persistent_cache_second_run_issues_no_encodes(self, backend):
        cache = EncodeCache()
        ks1, trace1 = optimize_clip(backend, "clip", cache=cache)
        assert trace1.encode_count > 0
        ks2, trace2 = optimize_clip(backend, "clip", cache=cache)
        assert trace2.encode_count == 0
        assert ks2 == ks1
        assert all(e.cache_hit for e in trace2.evaluations)

    def test_encode_count_bounded_by_evaluations(self, backend):
        _, trace = optimize_clip(backend, "clip")
        assert trace.encode_count <= len(trace.evaluations) * len(QPS)

    def test_best_is_min_of_evaluations(self, backend):
        _, trace = optimize_clip(backend, "clip")
        assert trace.best[1] == min(e.cost for e in trace.evaluations)

    def test_proxy_settings_key_cache_separately(self, backend):
        cache = EncodeCache()
        optimize_clip(backend, "clip", proxy="proxy", cache=cache)
        _, trace = optimize_clip(backend, "clip", cache=cache)  # native settings
        assert trace.encode_count > 0

    def test_failed_candidate_becomes_inf_not_fatal(self):
        class FlakyAtHighK(SyntheticBackend):
            def encode(self, request):
                if request.ks.k1 > 3.0:
                    raise BackendFailure("simulated crash")
                return super().encode(request)

        ks, trace = optimize_clip(FlakyAtHighK(), "clip")
        assert math.isfinite(trace.best[1])
        assert any(math.isinf(e.cost) for e in trace.evaluations) or ks.k1 <= 3.0

    def test_failed_batch_counts_its_encodes(self):
        backend = FailsOneQp(63)  # the last qp of each batch
        _, trace = optimize_clip(backend, "clip")
        failed = [e for e in trace.evaluations if math.isinf(e.cost)]
        assert failed
        assert not any(e.cache_hit for e in failed)
        assert trace.encode_count == backend.calls

    def test_batch_failing_at_its_first_qp_still_encodes_the_rest(self):
        # the serial encode_many attempts every request before it raises,
        # as ProcessBackend does, so every miss counted as issued was run
        backend = FailsOneQp(27)
        _, trace = optimize_clip(backend, "clip")
        assert any(math.isinf(e.cost) for e in trace.evaluations)
        assert trace.encode_count == backend.calls

    def test_failed_probe_costs_only_its_own_point(self):
        self.assert_probe_failure_costs_only_its_own_point(FailsOneQp(63))

    @pytest.mark.parametrize("bad", [{"rate": 0.0}, {"quality": math.nan}],
                             ids=["rate-0", "quality-nan"])
    def test_answer_breaking_the_point_rule_costs_only_its_own_point(self, bad):
        # such an answer used to be cached, then end the search as a
        # NonFiniteValue when build_rd_curve made a point of it
        self.assert_probe_failure_costs_only_its_own_point(FailsOneQp(63, bad))

    @staticmethod
    def assert_probe_failure_costs_only_its_own_point(backend):
        """The probe (1.25, 1), failing at qp 63, costs +inf and is no cache
        hit; its qp-63 request is neither cached nor sent again."""
        cache = EncodeCache()
        _, trace = optimize_clip(backend, "clip", cache=cache)
        probes = trace.evaluations[1:5]
        assert [(e.ks.k1, e.ks.k2) for e in probes] == list(AXIS_PROBES)
        assert [math.isinf(e.cost) for e in probes] == [True, False, False, False]
        assert not any(e.cache_hit for e in probes)
        assert not any(e.cache_hit for e in trace.evaluations if math.isinf(e.cost))
        failed = LambdaMultipliers(*AXIS_PROBES[0])
        assert [cache.get(EncodeRequest(clip="clip", qp=qp, ks=failed)) is not None
                for qp in QPS] == [True] * (len(QPS) - 1) + [False]
        # the search comes back within the cache key's rounding of a failed
        # request; the failure is remembered, not sent again
        assert backend.calls == len(backend.keys) == trace.encode_count

    def test_baseline_not_comparable_with_itself_is_fatal(self):
        class Flat(SyntheticBackend):
            """Every encode has the same quality, so no curve has a quality
            interval to integrate over."""

            encodes = 0

            def encode(self, request):
                self.encodes += 1
                return EncodeResult(rate=super().encode(request).rate, quality=5.0)

        baseline = build_rd_curve(Flat(), "meadow", LambdaMultipliers(1.0, 1.0), QPS)
        with pytest.raises(PerclipError) as expected:
            bd_rate(baseline, baseline)
        backend = Flat()
        with pytest.raises(PerclipError, match="meadow") as raised:
            optimize_clip(backend, "meadow")
        assert type(raised.value) is type(expected.value)
        assert backend.encodes == len(QPS)

    def test_broken_baseline_is_fatal(self):
        class Broken(SyntheticBackend):
            def encode(self, request):
                raise BackendFailure("no encoder")

        with pytest.raises(BackendFailure):
            optimize_clip(Broken(), "clip")


class TestOptimizeClipProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        k_star=st.tuples(st.floats(0.1, 6.0), st.floats(0.1, 6.0)),
        lo=st.floats(0.1, 0.9),
        hi=st.floats(1.1, 5.0),
    )
    def test_stays_in_box_never_worse_than_start_and_repeats(self, k_star, lo, hi):
        config = OptimizationConfig(bounds=(lo, hi))
        backend = SyntheticBackend(SyntheticModel(k_star=k_star))
        _, trace = optimize_clip(backend, "clip", config)
        for e in trace.evaluations:
            assert lo <= e.ks.k1 <= hi and lo <= e.ks.k2 <= hi
        start = trace.evaluations[0]
        assert (start.ks, start.cost) == (LambdaMultipliers(1.0, 1.0), 0.0)
        assert trace.best[1] <= 0.0
        assert optimize_clip(backend, "clip", config)[1] == trace
