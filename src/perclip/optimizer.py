"""Search for the best per-clip lambda multipliers.

The cost of a candidate (k1, k2) is the BD-rate of the curve it produces
against the baseline curve encoded at (1, 1), so the cost at (1, 1) is
exactly zero and any negative best cost is a real improvement. Encodes are
memoized by (clip, settings, metric, qp, k1, k2) since the search revisits
points. The search is perclip.powell's quadratic-model trust region from
(1, 1); it stops once its model predicts the cost to COST_RESOLUTION, or
else once it resolves the ks to K_RESOLUTION. Each evaluation goes through
one cost closure, which takes a list of points: a stencil's axis probes
together, every other point alone. Each call's encodes that miss the cache
go to the backend as one batch, as do the baseline's. A clip's search asks
the cache for each request once and sends no request to the backend twice.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from .backends import (EncodeRequest, EncodeResult, EncoderBackend, LambdaMultipliers,
                       build_rd_curve, check_qps, curve_requests)
from .bd import bd_rate
from .curves import RdCurve, finite, read_json
from .errors import BackendFailure, NoOverlap, NonAscendingAbscissae, TooFewPoints
from .powell import powell_box_minimize

log = logging.getLogger(__name__)

DEFAULT_QPS = (27, 39, 49, 59, 63)

# Final trust-region radius on k1 and k2 for BD-rate searches. The cost is
# flat near its optimum: on the synthetic models, a step of 1e-3 in one k
# from an interior optimum moves it by 0.6e-5 to 1.4e-5 pct-points, while
# taking the rate from a whole number of bytes over an 8 s clip adds noise of
# up to 3e-5. A finer resolution only spends encodes on that noise.
K_RESOLUTION = 1e-3

# what bd_rate raises for curves it cannot compare
NOT_COMPARABLE = (NoOverlap, TooFewPoints, NonAscendingAbscissae)

# Cost resolution of BD-rate searches in pct-points: the search stops once its
# model's error at its latest point and its best gain over the box are below
# it. Byte rounding alone moves the cost by up to 3e-5, so on 40 synthetic
# interior models on an integer-lambda staircase a 3e-5 stop seldom fires
# (20.0 evaluations, 22.3 with no stop, 17.6 at 1e-4). At 3e-4 one stop came
# 0.021 above the optimum, past the 0.01 bound; 1e-4 kept it within 2.4e-4.
COST_RESOLUTION = 1e-4


@dataclass(frozen=True)
class OptimizationConfig:
    qps: tuple[int, ...] = DEFAULT_QPS
    bounds: tuple[float, float] = (0.2, 4.0)
    metric_id: str = "ms_ssim"

    def __post_init__(self) -> None:
        try:
            check_qps(self.qps)
        except ValueError as exc:
            raise ValueError(f"qps: {exc}") from None
        if not isinstance(self.metric_id, str):
            raise ValueError(f"metric_id must be a string, got {self.metric_id!r}")
        if not (isinstance(self.bounds, (tuple, list)) and len(self.bounds) == 2
                and all(map(finite, self.bounds))):
            raise ValueError(f"bounds must be a pair of finite numbers, got {self.bounds!r}")
        k_min, k_max = self.bounds
        if not 0.0 < k_min < 1.0 < k_max:
            raise ValueError(f"bounds must be positive and straddle 1.0, got {self.bounds}")


@dataclass(frozen=True)
class CostEvaluation:
    ks: LambdaMultipliers
    cost: float
    cache_hit: bool


@dataclass(frozen=True)
class OptimizationTrace:
    evaluations: tuple[CostEvaluation, ...]
    best: tuple[LambdaMultipliers, float]
    iterations: int
    encode_count: int
    batch_count: int  # backend batches the encodes went out in
    stop: str  # why the search ended: "model", "ftol" or "resolution"


class EncodeCache:
    """Thread-safe store of encode rate and quality keyed by the encode request.

    k values are rounded to 1e-6 for the key, also in rows loaded from a
    file. Persistable to JSON so a repeated run issues zero encodes; a file
    row is the key's six fields followed by rate and quality, checked on
    load by building its EncodeRequest and EncodeResult.
    """

    def __init__(self) -> None:
        self._data: dict[tuple, EncodeResult] = {}
        self._lock = threading.Lock()

    @staticmethod
    def key(request: EncodeRequest) -> tuple:
        return (request.clip, request.settings, request.metric_id, request.qp,
                round(request.ks.k1, 6), round(request.ks.k2, 6))

    def get(self, request: EncodeRequest) -> EncodeResult | None:
        with self._lock:
            return self._data.get(self.key(request))

    def put(self, request: EncodeRequest, result: EncodeResult) -> None:
        with self._lock:
            self._data[self.key(request)] = EncodeResult(result.rate, result.quality)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def save(self, path) -> None:
        """Write the rows sorted by key, so equal contents give equal bytes.

        The rows go to a temporary file that then replaces path, so a crash
        mid-save leaves the previous file intact.
        """
        with self._lock:
            rows = [[*k, v.rate, v.quality] for k, v in sorted(self._data.items())]
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w") as fh:
                # each row by the C encoder: json.dump encodes in Python, and one
                # json.dumps of all rows holds about 8x the file in small strings
                fh.write("[" + ", ".join(map(json.dumps, rows)) + "]")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def load(self, path) -> None:
        rows = read_json(path)
        if not isinstance(rows, list):
            raise ValueError(f"{path}: cache file is not a JSON list of rows")
        entries = {}
        for row in rows:
            if not isinstance(row, list) or len(row) != 8:
                raise ValueError(f"{path}: cache row {row!r} is not 8 fields (clip, settings, "
                                 "metric, qp, k1, k2, rate, quality); files from before the "
                                 "metric was keyed have 7 fields")
            clip, settings, metric_id, qp, k1, k2, rate, quality = row
            try:
                request = EncodeRequest(clip, qp, LambdaMultipliers(k1, k2), settings, metric_id)
                entries[self.key(request)] = EncodeResult(rate, quality)
            except ValueError as exc:
                raise ValueError(f"{path}: cache row {row!r} is not valid: {exc}") from None
        with self._lock:
            self._data.update(entries)


class CachingEncoder:
    """Backend wrapper that memoizes encodes and counts the real ones and
    the batches they went out in. It remembers every answer it gave,
    result or failure, so in the wrapper's life the shared cache is asked
    for each request once and no request goes to the backend twice, also
    when evaluate_cost builds a curve through it whose requests optimize_clip
    has fetched already; evaluate_cost takes a backend, not a built curve."""

    def __init__(self, backend: EncoderBackend, cache: EncodeCache | None = None):
        self.backend = backend
        self.cache = cache if cache is not None else EncodeCache()
        self.encodes_issued = 0
        self.batches_sent = 0
        self._answers: dict[tuple, EncodeResult | BackendFailure] = {}

    def encode_many(self, requests) -> list[EncodeResult | BackendFailure]:
        return self.fetch(requests)[0]

    def fetch(self, requests) -> tuple[list[EncodeResult | BackendFailure], list[bool]]:
        """encode_many's results, and per request whether it was sent.

        Requests not answered before are looked up in the cache; the rest
        go, in request order, to the wrapped backend as one batch, whose
        successes are cached."""
        keys = [EncodeCache.key(r) for r in requests]
        for key, r in zip(keys, requests):
            if key not in self._answers and (hit := self.cache.get(r)) is not None:
                self._answers[key] = hit
        misses = {k: r for k, r in zip(keys, requests) if k not in self._answers}
        if misses:
            self.encodes_issued += len(misses)
            self.batches_sent += 1
            for (key, r), res in zip(misses.items(), self.backend.encode_many([*misses.values()])):
                if not isinstance(res, BackendFailure):
                    self.cache.put(r, res)
                self._answers[key] = res
        return [self._answers[k] for k in keys], [k in misses for k in keys]


def evaluate_cost(
    backend: EncoderBackend,
    clip: str,
    ks: LambdaMultipliers,
    baseline: RdCurve,
    config: OptimizationConfig,
    settings: str = "native",
) -> float:
    """BD-rate (percent) of the candidate curve at ks against the baseline.

    Negative is an improvement. A candidate whose encode failed, or whose
    curve cannot be compared (no quality overlap, or too few points after
    cleanup), costs +inf so the surrounding search can continue.
    """
    k_min, k_max = config.bounds
    if not (k_min <= ks.k1 <= k_max and k_min <= ks.k2 <= k_max):
        raise ValueError(f"ks {ks} outside bounds {config.bounds}")
    try:
        candidate = build_rd_curve(
            backend, clip, ks, config.qps, settings=settings, metric_id=config.metric_id
        )
        return bd_rate(baseline, candidate, clean=True).value
    except (BackendFailure, *NOT_COMPARABLE) as exc:
        log.warning("cost at (%.4f, %.4f) is +inf: %s", ks.k1, ks.k2, exc)
        return math.inf


def optimize_clip(
    backend: EncoderBackend,
    clip: str,
    config: OptimizationConfig | None = None,
    proxy: str | None = None,
    cache: EncodeCache | None = None,
) -> tuple[LambdaMultipliers, OptimizationTrace]:
    """Find the best (k1, k2) for one clip under proxy settings.

    The baseline is the curve at (1, 1), where the search starts; it
    minimizes BD-rate against the baseline. The returned multipliers are
    meant to be reused for the native-settings encode. A failed candidate
    encode costs +inf rather than aborting the search; a failed baseline
    encode is fatal, and so is a baseline that bd_rate cannot compare with
    itself, whose error keeps its class and names the clip.
    """
    config = config or OptimizationConfig()
    settings = proxy if proxy is not None else "native"
    enc = CachingEncoder(backend, cache)
    baseline = build_rd_curve(
        enc, clip, LambdaMultipliers(1.0, 1.0), config.qps,
        settings=settings, metric_id=config.metric_id,
    )
    try:
        bd_rate(baseline, baseline)
    except NOT_COMPARABLE as exc:
        raise type(exc)(
            f"clip {clip!r}: baseline curve not comparable with itself ({exc})") from exc
    hits: list[bool] = []  # per evaluation, in the search's order

    def costs(xs) -> list[float]:
        """The cost at each of xs, in order; whether each is a cache hit goes
        on hits. The encodes of all of xs that miss the cache go to the
        backend first, as one batch; a point is a cache hit when none of its
        requests was sent and none of its answers is a failure."""
        n = len(config.qps)
        answers, sent = enc.fetch([r for x in xs for r in curve_requests(
            clip, LambdaMultipliers(*x), config.qps, settings, config.metric_id)])
        for i in range(0, len(answers), n):
            hits.append(not any(sent[i:i + n])
                        and not any(isinstance(a, BackendFailure) for a in answers[i:i + n]))
        return [float(evaluate_cost(enc, clip, LambdaMultipliers(*x), baseline, config,
                                    settings=settings)) for x in xs]

    k_min, k_max = config.bounds
    result = powell_box_minimize(costs, (1.0, 1.0), (k_min, k_min), (k_max, k_max),
                                 K_RESOLUTION, COST_RESOLUTION)
    best = LambdaMultipliers(*result.x)
    evaluations = tuple(CostEvaluation(LambdaMultipliers(*x), cost, hit)
                        for (x, cost), hit in zip(result.evaluations, hits, strict=True))
    return best, OptimizationTrace(evaluations=evaluations, best=(best, result.fx),
                                   iterations=result.iterations, encode_count=enc.encodes_issued,
                                   batch_count=enc.batches_sent, stop=result.stop)
