"""Span recorder for the traced benchmark run.

perclip has no tracing of its own, so the recorder wraps the functions the
benchmark cares about at the names their callers look them up under
(module attributes and class methods) and restores them afterwards. Spans
stay in memory; the caller writes them out once the run ends.

A span's parent is the innermost open span on the same thread. The pool
threads build_rd_curve starts have no open span, so the pool class that
module uses is replaced by one that hands each submitted task the span
that was open where it was submitted.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    t0: float  # time.perf_counter() seconds
    t1: float
    info: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Recorder:
    def __init__(self) -> None:
        # list.append and next() on a count are atomic in CPython, so pool
        # threads can record without a lock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # converts perf_counter readings to seconds since the epoch
        self.epoch_offset = time.time() - time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def run_under(self, parent: int | None, fn, *args, **kwargs):
        """Call fn on this thread as if the span `parent` were open here."""
        saved = self._stack()
        self._local.stack = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def wrap(self, name: str, fn, info=None):
        """fn wrapped to record one span per call. info(args, result) may
        return a dict of facts about the call, kept on the span."""
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span = Span(next(recorder._ids), stack[-1] if stack else None, name, 0.0, 0.0)
            stack.append(span.id)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if info:
                span.info = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, fh) -> None:
        """One JSON line per span, times in seconds since the epoch."""
        for s in self.spans:
            fh.write(json.dumps({
                "id": s.id, "parent": s.parent, "name": s.name,
                "start": s.t0 + self.epoch_offset, "end": s.t1 + self.epoch_offset,
                "info": s.info, "error": s.error,
            }) + "\n")


def covered(spans, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for s in sorted(spans, key=lambda s: s.t0):
        a, b = max(s.t0, end), min(s.t1, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of the intervals its children
    cover, clipped to the span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.id: s.duration - covered(children.get(s.id, ()), s.t0, s.t1) for s in spans}


def _stub_start(recorder: Recorder):
    """Span info for ProcessBackend.encode: the wall time the encoder
    process started, which stub_encoder.sh writes into its stats file."""
    def info(args, result) -> dict:
        with open(result.artifacts["stats"]) as fh:
            return {"stub_start": json.load(fh)["t_start"] - recorder.epoch_offset}
    return info


def _cache_get(args, result) -> dict:
    return {"hit": result is not None}


def _powell(args, result) -> dict:
    return {"evals": len(result.evaluations), "iterations": result.iterations}


def _screen(args, result) -> dict:
    return {"rejected": len(result.rejected)}


def _recover(args, result) -> dict:
    return {"sweeps": result.iterations}


def _cost(args, result) -> dict:
    # args[0] is the optimizer's caching wrapper around the backend
    clip = f"{type(args[0].backend).__name__}:{args[1]}"
    ks = args[2]
    return {"clip": clip, "k": [ks.k1, ks.k2], "inf": result == float("inf")}


def _cache_save(args, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


@contextlib.contextmanager
def instrumented(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    from perclip import backends, bd, cli, correlation, curves, optimizer

    class ParentingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(recorder.run_under, recorder.current(), fn, *args, **kwargs)

    # (owner, attribute, span name, info)
    targets = [
        (cli, "cmd_optimize", "cli.optimize", None),
        (cli, "cmd_scores", "cli.scores", None),
        (cli, "cmd_correlate", "cli.correlate", None),
        (cli, "optimize_clip", "optimizer.optimize_clip", None),
        (cli, "read_scores_csv", "subjective.read_scores_csv", None),
        (cli, "build_score_matrix", "subjective.build_score_matrix", None),
        (cli, "bt500_screen", "subjective.bt500_screen", _screen),
        (cli, "compute_mos", "subjective.compute_mos", None),
        (cli, "recover_mle", "subjective.recover_mle", _recover),
        (cli, "compute_dmos", "subjective.compute_dmos", None),
        (cli, "fit_logistic5", "correlation.fit_logistic5", None),
        (optimizer, "evaluate_cost", "optimizer.evaluate_cost", _cost),
        (optimizer, "build_rd_curve", "backends.build_rd_curve", None),
        (optimizer, "bd_rate", "bd.bd_rate", None),
        (optimizer, "powell_box_minimize", "powell.powell_box_minimize", _powell),
        (bd, "pchip_fit", "curves.pchip_fit", None),
        (bd, "enforce_monotone", "curves.enforce_monotone", None),
        (backends, "build_curve", "curves.build_curve", None),
        (correlation, "powell_box_minimize", "powell.powell_box_minimize", _powell),
        (correlation, "kendall_tau_b", "correlation.kendall_tau_b", None),
        (correlation, "average_ranks", "correlation.average_ranks", None),
        (correlation, "pearson", "correlation.pearson", None),
        (backends.SyntheticBackend, "encode", "backends.synthetic_encode", None),
        (backends.ProcessBackend, "encode", "backends.encode", _stub_start(recorder)),
        (optimizer.EncodeCache, "get", "optimizer.cache.get", _cache_get),
        (optimizer.EncodeCache, "put", "optimizer.cache.put", None),
        (optimizer.EncodeCache, "save", "optimizer.cache.save", _cache_save),
        (optimizer.EncodeCache, "load", "optimizer.cache.load", None),
        (curves.PchipInterpolant, "integrate", "curves.integrate", None),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
    saved.append((backends, "ThreadPoolExecutor", backends.ThreadPoolExecutor))
    try:
        for owner, attr, name, info in targets:
            setattr(owner, attr, recorder.wrap(name, owner.__dict__[attr], info))
        backends.ThreadPoolExecutor = ParentingPool
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
