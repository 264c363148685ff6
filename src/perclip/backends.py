"""Encode backends: the abstract contract, a synthetic closed-form model,
and an external-process driver.

The synthetic model exists so the whole optimization loop can run and be
checked at desk scale: it has a built-in best multiplier pair, is exact and
deterministic, and anchors to the default encoder curve at k = (1, 1).
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
import re
import shlex
import string
import subprocess
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from .curves import RdCurve, RdPoint, build_curve, check_point, finite
from .errors import BackendFailure, NonFiniteValue


def check_qps(qps, least: int = 2) -> None:
    """The qps rule (least=1 for a request's qp): >= least distinct ints in [0, 63]."""
    for qp in qps:
        if type(qp) is not int:  # an encode cache row holds an integer qp
            raise ValueError(f"qp {qp!r} is not an integer")
        if not 0 <= qp <= 63:
            raise ValueError(f"qp {qp} outside [0, 63]")
    if len(qps) < least or len(set(qps)) != len(qps):
        raise ValueError(f"need >= {least} distinct qps, got {list(qps)}")


@dataclass(frozen=True)
class LambdaMultipliers:
    """Scalers applied to the encoder's default lambda: k1 for keyframes,
    k2 for golden/alternate-reference frames; each finite and > 0."""

    k1: float
    k2: float

    def __post_init__(self) -> None:
        if not (finite(self.k1, above=0) and finite(self.k2, above=0)):
            raise ValueError(f"multipliers must be finite and > 0, got ({self.k1}, {self.k2})")


@dataclass(frozen=True)
class EncodeRequest:
    clip: str
    qp: int
    ks: LambdaMultipliers
    settings: str = "native"
    metric_id: str = "ms_ssim"

    def __post_init__(self) -> None:
        for name in ("clip", "settings", "metric_id"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        check_qps((self.qp,), least=1)


@dataclass(frozen=True)
class EncodeResult:
    """One encode's answer; rate and quality keep check_point's rule."""

    rate: float  # kilobits per second
    quality: float
    artifacts: dict | None = None

    def __post_init__(self) -> None:
        check_point(self.rate, self.quality)


def _encode_labelled(encode, request: EncodeRequest) -> EncodeResult | BackendFailure:
    """encode(request), or the BackendFailure it raised, labelled with the qp;
    an answer that breaks the point rule is such a failure."""
    try:
        return encode(request)
    except (BackendFailure, NonFiniteValue) as exc:
        return BackendFailure(f"qp {request.qp}: {exc}")


class EncoderBackend(abc.ABC):
    """Contract: deterministic for identical requests. Batches go through
    encode_many, which by default encodes serially on the caller's thread."""

    @abc.abstractmethod
    def encode(self, request: EncodeRequest) -> EncodeResult:
        raise NotImplementedError

    def encode_many(self, requests) -> list[EncodeResult | BackendFailure]:
        """Per request, in request order, its result or its BackendFailure
        labelled with its qp, an answer that breaks the point rule included:
        a failure does not stop the batch."""
        return [_encode_labelled(self.encode, r) for r in requests]


@dataclass(frozen=True)
class SyntheticModel:
    """Closed-form rate/quality model with a known best multiplier pair.

    The bowl term g is zero at ks = (1, 1) and peaks at k_star, where the
    produced curve strictly dominates the baseline, so the resulting
    BD-rate cost is negative near k_star by construction.
    """

    r0: float = 30000.0
    alpha: float = 9.0
    qmax: float = 20.0
    beta: float = 0.18
    k_star: tuple[float, float] = (1.3, 0.8)
    gamma: float = 1.2
    w1: float = 0.4
    w2: float = 0.6

    def __post_init__(self) -> None:
        if not (isinstance(self.k_star, (tuple, list)) and len(self.k_star) == 2
                and all(finite(k, above=0) for k in self.k_star)):
            raise ValueError(f"k_star must be two positive numbers, got {self.k_star!r}")
        object.__setattr__(self, "k_star", tuple(float(k) for k in self.k_star))
        for name in ("r0", "alpha", "qmax", "beta", "gamma", "w1", "w2"):
            value = getattr(self, name)
            if not finite(value, above=0):
                raise ValueError(f"{name} must be a positive number, got {value!r}")

    def bowl(self, k1: float, k2: float) -> float:
        k1s, k2s = self.k_star
        c0 = self.w1 * (1.0 - k1s) ** 2 + self.w2 * (1.0 - k2s) ** 2
        dist = self.w1 * (k1 - k1s) ** 2 + self.w2 * (k2 - k2s) ** 2
        return self.gamma * (c0 - dist)

    def rate(self, qp: int, g: float) -> float:
        return self.r0 * 2.0 ** (-qp / self.alpha) * (1.0 + 0.02 * g)

    def quality(self, qp: int, g: float) -> float:
        return self.qmax - self.beta * qp + 0.5 * g


def synthetic_encode(model: SyntheticModel, request: EncodeRequest) -> EncodeResult:
    g = model.bowl(request.ks.k1, request.ks.k2)
    return EncodeResult(
        rate=model.rate(request.qp, g),
        quality=model.quality(request.qp, g),
    )


class SyntheticBackend(EncoderBackend):
    """Pure, exact backend over a SyntheticModel (optionally per clip)."""

    def __init__(self, model: SyntheticModel | None = None,
                 per_clip: dict[str, SyntheticModel] | None = None):
        self.model = model or SyntheticModel()
        self.per_clip = per_clip or {}

    def encode(self, request: EncodeRequest) -> EncodeResult:
        model = self.per_clip.get(request.clip, self.model)
        return synthetic_encode(model, request)


def _object_of(ok):
    return lambda value: isinstance(value, dict) and all(map(ok, value.values()))


def _positional_fields(template: str):
    """The fields of the str.format template, format specs included, named
    as {} or {0}: empty or digits up to a first . or [. A bad brace raises."""
    for _, name, spec, _ in string.Formatter().parse(template):
        if name is not None and re.match(r"\d*(?:[.[]|$)", name):
            yield name
        yield from _positional_fields(spec or "")


# ProcessBackend field: (what its value must be, the test), checked on construction
_PROCESS_FIELDS = {
    "encode_template": ("a string", lambda v: isinstance(v, str)),
    "metric_template": ("a string", lambda v: isinstance(v, str)),
    "settings": ("an object of settings profiles, each an object",
                 _object_of(lambda v: isinstance(v, dict))),
    "timeout_s": ("a positive number", lambda v: finite(v, above=0)),
    "pool_size": ("a positive integer", lambda v: type(v) is int and v > 0),
    "stats_keys": ("an object of strings", _object_of(lambda v: isinstance(v, str))),
    "clip_durations": ("an object of positive numbers", _object_of(lambda v: finite(v, above=0))),
    "default_duration_s": ("a positive number or null", lambda v: v is None or finite(v, above=0)),
    "workdir": ("a string", lambda v: isinstance(v, str)),
}


@dataclass
class ProcessBackend(EncoderBackend):
    """Drives an external encoder plus metric tool through command templates.

    encode_template placeholders: {input} {output} {qp} {k1} {k2} plus any
    keys of the selected settings profile. metric_template additionally gets
    {stats}. {input}, {output} and {stats} are shell-quoted, so a path with
    spaces or quotes stays one argument. Rate comes from the output
    container size over the clip duration; quality from the metric stats
    JSON under the metric key.
    encode_many runs up to pool_size encodes at once on the backend's executor,
    whose idle threads exit once the backend is garbage-collected. A field of
    the wrong type, or a template with a positional field ({} or {0}) or an
    unbalanced brace, is a ValueError that starts with the field's name; a
    named field that an encode cannot fill in is a BackendFailure naming it.
    """

    encode_template: str
    metric_template: str
    settings: dict[str, dict] = field(default_factory=lambda: {"native": {}})
    timeout_s: float = 600.0
    pool_size: int = 4
    stats_keys: dict[str, str] = field(default_factory=dict)
    clip_durations: dict[str, float] = field(default_factory=dict)
    default_duration_s: float | None = None
    workdir: str = "."

    def __post_init__(self) -> None:
        for name, (what, ok) in _PROCESS_FIELDS.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"{name}: expected {what}, got {getattr(self, name)!r}")
        for name in ("encode_template", "metric_template"):
            template = getattr(self, name)
            try:
                positional = list(_positional_fields(template))
            except ValueError as exc:  # an unbalanced brace
                raise ValueError(f"{name}: {exc} in {template!r}") from None
            if positional:
                raise ValueError(f"{name}: positional field {{{positional[0]}}} in "
                                 f"{template!r}; placeholders are named, as {{input}}")
        self._pool = ThreadPoolExecutor(max_workers=self.pool_size)

    def _duration(self, clip: str) -> float:
        dur = self.clip_durations.get(clip, self.default_duration_s)
        if dur is None:
            raise BackendFailure(f"no duration configured for clip {clip!r}")
        return dur

    def _run(self, cmd: str) -> None:
        argv = shlex.split(cmd)
        try:
            proc = subprocess.run(
                argv, capture_output=True, timeout=self.timeout_s, text=True
            )
        except FileNotFoundError as exc:
            raise BackendFailure(f"command not found: {argv[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise BackendFailure(f"timed out after {self.timeout_s}s: {argv[0]}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.strip()[:400]
            raise BackendFailure(f"{argv[0]} exited {proc.returncode}"
                                 + (f": {stderr}" if stderr else ""))

    def _command(self, name: str, fields: dict, settings: str) -> str:
        """The template backend.<name> filled in from fields; a field it
        cannot fill in (say {bogus}) is a BackendFailure naming the template."""
        template = getattr(self, name)
        try:
            return template.format(**fields)
        except KeyError as exc:
            problem = f"unknown field {{{exc.args[0]}}}"
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            problem = str(exc)
        raise BackendFailure(f"backend.{name}: {problem} in {template!r}; settings profile "
                             f"{settings!r} gives {', '.join(fields)}")

    def encode(self, request: EncodeRequest) -> EncodeResult:
        try:
            profile = self.settings[request.settings]
        except KeyError as exc:
            raise BackendFailure(f"unknown settings profile {request.settings!r}") from exc
        # the path hash keeps same-named clips from different directories apart
        clip_hash = hashlib.sha256(request.clip.encode()).hexdigest()[:8]
        stem = (
            f"{Path(request.clip).stem}-{clip_hash}_{request.settings}_qp{request.qp}"
            f"_k1_{request.ks.k1:.6f}_k2_{request.ks.k2:.6f}"
        )
        out = Path(self.workdir) / f"{stem}.bin"
        stats = Path(self.workdir) / f"{stem}.stats.json"
        duration = self._duration(request.clip)
        # paths are quoted so each stays one argument; profile values are
        # template text and go in as written
        fields = dict(
            profile,
            input=shlex.quote(request.clip),
            output=shlex.quote(str(out)),
            qp=request.qp,
            k1=request.ks.k1,
            k2=request.ks.k2,
            stats=shlex.quote(str(stats)),
        )
        self._run(self._command("encode_template", fields, request.settings))
        if not out.exists():
            raise BackendFailure(f"encoder produced no output at {out}")
        self._run(self._command("metric_template", fields, request.settings))
        rate = 8.0 * out.stat().st_size / duration / 1000.0
        try:
            with open(stats) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BackendFailure(f"unreadable stats file {stats}: {exc}") from exc
        key = self.stats_keys.get(request.metric_id, request.metric_id)
        if not isinstance(doc, dict):
            raise BackendFailure(f"stats file {stats} is not a JSON object with key {key!r}")
        if key not in doc:
            raise BackendFailure(f"stats file {stats} has no key {key!r}")
        quality = doc[key]
        if not finite(quality):
            raise BackendFailure(f"stats file {stats}: {key!r} is {quality!r}, not a finite number")
        return EncodeResult(rate=rate, quality=float(quality),
                            artifacts={"bitstream": str(out), "stats": str(stats)})

    def encode_many(self, requests) -> list[EncodeResult | BackendFailure]:
        """Concurrent encode_many; it returns once the whole batch is done."""
        futures = [self._pool.submit(_encode_labelled, self.encode, r) for r in requests]
        wait(futures)
        return [f.result() for f in futures]


def curve_requests(clip: str, ks: LambdaMultipliers, qps, settings: str = "native",
                   metric_id: str = "ms_ssim") -> list[EncodeRequest]:
    """The requests of the curve at ks, one per qp in order."""
    return [EncodeRequest(clip=clip, qp=qp, ks=ks, settings=settings, metric_id=metric_id)
            for qp in qps]


def build_rd_curve(backend: EncoderBackend, clip: str, ks: LambdaMultipliers,
                   qps, settings: str = "native", metric_id: str = "ms_ssim") -> RdCurve:
    """Encode the clip once per qp, as one backend.encode_many batch, and
    assemble the curve of qps (by check_qps); the batch's first failure, in
    qp order, is raised."""
    qps = list(qps)
    check_qps(qps)
    requests = curve_requests(clip, ks, qps, settings, metric_id)
    results = backend.encode_many(requests)
    for res in results:
        if isinstance(res, BackendFailure):
            raise res
    points = [RdPoint(rate=res.rate, quality=res.quality, qp=req.qp)
              for req, res in zip(requests, results)]
    return build_curve(points, metric_id)


def json_object(section, name: str) -> dict:
    """section itself if it is a JSON object (a dict); else a ValueError naming it."""
    if not isinstance(section, dict):
        raise ValueError(f"{name}: expected a JSON object, got {type(section).__name__}")
    return section


def known_keys(section, name: str, known) -> dict:
    """section itself if it is a JSON object whose keys are all in known;
    else a ValueError naming the section and the first unknown key."""
    for key in json_object(section, name):
        if key not in known:
            raise ValueError(f"{name}: unknown key {key!r}; known: {', '.join(sorted(known))}")
    return section


def from_section(cls, section: dict, name: str):
    """Build dataclass cls from the config-file section called name: lists
    become tuples, and a key that is not a field of cls is a ValueError, as
    is a section that is not a JSON object. cls's own ValueErrors start with
    the field at fault, so with name. in front they read name.field."""
    known_keys(section, name, {f.name for f in dataclasses.fields(cls)})
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in section.items()})
    except TypeError as exc:  # a required key is missing or a value has the wrong type
        raise ValueError(f"{name}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from exc


def backend_from_config(cfg: dict) -> EncoderBackend:
    """Build a backend from the parsed config file's "backend" section."""
    kind = json_object(cfg, "backend").get("kind")
    if kind == "synthetic":
        known_keys(cfg, "backend", {"kind", "model", "clips"})
        return SyntheticBackend(
            model=from_section(SyntheticModel, cfg.get("model", {}), "backend.model"),
            per_clip={
                clip: from_section(SyntheticModel, section, f"backend.clips.{clip}")
                for clip, section in json_object(cfg.get("clips", {}), "backend.clips").items()
            },
        )
    if kind == "process":
        params = {k: v for k, v in cfg.items() if k != "kind"}
        return from_section(ProcessBackend, params, "backend")
    raise ValueError(f"unknown backend kind {kind!r}")
