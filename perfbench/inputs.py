"""Seeded input generators for the perclip benchmark.

Everything here is a pure function of the seed: the same seed writes the
same bytes. perclip sees only the files written here, never the truth
values the checks compare against.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shlex
from dataclasses import dataclass
from pathlib import Path

# The search box of perclip's default optimizer config.
K_MIN, K_MAX = 0.2, 4.0

# k_star cases, in the order clips cycle through them.
INTERIOR, OUTSIDE, IDENTITY = "interior", "outside", "identity"
CASES = (INTERIOR, OUTSIDE, IDENTITY)


def synthetic_clip(rng: random.Random, case: str) -> dict:
    """SyntheticModel parameters whose best multipliers fall in one case:
    strictly inside the box, outside it (so the search must pin to a
    bound), or exactly (1, 1), where no multiplier beats the default.

    The ranges keep the search's evaluation count nearly fixed within a
    case (about 102, 124 and 51), so the work per clip does not depend on
    the seed. Wider ranges make it jump: to 127 for interior optima far
    from (1, 1), and between 100 and 125 for optima below the lower bound.
    """
    if case == INTERIOR:
        k_star = [rng.uniform(0.55, 0.85), rng.uniform(1.25, 1.8)]
        rng.shuffle(k_star)
    elif case == OUTSIDE:
        k_star = [rng.uniform(4.2, 5.0), rng.uniform(0.6, 0.85)]
        rng.shuffle(k_star)
    elif case == IDENTITY:
        k_star = [1.0, 1.0]
    else:
        raise ValueError(f"unknown k_star case {case!r}")
    return {
        "r0": round(rng.uniform(8000.0, 60000.0), 3),
        "alpha": 9.0,
        "qmax": 20.0,
        "beta": 0.18,
        "k_star": [round(k, 6) for k in k_star],
        "gamma": round(rng.uniform(0.8, 1.2), 6),
        "w1": round(rng.uniform(0.3, 0.5), 6),
        "w2": round(rng.uniform(0.5, 0.7), 6),
    }


def synthetic_clips(rng: random.Random, cases) -> dict[str, dict]:
    """One model per case, named clip000, clip001, ... (bare names:
    perclip joins the clip name into its output paths)."""
    return {f"clip{i:03d}": synthetic_clip(rng, case) for i, case in enumerate(cases)}


def clamp_k_star(params: dict) -> tuple[float, float]:
    """The best multipliers inside the box. The model's bowl is separable
    in k1 and k2, so clamping each coordinate gives the box optimum."""
    return tuple(min(max(k, K_MIN), K_MAX) for k in params["k_star"])


def write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def synthetic_config(clips: dict[str, dict]) -> dict:
    return {"backend": {"kind": "synthetic", "clips": clips}, "optimizer": {}}


STUB_DURATION_S = 8.0  # long clips keep the byte-size rounding of the rate small


def write_models_table(path: Path, clips: dict[str, dict]) -> None:
    """The clip models in the whitespace table stub_encoder.sh reads."""
    with open(path, "w") as fh:
        for name, p in clips.items():
            fields = [p["r0"], p["alpha"], p["qmax"], p["beta"], *p["k_star"],
                      p["gamma"], p["w1"], p["w2"]]
            fh.write(" ".join([name] + [repr(float(v)) for v in fields]) + "\n")


def process_config(stub: Path, models: Path, workdir: Path, latency_s: float,
                   pool_size: int) -> dict:
    """ProcessBackend config that drives stub_encoder.sh; the metric step
    only checks that the encoder wrote its stats file."""
    return {
        "backend": {
            "kind": "process",
            "encode_template": (
                "bash {stub} {models} {latency} {duration} "
                "{input} {qp} {k1} {k2} {output} {stats}"
            ),
            "metric_template": "test -s {stats}",
            "settings": {"native": {
                "stub": shlex.quote(str(stub)),
                "models": shlex.quote(str(models)),
                "latency": repr(latency_s),
                "duration": repr(STUB_DURATION_S),
            }},
            "pool_size": pool_size,
            "default_duration_s": STUB_DURATION_S,
            "workdir": str(workdir),
            "timeout_s": 60.0,
        },
        "optimizer": {},
    }


@dataclass(frozen=True)
class PanelTruth:
    outliers: frozenset[str]
    bias: dict[str, float]  # injected per-subject bias, every subject


def write_score_panel(rng: random.Random, scores_path: Path, pairing_path: Path,
                      n_src: int, n_dist: int, n_subjects: int, n_outliers: int,
                      presence: float) -> PanelTruth:
    """A subjects x stimuli opinion-score panel on the [0, 100] scale.

    Each source has n_dist distorted versions. Regular subjects score the
    true quality plus their own bias and Gaussian noise of their own
    inconsistency; outlier subjects score with a much larger, symmetric
    noise, which observer screening must catch. Each subject misses each
    stimulus with probability 1 - presence.
    """
    quality: dict[str, float] = {}
    pairing: list[tuple[str, str]] = []
    for s in range(n_src):
        src = f"src{s:03d}"
        quality[src] = rng.uniform(70.0, 90.0)
        for d in range(n_dist):
            dist = f"{src}_d{d}"
            quality[dist] = quality[src] - rng.uniform(5.0, 55.0)
            pairing.append((dist, src))
    stimuli = list(quality)

    subjects = [f"subj{i:03d}" for i in range(n_subjects)]
    outliers = frozenset(rng.sample(subjects, n_outliers))
    bias: dict[str, float] = {}
    rows: list[tuple[str, str, str]] = []
    for subj in subjects:
        if subj in outliers:
            bias[subj], nu = 0.0, 22.0
        else:
            bias[subj], nu = rng.gauss(0.0, 3.0), rng.uniform(2.0, 5.0)
        for pvs in stimuli:
            if rng.random() >= presence:
                continue
            score = quality[pvs] + bias[subj] + rng.gauss(0.0, nu)
            rows.append((subj, pvs, f"{min(max(score, 0.0), 100.0):.2f}"))

    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "pvs_id", "score"])
        writer.writerows(rows)
    with open(pairing_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dist_pvs_id", "src_pvs_id"])
        writer.writerows(pairing)
    return PanelTruth(outliers=outliers, bias=bias)


def write_metric_tables(rng: random.Random, metrics_path: Path, subjective_path: Path,
                        n_pvs: int, n_groups: int) -> list[str]:
    """n_pvs stimuli with a subjective score and n_groups x 4 objective
    metric columns. Each group has one column per increasing function
    (linear, logistic, logarithmic, power) of the true quality, with its
    own noise scale."""
    kinds = ("linear", "logistic", "log", "power")
    scales = [1.0 + 0.5 * g for g in range(n_groups)]
    names = [f"m_{kind}_{g}" for g in range(n_groups) for kind in kinds]
    with open(metrics_path, "w", newline="") as mfh, \
            open(subjective_path, "w", newline="") as sfh:
        mw = csv.writer(mfh, lineterminator="\n")
        sw = csv.writer(sfh, lineterminator="\n")
        mw.writerow(["pvs_id"] + names)
        sw.writerow(["pvs_id", "subjective"])
        for i in range(n_pvs):
            q = rng.uniform(5.0, 95.0)
            values = []
            for k in scales:
                values += [
                    0.8 * q + rng.gauss(0.0, 6.0 * k),
                    1.0 / (1.0 + math.exp(-(q - 50.0) / 12.0)) + rng.gauss(0.0, 0.04 * k),
                    math.log(q + 10.0) + rng.gauss(0.0, 0.08 * k),
                    (q / 100.0) ** 2.2 + rng.gauss(0.0, 0.045 * k),
                ]
            mw.writerow([f"pvs{i:05d}"] + [f"{v:.6f}" for v in values])
            sw.writerow([f"pvs{i:05d}", f"{q + rng.gauss(0.0, 4.0):.4f}"])
    return names
