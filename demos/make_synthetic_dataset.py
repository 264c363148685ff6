"""Regenerate the shipped synthetic dataset under data/.

Everything is seeded, so rerunning this script reproduces the exact same
files. The dataset covers every CLI surface: a backend config for
`optimize`, curve files for `bd` and `report`, opinion scores with known
injected biases for `scores`, and metric tables for `correlate`.
"""

import csv
import json
from pathlib import Path

import numpy as np

from perclip import RdPoint, build_curve, write_curve_json

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
SEED = 70517

CLIPS = ("meadow", "harbor", "lanterns")
QPS = (27, 39, 49, 59)
VARIANTS = ("default", "tuned")

N_SUBJECTS = 20
N_EXPERTS = 6


def write_backend_config() -> None:
    cfg = {
        "backend": {
            "kind": "synthetic",
            "model": {},
            "clips": {
                "meadow": {"k_star": [1.3, 0.8], "qmax": 20.0},
                "harbor": {"k_star": [0.9, 1.4], "qmax": 18.0, "beta": 0.16},
                "lanterns": {"k_star": [1.1, 1.1], "qmax": 22.0, "gamma": 0.9},
            },
        },
        "optimizer": {
            "qps": [27, 39, 49, 59, 63],
            "bounds": [0.2, 4.0],
            "metric_id": "ms_ssim",
        },
    }
    with open(DATA / "backend_synthetic.json", "w") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")


def mos_curves(rng):
    """Per clip: 4 operating points on the opinion-score scale.

    The tuned variant reaches the same qualities at roughly 8% lower rate,
    so savings anchors taken from the default curve land on shared knots.
    """
    curves = {}
    for ci, clip in enumerate(CLIPS):
        top = 82.0 + 3.0 * ci
        slope = 0.95 + 0.12 * ci
        rate0 = 24000.0 * (0.8 + 0.25 * ci)
        qualities = {
            qp: float(np.clip(top - slope * (qp - 27) + rng.normal(0.0, 0.7), 0, 100))
            for qp in QPS
        }
        for variant in VARIANTS:
            points = []
            for qp in QPS:
                rate = rate0 * 2.0 ** (-(qp - 27) / 10.0)
                if variant == "tuned":
                    rate *= 0.92 * float(rng.uniform(0.99, 1.01))
                points.append(RdPoint(rate=round(rate, 3), quality=round(qualities[qp], 3),
                                      qp=qp, ci95=round(float(rng.uniform(2.0, 5.5)), 3)))
            curves[(clip, variant)] = build_curve(points, "mos")
    return curves


def write_curves(curves) -> None:
    out = DATA / "curves"
    out.mkdir(parents=True, exist_ok=True)
    for (clip, variant), curve in curves.items():
        write_curve_json(curve, out / f"{clip}__{variant}.curve.json", clip=clip, variant=variant)


def stimuli_and_truth(rng, curves):
    """Stimulus list with true qualities: one source per clip plus every
    encoded point, qualities consistent with the curve files."""
    psi = {}
    pairing = {}
    for clip in CLIPS:
        psi[f"{clip}_src"] = round(float(rng.uniform(88.0, 93.0)), 3)
        for variant in VARIANTS:
            for p in curves[(clip, variant)].points:
                pvs = f"{clip}_{variant}_qp{p.qp}"
                psi[pvs] = p.quality
                pairing[pvs] = f"{clip}_src"
    return psi, pairing


def write_scores(rng, psi, pairing) -> None:
    subjects = [f"s{i:02d}" for i in range(1, N_SUBJECTS + 1)]
    cohort = {
        s: ("expert" if i < N_EXPERTS else "nonexpert") for i, s in enumerate(subjects)
    }
    delta = rng.uniform(-5.0, 5.0, N_SUBJECTS)
    delta -= delta.mean()
    nu = rng.uniform(0.1, 0.2, N_SUBJECTS)
    stimuli = list(psi)
    rows = []
    for si, subj in enumerate(subjects):
        for pvs in stimuli:
            value = psi[pvs] + delta[si] + nu[si] * float(rng.standard_normal())
            value = float(np.clip(value, 0.0, 100.0))
            info = pvs.split("_")
            if pvs.endswith("_src"):
                clip, qp, variant, role = info[0], "", "", "src"
            else:
                clip, variant, qp = info[0], info[1], info[2][2:]
                role = "dist"
            rows.append(
                [subj, pvs, f"{value:.6f}", clip, qp, variant, role, cohort[subj]]
            )
    with open(DATA / "scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["subject_id", "pvs_id", "score", "clip", "qp", "variant", "role", "cohort"]
        )
        writer.writerows(rows)
    with open(DATA / "pairing.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dist_pvs_id", "src_pvs_id"])
        for dist, src in pairing.items():
            writer.writerow([dist, src])
    truth = {
        "delta": {s: round(float(d), 6) for s, d in zip(subjects, delta)},
        "nu": {s: round(float(v), 6) for s, v in zip(subjects, nu)},
        "psi": psi,
    }
    with open(DATA / "scores_truth.json", "w") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")


def write_metric_tables(rng, psi, pairing) -> None:
    dist_pvs = sorted(pairing)
    with open(DATA / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pvs_id", "msssim_db", "psnr_y_db", "pvqm"])
        for pvs in dist_pvs:
            q = psi[pvs]
            msssim = 3.0 + 0.22 * q + float(rng.normal(0, 0.3))
            psnr = 28.0 + 8.0 * np.log10(q / 10.0) + float(rng.normal(0, 0.4))
            pvqm = 100.0 / (1.0 + np.exp(-(q - 60.0) / 9.0)) + float(rng.normal(0, 1.0))
            writer.writerow([pvs, f"{msssim:.4f}", f"{psnr:.4f}", f"{pvqm:.4f}"])
    with open(DATA / "subjective.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pvs_id", "subjective"])
        for pvs in dist_pvs:
            writer.writerow([pvs, f"{psi[pvs]:.4f}"])


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)
    write_backend_config()
    curves = mos_curves(rng)
    write_curves(curves)
    psi, pairing = stimuli_and_truth(rng, curves)
    write_scores(rng, psi, pairing)
    write_metric_tables(rng, psi, pairing)
    print(f"dataset written under {DATA}")


if __name__ == "__main__":
    main()
