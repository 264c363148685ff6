"""Run the full opinion-score pipeline on the shipped dataset.

Screening first (on raw scores), then plain MOS with confidence
intervals, differential scores against each clip's source, and finally
the maximum-likelihood recovery of per-subject bias and inconsistency.
The dataset ships with the injected biases, so recovery can be checked.
"""

import json
from pathlib import Path

import numpy as np

from perclip import (
    bt500_screen,
    build_score_matrix,
    compute_dmos,
    compute_mos,
    read_pairing_csv,
    read_scores_csv,
    recover_mle,
)

DATA = Path(__file__).resolve().parent.parent / "data"

table = read_scores_csv(DATA / "scores.csv")
matrix = build_score_matrix(table)
print(f"{len(matrix.subjects)} subjects x {len(matrix.stimuli)} stimuli")

# Observer screening: count scores far outside each stimulus consensus.
report = bt500_screen(matrix)
print(f"screening rejected: {report.rejected or 'none'}")
worst = int(np.argmax(report.outlier_ratio))
print(f"highest outlier ratio: {report.subjects[worst]} at {report.outlier_ratio[worst]:.3f}")

# Plain per-stimulus means with Student-t 95% intervals.
mos = compute_mos(matrix)
for pvs, m, ci, n in list(zip(mos.stimuli, mos.mos, mos.ci95, mos.n))[:4]:
    print(f"  {pvs:24s} mos {m:6.2f} +/- {ci:.2f} (n={n})")

# Differential scores: 100 - (source - distorted).
pairing = read_pairing_csv(DATA / "pairing.csv")
dmos = compute_dmos(mos, pairing)
best = int(np.argmax(dmos.mos))
print(f"\nhighest dmos: {dmos.stimuli[best]} at {dmos.mos[best]:.2f}")

# Recovery: scores = psi[stimulus] + delta[subject] + nu[subject] * noise.
model = recover_mle(matrix)
print(f"\nrecovery converged after {model.iterations} sweeps, "
      f"log-likelihood {model.loglik:.1f}")
truth = json.loads((DATA / "scores_truth.json").read_text())
delta_err = [
    abs(d - truth["delta"][s]) for s, d in zip(model.subjects, model.delta)
]
print(f"max bias-recovery error: {max(delta_err):.4f} score units")
psi_err = [abs(p - truth["psi"][e]) for e, p in zip(model.stimuli, model.psi)]
print(f"max quality-recovery error: {max(psi_err):.4f} score units")

# Recovered psi should track plain MOS but with subject bias removed.
print(f"mean |psi - mos|: {np.mean(np.abs(np.array(model.psi) - mos.mos)):.4f}")
