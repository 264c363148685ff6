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
worst = max(report.per_subject.items(), key=lambda kv: kv[1].outlier_ratio)
print(f"highest outlier ratio: {worst[0]} at {worst[1].outlier_ratio:.3f}")

# Plain per-stimulus means with Student-t 95% intervals.
mos = compute_mos(matrix)
some = list(mos.entries.items())[:4]
for pvs, entry in some:
    print(f"  {pvs:24s} mos {entry.mos:6.2f} +/- {entry.ci95:.2f} (n={entry.n})")

# Differential scores: 100 - (source - distorted).
pairing = read_pairing_csv(DATA / "pairing.csv")
dmos = compute_dmos(mos, pairing)
best = max(dmos.entries.items(), key=lambda kv: kv[1].mos)
print(f"\nhighest dmos: {best[0]} at {best[1].mos:.2f}")

# Recovery: scores = psi[stimulus] + delta[subject] + nu[subject] * noise.
model = recover_mle(matrix, method="p913")
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
mos_vals = np.array([mos[e].mos for e in matrix.stimuli])
print(f"mean |psi - mos|: {np.mean(np.abs(np.array(model.psi) - mos_vals)):.4f}")
