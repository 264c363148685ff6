#!/bin/bash
# Stand-in encoder for perclip's ProcessBackend.
#
# Sleeps a fixed latency, then writes a bitstream whose byte size gives the
# rate of the clip's SyntheticModel (perclip.backends) at (qp, k1, k2), and a
# stats JSON holding the model quality and the wall time at which this
# process started (t_start, seconds since the epoch), so a trace can split
# the time an encode waited before the encoder ran from the time it ran.
#
# The CPU cost stays far below the latency: bash, one sleep, one awk and one
# truncate per encode, and the bitstream is a sparse file made by truncate.
#
# usage: stub_encoder.sh MODELS LATENCY_S DURATION_S CLIP QP K1 K2 OUT STATS
# MODELS is a whitespace-separated table, one clip per line:
#   clip r0 alpha qmax beta k1_star k2_star gamma w1 w2
set -eu
export LC_ALL=C
t_start=$EPOCHREALTIME
models=$1 latency=$2 duration=$3 clip=$4 qp=$5 k1=$6 k2=$7 out=$8 stats=$9
sleep "$latency"
size=$(awk -v clip="$clip" -v qp="$qp" -v k1="$k1" -v k2="$k2" \
    -v duration="$duration" -v stats="$stats" -v t_start="$t_start" '
$1 == clip {
    r0 = $2; alpha = $3; qmax = $4; beta = $5
    k1s = $6; k2s = $7; gamma = $8; w1 = $9; w2 = $10
    c0 = w1 * (1 - k1s) ^ 2 + w2 * (1 - k2s) ^ 2
    dist = w1 * (k1 - k1s) ^ 2 + w2 * (k2 - k2s) ^ 2
    g = gamma * (c0 - dist)
    rate = r0 * 2 ^ (-qp / alpha) * (1 + 0.02 * g)
    quality = qmax - beta * qp + 0.5 * g
    printf "{\"ms_ssim\": %.17g, \"t_start\": %s}\n", quality, t_start > stats
    printf "%d\n", rate * 1000 * duration / 8 + 0.5
    found = 1
    exit
}
END { if (!found) { print "unknown clip " clip > "/dev/stderr"; exit 1 } }
' "$models")
truncate -s "$size" "$out"
