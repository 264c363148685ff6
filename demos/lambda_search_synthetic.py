"""Search the two lambda multipliers on the synthetic backend.

The synthetic model has a built-in best pair at (1.3, 0.8). The search
minimizes the BD-rate of each candidate curve against the baseline encoded
at (1, 1), so the cost at the start point is exactly zero and the best
cost is a certified improvement in percent rate.
"""

from perclip import (
    EncodeCache,
    OptimizationConfig,
    SyntheticBackend,
    SyntheticModel,
    optimize_clip,
)

model = SyntheticModel()
backend = SyntheticBackend(model)
config = OptimizationConfig()  # qps (27,39,49,59,63), bounds [0.2, 4.0]

cache = EncodeCache()
ks, trace = optimize_clip(backend, "demo_clip", config, cache=cache)

print(f"model optimum:   k1={model.k_star[0]}, k2={model.k_star[1]}")
print(f"search result:   k1={ks.k1:.4f}, k2={ks.k2:.4f}")
print(f"best BD-rate:    {trace.best[1]:+.4f}% (negative = rate saved)")
print(f"cost at (1,1):   {trace.evaluations[0].cost}")
print(f"cost calls:      {len(trace.evaluations)}")
print(f"encodes issued:  {trace.encode_count} (memoization refunds revisits)")
print(f"radius levels:   {trace.iterations} (trust-region resolutions searched)")
print(f"stopped by:      {trace.stop} (model: its predictions matched the costs)")

# The first few and last few steps of the search path:
print("\n  step     k1      k2        cost  cached")
for i, e in enumerate(trace.evaluations):
    if i < 5 or i >= len(trace.evaluations) - 3:
        print(f"  {i:4d}  {e.ks.k1:6.4f}  {e.ks.k2:6.4f}  {e.cost:10.5f}  {e.cache_hit}")
    elif i == 5:
        print("   ...")

# Rerunning with the same cache issues zero encodes.
_, trace2 = optimize_clip(backend, "demo_clip", config, cache=cache)
print(f"\nsecond run encodes: {trace2.encode_count}")

# A coarse scan of the cost surface confirms the bowl shape.
from perclip import LambdaMultipliers, build_rd_curve, bd_rate

baseline = build_rd_curve(backend, "demo_clip", LambdaMultipliers(1, 1), config.qps)
print("\ncost surface (k1 across, k2 down):")
ks_axis = [0.6, 1.0, 1.3, 1.8, 2.6]
print("        " + "".join(f"{k:8.1f}" for k in ks_axis))
for k2 in ks_axis:
    row = []
    for k1 in ks_axis:
        cand = build_rd_curve(backend, "demo_clip", LambdaMultipliers(k1, k2), config.qps)
        row.append(bd_rate(baseline, cand).value)
    print(f"  {k2:4.1f}  " + "".join(f"{v:8.3f}" for v in row))
