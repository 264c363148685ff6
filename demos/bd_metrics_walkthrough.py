"""Walk through the curve and delta-metric toolkit on small examples.

Builds two rate-quality curves by hand, compares them with bd_rate,
bd_quality, and bitrate_savings, and shows what the monotone cleanup does
to a curve with a quality dip.
"""

from perclip import (
    RdPoint,
    bd_quality,
    bd_rate,
    bitrate_savings,
    build_curve,
    default_anchors,
    enforce_monotone,
    pchip_fit,
)

# A reference curve: four operating points, quality on a 0-100 scale.
ref = build_curve(
    [
        RdPoint(rate=1200, quality=58.0, qp=59),
        RdPoint(rate=2600, quality=71.0, qp=49),
        RdPoint(rate=5200, quality=80.5, qp=39),
        RdPoint(rate=11800, quality=87.0, qp=27),
    ],
    "mos",
)

# A tuned encode of the same clip: the same qualities at ~9% lower rate.
tuned = build_curve(
    [RdPoint(p.rate * 0.91, p.quality, qp=p.qp) for p in ref.points], "mos"
)

print("reference rates:", ref.rates)
print("tuned rates:    ", tuned.rates)

# Average rate difference at matched quality. Negative: tuned needs less.
rate_delta = bd_rate(ref, tuned)
print(f"\nbd_rate          {rate_delta.value:+.3f}%  over quality {rate_delta.overlap}")

# Average quality difference at matched rate. Positive: tuned is better.
quality_delta = bd_quality(ref, tuned)
print(f"bd_quality       {quality_delta.value:+.3f}   over log10(rate) {quality_delta.overlap}")

# Rate change at fixed anchor qualities: the reference's qp 27/39/59 points.
savings = bitrate_savings(ref, tuned, default_anchors(ref))
for label, value in savings.per_anchor:
    print(f"savings at {label}: {value:+.3f}%")
print(f"mean savings:    {savings.mean:+.3f}%")

# Opinion-score curves are sometimes non-monotone (film-grain style dips).
# The cleanup keeps the largest subset with quality non-decreasing in rate.
dipped = build_curve(
    [
        RdPoint(1200, 58.0),
        RdPoint(2600, 74.0),  # rated above the next point
        RdPoint(5200, 70.5),
        RdPoint(11800, 87.0),
    ],
    "mos",
)
cleaned = enforce_monotone(dipped)
print("\ndipped qualities: ", [p.quality for p in dipped.points])
print("cleaned qualities:", [p.quality for p in cleaned.points])

# The interpolation underneath is shape preserving: fitting monotone data
# never overshoots, so the curve between knots stays a valid quality.
fit = pchip_fit([p.rate for p in ref.points], [p.quality for p in ref.points])
mid = (ref.points[1].rate + ref.points[2].rate) / 2
print(f"\nquality at {mid:.0f} kbps: {fit(mid):.2f}")
