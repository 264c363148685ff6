"""Render a rate-quality chart with confidence-interval error bars.

Reads two shipped curve files for one clip and writes a standalone SVG:
one polyline per variant, one error-bar glyph per point, rate axis on a
log scale.
"""

from pathlib import Path

from perclip.curves import load_curve_file
from perclip.report import render_rq_svg

DATA = Path(__file__).resolve().parent.parent / "data"
OUT = Path(__file__).resolve().parent / "out"

series = []
for variant in ("default", "tuned"):
    curve, _ = load_curve_file(DATA / "curves" / f"meadow__{variant}.curve.json")
    series.append((variant, curve))

svg = render_rq_svg("meadow", series)
OUT.mkdir(exist_ok=True)
target = OUT / "meadow.svg"
target.write_text(svg)
n_bars = svg.count('class="errorbar"')
print(f"wrote {target}")
print(f"polylines: {svg.count('<polyline')}, error bars: {n_bars}")
