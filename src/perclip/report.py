"""Static SVG rate-quality charts with confidence-interval error bars.

Hand-rolled SVG so the output is small, deterministic, and structurally
checkable: one <polyline class="curve"> per variant and one
<g class="errorbar"> per plotted point. The rate axis is log-scaled.
Every element goes through _el, which XML-escapes all text and attributes.
"""

from __future__ import annotations

import math

from .curves import RdCurve

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 56
COLORS = ("#1f6fb2", "#d1495b", "#3a7d44", "#8d5a97")
CAP = 4.0  # half-width of error-bar caps, px


def _fmt(v: float) -> str:
    return f"{v:.2f}"


_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _el(tag: str, text: str | None = None, close: bool = True, **attrs) -> str:
    """One SVG element: <tag k="v" .../>, <tag ...>text</tag>, or with
    close=False the opening tag alone. An attribute name drops a trailing _
    (class_) and writes _ as - (font_family); a None value is left out.
    Every value and text is XML-escaped here, so a clip or label may hold
    any character."""
    head = tag + "".join(
        f' {k.rstrip("_").replace("_", "-")}="{str(v).translate(_ESCAPES)}"'
        for k, v in attrs.items() if v is not None
    )
    if text is not None:
        return f"<{head}>{text.translate(_ESCAPES)}</{tag}>"
    return f"<{head}/>" if close else f"<{head}>"


def _line(x1, y1, x2, y2, **attrs) -> str:
    return _el("line", x1=x1, y1=y1, x2=x2, y2=y2, **attrs)


def _text(text: str, x, y, size: int, anchor: str | None = None, **attrs) -> str:
    return _el("text", text, x=x, y=y, text_anchor=anchor, font_family="sans-serif",
               font_size=size, **attrs)


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 5.0, 10.0) if raw <= m * mag)
    # each tick from its own index: a running sum stops once step is below half an ulp
    return [round(i * step, 10)
            for i in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = [v for k in range(math.floor(math.log10(lo)), math.floor(math.log10(hi)) + 1)
             for v in (1.0 * 10.0**k, 2.0 * 10.0**k, 5.0 * 10.0**k) if lo <= v <= hi]
    return ticks or [lo, hi]


def render_rq_svg(clip: str, series: list[tuple[str, RdCurve]],
                  metric_id: str = "quality") -> str:
    """Render one clip's rate-quality chart to an SVG string: one
    (label, curve) series per variant, each point's ci95 as its error bar."""
    if not series:
        raise ValueError("no series to plot")
    points = [p for _, curve in series for p in curve.points]
    x_lo, x_hi = min(p.rate for p in points), max(p.rate for p in points)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo * 0.9, x_hi * 1.1
    y_lo = min(p.quality - p.ci95 for p in points)
    y_hi = max(p.quality + p.ci95 for p in points)
    if "mos" in metric_id.lower():
        # opinion scores plot on the [0, 100] scale; bars clamp to it
        y_lo, y_hi = max(0.0, y_lo), min(100.0, max(y_hi, 1.0))
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)
    if lx_hi == lx_lo:
        lx_hi = lx_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(rate: float) -> float:
        return MARGIN_L + (math.log10(rate) - lx_lo) / (lx_hi - lx_lo) * plot_w

    def py(q: float) -> float:
        return MARGIN_T + (y_hi - q) / (y_hi - y_lo) * plot_h

    axis_y = MARGIN_T + plot_h
    mid_y = f"{MARGIN_T + plot_h / 2:.0f}"
    parts = [
        _el("svg", close=False, xmlns="http://www.w3.org/2000/svg", width=WIDTH, height=HEIGHT,
            viewBox=f"0 0 {WIDTH} {HEIGHT}"),
        _el("rect", width=WIDTH, height=HEIGHT, fill="white"),
        _text(clip, f"{WIDTH / 2:.0f}", 24, 16, "middle"),
        _line(MARGIN_L, axis_y, MARGIN_L + plot_w, axis_y, stroke="black"),
        _line(MARGIN_L, MARGIN_T, MARGIN_L, axis_y, stroke="black"),
    ]
    for v in _log_ticks(x_lo, x_hi):
        x = _fmt(px(v))
        parts.append(_line(x, axis_y, x, axis_y + 5, stroke="black"))
        parts.append(_text(f"{v:g}", x, axis_y + 20, 11, "middle"))
    for v in _nice_ticks(y_lo, y_hi):
        y = py(v)
        parts.append(_line(MARGIN_L - 5, _fmt(y), MARGIN_L, _fmt(y), stroke="black"))
        parts.append(_text(f"{v:g}", MARGIN_L - 9, _fmt(y + 4), 11, "end"))
    parts.append(_text("rate (kbps, log scale)", f"{MARGIN_L + plot_w / 2:.0f}", HEIGHT - 14,
                       12, "middle"))
    parts.append(_text(metric_id, 18, mid_y, 12, "middle", transform=f"rotate(-90 18 {mid_y})"))

    for idx, (label, curve) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        for p in curve.points:
            q, ci = p.quality, p.ci95
            x, top, bot = px(p.rate), _fmt(py(min(q + ci, y_hi))), _fmt(py(max(q - ci, y_lo)))
            parts += [
                _el("g", close=False, class_="errorbar", stroke=color),
                _line(_fmt(x), top, _fmt(x), bot),
                _line(_fmt(x - CAP), top, _fmt(x + CAP), top),
                _line(_fmt(x - CAP), bot, _fmt(x + CAP), bot),
                "</g>",
            ]
        coords = " ".join(f"{_fmt(px(p.rate))},{_fmt(py(p.quality))}" for p in curve.points)
        parts.append(_el("polyline", class_="curve", fill="none", stroke=color,
                         stroke_width=1.5, points=coords))
        parts += [_el("circle", class_="marker", cx=_fmt(px(p.rate)), cy=_fmt(py(p.quality)),
                      r=2.5, fill=color) for p in curve.points]
        lx, ly = MARGIN_L + plot_w - 150, MARGIN_T + 14 + 16 * idx
        parts.append(_line(lx, ly - 4, lx + 22, ly - 4, stroke=color, stroke_width=1.5))
        parts.append(_text(label, lx + 28, ly, 12))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
