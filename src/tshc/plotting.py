"""Minimal SVG rendering of trajectory sets: one polyline per trajectory,
start/goal markers and metre-labelled axes.  No plotting library, so the
output structure stays predictable (exactly one <polyline> per input)."""

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

WIDTH = 640
HEIGHT = 640
MARGIN = 60


def _bounds(trajectories, goals):
    xs, ys = [], []
    for _, px, py in trajectories:
        xs.extend(px)
        ys.extend(py)
    for gx, gy in goals:
        xs.append(gx)
        ys.append(gy)
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-6)
    pad = 0.05 * span
    return xmin - pad, xmax + pad, ymin - pad, ymax + pad


def render_svg(trajectories, goals=()):
    """SVG text for trajectories given as (label, xs, ys) triples.

    ``goals`` is an optional list of (x, y) marker positions.
    """
    if not trajectories:
        raise ValueError("no trajectories to plot")
    xmin, xmax, ymin, ymax = _bounds(trajectories, goals)
    sx = (WIDTH - 2 * MARGIN) / (xmax - xmin)
    sy = (HEIGHT - 2 * MARGIN) / (ymax - ymin)

    def to_px(x, y):
        return (MARGIN + (x - xmin) * sx,
                HEIGHT - MARGIN - (y - ymin) * sy)  # y up

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="white" stroke="black"/>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - MARGIN // 3}" '
        f'text-anchor="middle">x [m]</text>',
        f'<text x="{MARGIN // 3}" y="{HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 {MARGIN // 3} {HEIGHT // 2})">y [m]</text>',
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 18}" '
        f'text-anchor="middle" font-size="11">{xmin:.2f}</text>',
        f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 18}" '
        f'text-anchor="middle" font-size="11">{xmax:.2f}</text>',
        f'<text x="{MARGIN - 6}" y="{HEIGHT - MARGIN}" text-anchor="end" '
        f'font-size="11">{ymin:.2f}</text>',
        f'<text x="{MARGIN - 6}" y="{MARGIN + 4}" text-anchor="end" '
        f'font-size="11">{ymax:.2f}</text>',
    ]
    for k, (label, px, py) in enumerate(trajectories):
        color = PALETTE[k % len(PALETTE)]
        # escaped as xml.sax.saxutils.escape would, without its ~35 ms import
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        points = " ".join(f"{cx:.3f},{cy:.3f}" for cx, cy in map(to_px, px, py))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"><title>{label}</title></polyline>')
        x0, y0 = to_px(px[0], py[0])
        parts.append(f'<circle cx="{x0:.3f}" cy="{y0:.3f}" r="4" fill="{color}"/>')
    for gx, gy in goals:
        cx, cy = to_px(gx, gy)
        parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="4" fill="none" '
                     f'stroke="black" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
