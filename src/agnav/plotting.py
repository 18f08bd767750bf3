"""Deterministic SVG rendering of a run: arena, objects, planned path, track."""

from __future__ import annotations


def _fmt(v: float) -> str:
    return "%.4f" % v


def _polyline(points, color: str, width: float, tf) -> str:
    if len(points) < 2:
        return ""
    pts = " ".join(f"{_fmt(tf(p)[0])},{_fmt(tf(p)[1])}" for p in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"/>')


def render_run_svg(arena, objects, global_paths, track) -> str:
    """Arena plot: objects as labeled circles, planned drone paths, and the
    ground robot's actual track. Pure text, byte-stable."""
    xmin, xmax, ymin, ymax = arena
    size = 600.0
    pad = 30.0
    span = max(xmax - xmin, ymax - ymin)
    scale = (size - 2 * pad) / span

    def tf(p):
        return (pad + (p[0] - xmin) * scale, size - pad - (p[1] - ymin) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(size)}" height="{_fmt(size)}" '
        f'viewBox="0 0 {_fmt(size)} {_fmt(size)}">',
        f'<rect x="0" y="0" width="{_fmt(size)}" height="{_fmt(size)}" fill="white"/>',
    ]
    ax, ay = tf((xmin, ymax))
    bw, bh = (xmax - xmin) * scale, (ymax - ymin) * scale
    parts.append(
        f'<rect x="{_fmt(ax)}" y="{_fmt(ay)}" width="{_fmt(bw)}" height="{_fmt(bh)}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for o in objects:
        cx, cy = tf((o.x, o.y))
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(o.radius * scale)}" '
            'fill="lightsteelblue" stroke="navy" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx + 4)}" y="{_fmt(cy - 4)}" font-size="12" '
            f'fill="navy">{o.name}</text>'
        )
    for path in global_paths:
        parts.append(_polyline(path, "orange", 1.5, tf))
    parts.append(_polyline(track, "seagreen", 1.2, tf))
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"
