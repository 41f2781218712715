"""Minimal deterministic SVG rendering for sweep outputs.

Hand-rolled so the charts are text-diffable and dependency free; styling is
fixed and floats are formatted with a stable precision.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN = 56
PALETTE = ("#1f2430", "#7ec8e3", "#2460a7", "#c05746", "#5b8c5a",
           "#8d6b94", "#c7a252", "#6b7f99", "#a23b72", "#464f41")


def _f(x: float) -> str:
    return f"{x:.3f}"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """A polyline's points attribute: ``_f(x),_f(y)`` pairs, space separated,
    formatted by one ``%`` over the interleaved coordinates."""
    flat = np.column_stack([xs, ys]).ravel().tolist()
    return ("%.3f,%.3f " * len(xs) % tuple(flat))[:-1]


def _axis_ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * k / 4 for k in range(5)]


def _write_chart(path, title: str, body: list[str],
                 lines: list[tuple[str, str, str, str]]) -> None:
    """Write one chart: the white page and its ``title``, the ``body``
    elements, then each of ``lines`` (label, polyline points, color, stroke
    width) as a polyline with its legend entry."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        *body,
    ]
    for i, (label, pts, color, width) in enumerate(lines):
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="{width}"/>')
        ly = MARGIN + 16 + 15 * i
        parts.append(f'<line x1="{WIDTH - MARGIN - 110}" y1="{ly - 4}" '
                     f'x2="{WIDTH - MARGIN - 88}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 82}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def line_chart(series: list[tuple[str, np.ndarray, np.ndarray]], path,
               title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write a labeled multi-series line chart. ``series`` is (label, x, y)."""
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    ys = ys[np.isfinite(ys)]
    if ys.size == 0:
        ys = np.array([0.0, 1.0])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    # frame and ticks
    body = [f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#888"/>']
    for xv in _axis_ticks(x_lo, x_hi):
        body.append(f'<text x="{_f(px(xv))}" y="{HEIGHT - MARGIN + 18}" '
                    f'text-anchor="middle" font-size="11" '
                    f'font-family="sans-serif">{xv:.3g}</text>')
    for yv in _axis_ticks(y_lo, y_hi):
        body.append(f'<text x="{MARGIN - 6}" y="{_f(py(yv) + 4)}" '
                    f'text-anchor="end" font-size="11" '
                    f'font-family="sans-serif">{yv:.3g}</text>')
    body.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
                f'font-size="12" font-family="sans-serif">{xlabel}</text>')
    body.append(f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
                f'font-family="sans-serif" transform="rotate(-90 16 {HEIGHT // 2})">'
                f'{ylabel}</text>')

    lines = []
    for i, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.isfinite(y)
        lines.append((label, _points(px(x[ok]), py(y[ok])), PALETTE[i % len(PALETTE)], "1.4"))
    _write_chart(path, title, body, lines)


def bloch_chart(series: list[tuple[str, np.ndarray]], path, title: str = "") -> None:
    """Orthographic projection of 3-D Bloch trajectories. ``series`` is (label, (N,3))."""
    az, el = math.radians(55.0), math.radians(22.0)
    e1 = np.array([-math.sin(az), math.cos(az), 0.0])
    e2 = np.array([-math.cos(az) * math.sin(el), -math.sin(az) * math.sin(el),
                   math.cos(el)])
    scale = (min(WIDTH, HEIGHT) - 2 * MARGIN) / 2.2
    cx, cy = WIDTH / 2, HEIGHT / 2 + 10

    def project(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return np.column_stack([cx + scale * (pts @ e1), cy - scale * (pts @ e2)])

    body = [f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(scale)}" fill="none" '
            f'stroke="#bbb"/>']
    for name, vec in (("x", [1.2, 0, 0]), ("y", [0, 1.2, 0]), ("z", [0, 0, 1.2])):
        tip = project(np.array([vec]))[0]
        body.append(f'<line x1="{_f(cx)}" y1="{_f(cy)}" x2="{_f(tip[0])}" '
                    f'y2="{_f(tip[1])}" stroke="#ccc"/>')
        body.append(f'<text x="{_f(tip[0])}" y="{_f(tip[1])}" font-size="11" '
                    f'font-family="sans-serif">{name}</text>')

    styles = {"unitary": ("#1f2430", "2"), "rho_proj": ("#9fd6ef", "1.4"),
              "eigvec": ("#2460a7", "1.4")}
    lines = [(label, _points(*project(pts).T),
              *styles.get(label, (PALETTE[i % len(PALETTE)], "1.4")))
             for i, (label, pts) in enumerate(series)]
    _write_chart(path, title, body, lines)
