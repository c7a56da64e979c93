"""Minimal SVG rendering of the split-panel barcode diagram.

One panel per homology dimension.  H0 bars are annotated with their
component weights; when a k and its regimes are supplied, the eps axis
is shaded red where k-anonymity fails and green where it holds.
"""

from __future__ import annotations

from .homology import Barcode

_W, _PANEL_H, _MARGIN, _ROW = 640, 30, 50, 14


def _x(eps: float, eps_max: float) -> float:
    return _MARGIN + (_W - 2 * _MARGIN) * min(eps, eps_max) / eps_max


def render_barcode_svg(bars: Barcode, regimes, k: int | None) -> str:
    # a bar of length 0 has no line to draw: only a duplicate row's H0
    # bar, since barcode() emits none above H0
    display = [b for b in bars.bars if b.death != b.birth]
    dims = sorted({b.dim for b in display}) or [0]
    finite = [b.death for b in display if b.death is not None]
    finite += [b.birth for b in display]
    eps_max = (max(finite) if finite else 1.0) * 1.15 or 1.0

    parts = []
    y = _MARGIN

    if regimes is not None and k is not None:
        band_y = y
        parts.append(
            f'<rect x="{_MARGIN}" y="{band_y}" width="{_W - 2 * _MARGIN}" '
            f'height="10" fill="#d64545"/>')
        for r in regimes:
            x0 = _x(r.eps_lo, eps_max)
            x1 = _x(r.eps_hi if r.eps_hi is not None else eps_max, eps_max)
            parts.append(
                f'<rect x="{x0:.2f}" y="{band_y}" width="{x1 - x0:.2f}" '
                f'height="10" fill="#3c9d4e"/>')
        parts.append(
            f'<text x="{_MARGIN}" y="{band_y - 4}" font-size="11">'
            f'{k}-anonymity: green = achievable</text>')
        y += 30

    for dim in dims:
        dim_bars = [b for b in display if b.dim == dim]
        parts.append(
            f'<text x="{_MARGIN}" y="{y + 12}" font-size="12" '
            f'font-weight="bold">H{dim}</text>')
        y += _PANEL_H
        for b in dim_bars:
            x0 = _x(b.birth, eps_max)
            x1 = _x(b.death if b.death is not None else eps_max, eps_max)
            color = "#2b6cb0" if b.death is not None else "#1a202c"
            parts.append(
                f'<line x1="{x0:.2f}" y1="{y}" x2="{x1:.2f}" y2="{y}" '
                f'stroke="{color}" stroke-width="4"/>')
            if dim == 0:
                parts.append(
                    f'<text x="{x1 + 4:.2f}" y="{y + 4}" font-size="10">'
                    f'w={b.weight_steps[-1][1]}</text>')
            y += _ROW
        y += _PANEL_H // 2

    # eps axis with a few ticks
    axis_y = y
    parts.append(
        f'<line x1="{_MARGIN}" y1="{axis_y}" x2="{_W - _MARGIN}" '
        f'y2="{axis_y}" stroke="#000" stroke-width="1"/>')
    for i in range(6):
        eps = eps_max * i / 5
        x = _x(eps, eps_max)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" '
            f'y2="{axis_y + 5}" stroke="#000"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18}" font-size="10" '
            f'text-anchor="middle">{eps:.3g}</text>')
    height = axis_y + 30
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{height}" viewBox="0 0 {_W} {height}">\n'
        + "\n".join(parts) + "\n</svg>\n")
