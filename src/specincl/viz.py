"""Self-contained SVG rendering of regions, contours, and spectra.

No plotting dependency: regions are filled even-odd from their marching-
squares contours, reference eigenvalues are drawn as cross glyphs, and an
axes box with tick labels frames the picture.
"""

from __future__ import annotations

import time

import numpy as np

from .pseudospec import Region, contour_extract

__all__ = ["render_svg"]

_W = 640
_H = 640
_MARGIN = 50


def _to_px(grid, re, im):
    """Pixel coordinates of points (arrays of real and imaginary parts) as
    lists of floats."""
    sx = (_W - 2 * _MARGIN) / (grid.re_max - grid.re_min)
    sy = (_H - 2 * _MARGIN) / (grid.im_max - grid.im_min)
    return ((_MARGIN + (re - grid.re_min) * sx).tolist(),
            (_H - _MARGIN - (im - grid.im_min) * sy).tolist())


def _path(loops, grid) -> str:
    parts = []
    for loop in loops:
        px = _to_px(grid, loop[:, 0], loop[:, 1])
        parts.append("M " + " L ".join(map("{:.2f} {:.2f}".format, *px))
                     + " Z")
    return " ".join(parts)


def render_svg(region: Region, eigenvalues=None, title: str = "",
               timestamp: bool = True) -> str:
    """SVG document for one region; eigenvalue markers optional."""
    grid = region.grid
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
    ]
    if timestamp:
        out.append(f"<!-- generated {time.strftime('%Y-%m-%dT%H:%M:%S')} -->")
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')

    if not region.is_empty:
        loops = contour_extract(region)
        d = _path(loops, grid)
        out.append(
            f'<path d="{d}" fill="#8fd19e" fill-opacity="0.75" '
            f'fill-rule="evenodd" stroke="#1c7c33" stroke-width="1.2"/>'
        )

    if eigenvalues is not None:
        s = 4.0
        lams = np.asarray(eigenvalues, dtype=np.complex128).ravel()
        for x, y in zip(*_to_px(grid, lams.real, lams.imag)):
            out.append(
                f'<path d="M {x - s:.2f} {y - s:.2f} L {x + s:.2f} {y + s:.2f} '
                f'M {x - s:.2f} {y + s:.2f} L {x + s:.2f} {y - s:.2f}" '
                f'stroke="black" stroke-width="1"/>'
            )

    # axes frame with corner tick labels
    out.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#555" '
        f'stroke-width="1"/>'
    )
    labels = [
        (grid.re_min, _MARGIN, _H - _MARGIN + 16, "start"),
        (grid.re_max, _W - _MARGIN, _H - _MARGIN + 16, "end"),
    ]
    for val, x, y, anchor in labels:
        out.append(
            f'<text x="{x}" y="{y}" font-size="12" text-anchor="{anchor}" '
            f'font-family="monospace">{val:.3g}</text>'
        )
    out.append(
        f'<text x="{_MARGIN - 6}" y="{_H - _MARGIN}" font-size="12" '
        f'text-anchor="end" font-family="monospace">{grid.im_min:.3g}</text>'
    )
    out.append(
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" font-size="12" '
        f'text-anchor="end" font-family="monospace">{grid.im_max:.3g}</text>'
    )
    if title:
        out.append(
            f'<text x="{_W / 2}" y="{_MARGIN - 14}" font-size="15" '
            f'text-anchor="middle" font-family="monospace">{title}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
