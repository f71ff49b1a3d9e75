"""Per-cell reference of the region writers, for tests only.

`ref_write_regions_csv` formats every cell of the grid with one `%` call on
numpy scalars, and `ref_render_regions_svg` finds each column's true runs
with a Python loop over the cells.  `swarmlab.regions` writes both files
from whole-array operations; comparing the bytes the two produce checks
the vectorised writers against this straightforward one.
"""

from __future__ import annotations

import numpy as np

from swarmlab.regions import _SVG_LAYERS, REGIONS_CSV_HEADER, RegionGrid


def ref_write_regions_csv(grid: RegionGrid, path) -> None:
    """One row per cell (omega-major), reals at 9 significant digits,
    booleans as 0/1."""
    lines = [REGIONS_CSV_HEADER]
    for i, w in enumerate(grid.omega):
        for j, p in enumerate(grid.phi):
            lines.append("%.9g,%.9g,%.9g,%d,%d,%d,%d,%d" % (
                w, p, grid.f1[i, j],
                grid.deterministic[i, j], grid.lyapunov[i, j],
                grid.mean_square[i, j], grid.noisy_fht[i, j],
                grid.pbest_convergence[i, j]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_column_runs(mask_col: np.ndarray, phi: np.ndarray, cell: float):
    """Contiguous true runs of one grid column as (phi_lo, phi_hi) spans."""
    runs = []
    start = None
    for j, flag in enumerate(mask_col):
        if flag and start is None:
            start = phi[j] - cell / 2
        elif not flag and start is not None:
            runs.append((start, phi[j - 1] + cell / 2))
            start = None
    if start is not None:
        runs.append((start, phi[-1] + cell / 2))
    return runs


def ref_render_regions_svg(grid: RegionGrid, path, width=640, height=480) -> None:
    """Filled nested-region rendering with labelled omega/phi axes."""
    margin = 50
    o_lo = grid.omega[0] - (grid.omega[1] - grid.omega[0]) / 2
    o_hi = grid.omega[-1] + (grid.omega[1] - grid.omega[0]) / 2
    p_lo = grid.phi[0] - (grid.phi[1] - grid.phi[0]) / 2
    p_hi = grid.phi[-1] + (grid.phi[1] - grid.phi[0]) / 2

    def sx(w):
        return margin + (w - o_lo) / (o_hi - o_lo) * (width - 2 * margin)

    def sy(p):
        return height - margin - (p - p_lo) / (p_hi - p_lo) * (height - 2 * margin)

    cell_o = grid.omega[1] - grid.omega[0]
    cell_p = grid.phi[1] - grid.phi[0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for field, fill, _label in _SVG_LAYERS:
        mask = getattr(grid, field)
        rects = []
        for i, w in enumerate(grid.omega):
            for lo, hi in ref_column_runs(mask[i], grid.phi, cell_p):
                x = sx(w - cell_o / 2)
                y = sy(hi)
                rects.append(f'<rect x="{x:.2f}" y="{y:.2f}" '
                             f'width="{sx(w + cell_o / 2) - x:.2f}" '
                             f'height="{sy(lo) - y:.2f}" fill="{fill}" fill-opacity="0.85"/>')
        parts.append(f'<g>{"".join(rects)}</g>')
    ax = (f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
          f'y2="{height - margin}" stroke="black"/>'
          f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
          f'stroke="black"/>')
    parts.append(ax)
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="16" '
                 f'text-anchor="middle">&#969;</text>')
    parts.append(f'<text x="16" y="{height / 2:.0f}" font-size="16" '
                 f'text-anchor="middle">&#966;</text>')
    for k, (field, fill, label) in enumerate(_SVG_LAYERS):
        y = margin + 18 * k
        parts.append(f'<rect x="{width - margin - 170}" y="{y}" width="12" height="12" '
                     f'fill="{fill}"/>')
        parts.append(f'<text x="{width - margin - 152}" y="{y + 11}" font-size="12">'
                     f'{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
