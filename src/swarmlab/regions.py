"""Convergence-region predicates and the diagonal (phi1 = phi2) grid scanner.

All predicates accept scalars or broadcasting arrays and use strict
inequalities as stated; the scanner samples cell centres (half-cell offset)
so exact boundaries are never evaluated.  f(1) and every region rule are
written once, in `_rules`, for the public predicates and the scanner alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import row_blocks
from .moments import _mean_square_rule, f_one, in_mean_square_region

__all__ = [
    "in_deterministic_region",
    "in_lyapunov_region",
    "in_mean_square_region",
    "in_noisy_fht_region",
    "in_pbest_convergence_region",
    "RegionGrid",
    "scan_regions",
    "write_regions_csv",
    "render_regions_svg",
    "REGIONS_CSV_HEADER",
    "csv_labels",
]

# the region flags in `RegionGrid`, CSV column and flag-code order: bit k of
# a cell's flag code is flag k
_FLAGS = ("deterministic", "lyapunov", "mean_square", "noisy_fht", "pbest_convergence")


def _rules(omega, phi1, phi2) -> dict:
    """f(1) and the five region flags, keyed by their `RegionGrid` field.

    A bound that overflows, or the Lyapunov bound's 0/0 at omega = -1, lies
    where its flag is False anyway, and a flag that reads f(1) is False
    where f(1) is not finite, so numpy's overflow and invalid warnings are
    off for the whole table.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f1 = f_one(omega, phi1, phi2)
        s = phi1 + phi2
        w_abs = np.abs(omega)
        deterministic = (w_abs < 1) & (s > 0) & (s < 4.0 * (1.0 + omega))
        lyapunov_bound = 2.0 * (1.0 - 2.0 * w_abs + omega * omega) / (1.0 + omega)
        mean_square = _mean_square_rule(omega, s, f1)
        both = mean_square & deterministic
        pbest_bound = np.maximum(phi1 * phi1, phi2 * phi2) * (1.0 + omega) / 6.0
        flags = (deterministic,
                 (w_abs < 1) & (omega != 0) & (s < lyapunov_bound),
                 mean_square,
                 both & (f1 > 1.0 / 3.0),
                 both & (f1 > pbest_bound))
    return {"f1": f1, **dict(zip(_FLAGS, flags))}


def in_deterministic_region(omega, phi1, phi2):
    """|omega| < 1 and 0 < phi1 + phi2 < 4 (1 + omega)."""
    return _rules(omega, phi1, phi2)["deterministic"]


def in_lyapunov_region(omega, phi1, phi2):
    """|omega| < 1, omega != 0, and phi1 + phi2 < 2 (1 - 2|omega| + omega^2) / (1 + omega)."""
    return _rules(omega, phi1, phi2)["lyapunov"]


def in_noisy_fht_region(omega, phi1, phi2):
    """Mean-square and deterministic conditions plus f(1) > 1/3.

    The remaining hypothesis of the finite-hitting-time result (delta <=
    epsilon) involves run-time quantities and is checked at experiment level.
    """
    return _rules(omega, phi1, phi2)["noisy_fht"]


def in_pbest_convergence_region(omega, phi1, phi2):
    """Conditions under which every positively-initialised personal best
    approaches the global best: the mean-square and deterministic conditions
    plus f(1) > max(phi1^2, phi2^2) (1 + omega) / 6.
    """
    return _rules(omega, phi1, phi2)["pbest_convergence"]


@dataclass(frozen=True)
class RegionGrid:
    """Dense diagonal scan: phi1 = phi2 = phi, omega on the x axis."""

    omega: np.ndarray        # (res_omega,)
    phi: np.ndarray          # (res_phi,)
    f1: np.ndarray           # (res_omega, res_phi)
    deterministic: np.ndarray
    lyapunov: np.ndarray
    mean_square: np.ndarray
    noisy_fht: np.ndarray
    pbest_convergence: np.ndarray


def _cell_centres(lo, hi, resolution) -> np.ndarray:
    """Centres of `resolution` equal cells on [lo, hi].

    ValueError unless the bounds, the width and (resolution - 1/2) times the
    width are finite and lo < centre_0 < ... < centre_last < hi holds in
    floating point, so that no two cells share a centre and no centre lies
    on a bound.
    """
    lo, hi = float(lo), float(hi)   # a Python float overflows without a warning
    if not (hi > lo):
        raise ValueError(f"ranges must be increasing, got [{lo!r}, {hi!r}]")
    if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(hi - lo)):
        raise ValueError(f"range [{lo!r}, {hi!r}] must have finite bounds and width")
    if not np.isfinite((resolution - 0.5) * (hi - lo)):
        raise ValueError(f"range [{lo!r}, {hi!r}] is too wide for {resolution} "
                         "cell centres in floating point")
    centres = lo + (np.arange(resolution) + 0.5) * (hi - lo) / resolution
    if not np.all(np.diff(np.concatenate(([lo], centres, [hi]))) > 0):
        raise ValueError(f"range [{lo!r}, {hi!r}] is too narrow for "
                         f"{resolution} distinct cell centres inside it")
    return centres


def scan_regions(omega_range=(0.0, 1.0), phi_range=(0.0, 4.0), resolution=400) -> RegionGrid:
    """Region memberships on a resolution x resolution grid of cell centres.

    The grid is filled in blocks of whole omega rows, about
    `core.BLOCK_CELLS` cells each, each block straight from `_rules`, so
    every field has the bits of its predicate on the whole meshgrid.

    Raises ValueError for a resolution below 2, for a window whose bounds,
    width or (resolution - 1/2) times its width are not finite or whose cell
    centres are not strictly increasing and strictly inside it, and for one
    where some cell's f(1) is not finite.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    omega = _cell_centres(*omega_range, resolution)
    phi = _cell_centres(*phi_range, resolution)
    shape = (resolution, resolution)
    fields = {"f1": np.empty(shape), **{flag: np.empty(shape, dtype=bool) for flag in _FLAGS}}
    PH = phi[None, :]
    for rows in row_blocks(resolution, resolution):
        for name, value in _rules(omega[rows, None], PH, PH).items():
            fields[name][rows] = value
    if not np.isfinite(fields["f1"]).all():
        raise ValueError(f"f(1) overflows on omega {omega_range!r} x phi {phi_range!r}")
    return RegionGrid(omega=omega, phi=phi, **fields)


REGIONS_CSV_HEADER = "omega,phi,f1,deterministic,lyapunov,mean_square,noisy_fht,pbest_convergence"


def csv_labels(values) -> list:
    """The regions.csv labels of grid.omega or grid.phi; ValueError if two cells share one."""
    labels = ["%.9g" % v for v in values.tolist()]
    if len(set(labels)) < len(labels):
        raise ValueError(f"{len(labels)} cells share {len(set(labels))} labels at 9 "
                         "significant digits; lower the resolution or widen the window")
    return labels


# the row tail ",d,l,m,n,p\n" of each of the 32 flag codes
_FLAG_TAILS = np.array([",%d,%d,%d,%d,%d\n" % tuple((code >> k) & 1 for k in range(5))
                        for code in range(32)], dtype=object)


def write_regions_csv(grid: RegionGrid, path) -> None:
    """One row per cell (omega-major), reals at 9 significant digits,
    booleans as 0/1; ValueError from `csv_labels` when cells share a label.

    The omega and phi labels are formatted once per row and column, and the
    five flags of a cell are packed into one 5-bit code that selects its
    row tail from a 32-entry table; only f1 is formatted per cell.  Each
    omega row is written by one `%` on a template of its cells.  `%.9g` on
    the Python floats of `tolist()` gives the bytes it gives on numpy
    scalars, so the file is the one a per-cell writer would produce.
    """
    code = np.zeros(grid.f1.shape, dtype=np.uint8)
    for k, field in enumerate(_FLAGS):
        code |= getattr(grid, field).astype(np.uint8) << k
    # a row is w_label + "p_0,%.9g%s" + w_label + "p_1,%.9g%s" + ...
    cells = [p + ",%.9g%s" for p in csv_labels(grid.phi)]
    values = [None] * (2 * len(cells))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(REGIONS_CSV_HEADER + "\n")
        for w, f1_row, code_row in zip(csv_labels(grid.omega), grid.f1, code):
            w_label = w + ","
            values[0::2] = f1_row.tolist()
            values[1::2] = _FLAG_TAILS[code_row].tolist()
            fh.write((w_label + w_label.join(cells)) % tuple(values))


_SVG_LAYERS = [
    # (field, fill, label) painted large to small
    ("deterministic", "#c6dbef", "deterministic"),
    ("mean_square", "#9ecae1", "mean square"),
    ("noisy_fht", "#fdae6b", "noisy finite FHT"),
    ("pbest_convergence", "#a1d99b", "personal-best convergence"),
    ("lyapunov", "#756bb1", "Lyapunov"),
]


def _true_runs(mask: np.ndarray):
    """Contiguous true runs along the last axis of a 2-D mask, in row-major
    order, as (row, first index, last index + 1) arrays."""
    rows, cols = mask.shape
    padded = np.zeros((rows, cols + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # each padded row starts and ends false, so its changes pair up
    row, col = np.divmod(np.flatnonzero(padded[:, 1:] != padded[:, :-1]), cols + 1)
    return row[0::2], col[0::2], col[1::2]


def render_regions_svg(grid: RegionGrid, path) -> None:
    """Filled nested-region rendering, 640 x 480, with labelled omega/phi axes.

    Each layer is one rectangle per contiguous true run of a grid column,
    spanning phi[first] - cell / 2 to phi[last] + cell / 2.  The runs of
    all columns come from one `np.flatnonzero` over the layer's mask and
    the rectangle corners from array arithmetic; only the formatting of
    each rectangle is done in Python.
    """
    width, height, margin = 640, 480, 50
    cell_o = grid.omega[1] - grid.omega[0]
    cell_p = grid.phi[1] - grid.phi[0]
    o_lo, o_hi = grid.omega[0] - cell_o / 2, grid.omega[-1] + cell_o / 2
    p_lo, p_hi = grid.phi[0] - cell_p / 2, grid.phi[-1] + cell_p / 2

    def sx(w):
        return margin + (w - o_lo) / (o_hi - o_lo) * (width - 2 * margin)

    def sy(p):
        return height - margin - (p - p_lo) / (p_hi - p_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for field, fill, _label in _SVG_LAYERS:
        i, first, stop = _true_runs(getattr(grid, field))
        w = grid.omega[i]
        x = sx(w - cell_o / 2)
        y = sy(grid.phi[stop - 1] + cell_p / 2)
        rect_w = sx(w + cell_o / 2) - x
        rect_h = sy(grid.phi[first] - cell_p / 2) - y
        rects = [f'<rect x="{a:.2f}" y="{b:.2f}" width="{c:.2f}" height="{d:.2f}" '
                 f'fill="{fill}" fill-opacity="0.85"/>'
                 for a, b, c, d in zip(x.tolist(), y.tolist(), rect_w.tolist(), rect_h.tolist())]
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
