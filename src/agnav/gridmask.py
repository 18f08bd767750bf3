"""Pixel-grid geometry and image-to-world scaling.

Conventions used throughout the package:

- Pixel frame: origin at the top-left image corner, x rightward, y downward,
  0 <= x < w and 0 <= y < h.
- Grid frame: Cartesian, origin at the image midpoint, x rightward, y upward,
  units of grid cells (real-valued; odd image dimensions give half-cell
  lattice positions).
- World frame: meters; the grid frame maps to it through a uniform
  meters-per-cell scale and an optional origin offset (the camera's ground
  projection point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GridSpec:
    """Pixel-grid layout: image size and the cell edge length, all in pixels."""

    image_width: int
    image_height: int
    cell_size: float

    def __post_init__(self):
        if not (self.image_width > 0 and self.image_height > 0):
            raise ValueError("image dimensions must be positive")
        if not self.cell_size > 0:  # NaN included
            raise ValueError("cell_size must be positive")
        if self.cell_size > min(self.image_width, self.image_height):
            raise ValueError("cell_size must not exceed the smaller image dimension")


@dataclass(frozen=True)
class CameraModel:
    """Downward camera with a square image: altitude, horizontal FOV, image
    width and the pixel grid interval."""

    altitude: float
    horizontal_fov: float
    image_width: int
    grid_interval: float

    def __post_init__(self):
        if not 0.0 < self.horizontal_fov < math.pi:
            raise ValueError("horizontal_fov must lie in (0, pi)")
        if self.altitude <= 0:
            raise ValueError("altitude must be positive")
        if not self.grid_interval > 0:  # NaN included
            raise ValueError("grid_interval must be positive")
        if not self.image_width > 0:
            raise ValueError("image_width must be positive")


@dataclass(frozen=True)
class GroundScale:
    """Result of the resolution/FOV-adaptive scale computation."""

    n_grid: int
    width_real: float
    cell_m: float


def grid_lines(spec: GridSpec) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """Lattice lines as (index, pixel position) pairs, each axis sorted by
    position: x = w/2 + i*s and y = h/2 - j*s for every integer i, j keeping
    the position inside [0, w) x [0, h)."""
    w, h, s = float(spec.image_width), float(spec.image_height), float(spec.cell_size)
    # |index| <= size / (2 s); one more keeps the bound clear of rounding
    nx, ny = (math.ceil(size / (2.0 * s)) + 1 for size in (w, h))
    xs = [(i, x) for i in range(-nx, nx + 1) if 0.0 <= (x := w / 2.0 + i * s) < w]
    ys = [(j, y) for j in range(ny, -ny - 1, -1) if 0.0 <= (y := h / 2.0 - j * s) < h]
    return xs, ys


def ground_scale(camera: CameraModel) -> GroundScale:
    """Meters-per-cell from altitude, horizontal FOV, and grid interval.

    n_grid = w / r (truncated toward zero when fractional),
    width_real = 2 * altitude * tan(FOV / 2), cell_m = width_real / n_grid.
    """
    n_grid = int(camera.image_width / camera.grid_interval)
    if n_grid == 0:
        raise ValueError("grid_interval exceeds image width (n_grid = 0)")
    width_real = 2.0 * camera.altitude * math.tan(camera.horizontal_fov / 2.0)
    if not 0.0 < (cell_m := width_real / n_grid) < math.inf:  # NaN included
        raise ValueError(f"cell_m must be a positive finite length, got {cell_m}")
    return GroundScale(n_grid=n_grid, width_real=width_real, cell_m=cell_m)


def grid_to_world(cell_m: float, p, origin=None) -> tuple[float, float]:
    """Scale a grid-frame point to meters, optionally offset by the camera's
    ground-projection point."""
    ox, oy = (0.0, 0.0) if origin is None else (origin[0], origin[1])
    return (cell_m * p[0] + ox, cell_m * p[1] + oy)


def world_to_grid(cell_m: float, p, origin=None) -> tuple[float, float]:
    """Inverse of :func:`grid_to_world`."""
    ox, oy = (0.0, 0.0) if origin is None else (origin[0], origin[1])
    return ((p[0] - ox) / cell_m, (p[1] - oy) / cell_m)


def _fmt(v: float) -> str:
    # %g keeps integral positions short ("80" not "80.0") and is deterministic
    return "%g" % v


def render_gridmask_svg(spec: GridSpec) -> str:
    """Deterministic SVG document with one line per lattice line and an index
    label per line. Identical specs produce byte-identical text."""
    w, h = spec.image_width, spec.image_height
    xs, ys = grid_lines(spec)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]
    for _, x in xs:
        parts.append(
            f'<line x1="{_fmt(x)}" y1="0" x2="{_fmt(x)}" y2="{_fmt(h)}" '
            'stroke="gray" stroke-width="1"/>'
        )
    for _, y in ys:
        parts.append(
            f'<line x1="0" y1="{_fmt(y)}" x2="{_fmt(w)}" y2="{_fmt(y)}" '
            'stroke="gray" stroke-width="1"/>'
        )
    for i, x in xs:
        parts.append(
            f'<text x="{_fmt(x + 2)}" y="{_fmt(h - 4)}" font-size="10" '
            f'fill="black">{i}</text>'
        )
    for j, y in ys:
        parts.append(
            f'<text x="2" y="{_fmt(y - 2)}" font-size="10" fill="black">{j}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
