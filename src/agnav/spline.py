"""B-spline curves: clamped knot construction, evaluation, and sampling.

Basis functions follow the standard recursion with the 0/0 := 0 convention.
The final knot span is treated as closed on the right so that u = 1 evaluates
to the last control point under clamped knots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SplinePath:
    """Planar B-spline: (n+1) x 2 control points, degree k, n+k+2 knots."""

    control_points: np.ndarray
    degree: int
    knots: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        object.__setattr__(self, "control_points", pts)
        object.__setattr__(self, "knots", np.asarray(self.knots, dtype=float))
        n = len(pts) - 1
        k = self.degree
        if n < k:
            raise ValueError(f"need at least degree+1 = {k + 1} control points, got {n + 1}")
        if len(self.knots) != n + k + 2:
            raise ValueError(f"expected {n + k + 2} knots, got {len(self.knots)}")
        if np.any(np.diff(self.knots) < 0):
            raise ValueError("knots must be non-decreasing")


def clamped_uniform_knots(n_controls: int, degree: int) -> np.ndarray:
    """Clamped knot vector on [0, 1] with uniformly spaced interior knots."""
    if n_controls < degree + 1:
        raise ValueError(f"need at least degree+1 = {degree + 1} control points")
    n_interior = n_controls - degree - 1
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def make_clamped_uniform(control_points, degree: int = 3) -> SplinePath:
    """SplinePath over the given control polygon with clamped uniform knots."""
    pts = np.atleast_2d(np.asarray(control_points, dtype=float))
    return SplinePath(pts, degree, clamped_uniform_knots(len(pts), degree))


def basis_matrix(knots, degree: int, us) -> np.ndarray:
    """Matrix B with B[r, i] = N_{i,degree}(us[r]).

    Row sums are 1 on [knots[0], knots[-1]] (partition of unity) and every
    entry is non-negative.
    """
    knots = np.asarray(knots, dtype=float)
    us = np.atleast_1d(np.asarray(us, dtype=float))
    n_spans = len(knots) - 1
    u_hi = knots[-1]
    N = np.zeros((len(us), n_spans))
    for i in range(n_spans):
        lo, hi = knots[i], knots[i + 1]
        if lo == hi:
            continue
        inside = (us >= lo) & (us < hi)
        if hi == u_hi:
            inside = inside | (us == u_hi)
        N[:, i] = inside.astype(float)
    for k in range(1, degree + 1):
        prev = N
        N = np.zeros((len(us), n_spans - k))
        for i in range(n_spans - k):
            left_den = knots[i + k] - knots[i]
            right_den = knots[i + k + 1] - knots[i + 1]
            if left_den > 0.0:
                N[:, i] += (us - knots[i]) / left_den * prev[:, i]
            if right_den > 0.0:
                N[:, i] += (knots[i + k + 1] - us) / right_den * prev[:, i + 1]
    return N


def evaluate(path: SplinePath, u: float) -> np.ndarray:
    """Point S(u) = sum_i N_{i,k}(u) c_i for u in [0, 1]."""
    lo, hi = path.knots[0], path.knots[-1]
    if not lo <= u <= hi:
        raise ValueError(f"u = {u} outside [{lo}, {hi}]")
    B = basis_matrix(path.knots, path.degree, [u])
    return (B @ path.control_points)[0]


def sample(path: SplinePath, m: int) -> np.ndarray:
    """The m+1 points S(i/m), i = 0..m, as an (m+1) x 2 array."""
    if m < 2:
        raise ValueError("sample count m must be at least 2")
    us = np.arange(m + 1) / m
    B = basis_matrix(path.knots, path.degree, us)
    return B @ path.control_points
