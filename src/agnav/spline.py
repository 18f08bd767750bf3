"""B-spline curves: clamped knot construction, evaluation, and sampling.

Basis functions follow the standard recursion with the 0/0 := 0 convention.
The final knot span is treated as closed on the right so that u = 1 evaluates
to the last control point under clamped knots.

Every product of a linear map (rows of basis values, or differences of them)
with a control polygon runs through ``pinned_map`` and ``map_interior``: the
two end points fold into one constant per row, and the interior points'
products are added to it left to right, elementwise over whole rows. That
is a fixed order of IEEE operations, so the points have the same bits under
every BLAS kernel and every SIMD target; no BLAS call is made.
"""

from __future__ import annotations

import functools
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


def sample_basis(knots, degree: int, m: int) -> np.ndarray:
    """basis_matrix at the m+1 samples u_i = i/m. Every leg of a mission has
    the same knots and m, so the matrix is built once per knot vector (by its
    bytes), degree and m, and shared read-only."""
    return _sample_basis(np.asarray(knots, dtype=float).tobytes(), degree, m)


@functools.lru_cache(maxsize=16)
def _sample_basis(knots: bytes, degree: int, m: int) -> np.ndarray:
    B = basis_matrix(np.frombuffer(knots), degree, np.arange(m + 1) / m)
    B.flags.writeable = False
    return B


def pinned_map(rows: np.ndarray, controls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The linear map ``rows`` (R, n) of an n-point polygon whose two end
    points are fixed, split as (A, K): A (n - 2, R) holds the interior
    columns, each a contiguous row, and K (2, R) is the ends' part,
    K = rows[:, 0] c_0 + rows[:, -1] c_{n-1}, one x row and one y row."""
    controls = np.asarray(controls, dtype=float)
    K = rows[:, 0] * controls[0][:, None]
    if len(controls) > 1:
        K += rows[:, -1] * controls[-1][:, None]
    return np.ascontiguousarray(rows[:, 1:-1].T), K


def map_interior(A: np.ndarray, K: np.ndarray, X: np.ndarray) -> np.ndarray:
    """rows @ C for a stack of k polygons given by their interiors X
    (k, 2, n - 2), as (k, 2, R): the left fold K + A_1 x_1 + A_2 x_2 + ...
    over the interior points. The terms are stacked along the outermost
    axis of one C-ordered array, so add.reduce adds them elementwise, in
    index order, for every shape."""
    terms = np.empty((len(A) + 1,) + X.shape[:2] + K.shape[1:])
    terms[0] = K
    np.multiply(X.transpose(2, 0, 1)[..., None], A[:, None, None, :], out=terms[1:])
    return np.add.reduce(terms, 0)


def polygon_product(rows: np.ndarray, controls) -> np.ndarray:
    """rows @ controls, (R, n) by (n, 2), through map_interior."""
    controls = np.asarray(controls, dtype=float)
    A, K = pinned_map(rows, controls)
    return map_interior(A, K, controls[None, 1:-1].transpose(0, 2, 1))[0].T.copy()


def evaluate(path: SplinePath, u: float) -> np.ndarray:
    """Point S(u) = sum_i N_{i,k}(u) c_i for u in [0, 1]."""
    lo, hi = path.knots[0], path.knots[-1]
    if not lo <= u <= hi:
        raise ValueError(f"u = {u} outside [{lo}, {hi}]")
    return polygon_product(basis_matrix(path.knots, path.degree, [u]), path.control_points)[0]


def sample(path: SplinePath, m: int) -> np.ndarray:
    """The m+1 points S(i/m), i = 0..m, as an (m+1) x 2 array."""
    if m < 2:
        raise ValueError("sample count m must be at least 2")
    return polygon_product(sample_basis(path.knots, path.degree, m), path.control_points)
