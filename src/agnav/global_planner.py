"""Global path optimization for the aerial robot.

The cost J over a sampled B-spline balances path length, discrete curvature,
and a quadratic obstacle-clearance penalty:

    L = sum_{i=1..m}   |S(u_i) - S(u_{i-1})|
    K = sum_{i=2..m-1} |S(u_{i+1}) - 2 S(u_i) + S(u_{i-1})|
    O = sum_j sum_{i=1..m} max(0, d_safe - (|S(u_i) - o_j| - r_j))^2
    J = q_length * L + q_curvature * K + q_obstacle * O

Obstacles are center/radius pairs; radius 0 recovers the pure point form.
The samples are P = B c for the basis matrix B, so the gradient over the
control points c is B^T dJ/dP in closed form: unit segment vectors for L,
unit second differences for K, and -2 pen (p - o)/|p - o| hinge terms for O.
Minimization is deterministic L-BFGS on the interior control points
(endpoints stay pinned to main and target) with Armijo backtracking; the
s^T y / y^T y initial scaling and a normalized steepest first step make the
argmin invariant under a common positive scaling of the three weights.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .spline import SplinePath, basis_matrix, clamped_uniform_knots, make_clamped_uniform


class PlanningError(RuntimeError):
    pass


@dataclass(frozen=True)
class GlobalCostWeights:
    q_length: float = 1.0
    q_curvature: float = 5.0
    q_obstacle: float = 50.0
    d_safe: float = 1.5  # grid cells
    sample_count: int = 64

    def __post_init__(self):
        if min(self.q_length, self.q_curvature, self.q_obstacle) < 0:
            raise ValueError("weights must be non-negative")
        if self.d_safe <= 0:
            raise ValueError("d_safe must be positive")
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")


@dataclass(frozen=True)
class ObstacleSet:
    """Disc obstacles: (N, 2) centers and (N,) radii in grid cells."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float).reshape(-1, 2)
        r = np.asarray(self.radii, dtype=float).reshape(-1)
        if len(c) != len(r):
            raise ValueError("centers and radii must have equal length")
        if np.any(r < 0):
            raise ValueError("radii must be non-negative")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    @classmethod
    def from_pairs(cls, pairs) -> "ObstacleSet":
        if not pairs:
            return cls(np.zeros((0, 2)), np.zeros(0))
        return cls(
            np.array([[p[0][0], p[0][1]] for p in pairs], dtype=float),
            np.array([p[1] for p in pairs], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.radii)


@dataclass(frozen=True)
class CostBreakdown:
    length: float
    curvature: float
    obstacle: float
    total: float


@dataclass
class GlobalPlanResult:
    path: SplinePath
    cost_history: list[float]
    breakdown: CostBreakdown
    converged: bool
    already_at_goal: bool = False


def straight_line_init(main, target, n_controls: int) -> tuple[np.ndarray, bool]:
    """Control points equally spaced from main to target, both inclusive.

    Returns (points, already_at_goal); a coincident main/target collapses to
    a single-point polygon with the flag set.
    """
    a = np.asarray(main, dtype=float)
    b = np.asarray(target, dtype=float)
    if np.array_equal(a, b):
        return a.reshape(1, 2), True
    if n_controls < 2:
        raise ValueError("need at least 2 control points")
    t = np.linspace(0.0, 1.0, n_controls)[:, None]
    return (1.0 - t) * a + t * b, False


def _cost_and_grad(controls: np.ndarray, B: np.ndarray, weights: GlobalCostWeights,
                   obstacles: ObstacleSet) -> tuple[CostBreakdown, np.ndarray | None]:
    """J at the polygon P = B @ controls and its gradient B^T dJ/dP with
    respect to every control point; the gradient is None when J is not finite."""
    pts = B @ controls
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    # second differences at i = 2 .. m-1 (none when m = 2)
    sec = pts[3:] - 2.0 * pts[2:-1] + pts[1:-2]
    sec_len = np.hypot(sec[:, 0], sec[:, 1])
    length = float(np.sum(seg_len))
    curvature = float(np.sum(sec_len))
    obstacle = 0.0
    use_obstacles = len(obstacles) and weights.q_obstacle > 0.0
    if use_obstacles:
        diff = pts[1:, None, :] - obstacles.centers[None, :, :]  # samples i = 1 .. m
        dist = np.hypot(diff[..., 0], diff[..., 1])
        pen = np.maximum(0.0, weights.d_safe - (dist - obstacles.radii[None, :]))
        obstacle = float(np.sum(pen * pen))
    total = weights.q_length * length + weights.q_curvature * curvature + weights.q_obstacle * obstacle
    bd = CostBreakdown(length, curvature, obstacle, total)
    if not math.isfinite(total):
        return bd, None

    # a zero-length vector contributes a zero subgradient
    dP = np.zeros_like(pts)
    u = weights.q_length * (seg / np.where(seg_len > 0.0, seg_len, 1.0)[:, None])
    dP[1:] += u
    dP[:-1] -= u
    w = weights.q_curvature * (sec / np.where(sec_len > 0.0, sec_len, 1.0)[:, None])
    dP[3:] += w
    dP[2:-1] -= 2.0 * w
    dP[1:-2] += w
    if use_obstacles:
        radial = diff / np.where(dist > 0.0, dist, 1.0)[..., None]
        dP[1:] -= 2.0 * weights.q_obstacle * np.sum(pen[..., None] * radial, axis=1)
    return bd, B.T @ dP


def cost_global(path: SplinePath, weights: GlobalCostWeights, obstacles: ObstacleSet) -> CostBreakdown:
    """J over the path sampled at u_i = i/m with m = weights.sample_count."""
    us = np.arange(weights.sample_count + 1) / weights.sample_count
    B = basis_matrix(path.knots, path.degree, us)
    return _cost_and_grad(path.control_points, B, weights, obstacles)[0]


def _min_clearance(pts: np.ndarray, obstacles: ObstacleSet) -> float:
    if not len(obstacles):
        return math.inf
    d = np.hypot(
        pts[:, None, 0] - obstacles.centers[None, :, 0],
        pts[:, None, 1] - obstacles.centers[None, :, 1],
    ) - obstacles.radii[None, :]
    return float(d.min())


DEGREE = 3  # B-spline degree of a planned path
MAX_ITERS = 500  # descent iterations per seed
STEP = 1.0  # length of a steepest-descent step, grid cells
TOLERANCE = 1e-8  # relative cost change that ends a descent
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
LBFGS_MEMORY = 6  # (s, y) pairs kept by the quasi-Newton direction


def _lbfgs_direction(g: np.ndarray, pairs: deque) -> np.ndarray:
    """-H g by the two-loop recursion, H0 = (s^T y / y^T y) I from the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    s, y, _ = pairs[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def _descend(controls: np.ndarray, B: np.ndarray, weights: GlobalCostWeights,
             obstacles: ObstacleSet) -> tuple[np.ndarray, CostBreakdown, list[float], bool]:
    """L-BFGS with Armijo backtracking over the interior control points; the
    first step, and any step where -H g is not a descent direction, is the
    normalized steepest step of length STEP. Returns the final polygon
    and its breakdown, the accepted-cost history (seed cost first), and
    convergence."""
    c = controls.copy()
    bd, grad = _cost_and_grad(c, B, weights, obstacles)
    if grad is None:
        raise PlanningError("non-finite cost at the initial control polygon")
    f = bd.total
    history = [f]
    if len(c) <= 2 or f == 0.0:
        return c, bd, history, True
    g = grad[1:-1].ravel()
    pairs = deque(maxlen=LBFGS_MEMORY)
    for _ in range(MAX_ITERS):
        gnorm = float(np.sqrt(g @ g))
        if gnorm == 0.0:
            return c, bd, history, True
        d = _lbfgs_direction(g, pairs) if pairs else None
        if d is None or not float(g @ d) < 0.0:
            d = -(STEP / gnorm) * g
        slope = float(g @ d)
        dnorm = float(np.sqrt(d @ d))
        t = 1.0
        while True:
            trial = c.copy()
            trial[1:-1] += (t * d).reshape(-1, 2)
            bd_t, grad_t = _cost_and_grad(trial, B, weights, obstacles)
            if grad_t is None:
                raise PlanningError("non-finite cost during line search")
            if bd_t.total <= f + ARMIJO * t * slope:
                break
            t *= 0.5
            if t * dnorm < 1e-12:
                return c, bd, history, True
        g_new = grad_t[1:-1].ravel()
        s, y = t * d, g_new - g
        if float(s @ y) > 0.0:
            pairs.append((s, y, 1.0 / float(s @ y)))
        rel = abs(f - bd_t.total) <= TOLERANCE * abs(f)
        c, bd, f, g = trial, bd_t, bd_t.total, g_new
        history.append(f)
        if rel:
            return c, bd, history, True
    return c, bd, history, False


def optimize(init_controls, weights: GlobalCostWeights, obstacles: ObstacleSet) -> GlobalPlanResult:
    """Minimize J over the interior control points; endpoints never move.

    Deterministic: when the straight seed penetrates the d_safe band the
    descent can sit on a symmetry saddle, so two laterally bowed seeds are
    also descended and the lowest final cost wins (ties prefer the straight
    seed). The returned history is the winning branch's accepted costs,
    non-increasing by construction, and the final cost never exceeds the
    initial straight-seed cost.
    """
    controls = np.atleast_2d(np.asarray(init_controls, dtype=float))
    if len(controls) == 1:
        path = make_clamped_uniform(np.repeat(controls, DEGREE + 1, axis=0), DEGREE)
        bd = cost_global(path, weights, obstacles)
        return GlobalPlanResult(path, [bd.total], bd, True, already_at_goal=True)
    if len(controls) < DEGREE + 1:
        raise ValueError(f"need at least degree+1 = {DEGREE + 1} control points")

    knots = clamped_uniform_knots(len(controls), DEGREE)
    us = np.arange(weights.sample_count + 1) / weights.sample_count
    B = basis_matrix(knots, DEGREE, us)

    seeds = [controls]
    if _min_clearance(B @ controls, obstacles) < weights.d_safe:
        chord = controls[-1] - controls[0]
        norm = float(np.hypot(chord[0], chord[1]))
        if norm > 0.0:
            perp = np.array([-chord[1], chord[0]]) / norm
            amp = weights.d_safe + (float(obstacles.radii.max()) if len(obstacles) else 0.0)
            bump = np.sin(np.linspace(0.0, math.pi, len(controls)))[:, None] * perp[None, :]
            seeds.append(controls + amp * bump)
            seeds.append(controls - amp * bump)

    best = None
    for seed in seeds:
        run = _descend(seed, B, weights, obstacles)
        if best is None or run[1].total < best[1].total:
            best = run
    c, bd, history, converged = best
    return GlobalPlanResult(SplinePath(c, DEGREE, knots), history, bd, converged)
