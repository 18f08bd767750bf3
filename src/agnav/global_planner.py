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

When the straight seed enters the d_safe band, two bowed seeds are descended
beside it, in lockstep: each round evaluates the trial points of all
still-active seeds in one call on a (k, n, 2) stack, and each seed then
takes its own direction, Armijo and stopping decisions. At 8 unknowns and 65
samples the time goes to per-call overhead, not arithmetic, so one call per
round instead of one per seed is the saving. It is exact: every seed visits
the same points, with the same bits, as when descended alone, because the
stacked matmul runs the same gemm per polygon and every reduction runs along
one row in the order a lone polygon's does. The two-loop recursion stays per
seed, since batched short dot products round differently from s @ q.
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
        if not all(map(math.isfinite, (self.q_length, self.q_curvature, self.q_obstacle,
                                       self.d_safe))):
            raise ValueError("weights and d_safe must be finite")
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
        if not (np.isfinite(c).all() and np.isfinite(r).all()):
            raise ValueError("centers and radii must be finite")
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


def _evaluate(C: np.ndarray, B: np.ndarray, weights: GlobalCostWeights,
              obstacles: ObstacleSet) -> tuple[list[tuple], np.ndarray | None]:
    """J over a stack of k control polygons C (k, n, 2), each sampled as
    P = B @ C[i], and its gradient B^T dJ/dP with respect to every control
    point. Returns one (length, curvature, obstacle, total) tuple per polygon
    and the (k, n, 2) gradient, which is None when any total is not finite.

    Each polygon gets the arithmetic of a lone one, value for value: the
    stacked matmul runs the same gemm per polygon, and every reduction runs
    along one contiguous row in the same order."""
    k = len(C)
    pts = B @ C
    seg = pts[:, 1:] - pts[:, :-1]
    seg_len = np.hypot(seg[..., 0], seg[..., 1])
    # second differences at i = 2 .. m-1 (none when m = 2)
    sec = pts[:, 3:] - 2.0 * pts[:, 2:-1] + pts[:, 1:-2]
    sec_len = np.hypot(sec[..., 0], sec[..., 1])
    lengths = np.add.reduce(seg_len, 1).tolist()
    curvatures = np.add.reduce(sec_len, 1).tolist()
    use_obstacles = len(obstacles) and weights.q_obstacle > 0.0
    if use_obstacles:
        # (k, N, m) over obstacle j and sample i = 1 .. m; O sums the squared
        # penalties sample-major (i, then j), which fixes its rounding
        diff = pts[:, None, 1:, :] - obstacles.centers[:, None, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        pen = dist - obstacles.radii[:, None]
        np.subtract(weights.d_safe, pen, out=pen)
        np.maximum(0.0, pen, out=pen)
        sq = (pen * pen).transpose(0, 2, 1).reshape(k, -1)
        obstacle_terms = np.add.reduce(sq, 1).tolist()
    else:
        obstacle_terms = [0.0] * k
    ql, qc, qo = weights.q_length, weights.q_curvature, weights.q_obstacle
    terms = [(L, K, O, ql * L + qc * K + qo * O)
             for L, K, O in zip(lengths, curvatures, obstacle_terms)]
    if not all(math.isfinite(t[3]) for t in terms):
        return terms, None

    # a zero-length vector contributes a zero subgradient
    dP = np.zeros(pts.shape)
    seg_len[seg_len == 0.0] = 1.0
    u = seg / seg_len[..., None]
    u *= ql
    dP[:, 1:] += u
    dP[:, :-1] -= u
    sec_len[sec_len == 0.0] = 1.0
    w = sec / sec_len[..., None]
    w *= qc
    dP[:, 3:] += w
    dP[:, 2:-1] -= 2.0 * w
    dP[:, 1:-2] += w
    if use_obstacles:
        dist[dist == 0.0] = 1.0
        radial = diff / dist[..., None]
        radial *= pen[..., None]
        dP[:, 1:] -= 2.0 * qo * np.add.reduce(radial, 1)
    return terms, B.T @ dP


def cost_global(path: SplinePath, weights: GlobalCostWeights, obstacles: ObstacleSet) -> CostBreakdown:
    """J over the path sampled at u_i = i/m with m = weights.sample_count."""
    us = np.arange(weights.sample_count + 1) / weights.sample_count
    B = basis_matrix(path.knots, path.degree, us)
    return CostBreakdown(*_evaluate(path.control_points[None], B, weights, obstacles)[0][0])


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
    """-H g by the two-loop recursion, H0 = (s^T y / y^T y) I from the newest
    pair. A pair is (s, y, 1 / s^T y, s^T y / y^T y)."""
    q = g.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    q *= pairs[-1][3]
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


class _Descent:
    """One seed's L-BFGS state over the interior control points. The first
    step, and any step where -H g is not a descent direction, is the
    normalized steepest step of length STEP; Armijo backtracking halves the
    step length t until the trial point decreases the cost enough."""

    __slots__ = ("c", "terms", "f", "g", "history", "pairs", "d", "slope", "dnorm", "t",
                 "converged")

    def __init__(self, c: np.ndarray, terms: tuple, grad: np.ndarray):
        self.c, self.terms, self.f, self.g = c, terms, terms[3], grad[1:-1].ravel()
        self.history = [self.f]
        self.pairs = deque(maxlen=LBFGS_MEMORY)
        self.converged = True

    def begin(self) -> bool:
        """Choose the direction at c and reset t to 1; False when the
        gradient vanishes and the descent has ended."""
        g = self.g
        gnorm = math.sqrt(g @ g)
        if gnorm == 0.0:
            return False
        d = _lbfgs_direction(g, self.pairs) if self.pairs else None
        slope = float(g @ d) if d is not None else 0.0
        if not slope < 0.0:
            d = -(STEP / gnorm) * g
            slope = float(g @ d)
        self.d, self.slope, self.dnorm, self.t = d, slope, math.sqrt(d @ d), 1.0
        return True

    def trial(self, out: np.ndarray) -> None:
        """Write the trial point c + t d into out."""
        out[...] = self.c
        out[1:-1] += (self.t * self.d).reshape(-1, 2)

    def take(self, trial: np.ndarray, terms: tuple, grad: np.ndarray) -> bool:
        """Accept the evaluated trial point or backtrack; False when the
        descent has ended."""
        total = terms[3]
        if total <= self.f + ARMIJO * self.t * self.slope:
            g_new = grad[1:-1].ravel()
            s, y = self.t * self.d, g_new - self.g
            sy = float(s @ y)
            if sy > 0.0:
                self.pairs.append((s, y, 1.0 / sy, sy / float(y @ y)))
            rel = abs(self.f - total) <= TOLERANCE * abs(self.f)
            self.c, self.terms, self.f, self.g = trial, terms, total, g_new
            self.history.append(total)
            if rel:
                return False
            if len(self.history) > MAX_ITERS:
                self.converged = False
                return False
            return self.begin()
        self.t *= 0.5
        return not self.t * self.dnorm < 1e-12


def _descend_lockstep(seeds: list[np.ndarray], B: np.ndarray, weights: GlobalCostWeights,
             obstacles: ObstacleSet) -> _Descent:
    """Descend every seed in lockstep and return the lowest final cost (ties
    prefer the earlier seed). Each round evaluates the trial points of all
    still-active seeds in one _evaluate call; every seed takes the decisions
    it would take alone, so it visits the same points bit for bit."""
    C = np.array(seeds)
    terms, grad = _evaluate(C, B, weights, obstacles)
    if grad is None:
        raise PlanningError("non-finite cost at the initial control polygon")
    runs = [_Descent(C[i], terms[i], grad[i]) for i in range(len(C))]
    active = [run for run in runs if run.f != 0.0 and run.begin()]
    while active:
        C = np.empty((len(active),) + C.shape[1:])
        for run, out in zip(active, C):
            run.trial(out)
        terms, grad = _evaluate(C, B, weights, obstacles)
        if grad is None:
            raise PlanningError("non-finite cost during line search")
        active = [run for i, run in enumerate(active) if run.take(C[i], terms[i], grad[i])]
    return min(runs, key=lambda run: run.f)


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

    best = _descend_lockstep(seeds, B, weights, obstacles)
    return GlobalPlanResult(SplinePath(best.c, DEGREE, knots), best.history,
                            CostBreakdown(*best.terms), best.converged)
