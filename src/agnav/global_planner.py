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

With the endpoints pinned to a and b, J >= q_length * |b - a|, since
L >= |b - a|, K >= 0 and O >= 0. The degree-p B-spline over clamped knots t
whose control point i lies on the chord at the Greville abscissa
xi_i = (t_{i+1} + ... + t_{i+p}) / p traces the segment as
S(u) = a + u (b - a) (linear precision; de Boor, A Practical Guide to
Splines). Its uniform samples thus give L = |b - a| and K = 0, up to
rounding, and it meets the bound wherever they clear the band (O = 0).
When the straight seed's samples clear the band, optimize returns that
chord without a descent if its O is 0 and its J is no higher than the
seed's; otherwise it descends as below.

When the straight seed enters the d_safe band, two bowed seeds are descended
beside it, in lockstep. Each seed's descent is one generator that yields its
trial points and takes its own direction, Armijo and stopping decisions;
each round evaluates the trial points of all still-active seeds in one call
on a (k, n, 2) stack and sends each seed its reply. At 8 unknowns and 65
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

from .spline import SplinePath, basis_matrix, clamped_uniform_knots, make_clamped_uniform, sample


class PlanningError(RuntimeError):
    pass


@dataclass(frozen=True)
class GlobalCostWeights:
    q_length: float = 1.0
    q_curvature: float = 5.0
    q_obstacle: float = 50.0
    d_safe: float = 2.5  # grid cells
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


def _sampled_terms(pts: np.ndarray, weights: GlobalCostWeights, obstacles: ObstacleSet):
    """The cost terms of a stack of k sampled paths pts (k, m + 1, 2): one
    (length, curvature, obstacle, total) tuple per path, plus the geometry
    the gradient reuses: (seg, seg_len, sec, sec_len, diff, dist, pen), the
    last three None without obstacle terms.

    Each path gets the arithmetic of a lone one, value for value: every
    reduction runs along one contiguous row in the same order."""
    k = len(pts)
    seg = pts[:, 1:] - pts[:, :-1]
    seg_len = np.hypot(seg[..., 0], seg[..., 1])
    # second differences at i = 2 .. m-1 (none when m = 2)
    sec = pts[:, 3:] - 2.0 * pts[:, 2:-1] + pts[:, 1:-2]
    sec_len = np.hypot(sec[..., 0], sec[..., 1])
    lengths = np.add.reduce(seg_len, 1).tolist()
    curvatures = np.add.reduce(sec_len, 1).tolist()
    diff = dist = pen = None
    if len(obstacles) and weights.q_obstacle > 0.0:
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
    return terms, (seg, seg_len, sec, sec_len, diff, dist, pen)


def _evaluate(C: np.ndarray, B: np.ndarray, weights: GlobalCostWeights,
              obstacles: ObstacleSet) -> tuple[list[tuple], np.ndarray | None]:
    """J over a stack of k control polygons C (k, n, 2), each sampled as
    P = B @ C[i], and its gradient B^T dJ/dP with respect to every control
    point. Returns one (length, curvature, obstacle, total) tuple per polygon
    and the (k, n, 2) gradient, which is None when any total is not finite.
    The stacked matmul runs the same gemm per polygon as for a lone one."""
    pts = B @ C
    terms, (seg, seg_len, sec, sec_len, diff, dist, pen) = _sampled_terms(pts, weights, obstacles)
    if not all(math.isfinite(t[3]) for t in terms):
        return terms, None

    ql, qc, qo = weights.q_length, weights.q_curvature, weights.q_obstacle
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
    if diff is not None:
        dist[dist == 0.0] = 1.0
        radial = diff / dist[..., None]
        radial *= pen[..., None]
        dP[:, 1:] -= 2.0 * qo * np.add.reduce(radial, 1)
    return terms, B.T @ dP


def cost_global(path: SplinePath, weights: GlobalCostWeights, obstacles: ObstacleSet) -> CostBreakdown:
    """J over the path sampled at u_i = i/m with m = weights.sample_count."""
    pts = sample(path, weights.sample_count)
    return CostBreakdown(*_sampled_terms(pts[None], weights, obstacles)[0][0])


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


def _descend(c: np.ndarray, terms: tuple, grad: np.ndarray):
    """One seed's L-BFGS descent over the interior control points, as a
    generator: it yields each trial point, is sent that point's (terms,
    gradient), and returns (c, terms, history, converged). The first step,
    and any step where -H g is not a descent direction, is the normalized
    steepest step of length STEP; Armijo backtracking halves the step length
    t until the trial point decreases the cost enough."""
    f, g = terms[3], grad[1:-1].ravel()
    history = [f]
    pairs = deque(maxlen=LBFGS_MEMORY)
    if f == 0.0:
        return c, terms, history, True
    while True:
        gnorm = math.sqrt(g @ g)
        if gnorm == 0.0:
            return c, terms, history, True
        d = _lbfgs_direction(g, pairs) if pairs else None
        slope = float(g @ d) if d is not None else 0.0
        if not slope < 0.0:
            d = -(STEP / gnorm) * g
            slope = float(g @ d)
        dnorm, t = math.sqrt(d @ d), 1.0
        while True:
            trial = c.copy()
            trial[1:-1] += (t * d).reshape(-1, 2)
            trial_terms, trial_grad = yield trial
            if trial_terms[3] <= f + ARMIJO * t * slope:
                break
            t *= 0.5
            if t * dnorm < 1e-12:
                return c, terms, history, True
        g_new = trial_grad[1:-1].ravel()
        s, y = t * d, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy, sy / float(y @ y)))
        rel = abs(f - trial_terms[3]) <= TOLERANCE * abs(f)
        c, terms, f, g = trial, trial_terms, trial_terms[3], g_new
        history.append(f)
        if rel:
            return c, terms, history, True
        if len(history) > MAX_ITERS:
            return c, terms, history, False


def _descend_lockstep(seeds: list[np.ndarray], B: np.ndarray, weights: GlobalCostWeights,
                      obstacles: ObstacleSet) -> tuple:
    """Descend every seed in lockstep and return the _descend result with
    the lowest final cost (ties prefer the earlier seed). Each round sends
    every active seed its reply and evaluates the trial points they yield
    in one _evaluate call; every seed takes the decisions it would take
    alone, so it visits the same points bit for bit."""
    C = np.array(seeds)
    terms, grad = _evaluate(C, B, weights, obstacles)
    if grad is None:
        raise PlanningError("non-finite cost at the initial control polygon")
    runs = [_descend(*run) for run in zip(C, terms, grad)]
    ends = [None] * len(runs)
    replies = dict.fromkeys(range(len(runs)))
    while True:
        trials = {}
        for i, reply in replies.items():
            try:
                trials[i] = runs[i].send(reply)
            except StopIteration as end:
                ends[i] = end.value
        if not trials:
            return min(ends, key=lambda end: end[1][3])
        terms, grad = _evaluate(np.array(list(trials.values())), B, weights, obstacles)
        if grad is None:
            raise PlanningError("non-finite cost during line search")
        replies = dict(zip(trials, zip(terms, grad)))


def optimize(init_controls, weights: GlobalCostWeights, obstacles: ObstacleSet) -> GlobalPlanResult:
    """Minimize J over the interior control points; endpoints never move.

    When the straight seed's samples clear the d_safe band, the chord with
    Greville-spaced control points is the global minimizer whenever its own
    samples clear the band too (J = q_length * |b - a|, the lower bound, up
    to rounding). It is returned when its obstacle term is 0 and its cost
    is no higher than the seed's, with history [J(seed), J(chord)] and
    converged True: one closed-form step, which ``agnav plan-global``
    reports as 1 iteration. Otherwise the seed is descended.

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
    if _min_clearance(B @ controls, obstacles) >= weights.d_safe:
        # the chord with control points at the Greville abscissae
        xi = (sum(knots[j:j + len(controls)] for j in range(1, DEGREE + 1)) / DEGREE)[:, None]
        line = (1.0 - xi) * controls[0] + xi * controls[-1]
        line[[0, -1]] = controls[[0, -1]]
        (seed_terms, line_terms), _ = _sampled_terms(B @ np.array([controls, line]),
                                                     weights, obstacles)
        if line_terms[2] == 0.0 and line_terms[3] <= seed_terms[3]:
            return GlobalPlanResult(SplinePath(line, DEGREE, knots),
                                    [seed_terms[3], line_terms[3]],
                                    CostBreakdown(*line_terms), True)
    else:
        chord = controls[-1] - controls[0]
        norm = float(np.hypot(chord[0], chord[1]))
        if norm > 0.0:
            perp = np.array([-chord[1], chord[0]]) / norm
            amp = weights.d_safe + (float(obstacles.radii.max()) if len(obstacles) else 0.0)
            bump = np.sin(np.linspace(0.0, math.pi, len(controls)))[:, None] * perp[None, :]
            seeds.append(controls + amp * bump)
            seeds.append(controls - amp * bump)

    c, terms, history, converged = _descend_lockstep(seeds, B, weights, obstacles)
    return GlobalPlanResult(SplinePath(c, DEGREE, knots), history, CostBreakdown(*terms),
                            converged)
