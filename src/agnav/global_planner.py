"""Global path optimization for the aerial robot.

The cost J over a sampled B-spline balances path length, discrete curvature,
and a quadratic obstacle-clearance penalty:

    L = sum_{i=1..m}   |S(u_i) - S(u_{i-1})|
    K = sum_{i=2..m-1} |S(u_{i+1}) - 2 S(u_i) + S(u_{i-1})|
    O = sum_j sum_{i=1..m} max(0, d_safe - (|S(u_i) - o_j| - r_j))^2
    J = q_length * L + q_curvature * K + q_obstacle * O

Obstacles are center/radius pairs; radius 0 recovers the pure point form.
Everything J reads is linear in the control points: with the basis matrix
B, the samples 1..m are B[1:] c, the segments (B[1:] - B[:-1]) c and the
second differences (B[3:] - 2 B[2:-1] + B[1:-2]) c. Each optimize call
stacks those rows into one map M acting on the interior control points,
with the two pinned end points folded into one constant, so an evaluation
is Y = M X and the gradient is M^T dJ/dY in closed form: unit segment
vectors for L, unit second differences for K, and -2 pen (p - o)/|p - o|
hinge terms for O. cost_global, the chord check below and the descent all
evaluate through that one routine, so a returned path's cost_global is the
planner's own J, bit for bit.
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
on a (k, 2, 3m - 2) stack and sends each seed its reply. At 8 unknowns and
65 samples the time goes to per-call overhead, not arithmetic, so one call
per round instead of one per seed is the saving, and a seed's L-BFGS
vectors (its 2(n - 2) interior coordinates, every x, then every y) are
plain Python floats rather than small arrays.

No product goes through BLAS, so the bytes do not depend on the host's
BLAS kernel. M X is a left fold over the interior points
(spline.map_interior); M^T G and the sums of L, K and O run numpy's
add.reduce along contiguous rows, whose pairwise order numpy's source
fixes; every dot product of the descent folds Python floats left to right
(never the built-in sum, which compensates rounding from Python 3.12).
The stacking is exact: a stacked polygon gets the arithmetic of a lone one
value for value, so every seed visits the same points, with the same bits,
as when descended alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .spline import (SplinePath, basis_matrix, clamped_uniform_knots, make_clamped_uniform,
                     map_interior, pinned_map)


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


def _stacked_map(knots, degree: int, controls: np.ndarray, m: int):
    """pinned_map's (A, K) of the stacked map M of the polygons with the ends
    of ``controls``, for the samples at u_i = i/m: its rows are samples
    1..m, then the m segments P_i - P_{i-1}, then the m - 2 second
    differences, i.e. B[1:], B[1:] - B[:-1] and B[3:] - 2 B[2:-1] + B[1:-2]
    for the basis matrix B."""
    B = basis_matrix(knots, degree, np.arange(m + 1) / m)
    return pinned_map(np.concatenate([B[1:], B[1:] - B[:-1], B[3:] - 2.0 * B[2:-1] + B[1:-2]]),
                      controls)


def _weighted(A: np.ndarray, weights: GlobalCostWeights) -> np.ndarray:
    """A with each row scaled by its block's weight in dJ/dY: -q_obstacle,
    q_length and q_curvature."""
    m = weights.sample_count
    return A * np.repeat([-weights.q_obstacle, weights.q_length, weights.q_curvature],
                         [m, m, m - 2])


def _interior(controls: np.ndarray) -> list[float]:
    """The interior control points as one vector: every x, then every y."""
    return controls[1:-1].T.ravel().tolist()


def _evaluate(xs: list, A: np.ndarray, K: np.ndarray, weights: GlobalCostWeights,
              obstacles: ObstacleSet, AW: np.ndarray | None = None) -> tuple[list[tuple], list | None]:
    """J over the k polygons whose interiors are the vectors xs, and, given
    AW = _weighted(A), its gradient over each interior. Returns one (length,
    curvature, obstacle, total) tuple per polygon and one gradient vector
    per polygon, None without AW or when any total is not finite.

    Y = M X holds every polygon's samples, segments and second differences.
    dJ/dY is sum_j 2 pen_j (p - o_j)/|p - o_j| on the samples, the unit
    segments and the unit second differences, each block times its weight,
    which AW carries, so the gradient is AW^T (dJ/dY unweighted). Each
    polygon gets the arithmetic of a lone one, value for value: a sum runs
    along one contiguous row (numpy's add.reduce, whose order its source
    fixes) or elementwise across rows in index order."""
    k, m = len(xs), weights.sample_count
    Y = map_interior(A, K, np.array(xs).reshape(k, 2, -1))
    # the segment and second-difference lengths, (k, 2m - 2)
    lens = np.hypot(Y[:, 0, m:], Y[:, 1, m:])
    lengths = np.add.reduce(lens[:, :m], 1).tolist()
    curvatures = np.add.reduce(lens[:, m:], 1).tolist()
    ql, qc, qo = weights.q_length, weights.q_curvature, weights.q_obstacle
    obstructed = len(obstacles) and qo > 0.0
    if obstructed:
        # (k, 2, N, m) over obstacle j and sample i = 1 .. m; O sums the
        # squared penalties obstacle-major (j, then i)
        diff = Y[:, :, None, :m] - obstacles.centers.T[:, :, None]
        dist = np.hypot(diff[:, 0], diff[:, 1])
        pen = dist - obstacles.radii[:, None]
        np.subtract(weights.d_safe, pen, out=pen)
        np.maximum(0.0, pen, out=pen)
        obstacle_terms = np.add.reduce((pen * pen).reshape(k, -1), 1).tolist()
    else:
        obstacle_terms = [0.0] * k
    terms = [(L, C, O, ql * L + qc * C + qo * O)
             for L, C, O in zip(lengths, curvatures, obstacle_terms)]
    if AW is None or not all(math.isfinite(t[3]) for t in terms):
        return terms, None
    G = np.empty(Y.shape)
    # a zero-length vector contributes a zero subgradient: 0 / ulp(0) = 0
    np.divide(Y[:, :, m:], np.maximum(lens, _TINY)[:, None], out=G[:, :, m:])
    if obstructed:
        radial = diff / np.maximum(dist, _TINY)[:, None]
        radial *= (pen + pen)[:, None]
        np.add.reduce(radial, 2, out=G[:, :, :m])
    else:
        G[:, :, :m] = 0.0
    return terms, np.add.reduce(G[:, :, None] * AW, 3).reshape(k, -1).tolist()


def cost_global(path: SplinePath, weights: GlobalCostWeights, obstacles: ObstacleSet) -> CostBreakdown:
    """J over the path sampled at u_i = i/m with m = weights.sample_count,
    by the evaluation optimize descends on, so a planned path's cost is the
    planner's own, bit for bit."""
    c = path.control_points
    A, K = _stacked_map(path.knots, path.degree, c, weights.sample_count)
    return CostBreakdown(*_evaluate([_interior(c)], A, K, weights, obstacles)[0][0])


def _min_clearance(first: np.ndarray, samples: np.ndarray, obstacles: ObstacleSet) -> float:
    """Least surface distance to an obstacle from the first point (2,) and
    the samples (2, m)."""
    if not len(obstacles):
        return math.inf
    pts = np.column_stack([first, samples])
    d = np.hypot(pts[0, :, None] - obstacles.centers[None, :, 0],
                 pts[1, :, None] - obstacles.centers[None, :, 1]) - obstacles.radii[None, :]
    return float(d.min())


DEGREE = 3  # B-spline degree of a planned path
MAX_ITERS = 500  # descent iterations per seed
STEP = 1.0  # length of a steepest-descent step, grid cells
TOLERANCE = 1e-8  # relative cost change that ends a descent
ARMIJO = 1e-4  # sufficient-decrease constant of the line search
LBFGS_MEMORY = 6  # (s, y) pairs kept by the quasi-Newton direction
_TINY = math.ulp(0.0)


def _dot(a: list, b: list) -> float:
    """a . b folded left to right (never the built-in sum, which compensates
    its rounding from Python 3.12)."""
    acc = 0.0
    for u, v in zip(a, b):
        acc += u * v
    return acc


def _lbfgs_direction(g: list, pairs: deque) -> list:
    """-H g by the two-loop recursion, H0 = (s^T y / y^T y) I from the newest
    pair. A pair is (s, y, 1 / s^T y, s^T y / y^T y)."""
    q = g
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * _dot(s, q)
        q = [qi - a * yi for qi, yi in zip(q, y)]
        alphas.append(a)
    gamma = pairs[-1][3]
    q = [qi * gamma for qi in q]
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        b = a - rho * _dot(y, q)
        q = [qi + b * si for qi, si in zip(q, s)]
    return [-qi for qi in q]


def _descend(x: list, terms: tuple, g: list):
    """One seed's L-BFGS descent over its interior vector x, as a generator:
    it yields each trial vector, is sent that vector's (terms, gradient),
    and returns (x, terms, history, converged). The first step, and any
    step where -H g is not a descent direction, is the normalized steepest
    step of length STEP; Armijo backtracking halves the step length t until
    the trial point decreases the cost enough."""
    f = terms[3]
    history = [f]
    pairs = deque(maxlen=LBFGS_MEMORY)
    if f == 0.0:
        return x, terms, history, True
    while True:
        gnorm = math.sqrt(_dot(g, g))
        if gnorm == 0.0:
            return x, terms, history, True
        d = _lbfgs_direction(g, pairs) if pairs else None
        slope = _dot(g, d) if d is not None else 0.0
        if not slope < 0.0:
            scale = -(STEP / gnorm)
            d = [scale * gi for gi in g]
            slope = _dot(g, d)
        dnorm, t = math.sqrt(_dot(d, d)), 1.0
        while True:
            s = [t * di for di in d]
            trial = [xi + si for xi, si in zip(x, s)]
            trial_terms, trial_g = yield trial
            if trial_terms[3] <= f + ARMIJO * t * slope:
                break
            t *= 0.5
            if t * dnorm < 1e-12:
                return x, terms, history, True
        y = [b - a for a, b in zip(g, trial_g)]
        sy = _dot(s, y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy, sy / _dot(y, y)))
        rel = abs(f - trial_terms[3]) <= TOLERANCE * abs(f)
        x, terms, f, g = trial, trial_terms, trial_terms[3], trial_g
        history.append(f)
        if rel:
            return x, terms, history, True
        if len(history) > MAX_ITERS:
            return x, terms, history, False


def _descend_lockstep(seeds: list, A: np.ndarray, K: np.ndarray, weights: GlobalCostWeights,
                      obstacles: ObstacleSet) -> tuple:
    """Descend every seed in lockstep and return the _descend result with
    the lowest final cost (ties prefer the earlier seed). Each round sends
    every active seed its reply and evaluates the trial points they yield
    in one _evaluate call; every seed takes the decisions it would take
    alone, so it visits the same points bit for bit."""
    AW = _weighted(A, weights)
    terms, grads = _evaluate(seeds, A, K, weights, obstacles, AW)
    if grads is None:
        raise PlanningError("non-finite cost at the initial control polygon")
    runs = [_descend(*run) for run in zip(seeds, terms, grads)]
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
        terms, grads = _evaluate(list(trials.values()), A, K, weights, obstacles, AW)
        if grads is None:
            raise PlanningError("non-finite cost during line search")
        replies = dict(zip(trials, zip(terms, grads)))


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

    m = weights.sample_count
    knots = clamped_uniform_knots(len(controls), DEGREE)
    A, K = _stacked_map(knots, DEGREE, controls, m)
    x = _interior(controls)
    seeds = [x]
    samples = map_interior(A, K, np.reshape(x, (1, 2, -1)))[0, :, :m]
    if _min_clearance(controls[0], samples, obstacles) >= weights.d_safe:
        # the chord with control points at the Greville abscissae
        xi = (sum(knots[j:j + len(controls)] for j in range(1, DEGREE + 1)) / DEGREE)[:, None]
        line = (1.0 - xi) * controls[0] + xi * controls[-1]
        line[[0, -1]] = controls[[0, -1]]
        (seed_terms, line_terms), _ = _evaluate([x, _interior(line)], A, K, weights, obstacles)
        if line_terms[2] == 0.0 and line_terms[3] <= seed_terms[3]:
            return GlobalPlanResult(SplinePath(line, DEGREE, knots),
                                    [seed_terms[3], line_terms[3]],
                                    CostBreakdown(*line_terms), True)
    else:
        cx, cy = (controls[-1] - controls[0]).tolist()
        norm = float(np.hypot(cx, cy))
        if norm > 0.0:
            # the interior bowed by amp sin(pi u_i) along the chord's normal
            amp = weights.d_safe + (float(obstacles.radii.max()) if len(obstacles) else 0.0)
            bump = [amp * math.sin(math.pi * i / (len(controls) - 1))
                    for i in range(1, len(controls) - 1)]
            rows = ((x[:len(bump)], -cy / norm), (x[len(bump):], cx / norm))
            for sign in (1.0, -1.0):
                seeds.append([v + sign * b * p for row, p in rows for v, b in zip(row, bump)])

    x, terms, history, converged = _descend_lockstep(seeds, A, K, weights, obstacles)
    c = controls.copy()
    c[1:-1] = np.reshape(x, (2, -1)).T
    return GlobalPlanResult(SplinePath(c, DEGREE, knots), history, CostBreakdown(*terms),
                            converged)
