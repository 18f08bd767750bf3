import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline
from scipy.optimize import minimize

from agnav.global_planner import (
    ARMIJO,
    DEGREE,
    LBFGS_MEMORY,
    MAX_ITERS,
    STEP,
    TOLERANCE,
    CostBreakdown,
    GlobalCostWeights,
    ObstacleSet,
    PlanningError,
    _evaluate,
    cost_global,
    optimize,
    straight_line_init,
)
from agnav.spline import (
    SplinePath,
    basis_matrix,
    clamped_uniform_knots,
    make_clamped_uniform,
    sample,
)


def brute_force_cost(path, weights, obstacles):
    """Independent recomputation: scipy for the curve, scalar loops for the
    sums, written from the cost definition rather than the implementation."""
    ref = BSpline(path.knots, path.control_points, path.degree)
    m = weights.sample_count
    pts = [ref(i / m) for i in range(m + 1)]
    length = 0.0
    for i in range(1, m + 1):
        length += math.hypot(pts[i][0] - pts[i - 1][0], pts[i][1] - pts[i - 1][1])
    curvature = 0.0
    for i in range(2, m):
        sx = pts[i + 1][0] - 2 * pts[i][0] + pts[i - 1][0]
        sy = pts[i + 1][1] - 2 * pts[i][1] + pts[i - 1][1]
        curvature += math.hypot(sx, sy)
    obstacle = 0.0
    for j in range(len(obstacles)):
        cx, cy = obstacles.centers[j]
        r = obstacles.radii[j]
        for i in range(1, m + 1):
            d = math.hypot(pts[i][0] - cx, pts[i][1] - cy) - r
            pen = max(0.0, weights.d_safe - d)
            obstacle += pen * pen
    total = (weights.q_length * length + weights.q_curvature * curvature
             + weights.q_obstacle * obstacle)
    return length, curvature, obstacle, total


def test_straight_line_init_examples():
    pts, at_goal = straight_line_init((0, 0), (4, 0), 5)
    assert not at_goal
    assert np.array_equal(pts, [[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]])

    pts, at_goal = straight_line_init((0, 0), (0, 0), 5)
    assert at_goal and pts.shape == (1, 2)

    pts, _ = straight_line_init((1, 1), (-3, 5), 3)
    assert np.allclose(pts[1], [-1, 3])


def test_cost_straight_line_closed_form():
    path = make_clamped_uniform([(0, 0), (4, 0)], 1)
    bd = cost_global(path, GlobalCostWeights(), ObstacleSet.from_pairs([]))
    assert bd.length == 4.0
    assert bd.curvature == 0.0
    assert bd.obstacle == 0.0


def test_cost_single_obstacle_term():
    # one sample (x=1) at distance 0.2 from the obstacle, all others clear
    path = make_clamped_uniform([(0, 0), (4, 0)], 1)
    weights = GlobalCostWeights(d_safe=0.5, sample_count=4)
    obstacles = ObstacleSet.from_pairs([(((1.0, 0.2)), 0.0)])
    bd = cost_global(path, weights, obstacles)
    assert abs(bd.obstacle - 0.09) < 1e-12


def test_breakdown_sums_to_total():
    rng = random.Random(0)
    for _ in range(10):
        pts = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]
        path = make_clamped_uniform(pts, 3)
        w = GlobalCostWeights(q_length=rng.uniform(0, 2), q_curvature=rng.uniform(0, 9),
                              q_obstacle=rng.uniform(0, 90))
        obs = ObstacleSet.from_pairs([(((rng.uniform(-5, 5), rng.uniform(-5, 5))),
                                       rng.uniform(0, 0.5)) for _ in range(3)])
        bd = cost_global(path, w, obs)
        total = w.q_length * bd.length + w.q_curvature * bd.curvature + w.q_obstacle * bd.obstacle
        assert abs(total - bd.total) < 1e-12


def random_scenes():
    """The 50 random (path, weights, obstacles) scenes of the cost oracle."""
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(4, 8)
        pts = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(n)]
        path = make_clamped_uniform(pts, 3)
        weights = GlobalCostWeights(
            q_length=rng.uniform(0.1, 2.0),
            q_curvature=rng.uniform(0.1, 9.0),
            q_obstacle=rng.uniform(1.0, 90.0),
            d_safe=rng.uniform(0.5, 2.5),
        )
        obstacles = ObstacleSet.from_pairs([
            (((rng.uniform(-8, 8), rng.uniform(-8, 8))), rng.uniform(0, 1.0))
            for _ in range(rng.randint(0, 4))
        ])
        yield path, weights, obstacles


def test_cost_matches_brute_force_50_scenes():
    for path, weights, obstacles in random_scenes():
        bd = cost_global(path, weights, obstacles)
        L, K, O, total = brute_force_cost(path, weights, obstacles)
        assert abs(bd.length - L) < 1e-9
        assert abs(bd.curvature - K) < 1e-9
        assert abs(bd.obstacle - O) < 1e-9
        assert abs(bd.total - total) < 1e-9


def test_gradient_matches_central_differences_50_scenes():
    h = 1e-6
    for path, weights, obstacles in random_scenes():
        us = np.arange(weights.sample_count + 1) / weights.sample_count
        B = basis_matrix(path.knots, path.degree, us)
        terms, grad = _evaluate(path.control_points[None], B, weights, obstacles)
        assert CostBreakdown(*terms[0]) == cost_global(path, weights, obstacles)
        grad = grad[0]

        def total_at(idx, delta):
            cp = path.control_points.copy()
            cp[idx] += delta
            return cost_global(SplinePath(cp, path.degree, path.knots), weights, obstacles).total

        fd = np.zeros_like(grad)
        for idx in np.ndindex(*fd.shape):
            fd[idx] = (total_at(idx, h) - total_at(idx, -h)) / (2.0 * h)
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_optimize_no_obstacles_stays_straight():
    # the equally spaced straight polygon is the geometric minimizer; descent
    # may redistribute interior points along the line (the clamped-knot
    # parameterization is not arclength-uniform) but never bends it
    init, _ = straight_line_init((0, 0), (4, 0), 5)
    res = optimize(init, GlobalCostWeights(), ObstacleSet.from_pairs([]))
    assert res.converged
    assert np.all(np.abs(res.path.control_points[:, 1]) < 1e-9)
    assert res.cost_history[-1] <= res.cost_history[0]
    assert res.breakdown.length == pytest.approx(4.0, abs=1e-9)


def test_optimize_midpoint_obstacle_clearance():
    weights = GlobalCostWeights(d_safe=1.0)
    init, _ = straight_line_init((0, 0), (8, 0), 6)
    obstacles = ObstacleSet.from_pairs([(((4.0, 0.0)), 0.3)])
    res = optimize(init, weights, obstacles)
    pts = sample(res.path, 512)
    clearance = np.hypot(pts[:, 0] - 4.0, pts[:, 1]) - 0.3
    assert clearance.min() >= 0.95 * weights.d_safe


def test_optimize_monotone_history_and_endpoints():
    weights = GlobalCostWeights(d_safe=1.0)
    init, _ = straight_line_init((0, 0), (8, 0), 6)
    obstacles = ObstacleSet.from_pairs([(((3.5, 0.2)), 0.3)])
    res = optimize(init, weights, obstacles)
    hist = res.cost_history
    assert all(a >= b for a, b in zip(hist, hist[1:]))
    assert np.all(np.abs(res.path.control_points[0] - [0, 0]) < 1e-12)
    assert np.all(np.abs(res.path.control_points[-1] - [8, 0]) < 1e-12)


def test_optimize_weight_scaling_invariance():
    init, _ = straight_line_init((0, 0), (8, 0), 6)
    obstacles = ObstacleSet.from_pairs([(((4.0, 0.5)), 0.2)])
    a = optimize(init, GlobalCostWeights(1.0, 5.0, 50.0, d_safe=1.0), obstacles)
    b = optimize(init, GlobalCostWeights(10.0, 50.0, 500.0, d_safe=1.0), obstacles)
    assert np.all(np.abs(a.path.control_points - b.path.control_points) < 1e-6)


def seeded_scene(seed, n_obstacles=None):
    """Start, goal and 1-3 obstacles near the chord; with ``n_obstacles``
    given, the scene of the benchmark's plan_global workload."""
    rng = random.Random(seed)
    start = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    goal = (rng.uniform(7, 9), rng.uniform(-1, 1))
    # obstacles near the straight segment, away from the endpoints
    obstacles = []
    for _ in range(rng.randint(1, 3) if n_obstacles is None else n_obstacles):
        t = rng.uniform(0.25, 0.75)
        ox = start[0] + t * (goal[0] - start[0]) + rng.uniform(-0.5, 0.5)
        oy = start[1] + t * (goal[1] - start[1]) + rng.uniform(-0.4, 0.4)
        obstacles.append(((ox, oy), rng.uniform(0.0, 0.3)))
    return start, goal, ObstacleSet.from_pairs(obstacles)


def test_optimize_20_seeded_scenes():
    weights = GlobalCostWeights(d_safe=1.2)
    for seed in range(20):
        start, goal, obstacles = seeded_scene(seed)
        init, _ = straight_line_init(start, goal, 6)
        init_cost = cost_global(make_clamped_uniform(init, 3), weights, obstacles)
        res = optimize(init, weights, obstacles)
        assert res.converged
        assert res.cost_history[-1] <= init_cost.total + 1e-12
        hist = res.cost_history
        assert all(a >= b for a, b in zip(hist, hist[1:]))
        if init_cost.obstacle > 1e-9:
            assert res.cost_history[-1] < init_cost.total


def test_optimize_already_at_goal():
    pts, at_goal = straight_line_init((2, 2), (2, 2), 6)
    assert at_goal
    res = optimize(pts, GlobalCostWeights(), ObstacleSet.from_pairs([]))
    assert res.already_at_goal
    assert np.allclose(res.path.control_points, [[2, 2]] * 4)


@pytest.mark.filterwarnings("ignore:overflow")
def test_optimize_nonfinite_cost_aborts():
    init, _ = straight_line_init((0, 0), (4, 0), 5)
    weights = GlobalCostWeights(q_obstacle=1e308, d_safe=1e160)
    obstacles = ObstacleSet.from_pairs([(((2.0, 0.0)), 0.0)])
    with pytest.raises(PlanningError):
        optimize(init, weights, obstacles)


@pytest.mark.parametrize("make", [
    lambda: GlobalCostWeights(q_length=math.nan),
    lambda: GlobalCostWeights(q_obstacle=math.inf),
    lambda: GlobalCostWeights(d_safe=math.nan),
    lambda: ObstacleSet.from_pairs([((0.0, 0.0), math.nan)]),
    lambda: ObstacleSet.from_pairs([((math.inf, 0.0), 0.1)]),
], ids=["nan-q-length", "inf-q-obstacle", "nan-d-safe", "nan-radius", "inf-center"])
def test_non_finite_weights_and_obstacles_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_optimize_rejects_short_polygon():
    with pytest.raises(ValueError):
        optimize(np.array([[0.0, 0.0], [1.0, 0.0]]),
                 GlobalCostWeights(), ObstacleSet.from_pairs([]))


# ---------------------------------------------------------------------------
# Reference: the sequential per-seed descent that optimize's lockstep descent
# replaces, kept verbatim. optimize must reproduce it bit for bit.


def reference_cost_and_grad(controls, B, weights, obstacles):
    pts = B @ controls
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    sec = pts[3:] - 2.0 * pts[2:-1] + pts[1:-2]
    sec_len = np.hypot(sec[:, 0], sec[:, 1])
    length = float(np.sum(seg_len))
    curvature = float(np.sum(sec_len))
    obstacle = 0.0
    use_obstacles = len(obstacles) and weights.q_obstacle > 0.0
    if use_obstacles:
        diff = pts[1:, None, :] - obstacles.centers[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        pen = np.maximum(0.0, weights.d_safe - (dist - obstacles.radii[None, :]))
        obstacle = float(np.sum(pen * pen))
    total = weights.q_length * length + weights.q_curvature * curvature + weights.q_obstacle * obstacle
    bd = CostBreakdown(length, curvature, obstacle, total)
    if not math.isfinite(total):
        return bd, None
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


def reference_lbfgs_direction(g, pairs):
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


def reference_descend(controls, B, weights, obstacles):
    c = controls.copy()
    bd, grad = reference_cost_and_grad(c, B, weights, obstacles)
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
        d = reference_lbfgs_direction(g, pairs) if pairs else None
        if d is None or not float(g @ d) < 0.0:
            d = -(STEP / gnorm) * g
        slope = float(g @ d)
        dnorm = float(np.sqrt(d @ d))
        t = 1.0
        while True:
            trial = c.copy()
            trial[1:-1] += (t * d).reshape(-1, 2)
            bd_t, grad_t = reference_cost_and_grad(trial, B, weights, obstacles)
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


def bowed_seeds(controls, weights, obstacles):
    """optimize's extra seeds: the polygon bowed to either side of the chord
    by d_safe plus the largest radius (none for a zero chord)."""
    chord = controls[-1] - controls[0]
    norm = float(np.hypot(chord[0], chord[1]))
    if not norm > 0.0:
        return []
    perp = np.array([-chord[1], chord[0]]) / norm
    amp = weights.d_safe + (float(obstacles.radii.max()) if len(obstacles) else 0.0)
    bump = np.sin(np.linspace(0.0, math.pi, len(controls)))[:, None] * perp[None, :]
    return [controls + amp * bump, controls - amp * bump]


def reference_optimize(controls, weights, obstacles):
    """(controls, breakdown, history, converged) of the sequential descent."""
    knots = clamped_uniform_knots(len(controls), DEGREE)
    B = basis_matrix(knots, DEGREE, np.arange(weights.sample_count + 1) / weights.sample_count)
    seeds = [controls]
    pts = B @ controls
    if len(obstacles):
        clear = (np.hypot(pts[:, None, 0] - obstacles.centers[None, :, 0],
                          pts[:, None, 1] - obstacles.centers[None, :, 1])
                 - obstacles.radii[None, :]).min()
        if clear < weights.d_safe:
            seeds += bowed_seeds(controls, weights, obstacles)
    best = None
    for seed in seeds:
        run = reference_descend(seed, B, weights, obstacles)
        if best is None or run[1].total < best[1].total:
            best = run
    return best


def identity_scenes(count):
    """Seeded optimize inputs for the bit-identity check: 4-9 control
    points, 0-3 obstacles, zero radii, obstacles centred on the chord (the
    symmetric saddle), coincident control points and weights scaled x10."""
    rng = random.Random(20241018)
    for i in range(count):
        n = 4 + i % 6
        kind = (i // 6) % 4
        start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        ang = rng.uniform(-math.pi, math.pi)
        chord = rng.uniform(2, 10)
        goal = (start[0] + chord * math.cos(ang), start[1] + chord * math.sin(ang))
        init, _ = straight_line_init(start, goal, n)
        pairs = []
        for _ in range(rng.randint(0, 3)):
            t = 0.5 if kind == 1 else rng.uniform(0.2, 0.8)
            off = 0.0 if kind == 1 else rng.uniform(-0.8, 0.8)
            centre = (start[0] + t * (goal[0] - start[0]) - off * math.sin(ang),
                      start[1] + t * (goal[1] - start[1]) + off * math.cos(ang))
            pairs.append((centre, 0.0 if kind == 2 or rng.random() < 0.2 else rng.uniform(0, 0.6)))
        if kind == 3:
            # coincident control points: repeated interior points and an
            # interior point on an endpoint
            init[1] = init[0]
            init[-3] = init[-2]
        scale = 10.0 if rng.random() < 0.5 else 1.0
        weights = GlobalCostWeights(
            q_length=scale * rng.uniform(0.5, 2.0),
            q_curvature=scale * rng.uniform(1.0, 9.0),
            q_obstacle=scale * rng.uniform(10.0, 90.0),
            d_safe=rng.uniform(0.6, 2.0),
            sample_count=rng.choice((16, 32, 64)),
        )
        yield init, weights, ObstacleSet.from_pairs(pairs)


def history_bytes(history):
    return np.array(history, dtype=float).tobytes()


def test_lockstep_descent_bit_identical_to_sequential_1020_scenes():
    bowed_wins = 0
    for init, weights, obstacles in identity_scenes(1020):
        c, bd, history, converged = reference_optimize(init, weights, obstacles)
        res = optimize(init, weights, obstacles)
        assert res.path.control_points.tobytes() == c.tobytes()
        assert history_bytes(res.cost_history) == history_bytes(history)
        assert res.converged == converged
        assert res.breakdown == bd
        bowed_wins += history[0] != cost_global(
            make_clamped_uniform(init, DEGREE), weights, obstacles).total
    # the lockstep rounds with several seeds decide the result often
    assert bowed_wins >= 300


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("q_length, q_obstacle, d_safe, raises", [
    (4.0e307, 1.0, 1.0, False),  # every cost stays finite
    (4.4e307, 1.0, 1.0, True),   # the straight seed is finite, the bowed ones overflow
    (1.0, 1e308, 1e150, True),   # the straight seed overflows
])
def test_lockstep_descent_raises_where_sequential_raises(q_length, q_obstacle, d_safe, raises):
    init, _ = straight_line_init((0, 0), (4, 0), 6)
    obstacles = ObstacleSet.from_pairs([((2.0, 0.3), 0.0)])
    weights = GlobalCostWeights(q_length=q_length, q_obstacle=q_obstacle, d_safe=d_safe)
    if raises:
        for run in (reference_optimize, optimize):
            with pytest.raises(PlanningError):
                run(init, weights, obstacles)
    else:
        c, _, history, _ = reference_optimize(init, weights, obstacles)
        res = optimize(init, weights, obstacles)
        assert res.path.control_points.tobytes() == c.tobytes()
        assert history_bytes(res.cost_history) == history_bytes(history)


def test_optimize_within_oracle_gap_of_scipy_lbfgsb():
    """Optimality oracle: scipy's L-BFGS-B from the same three seeds, on the
    same cost and gradient, over the 36 scenes of plan_global seed 0. Relative
    gaps (ours - scipy best) / scipy best measured at the sequential descent:
    max 1.69e-4 (scene 35), mean -2.3e-6; the bounds leave about 3x."""
    weights = GlobalCostWeights(d_safe=1.2)
    B = basis_matrix(clamped_uniform_knots(6, DEGREE), DEGREE, np.arange(65) / 64)
    gaps = []
    for i in range(36):
        start, goal, obstacles = seeded_scene(i, 1 + i % 3)
        init, _ = straight_line_init(start, goal, 6)
        ours = optimize(init, weights, obstacles).cost_history[-1]
        best = math.inf
        for seed in [init] + bowed_seeds(init, weights, obstacles):
            def fun(x, seed=seed):
                c = seed.copy()
                c[1:-1] = x.reshape(-1, 2)
                terms, grad = _evaluate(c[None], B, weights, obstacles)
                return terms[0][3], grad[0, 1:-1].ravel()
            best = min(best, minimize(fun, seed[1:-1].ravel(), jac=True, method="L-BFGS-B").fun)
        gaps.append((ours - best) / best)
    assert max(gaps) <= 5e-4
    assert sum(gaps) / len(gaps) <= 5e-5


@settings(max_examples=60, deadline=None)
@given(
    start=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    goal=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    n=st.integers(4, 9),
    obstacles=st.lists(
        st.tuples(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), st.floats(0, 1)),
        max_size=3),
    d_safe=st.floats(0.2, 2.0),
)
def test_optimize_property_monotone_pinned_and_no_worse_than_straight(start, goal, n,
                                                                      obstacles, d_safe):
    weights = GlobalCostWeights(d_safe=d_safe)
    obs = ObstacleSet.from_pairs(obstacles)
    init, at_goal = straight_line_init(start, goal, n)
    res = optimize(init, weights, obs)
    if at_goal:
        assert res.already_at_goal
        return
    hist = res.cost_history
    assert all(a >= b for a, b in zip(hist, hist[1:]))
    cps = res.path.control_points
    assert np.all(np.abs(cps[0] - init[0]) <= 1e-12)
    assert np.all(np.abs(cps[-1] - init[-1]) <= 1e-12)
    assert hist[-1] <= cost_global(make_clamped_uniform(init, DEGREE), weights, obs).total
