import math
import random

import numpy as np
import pytest
from scipy.interpolate import BSpline

from agnav.global_planner import (
    GlobalCostWeights,
    ObstacleSet,
    PlanningError,
    _cost_and_grad,
    cost_global,
    optimize,
    straight_line_init,
)
from agnav.spline import SplinePath, basis_matrix, make_clamped_uniform, sample


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
        bd, grad = _cost_and_grad(path.control_points, B, weights, obstacles)
        assert bd == cost_global(path, weights, obstacles)

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


def seeded_scene(seed):
    rng = random.Random(seed)
    start = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    goal = (rng.uniform(7, 9), rng.uniform(-1, 1))
    # obstacles near the straight segment, away from the endpoints
    obstacles = []
    for _ in range(rng.randint(1, 3)):
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


def test_optimize_rejects_short_polygon():
    with pytest.raises(ValueError):
        optimize(np.array([[0.0, 0.0], [1.0, 0.0]]),
                 GlobalCostWeights(), ObstacleSet.from_pairs([]))
