import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import deque
from dataclasses import astuple

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
    _interior,
    _stacked_map,
    _weighted,
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


def interior_terms_and_gradient(controls, knots, degree, weights, obstacles):
    """optimize's evaluation of one polygon: its (L, K, O, J) and the
    gradient over its interior vector (every x, then every y)."""
    A, K = _stacked_map(knots, degree, controls, weights.sample_count)
    terms, grads = _evaluate([_interior(controls)], A, K, weights, obstacles, _weighted(A, weights))
    return terms[0], grads[0]


def test_gradient_matches_central_differences_50_scenes():
    h = 1e-6
    for path, weights, obstacles in random_scenes():
        terms, grad = interior_terms_and_gradient(path.control_points, path.knots, path.degree,
                                                  weights, obstacles)
        assert CostBreakdown(*terms) == cost_global(path, weights, obstacles)
        grad = np.array(grad)
        inner = len(path.control_points) - 2

        def total_at(v, delta):
            cp = path.control_points.copy()
            cp[1 + v % inner, v // inner] += delta
            return cost_global(SplinePath(cp, path.degree, path.knots), weights, obstacles).total

        fd = np.array([(total_at(v, h) - total_at(v, -h)) / (2.0 * h) for v in range(len(grad))])
        assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_optimize_no_obstacles_stays_straight():
    # with nothing in the band the minimizer is the chord with Greville-spaced
    # control points: optimize moves the equally spaced interior points along
    # the line (their clamped-knot parameterization is not arclength-uniform)
    # but never bends it
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
# replaces, on the same arithmetic, and the closed-form chord that optimize
# returns on a clear leg in its place. optimize must reproduce it bit for bit.
# The arithmetic: the samples, segments and second differences are one
# stacked map M applied to the polygon, its pinned ends folded into one
# constant and its interior points added left to right; the gradient is
# M^T dJ/dY with each block's weight on M's rows; every vector of the descent
# is Python floats, every x and then every y of the interior, and every dot
# product a left-to-right fold.


def stacked_rows(knots, m):
    """M: samples 1..m, segments and second differences of the basis."""
    B = basis_matrix(knots, DEGREE, np.arange(m + 1) / m)
    return np.concatenate([B[1:], B[1:] - B[:-1], B[3:] - 2.0 * B[2:-1] + B[1:-2]])


def reference_cost_and_grad(controls, M, weights, obstacles):
    n, m = len(controls), weights.sample_count
    Y = M[:, 0, None] * controls[0] + M[:, -1, None] * controls[-1]
    for j in range(1, n - 1):
        Y = Y + M[:, j, None] * controls[j]
    seg, sec = Y[m:2 * m], Y[2 * m:]
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    sec_len = np.hypot(sec[:, 0], sec[:, 1])
    length = float(np.add.reduce(seg_len))
    curvature = float(np.add.reduce(sec_len))
    obstacle = 0.0
    use_obstacles = len(obstacles) and weights.q_obstacle > 0.0
    if use_obstacles:
        diff = Y[None, :m, :] - obstacles.centers[:, None, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        pen = np.maximum(0.0, weights.d_safe - (dist - obstacles.radii[:, None]))
        obstacle = float(np.add.reduce((pen * pen).ravel()))
    total = weights.q_length * length + weights.q_curvature * curvature + weights.q_obstacle * obstacle
    bd = CostBreakdown(length, curvature, obstacle, total)
    if not math.isfinite(total):
        return bd, None
    dY = np.zeros_like(Y)
    dY[m:2 * m] = seg / np.where(seg_len > 0.0, seg_len, 1.0)[:, None]
    dY[2 * m:] = sec / np.where(sec_len > 0.0, sec_len, 1.0)[:, None]
    if use_obstacles:
        radial = diff / np.where(dist > 0.0, dist, 1.0)[..., None] * (2.0 * pen)[..., None]
        dY[:m] = radial[0]
        for j in range(1, len(obstacles)):
            dY[:m] = dY[:m] + radial[j]
    W = M[:, 1:-1] * np.repeat([-weights.q_obstacle, weights.q_length,
                                weights.q_curvature], [m, m, m - 2])[:, None]
    # (2, n - 2) sums, x then y, each along one contiguous row of products
    products = np.ascontiguousarray(dY.T[:, None, :] * W.T)
    return bd, np.add.reduce(products, -1).ravel().tolist()


def dot(a, b):
    acc = 0.0
    for u, v in zip(a, b):
        acc += u * v
    return acc


def reference_lbfgs_direction(g, pairs):
    q = list(g)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * dot(s, q)
        q = [qi - a * yi for qi, yi in zip(q, y)]
        alphas.append(a)
    s, y, _ = pairs[-1]
    gamma = dot(s, y) / dot(y, y)
    q = [qi * gamma for qi in q]
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = a - rho * dot(y, q)
        q = [qi + b * si for qi, si in zip(q, s)]
    return [-qi for qi in q]


def with_interior(controls, x):
    c = controls.copy()
    c[1:-1] = np.reshape(x, (2, -1)).T
    return c


def reference_descend(controls, M, weights, obstacles):
    c = controls.copy()
    bd, g = reference_cost_and_grad(c, M, weights, obstacles)
    if g is None:
        raise PlanningError("non-finite cost at the initial control polygon")
    f = bd.total
    history = [f]
    if len(c) <= 2 or f == 0.0:
        return c, bd, history, True
    x = c[1:-1].T.ravel().tolist()
    pairs = deque(maxlen=LBFGS_MEMORY)
    for _ in range(MAX_ITERS):
        gnorm = math.sqrt(dot(g, g))
        if gnorm == 0.0:
            return c, bd, history, True
        d = reference_lbfgs_direction(g, pairs) if pairs else None
        if d is None or not dot(g, d) < 0.0:
            d = [-(STEP / gnorm) * gi for gi in g]
        slope = dot(g, d)
        dnorm = math.sqrt(dot(d, d))
        t = 1.0
        while True:
            s = [t * di for di in d]
            trial = [xi + si for xi, si in zip(x, s)]
            bd_t, g_t = reference_cost_and_grad(with_interior(c, trial), M, weights, obstacles)
            if g_t is None:
                raise PlanningError("non-finite cost during line search")
            if bd_t.total <= f + ARMIJO * t * slope:
                break
            t *= 0.5
            if t * dnorm < 1e-12:
                return c, bd, history, True
        y = [b - a for a, b in zip(g, g_t)]
        if dot(s, y) > 0.0:
            pairs.append((s, y, 1.0 / dot(s, y)))
        rel = abs(f - bd_t.total) <= TOLERANCE * abs(f)
        x, bd, f, g = trial, bd_t, bd_t.total, g_t
        c = with_interior(c, x)
        history.append(f)
        if rel:
            return c, bd, history, True
    return c, bd, history, False


def bowed_seeds(controls, weights, obstacles):
    """optimize's extra seeds: the interior bowed to either side of the
    chord by (d_safe plus the largest radius) sin(pi u_i), ends kept (none
    for a zero chord)."""
    chord = controls[-1] - controls[0]
    norm = float(np.hypot(chord[0], chord[1]))
    if not norm > 0.0:
        return []
    perp = [-chord[1] / norm, chord[0] / norm]
    amp = weights.d_safe + (float(obstacles.radii.max()) if len(obstacles) else 0.0)
    seeds = []
    for sign in (1.0, -1.0):
        seed = controls.copy()
        for i in range(1, len(controls) - 1):
            b = amp * math.sin(math.pi * i / (len(controls) - 1))
            seed[i] = [controls[i][d] + sign * b * perp[d] for d in range(2)]
        seeds.append(seed)
    return seeds


def greville_chord(controls, knots):
    """The chord from the first to the last control point, with control
    point i at the Greville abscissa (t[i+1] + ... + t[i+DEGREE]) / DEGREE."""
    line = controls.copy()
    for i in range(1, len(controls) - 1):
        xi = sum(knots[i + 1:i + DEGREE + 1]) / DEGREE
        line[i] = (1.0 - xi) * controls[0] + xi * controls[-1]
    return line


def sample_clearance(pts, obstacles):
    """Least surface distance from a sample to an obstacle (inf for none)."""
    return (np.hypot(pts[:, None, 0] - obstacles.centers[None, :, 0],
                     pts[:, None, 1] - obstacles.centers[None, :, 1])
            - obstacles.radii[None, :]).min(initial=math.inf)


def reference_optimize(controls, weights, obstacles):
    """(controls, breakdown, history, converged) of the sequential descent,
    or of the Greville chord where the straight seed's samples clear the
    band and the chord is clear and no costlier."""
    knots = clamped_uniform_knots(len(controls), DEGREE)
    M = stacked_rows(knots, weights.sample_count)
    seeds = [controls]
    pts = sample(SplinePath(controls, DEGREE, knots), weights.sample_count)
    if sample_clearance(pts, obstacles) < weights.d_safe:
        seeds += bowed_seeds(controls, weights, obstacles)
    else:
        line = greville_chord(controls, knots)
        seed_bd, _ = reference_cost_and_grad(controls, M, weights, obstacles)
        line_bd, _ = reference_cost_and_grad(line, M, weights, obstacles)
        if line_bd.obstacle == 0.0 and line_bd.total <= seed_bd.total:
            return line, line_bd, [seed_bd.total, line_bd.total], True
    best = None
    for seed in seeds:
        run = reference_descend(seed, M, weights, obstacles)
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


def clear_scenes(count):
    """Seeded optimize inputs whose chord clears the d_safe band: 4-9
    control points, sample counts 16/32/64 and 0-3 obstacles whose surface
    lies beyond d_safe from every point of the chord."""
    rng = random.Random(22)
    for i in range(count):
        n = 4 + i % 6
        start = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        ang = rng.uniform(-math.pi, math.pi)
        chord = rng.uniform(2, 10)
        goal = (start[0] + chord * math.cos(ang), start[1] + chord * math.sin(ang))
        init, _ = straight_line_init(start, goal, n)
        scale = 10.0 if rng.random() < 0.5 else 1.0
        weights = GlobalCostWeights(
            q_length=scale * rng.uniform(0.5, 2.0),
            q_curvature=scale * rng.uniform(1.0, 9.0),
            q_obstacle=scale * rng.uniform(10.0, 90.0),
            d_safe=rng.uniform(0.6, 2.0),
            sample_count=rng.choice((16, 32, 64)),
        )
        pairs = []
        for _ in range(rng.randint(0, 3)):
            t = rng.uniform(-0.2, 1.2)
            radius = rng.uniform(0, 0.6)
            off = rng.choice((-1.0, 1.0)) * (weights.d_safe + radius + rng.uniform(0.01, 2.0))
            pairs.append(((start[0] + t * (goal[0] - start[0]) - off * math.sin(ang),
                           start[1] + t * (goal[1] - start[1]) + off * math.cos(ang)), radius))
        yield init, weights, ObstacleSet.from_pairs(pairs)


def test_optimize_clear_chord_is_the_global_optimum_240_scenes():
    # J >= q_length * |b - a|; the Greville-spaced chord meets the bound, up
    # to rounding, and is never worse than the descent it replaces
    for init, weights, obstacles in clear_scenes(240):
        res = optimize(init, weights, obstacles)
        cps = res.path.control_points
        assert cps[0].tobytes() == init[0].tobytes()
        assert cps[-1].tobytes() == init[-1].tobytes()
        chord = float(np.hypot(*(init[-1] - init[0])))
        assert res.breakdown.obstacle == 0.0
        assert abs(res.breakdown.length - chord) <= 1e-12 * chord
        assert res.breakdown.curvature <= 1e-9 * chord
        M = stacked_rows(res.path.knots, weights.sample_count)
        _, descended, _, _ = reference_descend(init, M, weights, obstacles)
        assert res.breakdown.total <= descended.total


def bowed_around_midpoint_obstacle():
    # the input bows around an obstacle on the chord, so its samples clear
    # the band and the Greville chord's do not
    init, _ = straight_line_init((0.0, 0.0), (8.0, 0.0), 6)
    init[1:-1, 1] += 3.0
    return init, GlobalCostWeights(d_safe=1.0), ObstacleSet.from_pairs([((4.0, 0.0), 0.3)])


def perturbed_chord_no_costlier_than_the_chord():
    # the Greville chord moved by an ulp here and there: where rounding
    # makes it cheaper than the chord itself, the chord does not beat it.
    # Chords are drawn until one of 50 perturbations of one is cheaper
    rng = random.Random(5)
    weights, obstacles = GlobalCostWeights(), ObstacleSet.from_pairs([])
    knots = clamped_uniform_knots(6, DEGREE)
    M = stacked_rows(knots, 64)
    while True:
        ends = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in "ab"]
        line = greville_chord(straight_line_init(*ends, 6)[0], knots)
        line_bd, _ = reference_cost_and_grad(line, M, weights, obstacles)
        for _ in range(50):
            init = line.copy()
            init[1:-1] = np.nextafter(init[1:-1], [[rng.choice((-np.inf, np.inf)) for _ in "xy"]
                                                   for _ in init[1:-1]])
            if reference_cost_and_grad(init, M, weights, obstacles)[0].total < line_bd.total:
                return init, weights, obstacles


@pytest.mark.parametrize("scene", [bowed_around_midpoint_obstacle,
                                   perturbed_chord_no_costlier_than_the_chord],
                         ids=["chord-enters-band", "chord-costlier"])
def test_optimize_clear_seed_falls_back_to_the_descent(scene):
    init, weights, obstacles = scene()
    knots = clamped_uniform_knots(len(init), DEGREE)
    pts = sample(SplinePath(init, DEGREE, knots), weights.sample_count)
    assert sample_clearance(pts, obstacles) >= weights.d_safe
    c, bd, history, converged = reference_descend(init, stacked_rows(knots, weights.sample_count),
                                                  weights, obstacles)
    res = optimize(init, weights, obstacles)
    assert res.path.control_points.tobytes() != greville_chord(init, knots).tobytes()
    assert res.path.control_points.tobytes() == c.tobytes()
    assert history_bytes(res.cost_history) == history_bytes(history)
    assert res.converged == converged
    assert res.breakdown == bd


def history_bytes(history):
    return np.array(history, dtype=float).tobytes()


def test_lockstep_descent_bit_identical_to_sequential_1020_scenes():
    bowed_wins = closed_form = 0
    for init, weights, obstacles in identity_scenes(1020):
        c, bd, history, converged = reference_optimize(init, weights, obstacles)
        res = optimize(init, weights, obstacles)
        assert res.path.control_points.tobytes() == c.tobytes()
        assert history_bytes(res.cost_history) == history_bytes(history)
        assert res.converged == converged
        assert res.breakdown == bd
        bowed_wins += history[0] != cost_global(
            make_clamped_uniform(init, DEGREE), weights, obstacles).total
        closed_form += c.tobytes() == greville_chord(init, res.path.knots).tobytes()
    # the lockstep rounds with several seeds decide the result often, and
    # the closed form decides it on many clear scenes
    assert bowed_wins >= 300
    assert closed_form >= 250


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


def test_cost_global_is_the_descents_own_cost_bit_for_bit():
    # cost_global, the chord check and the descent evaluate a polygon by one
    # routine, so a planned path's cost is the planner's final J to the bit
    scenes = [(straight_line_init(start, goal, 6)[0], GlobalCostWeights(d_safe=1.2), obstacles)
              for start, goal, obstacles in (seeded_scene(i, 1 + i % 3) for i in range(36))]
    for init, weights, obstacles in scenes + list(identity_scenes(120)):
        res = optimize(init, weights, obstacles)
        bd = cost_global(res.path, weights, obstacles)
        assert history_bytes(astuple(bd)) == history_bytes(astuple(res.breakdown))
        assert history_bytes([bd.total]) == history_bytes(res.cost_history[-1:])


def blas_probe_digests():
    """SHA-256 of optimize's output (control points, history, converged)
    and of sample's points on the 36 scenes of plan_global seed 0, and of
    one short mission's trace lines and summary."""
    from agnav.presets import type_a_scenario
    from agnav.scenario import run_scenario

    weights = GlobalCostWeights(d_safe=1.2)
    plans, samples = hashlib.sha256(), hashlib.sha256()
    for i in range(36):
        start, goal, obstacles = seeded_scene(i, 1 + i % 3)
        res = optimize(straight_line_init(start, goal, 6)[0], weights, obstacles)
        plans.update(res.path.control_points.tobytes())
        plans.update(json.dumps([res.cost_history, res.converged]).encode())
        samples.update(sample(res.path, weights.sample_count).tobytes())
    mission = hashlib.sha256()
    _, run = run_scenario(type_a_scenario(1))
    for rec in run.trace:
        mission.update((json.dumps(rec, sort_keys=True) + "\n").encode())
    mission.update(json.dumps(run.summary(), sort_keys=True).encode())
    return {"plans": plans.hexdigest(), "samples": samples.hexdigest(),
            "mission": mission.hexdigest()}


def test_planner_and_mission_bytes_do_not_depend_on_the_blas_kernel():
    # every product in optimize and sample is a fixed order of IEEE
    # operations, so a process with another OpenBLAS kernel (the variable
    # acts at library load, hence the child process) gives the same bytes
    import agnav

    here = os.path.dirname(os.path.abspath(__file__))
    path = [here, os.path.dirname(os.path.dirname(agnav.__file__))]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_global_planner as t; "
                               "print(json.dumps(t.blas_probe_digests()))"],
        env=env, capture_output=True, text=True, check=True)
    assert json.loads(child.stdout.splitlines()[-1]) == blas_probe_digests()


def test_optimize_within_oracle_gap_of_scipy_lbfgsb():
    """Optimality oracle: scipy's L-BFGS-B from the same three seeds, on the
    same cost and gradient, over the 36 scenes of plan_global seed 0. Relative
    gaps (ours - scipy best) / scipy best measured at the sequential descent:
    max 1.69e-4 (scene 35), mean -2.3e-6; the bounds leave about 3x."""
    weights = GlobalCostWeights(d_safe=1.2)
    knots = clamped_uniform_knots(6, DEGREE)
    gaps = []
    for i in range(36):
        start, goal, obstacles = seeded_scene(i, 1 + i % 3)
        init, _ = straight_line_init(start, goal, 6)
        ours = optimize(init, weights, obstacles).cost_history[-1]
        best = math.inf
        for seed in [init] + bowed_seeds(init, weights, obstacles):
            def fun(x, seed=seed):
                terms, grad = interior_terms_and_gradient(with_interior(seed, x), knots, DEGREE,
                                                          weights, obstacles)
                return terms[3], np.array(grad)
            best = min(best, minimize(fun, _interior(seed), jac=True, method="L-BFGS-B").fun)
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
