import math
import random
from dataclasses import replace

import pytest

from agnav.local_planner import (
    BlockedError,
    LocalCostWeights,
    LocalObservation,
    MotionKind,
    cost_local,
    select_direction,
    step_decision,
    wrap_angle,
)


def obs_at(main, target=None, obstacles=(), heading=0.0):
    hx, hy = math.cos(heading), math.sin(heading)
    return LocalObservation(
        main=main,
        target=target,
        obstacles=tuple(obstacles),
        head=(main[0] + hx, main[1] + hy),
        tail=(main[0] - hx, main[1] - hy),
        body=main,
    )


def naive_cost(theta, obs, w):
    """Reference cost written straight from the formulas, independent op
    order (used as the exhaustive-enumeration oracle)."""
    d = (math.cos(theta), math.sin(theta))
    align = 0.0
    if obs.target is not None:
        vx, vy = obs.target[0] - obs.main[0], obs.target[1] - obs.main[1]
        n = math.sqrt(vx * vx + vy * vy)
        if n > 0:
            dot = max(-1.0, min(1.0, (d[0] * vx + d[1] * vy) / n))
            align = w.beta / n * math.acos(dot)
    zero = 0.0
    zx, zy = -obs.main[0], -obs.main[1]
    zn = math.sqrt(zx * zx + zy * zy)
    if zn > 0:
        dot = max(-1.0, min(1.0, (d[0] * zx + d[1] * zy) / zn))
        zero = math.acos(dot)
    obstacle = 0.0
    for (ox, oy), r in obs.obstacles:
        t = (ox - obs.main[0]) * d[0] + (oy - obs.main[1]) * d[1]
        if 0 <= t <= w.lookahead:
            px = obs.main[0] + t * d[0]
            py = obs.main[1] + t * d[1]
            perp = max(0.0, math.hypot(ox - px, oy - py) - r)
            if perp < w.d_safe:
                obstacle += 1.0 / (perp + w.epsilon)
    end = (obs.main[0] + w.lookahead * d[0], obs.main[1] + w.lookahead * d[1])
    if abs(end[0]) > w.window_half_extent or abs(end[1]) > w.window_half_extent:
        return math.inf
    return w.q_align * align + w.q_zero * zero + w.q_obstacle * obstacle


def naive_argmin(obs, w):
    best = None
    for i in range(w.candidate_count):
        theta = 2 * math.pi * i / w.candidate_count
        total = naive_cost(theta, obs, w)
        if not math.isfinite(total):
            continue
        goal = obs.target if obs.target is not None else obs.zero
        gx, gy = goal[0] - obs.main[0], goal[1] - obs.main[1]
        gn = math.hypot(gx, gy)
        dev = 0.0 if gn == 0 else math.acos(
            max(-1.0, min(1.0, (math.cos(theta) * gx + math.sin(theta) * gy) / gn)))
        key = (total, dev, i)
        if best is None or key < best:
            best = key
    return None if best is None else best[2]


def random_obs(rng):
    main = (rng.uniform(-6, 6), rng.uniform(-6, 6))
    target = None
    if rng.random() < 0.7:
        target = (rng.uniform(-8, 8), rng.uniform(-8, 8))
    obstacles = tuple(
        ((rng.uniform(-8, 8), rng.uniform(-8, 8)), rng.uniform(0, 0.8))
        for _ in range(rng.randint(0, 5))
    )
    return obs_at(main, target, obstacles, heading=rng.uniform(-math.pi, math.pi))


def per_candidate_total(theta, obs, w):
    """J of one heading, evaluated alone, in the operation order of the
    per-candidate formula: the bit-exact oracle for the single-pass scan."""
    dx, dy = math.cos(theta), math.sin(theta)
    mx, my = obs.main
    align = 0.0
    if obs.target is not None:
        tx, ty = obs.target
        dist = math.hypot(tx - mx, ty - my)
        if dist > 0.0:
            align = (w.beta / dist) * math.acos(
                min(1.0, max(-1.0, (dx * (tx - mx) + dy * (ty - my)) / dist)))
    zero = 0.0
    zdist = math.hypot(-mx, -my)
    if zdist > 0.0:
        zero = math.acos(min(1.0, max(-1.0, (dx * -mx + dy * -my) / zdist)))
    obstacle = 0.0
    for (ox, oy), radius in obs.obstacles:
        t = (ox - mx) * dx + (oy - my) * dy
        if t < 0.0 or t > w.lookahead:
            continue
        eff = max(0.0, math.hypot(ox - mx - t * dx, oy - my - t * dy) - radius)
        if eff < w.d_safe:
            obstacle += 1.0 / (eff + w.epsilon)
    ex, ey = mx + w.lookahead * dx, my + w.lookahead * dy
    if max(abs(ex), abs(ey)) > w.window_half_extent:
        return math.inf
    return w.q_align * align + w.q_zero * zero + w.q_obstacle * obstacle + w.q_window * 0.0


def per_candidate_choice(obs, w):
    """Index the per-candidate rule picks: least total, then least goal
    deviation, then lowest index; None when every total is infinite."""
    keys = []
    for i in range(w.candidate_count):
        theta = 2.0 * math.pi * i / w.candidate_count
        total = per_candidate_total(theta, obs, w)
        if math.isfinite(total):
            goal = obs.target if obs.target is not None else obs.zero
            gx, gy = goal[0] - obs.main[0], goal[1] - obs.main[1]
            gn = math.hypot(gx, gy)
            dev = 0.0 if gn == 0.0 else math.acos(
                min(1.0, max(-1.0, (math.cos(theta) * gx + math.sin(theta) * gy) / gn)))
            keys.append((total, dev, i))
    return min(keys)[2] if keys else None


SCAN_WEIGHTS = [
    LocalCostWeights(),
    LocalCostWeights(d_safe=1.2, lookahead=2.5, candidate_count=24),
    # zero weights make whole arcs of candidates tie exactly, so the choice
    # falls to the goal-deviation and index tie-breaks
    LocalCostWeights(q_align=0.0, q_zero=0.0, q_obstacle=0.0),
    LocalCostWeights(q_align=0.0, q_zero=0.0, lookahead=1.0),
    # a small window bars many candidates and, for outlying points, all
    LocalCostWeights(window_half_extent=1.0, lookahead=5.0),
]


def zero_target_obs(rng, w):
    """An observation whose target is the image zero point, as every
    coordinate goal's is, with its main on either side of the window-margin
    bound half - lookahead and obstacles that are now and then all out of
    reach: the cases the scan's shared-arc and obstacle-free paths take."""
    bound = w.window_half_extent - w.lookahead
    r = bound + rng.uniform(-1.0, 1.0) if bound > 1.0 else rng.uniform(0.1, w.window_half_extent)
    edge, across = rng.choice([-r, r]), rng.uniform(-r, r)
    main = (edge, across) if rng.random() < 0.5 else (across, edge)
    obstacles = tuple(
        ((rng.uniform(-12, 12), rng.uniform(-12, 12)), rng.uniform(0, 0.8))
        for _ in range(rng.randint(0, 3))
    )
    return obs_at(main, LocalObservation.zero, obstacles, heading=rng.uniform(-math.pi, math.pi))


def scan_path(obs, w, lookahead):
    """Which of the scan's paths scores obs: "fast" when no obstacle is in
    reach and no ray endpoint can leave the window, "margin" when no obstacle
    is in reach but the endpoint bound fails, else "full" (the conditions of
    local_planner._score)."""
    mx, my = obs.main
    if any(not math.hypot(ox - mx, oy - my) > (lookahead + w.d_safe + r) * (1.0 + 1e-9)
           for (ox, oy), r in obs.obstacles):
        return "full"
    fits = max(abs(mx), abs(my)) + lookahead
    return "fast" if fits * (1.0 + 1e-9) < w.window_half_extent else "margin"


@pytest.mark.parametrize("w", SCAN_WEIGHTS)
def test_scan_totals_and_choice_bit_identical_600_random(w):
    rng = random.Random(21)
    caps = random.Random(22)  # a second stream, so the observations stay as drawn
    zeros = random.Random(24)  # a third, for the zero-point targets
    ties = blocked = shared = 0
    paths = {"fast": 0, "margin": 0, "full": 0}
    cases = [random_obs(rng) for _ in range(600)] + [zero_target_obs(zeros, w) for _ in range(600)]
    for obs in cases:
        # a lookahead cap scores as the weights with that lookahead would
        cap = caps.uniform(0.5, w.lookahead)
        paths[scan_path(obs, w, cap)] += 1
        paths[scan_path(obs, w, w.lookahead)] += 1
        shared += obs.target == LocalObservation.zero and obs.main != (0.0, 0.0)
        try:
            ref = select_direction(obs, replace(w, lookahead=cap))
        except BlockedError:
            with pytest.raises(BlockedError):
                select_direction(obs, w, lookahead=cap)
        else:
            got = select_direction(obs, w, lookahead=cap)
            assert [t.hex() for t in got.totals] == [t.hex() for t in ref.totals]
            assert (got.index, got.theta.hex()) == (ref.index, ref.theta.hex())
            assert [c.cost.total.hex() for c in got.table] == [t.hex() for t in got.totals]
            assert [c.cost for c in got.table] == [c.cost for c in ref.table]
        expected = [per_candidate_total(2.0 * math.pi * i / w.candidate_count, obs, w)
                    for i in range(w.candidate_count)]
        want = per_candidate_choice(obs, w)
        if want is None:
            blocked += 1
            with pytest.raises(BlockedError):
                select_direction(obs, w)
            continue
        choice = select_direction(obs, w)
        assert [t.hex() for t in choice.totals] == [t.hex() for t in expected]
        assert [c.cost.total.hex() for c in choice.table] == [t.hex() for t in expected]
        assert choice.index == want
        assert choice.theta == 2.0 * math.pi * want / w.candidate_count
        ties += expected.count(expected[want]) > 1
    if w.q_align == w.q_zero == 0.0:
        assert ties > 100
    if w.window_half_extent == 1.0:
        assert blocked > 10
    # every path of the scan stays covered
    assert shared > 500
    assert paths["full"] > 100, paths
    if w.window_half_extent > w.lookahead:
        assert paths["fast"] > 100 and paths["margin"] > 50, paths


def test_scan_clamps_a_nan_dot_like_arc():
    # an infinite goal offset with a NaN component gives a NaN dot product;
    # it clamps to -1 as min(1.0, max(-1.0, nan)) does, so the zero-scaled
    # alignment term stays 0 and no total turns NaN
    w = LocalCostWeights()
    obs = obs_at((0.5, -0.5), target=(math.inf, math.nan))
    choice = select_direction(obs, w)
    expected = [per_candidate_total(2.0 * math.pi * i / w.candidate_count, obs, w)
                for i in range(w.candidate_count)]
    assert not any(math.isnan(t) for t in expected)
    assert [t.hex() for t in choice.totals] == [t.hex() for t in expected]
    # min(1.0, max(-1.0, nan)) is -1.0: a NaN dot reads as the opposite heading
    far = obs_at((math.inf, math.nan))
    assert cost_local(0.0, far, w).zero == math.pi
    short = replace(w, lookahead=1.0)
    table = [cost_local(2.0 * math.pi * i / w.candidate_count, far, short)
             for i in range(w.candidate_count)]
    assert all(math.isinf(c.window) for c in table)  # every candidate blocked
    assert all(c.zero == math.pi for c in table)


@pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan])
def test_lookahead_cap_must_be_positive_and_finite(cap):
    with pytest.raises(ValueError, match="lookahead"):
        select_direction(obs_at((0.0, 0.0), target=(3.0, 0.0)), LocalCostWeights(), lookahead=cap)


def test_aligned_case_zero_cost():
    w = LocalCostWeights()
    obs = obs_at((0, -5), target=(0, 0))
    c = cost_local(math.pi / 2, obs, w)
    assert c.align == 0.0
    assert c.zero == 0.0
    assert c.total == 0.0


def test_align_term_closed_form():
    w = LocalCostWeights(beta=5.0)
    obs = obs_at((0, 0), target=(0, 5))
    c = cost_local(0.0, obs, w)
    assert abs(c.align - w.beta * math.pi / 10) < 1e-12
    # at-main target forces the term to zero
    c2 = cost_local(0.0, obs_at((1, 1), target=(1, 1)), w)
    assert c2.align == 0.0


def test_obstacle_term_closed_form():
    w = LocalCostWeights(d_safe=1.0, epsilon=1e-6)
    obs = obs_at((0, 0), obstacles=[((2.0, 0.2), 0.0)])
    c = cost_local(0.0, obs, w)
    assert c.obstacle == pytest.approx(5.0, rel=1e-4)


def test_obstacle_outside_lookahead_ignored():
    w = LocalCostWeights(lookahead=5.0, d_safe=1.0)
    obs = obs_at((0, 0), obstacles=[((6.0, 0.1), 0.0)])
    assert cost_local(0.0, obs, w).obstacle == 0.0
    # behind the segment start
    obs2 = obs_at((0, 0), obstacles=[((-1.0, 0.1), 0.0)])
    assert cost_local(0.0, obs2, w).obstacle == 0.0


def test_window_barrier_infinite():
    w = LocalCostWeights(window_half_extent=3.0, lookahead=5.0, q_window=0.0)
    obs = obs_at((0, 0))
    c = cost_local(0.0, obs, w)
    assert math.isinf(c.window)
    assert math.isinf(c.total)  # even with zero window weight


def test_select_exact_bearing():
    w = LocalCostWeights(q_zero=0.0)
    obs = obs_at((0, 0), target=(0, 4))
    choice = select_direction(obs, w)
    assert choice.index == 9
    assert choice.theta == pytest.approx(math.pi / 2)


def test_select_nearest_bin():
    w = LocalCostWeights(q_zero=0.0)
    bearing = math.radians(95.0)
    obs = obs_at((0, 0), target=(4 * math.cos(bearing), 4 * math.sin(bearing)))
    choice = select_direction(obs, w)
    assert choice.index == 9  # 90 degrees is the nearest 10-degree bin


def test_select_matches_naive_on_blocking_scene():
    w = LocalCostWeights()
    obs = obs_at((0, 0), target=(5, 0), obstacles=[((2.0, 0.0), 0.4)])
    choice = select_direction(obs, w)
    assert choice.index == naive_argmin(obs, w)
    assert choice.index != 0  # the direct bearing is blocked


def test_select_matches_naive_1000_random():
    rng = random.Random(11)
    w = LocalCostWeights()
    for _ in range(1000):
        obs = random_obs(rng)
        try:
            choice = select_direction(obs, w)
        except BlockedError:
            assert naive_argmin(obs, w) is None
            continue
        assert choice.index == naive_argmin(obs, w)


def test_select_scale_invariance_200_random():
    rng = random.Random(12)
    w1 = LocalCostWeights()
    w10 = LocalCostWeights(q_align=10.0, q_zero=5.0, q_obstacle=20.0, q_window=10.0)
    for _ in range(200):
        obs = random_obs(rng)
        try:
            a = select_direction(obs, w1).index
        except BlockedError:
            with pytest.raises(BlockedError):
                select_direction(obs, w10)
            continue
        assert a == select_direction(obs, w10).index


def test_window_excluded_candidate_never_wins():
    # main near the window edge: outward candidates are barred even though
    # the target lies straight out that way
    w = LocalCostWeights(window_half_extent=5.0, lookahead=5.0)
    obs = obs_at((4.0, 0.0), target=(7.0, 0.0))
    choice = select_direction(obs, w)
    end = (obs.main[0] + w.lookahead * math.cos(choice.theta),
           obs.main[1] + w.lookahead * math.sin(choice.theta))
    assert max(abs(end[0]), abs(end[1])) <= w.window_half_extent
    for cand in choice.table:
        if math.isinf(cand.cost.window):
            assert cand.index != choice.index


def test_align_bias_monotone_in_distance():
    w = LocalCostWeights()
    theta = math.pi / 2  # fixed deviation from a +x target bearing
    last = math.inf
    for dist in (1.0, 2.0, 4.0, 8.0, 16.0):
        c = cost_local(theta, obs_at((0, 0), target=(dist, 0)), w)
        assert c.align <= last
        last = c.align


def test_no_obstacle_deviation_bound():
    rng = random.Random(13)
    w = LocalCostWeights(q_zero=0.0)
    for _ in range(100):
        bearing = rng.uniform(-math.pi, math.pi)
        obs = obs_at((0, 0), target=(3 * math.cos(bearing), 3 * math.sin(bearing)))
        choice = select_direction(obs, w)
        dev = abs(wrap_angle(choice.theta - bearing))
        assert dev <= math.pi / w.candidate_count + 1e-12


def test_blocked_raises():
    w = LocalCostWeights(window_half_extent=2.0, lookahead=5.0)
    obs = obs_at((0.0, 0.0))
    with pytest.raises(BlockedError):
        select_direction(obs, w)


def test_tie_breaks_by_index_when_all_zero():
    w = LocalCostWeights(q_align=0.0, q_zero=0.0, q_obstacle=0.0)
    obs = obs_at((0.0, 0.0), target=None)
    choice = select_direction(obs, w)
    assert choice.index == 0


def test_step_decision_rotate():
    obs = obs_at((0, 0), target=(0, 5), heading=0.0)
    cmd = step_decision(obs, math.pi / 2, 0.5, 0.1)
    assert cmd.kind == MotionKind.ROTATE
    assert cmd.target_heading == pytest.approx(math.pi / 2)


def test_step_decision_forward():
    obs = obs_at((0, 0), target=(0, 5), heading=math.pi / 2)
    cmd = step_decision(obs, math.pi / 2, 0.5, 0.1)
    assert cmd.kind == MotionKind.FORWARD


def test_step_decision_stop_within_distance():
    obs = obs_at((0, 0.3), target=(0, 0), heading=math.pi / 2)
    assert step_decision(obs, -math.pi / 2, 0.5, 0.1).kind == MotionKind.STOP


def test_step_decision_backward_aligned_opposite():
    # goal 1 cell behind along the heading axis: back up instead of turning
    obs = obs_at((0, 1.0), target=(0, 0), heading=math.pi / 2)
    cmd = step_decision(obs, -math.pi / 2, 0.5, 0.1)
    assert cmd.kind == MotionKind.BACKWARD


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)


def test_observation_invariants():
    with pytest.raises(ValueError):
        LocalObservation(main=(0, 0), target=None, obstacles=(),
                         head=(1, 0), tail=(1, 0), body=(0, 0))
    with pytest.raises(TypeError):
        LocalObservation(main=(0, 0), target=None, obstacles=(),
                         head=(1, 0), tail=(-1, 0), body=(0, 0), zero=(1, 0))


@pytest.mark.parametrize("field", ["lookahead", "q_obstacle", "d_safe", "window_half_extent"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_weights_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        LocalCostWeights(**{field: value})
