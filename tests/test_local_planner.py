import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agnav.local_planner import (
    BlockedError,
    LocalCostWeights,
    LocalObservation,
    MotionKind,
    cost_local,
    pursue,
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
    reach: the navigate ticks, where the bounded search prunes hardest."""
    bound = w.window_half_extent - w.lookahead
    r = bound + rng.uniform(-1.0, 1.0) if bound > 1.0 else rng.uniform(0.1, w.window_half_extent)
    edge, across = rng.choice([-r, r]), rng.uniform(-r, r)
    main = (edge, across) if rng.random() < 0.5 else (across, edge)
    obstacles = tuple(
        ((rng.uniform(-12, 12), rng.uniform(-12, 12)), rng.uniform(0, 0.8))
        for _ in range(rng.randint(0, 3))
    )
    return obs_at(main, LocalObservation.zero, obstacles, heading=rng.uniform(-math.pi, math.pi))


def in_reach(obs, w, lookahead):
    """Whether any obstacle of obs can score on a ray of ``lookahead``
    cells (the reach test of local_planner._scorer)."""
    mx, my = obs.main
    return any(not math.hypot(ox - mx, oy - my) > (lookahead + w.d_safe + r) * (1.0 + 1e-9)
               for (ox, oy), r in obs.obstacles)


def assert_search_matches_scan(obs, w):
    """The bounded search against the per-candidate oracle: the choice or
    BlockedError, every scored total, and the on-demand table and totals,
    bit for bit. Returns the choice, or None when blocked."""
    n = w.candidate_count
    expected = [per_candidate_total(2.0 * math.pi * i / n, obs, w) for i in range(n)]
    want = per_candidate_choice(obs, w)
    if want is None:
        with pytest.raises(BlockedError):
            select_direction(obs, w)
        return None
    choice = select_direction(obs, w)
    assert (choice.index, choice.theta) == (want, 2.0 * math.pi * want / n)
    assert choice.scored and set(choice.scored) <= set(range(n))
    assert [c.cost.total.hex() for c in choice.table] == [t.hex() for t in expected]
    # every total the search scored is the table's, and so is every total
    # scored on demand
    assert {i: t.hex() for i, t in choice.scored.items()} == {
        i: expected[i].hex() for i in choice.scored}
    assert [choice.total(i).hex() for i in range(n)] == [t.hex() for t in expected]
    return choice


@pytest.mark.parametrize("w", SCAN_WEIGHTS)
def test_scan_totals_and_choice_bit_identical_600_random(w):
    rng = random.Random(21)
    caps = random.Random(22)  # a second stream, so the observations stay as drawn
    zeros = random.Random(24)  # a third, for the zero-point targets
    ties = blocked = clear = 0
    cases = [random_obs(rng) for _ in range(600)] + [zero_target_obs(zeros, w) for _ in range(600)]
    for obs in cases:
        # a lookahead cap scores as the weights with that lookahead would
        cap = caps.uniform(0.5, w.lookahead)
        try:
            ref = select_direction(obs, replace(w, lookahead=cap))
        except BlockedError:
            with pytest.raises(BlockedError):
                select_direction(obs, w, lookahead=cap)
        else:
            got = select_direction(obs, w, lookahead=cap)
            assert {i: t.hex() for i, t in got.scored.items()} == {
                i: t.hex() for i, t in ref.scored.items()}
            assert (got.index, got.theta.hex()) == (ref.index, ref.theta.hex())
            assert [c.cost for c in got.table] == [c.cost for c in ref.table]
        choice = assert_search_matches_scan(obs, w)
        if choice is None:
            blocked += 1
            continue
        ties += [c.cost.total for c in choice.table].count(choice.total(choice.index)) > 1
        if w.q_align == w.q_zero == 0.0:
            # no alignment term bounds a total from below: a full scan
            assert len(choice.scored) == w.candidate_count
        elif obs.target == LocalObservation.zero and not in_reach(obs, w, w.lookahead):
            # the bracketing pair settles a clear navigate tick
            clear += 1
            assert len(choice.scored) <= 4
    if w.q_align == w.q_zero == 0.0:
        assert ties > 100
    if w.window_half_extent == 1.0:
        assert blocked > 10
    elif w.q_align > 0.0:
        assert clear > 300


def test_scan_clamps_a_nan_dot_like_arc():
    # an infinite goal offset with a NaN component gives a NaN dot product;
    # it clamps to -1 as min(1.0, max(-1.0, nan)) does, so the zero-scaled
    # alignment term stays 0 and no total turns NaN. The offset is not
    # finite, so the search scores every candidate
    w = LocalCostWeights()
    obs = obs_at((0.5, -0.5), target=(math.inf, math.nan))
    choice = assert_search_matches_scan(obs, w)
    assert len(choice.scored) == w.candidate_count
    assert not any(math.isnan(t) for t in choice.scored.values())
    # min(1.0, max(-1.0, nan)) is -1.0: a NaN dot reads as the opposite heading
    far = obs_at((math.inf, math.nan))
    assert cost_local(0.0, far, w).zero == math.pi
    short = replace(w, lookahead=1.0)
    table = [cost_local(2.0 * math.pi * i / w.candidate_count, far, short)
             for i in range(w.candidate_count)]
    assert all(math.isinf(c.window) for c in table)  # every candidate blocked
    assert all(c.zero == math.pi for c in table)


_coord = st.floats(-9.0, 9.0, allow_nan=False)
_ODD_TARGETS = [(math.inf, 0.0), (math.inf, math.nan), (-math.inf, math.inf), (math.nan, 1.0)]


# one case per coef, each with its bracketing pair barred (by a lightly
# weighted obstacle on the anchor ray, or by the window) so that only a sound
# bound reaches the winner
_BOUND_CASE = dict(count=13, beta=0.0, q_align=0.0, q_zero=0.5, q_obstacle=0.05, half=2.0,
                   lookahead=1.0, cap=None, main=(-1.0, 0.0), point=(0.0, 0.0),
                   odd=_ODD_TARGETS[0], obstacles=[((1.0, 0.0), 0.0)], heading=0.0)


@example(**dict(_BOUND_CASE, count=4, target_kind="none"))
@example(**dict(_BOUND_CASE, target_kind="zero"))
@example(**dict(_BOUND_CASE, count=19, beta=1e-9, q_align=1.0, q_zero=0.0, lookahead=2.5,
                main=(0.0, 0.0), target_kind="finite", point=(1.0, 0.0), obstacles=[]))
# a subnormal scale beta / |T - M| with a normal coef: scale * arc rounds by
# ~1e-3 relative, far past the slack, so only a full scan picks candidate 53
@example(**dict(_BOUND_CASE, count=55, beta=1e-320, q_align=1e13, q_zero=0.0, q_obstacle=0.0,
                half=0.99, main=(0.0, 0.0), target_kind="finite", point=(1.0, 0.0),
                obstacles=[]))
@settings(max_examples=400, deadline=None)
@given(
    count=st.integers(4, 72),
    beta=st.sampled_from([0.0, 1e-9, 5.0, 1e6]),
    q_align=st.sampled_from([0.0, 1.0, 10.0]),
    q_zero=st.sampled_from([0.0, 0.5, 5.0]),
    # a light obstacle weight leaves blocked candidates near the unblocked ones
    q_obstacle=st.sampled_from([0.0, 0.05, 2.0]),
    # from windows every ray leaves to windows no ray can
    half=st.sampled_from([0.5, 2.0, 6.0, 10.0, 1e3]),
    lookahead=st.floats(0.25, 8.0),
    cap=st.one_of(st.none(), st.floats(0.1, 8.0)),
    main=st.one_of(st.just((0.0, 0.0)), st.tuples(_coord, _coord)),
    target_kind=st.sampled_from(["none", "zero", "main", "finite", "odd"]),
    point=st.tuples(_coord, _coord),
    odd=st.sampled_from(_ODD_TARGETS),
    # around M, so obstacles fall in and out of reach and on the anchor ray
    obstacles=st.lists(st.tuples(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                                 st.floats(0.0, 1.5)), max_size=6),
    heading=st.floats(-math.pi, math.pi),
)
def test_bounded_search_is_the_full_scan_argmin(count, beta, q_align, q_zero, q_obstacle, half,
                                                lookahead, cap, main, target_kind, point, odd,
                                                obstacles, heading):
    w = LocalCostWeights(q_align=q_align, q_zero=q_zero, q_obstacle=q_obstacle, beta=beta,
                         lookahead=lookahead, window_half_extent=half, candidate_count=count)
    target = {"none": None, "zero": LocalObservation.zero, "main": main,
              "finite": point, "odd": odd}[target_kind]
    obs = obs_at(main, target, [((main[0] + dx, main[1] + dy), r) for (dx, dy), r in obstacles],
                 heading=heading)
    scan_w = w if cap is None else replace(w, lookahead=cap)
    want = per_candidate_choice(obs, scan_w)
    if want is None:
        with pytest.raises(BlockedError):
            select_direction(obs, w, lookahead=cap)
        return
    choice = select_direction(obs, w, lookahead=cap)
    assert choice.index == want  # ties included: the same tie-break decides
    for i, t in choice.scored.items():
        assert t.hex() == per_candidate_total(2.0 * math.pi * i / count, obs, scan_w).hex()


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


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(math.pi)
@example(-math.pi)
@example(3 * math.pi)
@example(-3 * math.pi)
@example(1e300)
def test_wrap_angle_magnitude_is_even(a):
    # pursue gates on the size of its miss alone, so measuring it as
    # bearing - heading or as heading - bearing turns on the same ticks
    assert abs(wrap_angle(a)) == abs(wrap_angle(-a))


def test_pursue_rotates_outside_the_gate_and_drives_inside_it():
    body, aim = (1.0, 2.0), (4.0, 2.0)  # bearing 0
    # a miss equal to the gate, on either side, drives forward
    assert pursue(body, aim, 0.5, 0.5).kind == MotionKind.FORWARD
    assert pursue(body, aim, -0.5, 0.5).kind == MotionKind.FORWARD
    # one a step past it turns onto the bearing
    cmd = pursue(body, aim, math.nextafter(0.5, 1.0), 0.5)
    assert cmd.kind == MotionKind.ROTATE and cmd.target_heading == 0.0


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
