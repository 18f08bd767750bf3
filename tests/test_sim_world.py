import math

import pytest

from agnav.local_planner import MotionCommand
from agnav.sim_world import (
    AttachError,
    DroneState,
    GroundRobot,
    SimObject,
    SimParams,
    WorldState,
    attach,
    detach,
    detect_collisions,
    drone_done,
    rotation_direction,
    step_drone,
    step_ground,
)
from agnav.semantic_map import SemanticObject

PARAMS = SimParams()


def make_state(objects=(), drone=(0.0, 0.0), robot=(0.0, 0.0, 0.0), robot_radius=0.25,
               params=PARAMS):
    return WorldState(
        objects=list(objects),
        drone=DroneState(drone[0], drone[1], 2.0),
        ground_robot=GroundRobot(robot[0], robot[1], robot[2], robot_radius),
        params=params,
    )


def test_drone_advances_at_speed():
    state = make_state(drone=(0, 0), robot=(0, 0, 0), params=SimParams(drone_speed=0.2))
    step_drone(state, [(1.0, 0.0)])
    assert state.drone.x == pytest.approx(0.2)


def test_drone_waits_for_follower():
    # ground robot lagging two leash lengths behind the direction of travel
    state = make_state(drone=(0, 0), robot=(-2.0 * PARAMS.follow_radius, 0, 0))
    step_drone(state, [(1.0, 0.0)])
    assert (state.drone.x, state.drone.y) == (0.0, 0.0)
    # map-construction flights ignore the leash
    step_drone(state, [(1.0, 0.0)], wait=False)
    assert state.drone.x > 0


def test_drone_closes_gap_despite_leash():
    # the robot ended up ahead: flying toward it reduces separation and
    # must not be vetoed by the waiting rule
    state = make_state(drone=(0, 0), robot=(2.0 * PARAMS.follow_radius, 0, 0))
    step_drone(state, [(1.0, 0.0)])
    assert state.drone.x > 0


def test_drone_traversal_tick_count():
    # follower rides along so the drone never waits; expected tick count is
    # the independent kinematic bound for a 1.7 m straight leg at 0.1 m/tick
    params = SimParams(drone_speed=0.1, follow_radius=100.0)
    state = make_state(drone=(0, 0), params=params)
    path = [(1.7, 0.0)]
    ticks = 0
    while not drone_done(state, path) and ticks < 100:
        step_drone(state, path)
        ticks += 1
    assert ticks == math.ceil(1.7 / 0.1)


def test_drone_parks_exactly_on_final_waypoint():
    params = SimParams(drone_speed=0.1, follow_radius=100.0)
    state = make_state(drone=(0, 0), params=params)
    path = [(0.5, 0.0), (0.5, 0.33)]
    for _ in range(100):
        step_drone(state, path)
    assert drone_done(state, path)
    assert math.hypot(state.drone.x - 0.5, state.drone.y - 0.33) <= 1e-9


@pytest.mark.parametrize("target, objects, sign", [
    pytest.param(-0.3, (), -1, id="clockwise"),
    pytest.param(0.3, (), 1, id="counterclockwise"),
    pytest.param(math.pi, (), 1, id="half-turn"),
    # a block 0.2 m to the left does not change the way the turn takes
    pytest.param(math.pi, (SimObject("b", "B", 0.0, 0.2, radius=0.15),), 1, id="object-left"),
])
def test_rotation_takes_shorter_way(target, objects, sign):
    state = make_state(objects=objects, robot=(0, 0, 0))
    assert rotation_direction(state, target) == sign
    step_ground(state, MotionCommand.rotate(target))
    assert state.ground_robot.heading == pytest.approx(sign * min(PARAMS.rotate_rate, abs(target)))


def test_forward_moves_along_heading():
    state = make_state(robot=(0, 0, 0))
    step_ground(state, MotionCommand.forward())
    assert state.ground_robot.x == pytest.approx(PARAMS.ground_step)
    assert state.ground_robot.y == 0.0


def test_backward_moves_against_heading():
    state = make_state(robot=(0, 0, math.pi / 2))
    step_ground(state, MotionCommand.backward())
    assert state.ground_robot.y == pytest.approx(-PARAMS.ground_step)


@pytest.mark.parametrize("target", [0.05, -0.05])
def test_rotate_clamps_onto_target(target):
    # a turn shorter than one rotate tick lands on the target, either way round
    state = make_state(robot=(0, 0, 0))
    step_ground(state, MotionCommand.rotate(target))
    assert state.ground_robot.heading == pytest.approx(target)


def test_attach_success_and_slaving():
    obj = SimObject("b", "B", PARAMS.head_offset + 0.1, 0.0, radius=0.1)
    state = make_state(objects=[obj], robot=(0, 0, 0))
    assert attach(state, "b")
    assert state.attachment == "b"
    hx, hy = state.head_point()
    assert (obj.x, obj.y) == (hx, hy)
    step_ground(state, MotionCommand.forward())
    hx, hy = state.head_point()
    assert (obj.x, obj.y) == (hx, hy)
    step_ground(state, MotionCommand.rotate(1.0))
    hx, hy = state.head_point()
    assert (obj.x, obj.y) == (hx, hy)


def test_attach_out_of_range_fails():
    obj = SimObject("b", "B", 1.5, 0.0)
    state = make_state(objects=[obj])
    assert not attach(state, "b")
    assert state.attachment is None


def test_attach_misaligned_fails():
    # inside range but bearing off by twice the tolerance
    ang = 2.0 * PARAMS.attach_angle_tol
    d = PARAMS.head_offset + 0.05
    obj = SimObject("b", "B", d * math.cos(ang), d * math.sin(ang))
    state = make_state(objects=[obj], robot=(0, 0, 0))
    assert not attach(state, "b")


def test_attach_immovable_fails():
    obj = SimObject("b", "B", PARAMS.head_offset + 0.05, 0.0, movable=False)
    state = make_state(objects=[obj])
    assert not attach(state, "b")


def test_attach_while_attached_raises():
    a = SimObject("a", "A", PARAMS.head_offset + 0.05, 0.0)
    b = SimObject("b", "B", 2.0, 2.0)
    state = make_state(objects=[a, b])
    assert attach(state, "a")
    with pytest.raises(AttachError):
        attach(state, "b")


def test_detach_releases_in_place_and_twice_fails():
    obj = SimObject("b", "B", PARAMS.head_offset + 0.05, 0.0)
    state = make_state(objects=[obj])
    attach(state, "b")
    pos = (obj.x, obj.y)
    detach(state)
    assert (obj.x, obj.y) == pos
    assert state.attachment is None
    with pytest.raises(AttachError):
        detach(state)


def test_detach_then_reattach_same_spot():
    obj = SimObject("b", "B", PARAMS.head_offset + 0.05, 0.0)
    state = make_state(objects=[obj])
    attach(state, "b")
    detach(state)
    assert attach(state, "b")


def test_collision_event_on_overlap():
    obj = SimObject("b", "B", 0.5, 0.0, radius=0.3)
    state = make_state(objects=[obj], robot=(0, 0, 0), robot_radius=0.3)
    events, overlaps = detect_collisions(state, frozenset())
    assert len(events) == 1  # 0.5 < 0.6


def test_collision_debounced_over_ticks():
    obj = SimObject("b", "B", 0.5, 0.0, radius=0.3)
    state = make_state(objects=[obj], robot=(0, 0, 0), robot_radius=0.3)
    overlaps = frozenset()
    total = 0
    for _ in range(10):
        events, overlaps = detect_collisions(state, overlaps)
        total += len(events)
        state.step += 1
    assert total == 1


def test_collision_touch_separate_touch():
    obj = SimObject("b", "B", 0.5, 0.0, radius=0.3)
    state = make_state(objects=[obj], robot=(0, 0, 0), robot_radius=0.3)
    total = 0
    overlaps = frozenset()
    events, overlaps = detect_collisions(state, overlaps)
    total += len(events)
    state.ground_robot.x = -5.0
    events, overlaps = detect_collisions(state, overlaps)
    total += len(events)
    state.ground_robot.x = 0.0
    events, overlaps = detect_collisions(state, overlaps)
    total += len(events)
    assert total == 2


def test_carried_object_excluded_but_probes_others():
    carried = SimObject("c", "C", PARAMS.head_offset, 0.0, radius=0.12)
    other = SimObject("o", "O", PARAMS.head_offset + 0.2, 0.0, radius=0.12)
    state = make_state(objects=[carried, other], robot=(0, 0, 0), robot_radius=0.25)
    attach(state, "c")
    events, _ = detect_collisions(state, frozenset())
    pairs = {tuple(e["pair"]) for e in events}
    assert ("carried", "o") in pairs
    assert all(p[1] != "c" for p in pairs)


def test_sim_params_validation():
    with pytest.raises(ValueError):
        SimParams(drone_speed=0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["drone_speed", "ground_step", "rotate_rate", "follow_radius",
                                  "attach_range", "attach_angle_tol", "carry_radius",
                                  "head_offset"])
def test_sim_params_refuse_a_value_that_is_not_finite(name, value):
    # an infinite step or reach is no kinematics; the scenario loader already
    # answers "expected a finite number" for the same value
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        SimParams(**{name: value})


@pytest.mark.parametrize("make", [
    lambda r: SimObject("b", "B", 0.0, 0.0, radius=r),
    lambda r: GroundRobot(0.0, 0.0, 0.0, r),
    lambda r: SemanticObject("b", "B", 0.0, 0.0, radius=r),
], ids=["SimObject", "GroundRobot", "SemanticObject"])
def test_radius_refuses_nan_and_negative_and_accepts_zero(make):
    # a NaN radius compares false with every distance, so detect_collisions
    # would never report contact with it
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            make(bad)
    assert make(0.0).radius == 0.0
