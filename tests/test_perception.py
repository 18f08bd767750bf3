import json
import math
import statistics

import pytest

from agnav.gridmask import CameraModel
from agnav.perception import GoalSpec, NoiseModel, camera_footprint, observe
from agnav.semantic_map import Category, Direction, local_map_to_json
from agnav.sim_world import DroneState, GroundRobot, SimObject, SimParams, WorldState

CAMERA = CameraModel(2.0, math.pi / 2, 1600, 80)  # 4 m square footprint, 0.2 m cells


def make_world(objects, drone=(0.0, 0.0), robot=(0.5, 0.0, 0.0), step=0):
    return WorldState(
        objects=objects,
        drone=DroneState(drone[0], drone[1], 2.0),
        ground_robot=GroundRobot(robot[0], robot[1], robot[2]),
        params=SimParams(),
        step=step,
    )


def test_exact_projection_noiseless():
    world = make_world([SimObject("o1", "O", 1.0, 0.0)])
    m = observe(world, CAMERA, None, NoiseModel())
    obj = [o for o in m.objects if o.id == "o1"][0]
    assert (obj.x, obj.y) == (5.0, 0.0)
    assert m.cell_m == pytest.approx(0.2)


def test_object_outside_footprint_absent():
    world = make_world([SimObject("far", "F", 5.0, 5.0)])
    m = observe(world, CAMERA, None, NoiseModel())
    assert all(o.id != "far" for o in m.objects)


def test_zero_noise_projection_inverts():
    world = make_world([SimObject("o1", "O", 0.73, -1.21)], drone=(0.25, 0.5))
    m = observe(world, CAMERA, None, NoiseModel())
    obj = [o for o in m.objects if o.id == "o1"][0]
    wx = m.observer_x + obj.x * m.cell_m
    wy = m.observer_y + obj.y * m.cell_m
    assert abs(wx - 0.73) < 1e-9 and abs(wy + 1.21) < 1e-9


def test_observation_deterministic():
    world = make_world([SimObject("o1", "O", 1.0, 0.3), SimObject("l1", "L", -0.5, 0.2)])
    noise = NoiseModel(position_sigma=0.15, misclassify_prob=0.3, seed=42)
    goal = GoalSpec.object("O")
    a = json.dumps(local_map_to_json(observe(world, CAMERA, goal, noise)), sort_keys=True)
    b = json.dumps(local_map_to_json(observe(world, CAMERA, goal, noise)), sort_keys=True)
    assert a == b
    world2 = make_world([SimObject("o1", "O", 1.0, 0.3), SimObject("l1", "L", -0.5, 0.2)],
                        step=1)
    c = json.dumps(local_map_to_json(observe(world2, CAMERA, goal, noise)), sort_keys=True)
    assert a != c  # the counter advances with the step


def test_rayleigh_median_calibration():
    sigma = 0.15
    noise = NoiseModel(position_sigma=sigma, seed=7)
    deviations = []
    for step in range(10000):
        world = make_world([SimObject("o1", "O", 0.5, 0.5)], step=step)
        m = observe(world, CAMERA, None, noise)
        o = [x for x in m.objects if x.id == "o1"][0]
        deviations.append(math.hypot(o.x - 2.5, o.y - 2.5))
    median = statistics.median(deviations)
    expected = sigma * math.sqrt(2.0 * math.log(2.0))  # Rayleigh median
    assert abs(median - expected) / expected < 0.10


def test_role_partition_single_main():
    world = make_world([SimObject("o1", "O", 1.0, 0.0), SimObject("l1", "L", -1.0, 0.5)])
    world.attachment = "l1"
    m = observe(world, CAMERA, GoalSpec.object("O"), NoiseModel())
    cats = [o.category for o in m.objects]
    assert all(c is not None for c in cats)
    assert sum(1 for c in cats if c == Category.MAIN) == 1
    assert sum(1 for c in cats if c == Category.TARGET) == 1


def test_parts_emitted_when_robot_in_view():
    world = make_world([], robot=(0.5, 0.0, math.pi / 2))
    m = observe(world, CAMERA, None, NoiseModel())
    assert set(m.parts) == {"head", "body", "tail"}
    head, tail = m.parts["head"], m.parts["tail"]
    heading = math.atan2(head[1] - tail[1], head[0] - tail[0])
    assert heading == pytest.approx(math.pi / 2)


def test_parts_absent_when_robot_out_of_view():
    world = make_world([], robot=(8.0, 8.0, 0.0))
    m = observe(world, CAMERA, None, NoiseModel())
    assert m.parts == {}


def test_observe_roles_carry_to_relation():
    world = make_world([
        SimObject("L", "L", 0.0, 0.0),
        SimObject("O", "O", 1.0, 0.0),
        SimObject("V", "V", -1.0, 0.0),
    ], robot=(0.2, 0.2, 0.0))
    world.attachment = "L"
    goal = GoalSpec.relation("O", Direction.FRONT, GoalSpec.clearance)
    out = {o.id: o for o in observe(world, CAMERA, goal, NoiseModel()).objects}
    assert set(out) == {"L", "O", "V"}
    assert out["L"].category == Category.MAIN
    assert out["O"].category == Category.LANDMARK
    assert out["O"].direction == Direction.FRONT
    assert out["O"].is_obstacle_too
    assert out["V"].category == Category.OBSTACLE


def test_observe_roles_map_construction_unlabeled():
    world = make_world([SimObject("L", "L", 0.0, 0.0)])
    out = observe(world, CAMERA, None, NoiseModel()).objects
    assert out[0].category is None


def test_misclassification_substitutes_other_name():
    world = make_world([SimObject("o1", "O", 1.0, 0.0), SimObject("l1", "L", -1.0, 0.0)])
    noise = NoiseModel(misclassify_prob=1.0, seed=3)
    m = observe(world, CAMERA, None, noise)
    by_id = {o.id: o for o in m.objects}
    assert by_id["o1"].name == "L"
    assert by_id["l1"].name == "O"


def test_noisy_positions_stay_inside_footprint():
    noise = NoiseModel(position_sigma=5.0, seed=1)
    fp = camera_footprint(CAMERA, 0.0, 0.0)
    for step in range(50):
        world = make_world([SimObject("edge", "E", 1.9, 1.9)], step=step)
        m = observe(world, CAMERA, None, noise)
        o = [x for x in m.objects if x.id == "edge"][0]
        wx, wy = m.observer_x + o.x * m.cell_m, m.observer_y + o.y * m.cell_m
        assert fp.contains(wx, wy)
