import dataclasses
import hashlib
import json
import math
import random
import statistics
from statistics import NormalDist
from typing import Optional

import pytest

from agnav.gridmask import CameraModel, ground_scale, world_to_grid
from agnav.perception import GoalSpec, NoiseModel, _footprint, _role, observe
from agnav.semantic_map import (
    Category,
    Direction,
    Footprint,
    LocalSemanticMap,
    SemanticObject,
    local_map_to_json,
)
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
    fp = _footprint(ground_scale(CAMERA), 0.0, 0.0)
    for step in range(50):
        world = make_world([SimObject("edge", "E", 1.9, 1.9)], step=step)
        m = observe(world, CAMERA, None, noise)
        o = [x for x in m.objects if x.id == "edge"][0]
        wx, wy = m.observer_x + o.x * m.cell_m, m.observer_y + o.y * m.cell_m
        assert fp.contains(wx, wy)


@pytest.mark.parametrize("altitude", [0.0, -1.0, math.nan])
def test_observe_rejects_an_altitude_that_is_not_positive(altitude):
    # a NaN altitude would pass a bare sign test and reach the local map's
    # JSON as a bare NaN, which is not valid JSON
    world = make_world([SimObject("o1", "O", 1.0, 0.0)])
    world.drone.altitude = altitude
    with pytest.raises(ValueError, match="altitude"):
        observe(world, CAMERA, None, NoiseModel())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_observe_rejects_a_drone_position_that_is_not_finite(axis, value):
    # a NaN position gave NaN footprint bounds, which passed the footprint's
    # order test and reached the local map's JSON as a bare NaN
    world = make_world([SimObject("o1", "O", 1.0, 0.0)])
    setattr(world.drone, axis, value)
    with pytest.raises(ValueError, match="position"):
        observe(world, CAMERA, None, NoiseModel())


@pytest.mark.parametrize("bounds", [
    (math.nan, 1.0, 0.0, 1.0), (0.0, math.nan, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0),
    (0.0, 1.0, 0.0, math.nan), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0),
])
def test_footprint_refuses_unordered_or_nan_bounds(bounds):
    with pytest.raises(ValueError, match="bounds"):
        Footprint(*bounds)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["position_sigma", "orientation_sigma"])
def test_noise_model_rejects_non_finite_sigma(field, value):
    with pytest.raises(ValueError, match="finite"):
        NoiseModel(**{field: value})


# -- reference observe ---------------------------------------------------------
# observe as first written: one f-string key formatted and hashed per draw,
# two ground_scale calls, a clamp call per axis. Kept as the oracle for the
# per-call fast path (_role, ground_scale and world_to_grid are the
# package's; observe writes world_to_grid's arithmetic inline).

_NORMAL = NormalDist()


def reference_uniform(seed: int, step: int, tag: str, channel: str) -> float:
    digest = hashlib.sha256(f"{seed}|{step}|{tag}|{channel}".encode()).digest()
    v = int.from_bytes(digest[:8], "big")
    return (v + 0.5) / 2.0 ** 64


def reference_gauss(seed: int, step: int, tag: str, channel: str, sigma: float) -> float:
    if sigma == 0.0:
        return 0.0
    return sigma * _NORMAL.inv_cdf(reference_uniform(seed, step, tag, channel))


def reference_camera_footprint(camera: CameraModel, cx: float, cy: float):
    scale = ground_scale(camera)
    half = scale.width_real / 2.0
    return Footprint(cx - half, cx + half, cy - half, cy + half)


def reference_clamp(v: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, v))


def reference_observe(world, camera: CameraModel, goal: Optional[GoalSpec],
                      noise: NoiseModel) -> LocalSemanticMap:
    if world.drone.altitude <= 0:
        raise ValueError("drone altitude must be positive")
    scale = ground_scale(camera)
    cell = scale.cell_m
    cx, cy = world.drone.x, world.drone.y
    fp = reference_camera_footprint(camera, cx, cy)
    half_w_cells = (fp.xmax - fp.xmin) / 2.0 / cell
    half_h_cells = (fp.ymax - fp.ymin) / 2.0 / cell
    step = world.step
    alphabet = sorted({o.name for o in world.objects})

    def project(tag: str, x: float, y: float) -> tuple[float, float]:
        gx, gy = world_to_grid(cell, (x, y), (cx, cy))
        gx += reference_gauss(noise.seed, step, tag, "px", noise.position_sigma)
        gy += reference_gauss(noise.seed, step, tag, "py", noise.position_sigma)
        return (reference_clamp(gx, -half_w_cells, half_w_cells),
                reference_clamp(gy, -half_h_cells, half_h_cells))

    objects = []
    for o in world.objects:
        if not fp.contains(o.x, o.y):
            continue
        gx, gy = project(o.id, o.x, o.y)
        name = o.name
        if noise.misclassify_prob > 0.0 and len(alphabet) > 1:
            if reference_uniform(noise.seed, step, o.id, "mis") < noise.misclassify_prob:
                others = [n for n in alphabet if n != o.name]
                name = others[int(reference_uniform(noise.seed, step, o.id, "sub") * len(others))]
        category, direction = _role(o.id, name, goal, world.attachment)
        objects.append(SemanticObject(
            id=o.id,
            name=name,
            x=gx, y=gy,
            category=category,
            direction=direction,
            orientation=o.yaw + reference_gauss(noise.seed, step, o.id, "yaw",
                                                noise.orientation_sigma),
            radius=o.radius / cell,
        ))

    parts = {}
    robot = world.ground_robot
    if fp.contains(robot.x, robot.y):
        ax = world.params.head_offset * math.cos(robot.heading)
        ay = world.params.head_offset * math.sin(robot.heading)
        for tag, px, py in (("head", robot.x + ax, robot.y + ay), ("body", robot.x, robot.y),
                            ("tail", robot.x - ax, robot.y - ay)):
            parts[tag] = project("robot:" + tag, px, py)
    objects.sort(key=lambda s: s.id)

    return LocalSemanticMap(
        observer_x=cx,
        observer_y=cy,
        altitude=world.drone.altitude,
        cell_m=cell,
        footprint=fp,
        objects=tuple(objects),
        step_index=step,
        parts=parts,
    )


CAMERAS = [CAMERA, CameraModel(2.0, math.pi / 2, 900, 80),
           CameraModel(3.5, 1.2, 1280, 96)]
LETTERS = "LOTVXE"


def random_world_case(rng: random.Random):
    """A seeded world, camera, goal and noise model. Draws cover objects in
    view, out of view and exactly on each footprint edge, a signed zero
    offset, a carried object, the robot in and out of view, every goal kind,
    and sigmas from 0 to ones large enough for the clamp to engage."""
    camera = rng.choice(CAMERAS)
    drone = (rng.choice([0.0, rng.uniform(-1.5, 1.5)]), rng.uniform(-1.5, 1.5))
    fp = _footprint(ground_scale(camera), *drone)
    objects = []
    for i in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.15:  # exactly on an edge of the footprint, or a corner
            on_x = rng.random() < 0.6
            on_y = not on_x or rng.random() < 0.5
            x = rng.choice([fp.xmin, fp.xmax]) if on_x else rng.uniform(fp.xmin, fp.xmax)
            y = rng.choice([fp.ymin, fp.ymax]) if on_y else rng.uniform(fp.ymin, fp.ymax)
        elif kind < 0.2:  # (x - cx) is a negative zero when cx is +0.0
            x, y = -0.0, rng.uniform(fp.ymin, fp.ymax)
        else:
            x = rng.uniform(fp.xmin - 1.0, fp.xmax + 1.0)
            y = rng.uniform(fp.ymin - 1.0, fp.ymax + 1.0)
        objects.append(SimObject(f"o{i}", rng.choice(LETTERS), x, y,
                                 yaw=rng.uniform(-math.pi, math.pi),
                                 radius=rng.uniform(0.0, 0.3)))
    if rng.random() < 0.75:  # in view
        robot = (rng.uniform(fp.xmin, fp.xmax), rng.uniform(fp.ymin, fp.ymax))
    else:
        robot = (fp.xmax + rng.uniform(0.01, 2.0), rng.uniform(-3.0, 3.0))
    world = WorldState(objects=objects,
                       drone=DroneState(drone[0], drone[1], camera.altitude),
                       ground_robot=GroundRobot(*robot, rng.uniform(-math.pi, math.pi)),
                       params=SimParams(), step=rng.randint(0, 5000))
    if objects and rng.random() < 0.3:
        world.attachment = rng.choice(objects).id
    goal = rng.choice([
        None,
        GoalSpec.coordinate(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        GoalSpec.object(rng.choice(LETTERS)),
        GoalSpec.relation(rng.choice(LETTERS), rng.choice(list(Direction)), 0.55),
    ])
    noise = NoiseModel(position_sigma=rng.choice([0.0, 0.15, rng.uniform(0.0, 1.0), 40.0]),
                       misclassify_prob=rng.choice([0.0, 0.05, 0.3]),
                       orientation_sigma=rng.choice([0.0, 0.05, rng.uniform(0.0, 1.0)]),
                       seed=rng.randint(0, 10 ** 6))
    return world, camera, goal, noise


def _hex_parts(m):
    return {k: (x.hex(), y.hex()) for k, (x, y) in m.parts.items()}


def test_observe_bit_identical_to_reference_600_worlds():
    rng = random.Random(23)
    seen = dict.fromkeys(["edge", "clamped", "misclassified", "carried", "robot_in",
                          "robot_out", "noiseless"], 0)
    for _ in range(600):
        world, camera, goal, noise = random_world_case(rng)
        got = observe(world, camera, goal, noise)
        ref = reference_observe(world, camera, goal, noise)
        assert (json.dumps(local_map_to_json(got), sort_keys=True)
                == json.dumps(local_map_to_json(ref), sort_keys=True))
        assert _hex_parts(got) == _hex_parts(ref)
        assert ([(o.x.hex(), o.y.hex(), o.orientation.hex()) for o in got.objects]
                == [(o.x.hex(), o.y.hex(), o.orientation.hex()) for o in ref.objects])
        fp = got.footprint
        half = ((fp.xmax - fp.xmin) / 2.0 / got.cell_m, (fp.ymax - fp.ymin) / 2.0 / got.cell_m)
        truth = {o.id: o for o in world.objects}
        seen["edge"] += any(truth[o.id].x in (fp.xmin, fp.xmax)
                            or truth[o.id].y in (fp.ymin, fp.ymax) for o in got.objects)
        seen["clamped"] += any(abs(o.x) == half[0] or abs(o.y) == half[1]
                               for o in got.objects)
        seen["misclassified"] += any(o.name != truth[o.id].name for o in got.objects)
        seen["carried"] += any(o.category == Category.MAIN for o in got.objects)
        seen["robot_in" if got.parts else "robot_out"] += 1
        seen["noiseless"] += noise.position_sigma == 0.0
    assert min(seen.values()) >= 20, seen


def _report_bits(m):
    """Every bit of a local map that a caller can read."""
    return (json.dumps(local_map_to_json(m), sort_keys=True), _hex_parts(m),
            [(o.x.hex(), o.y.hex(), o.orientation.hex()) for o in m.objects])


def _object_bits(o):
    return (o.name, o.x.hex(), o.y.hex(), o.orientation.hex(), o.category, o.direction,
            o.radius.hex())


def test_each_objects_report_ignores_the_other_objects():
    # every draw is keyed by seed|step|tag|channel alone, so dropping or
    # reordering the other objects leaves an object's report bit-identical;
    # the drop keeps one object of each name, since a substituted name is
    # drawn from the scene's alphabet
    rng = random.Random(31)
    compared = 0
    for _ in range(300):
        world, camera, goal, noise = random_world_case(rng)
        full = observe(world, camera, goal, noise)
        by_id = {o.id: _object_bits(o) for o in full.objects}
        kept, names = [], set()
        for o in rng.sample(world.objects, len(world.objects)):
            if o.name not in names or rng.random() < 0.5:
                kept.append(o)
                names.add(o.name)
        world.objects = kept
        part = observe(world, camera, goal, noise)
        assert _hex_parts(part) == _hex_parts(full)
        for o in part.objects:
            assert _object_bits(o) == by_id[o.id]
        compared += len(part.objects) < len(full.objects)
    assert compared >= 50


def test_interleaved_cameras_and_alphabets_each_equal_the_reference():
    # consecutive calls change the camera and the scene's name alphabet, so
    # a scale or alphabet kept from one call would show in the next; each
    # world is also observed with every object misclassified, where the
    # alphabet decides every reported name
    rng = random.Random(37)
    by_camera = {camera: [] for camera in CAMERAS}
    for _ in range(240):
        world, camera, goal, noise = random_world_case(rng)
        by_camera[camera].append((world, camera, goal, noise))
        by_camera[camera].append((world, camera, goal,
                                  dataclasses.replace(noise, misclassify_prob=1.0)))
    n = min(len(cases) for cases in by_camera.values())
    order = [cases[i] for i in range(n) for cases in by_camera.values()]
    alphabets = [frozenset(o.name for o in case[0].objects) for case in order]
    assert n >= 80
    assert sum(a != b for a, b in zip(alphabets, alphabets[1:])) >= len(order) // 2
    for case in order + order[::-1]:
        assert _report_bits(observe(*case)) == _report_bits(reference_observe(*case))
