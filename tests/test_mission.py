import hashlib
import json
import math
import random

import pytest

from agnav.gridmask import CameraModel, GridSpec
from agnav.local_planner import DirectionChoice, LocalObservation, MotionCommand
from agnav.mission import (
    ROLLBACK_LIMIT,
    Assemble,
    AssemblyError,
    Carry,
    CommandError,
    GoalSpec,
    MissionConfig,
    MissionExecutor,
    MoveTo,
    PlanError,
    Subtask,
    TaskPlan,
    carry_check,
    decompose,
    execute,
    parse_command,
    plan_word_assembly,
    relation_goal_point,
)
from agnav.presets import NOISE_CALIBRATED, noise_batch_suite, type_a_scenario, type_b_scenario
from agnav.scenario import load_scenario, run_scenario
from agnav.semantic_map import (
    Category,
    Confidence,
    Direction,
    Footprint,
    FusionParams,
    GlobalSemanticMap,
    LocalSemanticMap,
    MapEntry,
    SemanticObject,
)
from agnav.sim_world import (
    DroneState,
    GroundRobot,
    SimObject,
    SimParams,
    WorldState,
    attach,
    detach,
    detect_collisions,
    step_ground,
)


def entry(name, x, y, orientation=None):
    return MapEntry(name=name, x=x, y=y, support_count=3,
                    confidence=Confidence.CONFIRMED, orientation=orientation)


def global_map(*entries):
    return GlobalSemanticMap(entries=tuple(entries))


# -- grammar -----------------------------------------------------------------

def test_parse_move_to_coordinate():
    cmd = parse_command("move_to (2.0, 1.0)")
    assert isinstance(cmd, MoveTo)
    assert cmd.goal.kind == "coordinate" and (cmd.goal.x, cmd.goal.y) == (2.0, 1.0)


def test_parse_move_to_object():
    cmd = parse_command("move to the U cube")
    assert isinstance(cmd, MoveTo)
    assert cmd.goal == GoalSpec.object("U")


def test_parse_relational_carry():
    cmd = parse_command("move the L cube to the front side of the O cube")
    assert cmd == Carry("L", GoalSpec.relation("O", Direction.FRONT, 0.55))
    cmd = parse_command("carry I to back of U", relation_clearance=0.5)
    assert cmd == Carry("I", GoalSpec.relation("U", Direction.BACK, 0.5))


def test_parse_assemble_forms():
    assert parse_command("assemble LOVE") == Assemble("LOVE", frozenset())
    assert parse_command("assemble OK, fixed {K}") == Assemble("OK", frozenset("K"))
    assert parse_command("assemble OK, do not move K") == Assemble("OK", frozenset("K"))
    assert parse_command("assemble the word BE, but do not move B") == \
        Assemble("BE", frozenset("B"))


def test_parse_rejects_unknown():
    with pytest.raises(CommandError):
        parse_command("juggle the blocks")
    with pytest.raises(CommandError):
        parse_command("assemble OK, do not move Z")


@pytest.mark.parametrize("task", ["move L to front of L", "carry the L block to left of L"])
def test_parse_rejects_self_relation(task):
    with pytest.raises(CommandError, match="relative to itself"):
        parse_command(task)


# -- decomposition -----------------------------------------------------------

def test_decompose_carry_expansion():
    plan = decompose(parse_command("carry L to front of O"))
    funcs = [(s.assignee, s.function) for s in plan.subtasks]
    assert funcs == [
        ("drone", "construct_map"),
        ("both", "planning_start"), ("both", "following_start"),
        ("dog", "attach"),
        ("both", "planning_start"), ("both", "following_start"),
        ("dog", "detach"),
    ]
    assert plan.subtasks[1].goal == GoalSpec.object("L")
    assert plan.subtasks[4].goal.kind == "relation"


def test_decompose_move_to():
    plan = decompose(MoveTo(GoalSpec.coordinate(2.0, 1.0)))
    assert [s.function for s in plan.subtasks] == [
        "construct_map", "planning_start", "following_start"]


def test_decompose_assemble_with_map_carries_only_free_letters():
    gm = global_map(entry("O", -0.8, 0.0), entry("K", 1.0, 0.0))
    plan = decompose(Assemble("OK", frozenset("K")), global_map=gm, pitch=0.4)
    attached = [s.object_name for s in plan.subtasks if s.function == "attach"]
    assert attached == ["O"]
    assert plan.pending_assembly is None


def test_decompose_assemble_without_map_defers():
    plan = decompose(Assemble("OK", frozenset("K")))
    assert plan.pending_assembly == Assemble("OK", frozenset("K"))
    assert [s.function for s in plan.subtasks] == ["construct_map"]


def test_plan_requires_construct_map_first():
    bad = TaskPlan((Subtask("dog", "attach", object_name="L"),))
    with pytest.raises(PlanError):
        bad.validate()


def test_plan_requires_paired_threads():
    bad = TaskPlan((
        Subtask("drone", "construct_map"),
        Subtask("both", "planning_start", goal=GoalSpec.object("L")),
        Subtask("dog", "attach", object_name="L"),
    ))
    with pytest.raises(PlanError):
        bad.validate()


@pytest.mark.parametrize("subtask", [
    Subtask("dog", "dance", object_name="L"),
    Subtask("dog", "following_start", goal=GoalSpec.object("L")),
    Subtask("drone", "planning_start", goal=GoalSpec.object("L")),
])
def test_plan_rejects_unknown_or_unpaired_function(subtask):
    bad = TaskPlan((
        Subtask("drone", "construct_map"),
        subtask,
        Subtask("dog", "attach", object_name="L"),
    ))
    with pytest.raises(PlanError):
        bad.validate()


def test_fixed_letters_never_carried():
    # L and V already sit exactly two pitches apart (their slot spacing)
    gm = global_map(entry("L", -1.0, 0.0), entry("O", 0.5, 0.6),
                    entry("V", -0.2, 0.0), entry("E", 1.4, -0.3))
    plan = decompose(Assemble("LOVE", frozenset({"L", "V"})), global_map=gm, pitch=0.4)
    carried = {s.object_name for s in plan.subtasks if s.function == "attach"}
    assert carried == {"O", "E"}


# -- word assembly -----------------------------------------------------------

def test_assembly_ok_fixed_k():
    gm = global_map(entry("O", -0.8, 0.3), entry("K", 1.0, 0.0))
    goals = plan_word_assembly("OK", gm, {"K"}, pitch=0.4)
    assert len(goals) == 1
    letter, goal = goals[0]
    assert letter == "O"
    assert (goal.x, goal.y) == (pytest.approx(0.6), pytest.approx(0.0))


def test_assembly_be_reading_order():
    gm = global_map(entry("B", 0.0, 0.0), entry("E", -1.0, 0.5))
    goals = plan_word_assembly("BE", gm, {"B"}, pitch=0.4)
    (letter, goal), = goals
    assert letter == "E"
    assert goal.x == pytest.approx(0.4)  # E lands to the right of B
    assert goal.y == pytest.approx(0.0)


def test_assembly_infeasible_fixed_spacing():
    gm = global_map(entry("L", 0.0, 0.0), entry("O", 1.0, 1.0),
                    entry("V", 10.0, 0.0), entry("E", 2.0, -1.0))
    with pytest.raises(AssemblyError):
        plan_word_assembly("LOVE", gm, {"L", "V"}, pitch=0.4)


def test_assembly_skips_letters_in_place():
    gm = global_map(entry("O", 0.0, 0.0), entry("K", 0.41, 0.01))
    goals = plan_word_assembly("OK", gm, {"O"}, pitch=0.4)
    assert goals == []  # K already within half a pitch of its slot


def test_assembly_missing_letter_rejected():
    gm = global_map(entry("O", 0.0, 0.0))
    with pytest.raises(AssemblyError):
        plan_word_assembly("OK", gm, set(), pitch=0.4)


def test_assembly_duplicate_entry_rejected():
    gm = global_map(entry("O", 0.0, 0.0), entry("O", 2.0, 0.0), entry("K", 1.0, 0.0))
    with pytest.raises(AssemblyError):
        plan_word_assembly("OK", gm, set(), pitch=0.4)


def test_assembly_repeated_word_letter_rejected():
    gm = global_map(entry("B", 0.0, 0.0), entry("E", 1.0, 0.0))
    with pytest.raises(AssemblyError):
        plan_word_assembly("BEE", gm, set(), pitch=0.4)


def test_assembly_unfixed_row_is_collinear_and_pitched():
    gm = global_map(entry("A", 0.3, 0.2), entry("B", -0.9, 0.9), entry("C", 0.8, -0.6))
    goals = plan_word_assembly("ABC", gm, set(), pitch=0.5)
    xs = sorted(g.x for _, g in goals)
    assert all(g.y == goals[0][1].y for _, g in goals)
    diffs = {round(b - a, 12) for a, b in zip(xs, xs[1:])}
    assert diffs <= {0.5, 1.0}  # uniform pitch row (skipped slots leave gaps)


# -- relation geometry --------------------------------------------------------

def test_relation_directions_world_frame():
    e = entry("O", 1.0, 2.0)  # unknown yaw falls back to the world frame
    assert relation_goal_point(e, Direction.FRONT, 0.5) == pytest.approx((1.5, 2.0))
    assert relation_goal_point(e, Direction.BACK, 0.5) == pytest.approx((0.5, 2.0))
    assert relation_goal_point(e, Direction.LEFT, 0.5) == pytest.approx((1.0, 2.5))
    assert relation_goal_point(e, Direction.RIGHT, 0.5) == pytest.approx((1.0, 1.5))


def test_relation_directions_body_frame():
    e = entry("O", 0.0, 0.0, orientation=math.pi / 2)
    assert relation_goal_point(e, Direction.FRONT, 1.0) == pytest.approx((0.0, 1.0))
    assert relation_goal_point(e, Direction.RIGHT, 1.0) == pytest.approx((1.0, 0.0))


# -- execution ---------------------------------------------------------------

def test_noiseless_type_a_end_to_end():
    _, res = run_scenario(type_a_scenario(0))
    assert res.success
    assert res.collisions == 0
    errors = [p["error_m"] for p in res.placements if not p["approach"]]
    assert errors and max(errors) < 0.1  # half a 0.2 m grid cell


def test_relation_goal_outside_the_arena_fails():
    # the front of O at (1.7, 0.3) lies past the arena's +2 m wall: the
    # carry fails before it leaves, not with the robot outside the arena
    doc = type_a_scenario(0)
    assert doc["objects"][1]["name"] == "O"
    doc["objects"][1].update(x=1.7, y=0.3)
    _, res = run_scenario(doc)
    assert not res.success
    assert res.failure == "goal (2.25, 0.30) lies outside the arena"
    assert [p["approach"] for p in res.placements] == [True]


def test_perceive_target_rule():
    # at the start of scenario 0 the drone sits over the robot, with L in
    # view and O out of it
    scen = load_scenario(type_a_scenario(0))
    plan = decompose(parse_command(scen.task, scen.config.relation_clearance))
    executor = MissionExecutor(plan, scen.world, scen.config)
    # a coordinate goal: the robot aligns with the image zero point, which
    # observe does not report as an object
    local_map, obs = executor._perceive(GoalSpec.coordinate(1.0, 1.0))
    assert obs.target == (0.0, 0.0)
    assert all(o.category != Category.TARGET for o in local_map.objects)
    # an object goal in view: the object is the target
    local_map, obs = executor._perceive(GoalSpec.object("L"))
    assert obs.target == pytest.approx((0.8 / local_map.cell_m, 0.6 / local_map.cell_m))
    # an object goal out of view: no target, and the anchor is the zero point
    local_map, obs = executor._perceive(GoalSpec.object("O"))
    assert "O" not in {o.name for o in local_map.objects}
    assert obs.target is None
    assert obs.anchor == LocalObservation.zero


def reference_perceive(executor, local_map, goal):
    """_perceive's reading of a local map as first written: one pass over the
    objects for the obstacles, one for the carried object and one for the
    target."""
    state, cell = executor.state, executor.cell
    held = state.attachment
    obstacles = [o for o in local_map.objects
                 if o.category in (Category.OBSTACLE, Category.LANDMARK)]
    parts = local_map.parts
    if not all(k in parts for k in ("head", "body", "tail")) or parts["head"] == parts["tail"]:
        return None
    main = parts["body"]
    steer_radius = state.ground_robot.radius / cell
    carried = next((o for o in local_map.objects if o.id == held), None)
    if carried is not None:
        main, steer_radius = (carried.x, carried.y), carried.radius
    block = next((o for o in local_map.objects if o.category == Category.TARGET), None)
    if block is not None:
        target = (block.x, block.y)
    else:
        target = LocalObservation.zero if goal.kind == "coordinate" else None
    inflate = max(steer_radius, state.ground_robot.radius / cell)
    return LocalObservation(
        main=main, target=target,
        obstacles=tuple(((o.x, o.y), o.radius + inflate) for o in obstacles),
        head=parts["head"], tail=parts["tail"], body=parts["body"],
    )


def _random_local_map(rng, held):
    """A local map as observe reports one under a goal, sorted by id: a mix
    of obstacles, targets, landmarks and the carried object (labelled main),
    with the robot's parts in view, out of view, partly in view, or with the
    head on the tail."""
    objects = []
    for i in range(rng.randrange(7)):
        oid = held if held is not None and rng.random() < 0.3 else f"o{i}"
        category = rng.choice([Category.OBSTACLE, Category.TARGET, Category.LANDMARK])
        if oid == held:
            category = Category.MAIN
        objects.append(SemanticObject(
            oid, rng.choice("LOVE"), rng.uniform(-10, 10), rng.uniform(-10, 10), category,
            Direction.FRONT if category == Category.LANDMARK else None,
            rng.uniform(-3, 3), rng.uniform(0.0, 1.0)))
    objects.sort(key=lambda o: o.id)
    head, body = (rng.uniform(-5, 5), rng.uniform(-5, 5)), (rng.uniform(-5, 5), 0.0)
    tail = rng.choice([head, (-head[0], -head[1])])
    parts = rng.choice([{"head": head, "body": body, "tail": tail}] * 4
                       + [{}, {"head": head, "body": body}])
    return _observed_map(objects, parts)


@pytest.mark.parametrize("seed", range(4))
def test_perceive_reads_the_map_as_the_multi_pass_reading(seed, monkeypatch):
    import agnav.mission as mission

    scen = load_scenario(type_a_scenario(0))
    executor = MissionExecutor(decompose(parse_command(scen.task)), scen.world, scen.config)
    rng = random.Random(seed)
    seen = set()
    for _ in range(400):
        executor.state.attachment = rng.choice([None, "o2", "c"])
        local_map = _random_local_map(rng, executor.state.attachment)
        goal = rng.choice([GoalSpec.coordinate(1.0, 1.0), GoalSpec.object("L")])
        monkeypatch.setattr(mission, "observe", lambda *args: local_map)
        assert executor._perceive(goal) == (local_map, reference_perceive(executor, local_map, goal))
        categories = [o.category for o in local_map.objects]
        seen.update(
            ("main",) * (Category.MAIN in categories)
            + ("two targets",) * (categories.count(Category.TARGET) > 1)
            + ("landmark",) * (Category.LANDMARK in categories)
            + ("parts out of view",) * (not local_map.parts)
            + ("head on tail",) * (local_map.parts.get("head") == local_map.parts.get("tail")
                                   and bool(local_map.parts)))
    assert seen == {"main", "two targets", "landmark", "parts out of view", "head on tail"}


def test_attach_engages_the_block_perceive_reports():
    # two blocks named L in view: L2, the larger id, sits just off the head,
    # while L1 lies to the robot's left. The attach engages L1, the first
    # target by id that the approach homes on, by turning and driving to it.
    from agnav.presets import base_scenario, _block

    doc = base_scenario("carry L to (1.0, 1.0)", [
        {**_block("L", -1.4, -0.7), "id": "L1"}, {**_block("L", -0.9, -1.4), "id": "L2"}])
    scen = load_scenario(doc)
    executor = MissionExecutor(decompose(parse_command(scen.task)), scen.world, scen.config)
    local_map, obs = executor._perceive(GoalSpec.object("L"))
    near = min(local_map.objects, key=lambda o: math.dist((o.x, o.y), obs.head))
    reported = next(o for o in local_map.objects if (o.x, o.y) == obs.target)
    assert (near.id, reported.id) == ("L2", "L1")
    executor._run_attach("L")
    assert executor.state.attachment == "L1"
    commands = [rec["command"] for rec in executor.trace if rec["phase"] == "attach"]
    assert "rotate" in commands and "forward" in commands
    assert "backward" not in commands


def test_noiseless_type_b_end_to_end():
    _, res = run_scenario(type_b_scenario(0))
    assert res.success
    assert res.collisions == 0


def _love_doc():
    # two free letters around two fixed ones: sequential carries must thread
    # slots between already-placed neighbors without contact
    from agnav.presets import base_scenario, _block

    objects = [
        _block("L", -1.2, 0.8), _block("O", 0.9, -0.9),
        _block("V", -0.4, 0.8), _block("E", 1.1, 0.6),
    ]
    doc = base_scenario("assemble LOVE, do not move L and V", objects)
    doc.setdefault("execution", {})["step_budget"] = 8000
    return doc


def test_long_horizon_word_assembly_end_to_end():
    _, res = run_scenario(_love_doc())
    assert res.success
    assert res.collisions == 0
    errors = [p["error_m"] for p in res.placements if not p["approach"]]
    assert len(errors) == 2 and max(errors) < 0.1


@pytest.mark.xfail(strict=True, reason="the pull-in leg to the O slot, 0.4 m from both L "
                   "and V, bows out to y = 3.01 m in the 2 m arena: O sums the band "
                   "penalty over parameter-uniform samples, so stretching the leg from "
                   "3.83 to 18.37 cells leaves 2 of its 64 samples in the band, not 51")
def test_word_assembly_aerial_paths_stay_inside_the_arena():
    scen, res = run_scenario(_love_doc())
    assert res.success
    xmin, xmax, ymin, ymax = scen.config.arena
    for path in res.global_paths:
        for x, y in path:
            assert xmin <= x <= xmax and ymin <= y <= ymax, (x, y)


@pytest.mark.parametrize("drop_at_step", [130, 150, 200])
def test_rollback_completes_after_scripted_drop(drop_at_step):
    # the carry is checked before the tick's decision: on the tick the block
    # is lost the robot stands still, instead of running a command computed
    # for carrying that drives it into the block it just dropped
    _, res = run_scenario(type_a_scenario(0, drop_at_step=drop_at_step))
    assert res.success
    assert res.collisions == 0
    rollbacks = [r for r in res.trace if r["phase"] == "rollback"]
    attaches = [r for r in res.trace if r["phase"] == "attach" and r.get("attached")]
    assert [r["step"] for r in rollbacks] == [drop_at_step]
    assert len(attaches) == 2
    before = next(r for r in reversed(res.trace) if r["step"] < drop_at_step)
    assert rollbacks[0]["ground"] == before["ground"]


# -- carry check ---------------------------------------------------------------

def _carrying_state():
    block = SimObject("b", "B", SimParams().head_offset, 0.0)
    state = WorldState(objects=[block], drone=DroneState(0.0, 0.0, 2.0),
                       ground_robot=GroundRobot(0.0, 0.0, 0.0))
    assert attach(state, "b")
    return state


def _observed_map(objects, parts, cell_m=0.2):
    return LocalSemanticMap(
        observer_x=0, observer_y=0, altitude=2.0, cell_m=cell_m,
        footprint=Footprint(-10, 10, -10, 10),
        objects=tuple(objects), step_index=0, parts=parts,
    )


def test_carry_check_ok_and_drop():
    state = _carrying_state()
    head_cells = (state.params.head_offset / 0.2, 0.0)
    near = _observed_map(
        [SemanticObject(id="b", name="B", x=head_cells[0] + 0.25, y=0.0)],
        {"head": head_cells, "body": (0, 0), "tail": (-head_cells[0], 0)},
    )
    assert carry_check(state, near)  # 0.05 m offset < carry_radius
    dropped = _observed_map(
        [SemanticObject(id="b", name="B", x=head_cells[0] - 5.0, y=0.0)],
        {"head": head_cells, "body": (0, 0), "tail": (-head_cells[0], 0)},
    )
    assert not carry_check(state, dropped)


def test_carry_check_object_out_of_frame_conservative():
    state = _carrying_state()
    unseen = _observed_map([], {"head": (2, 0), "body": (0, 0), "tail": (-2, 0)})
    assert not carry_check(state, unseen)


# -- collision detection only after the ground moves ---------------------------

def _random_tick(state, rng):
    """One random tick's change to ``state``, as the executor's phases make
    them: a turn (toward an object or anywhere), a step, a stop, an attach
    attempt on the object nearest the head, a detach, or a scripted drop
    followed by a motion in the same tick."""
    r = state.ground_robot
    move = rng.choice(["forward"] * 4 + ["backward", "stop", "rotate", "turn_to"])
    action = rng.choice([move] * 8 + ["attach", "detach", "drop"])
    if action == "attach" and state.attachment is None:
        hx, hy = state.head_point()
        near = min(state.objects, key=lambda o: math.hypot(o.x - hx, o.y - hy))
        attach(state, near.id)
        return
    if action in ("detach", "drop") and state.attachment is not None:
        detach(state)
        if action == "detach":
            return
    if move == "turn_to":
        o = rng.choice(state.objects)
        cmd = MotionCommand.rotate(math.atan2(o.y - r.y, o.x - r.x))
    elif move == "rotate":
        cmd = MotionCommand.rotate(rng.uniform(-math.pi, math.pi))
    else:
        cmd = getattr(MotionCommand, move)()
    step_ground(state, cmd)


@pytest.mark.parametrize("make_doc", [lambda: type_a_scenario(0), lambda: type_a_scenario(7),
                                      lambda: type_b_scenario(0), lambda: type_b_scenario(2)],
                         ids=["A0", "A7", "B0", "B2"])
@pytest.mark.parametrize("seed", range(3))
def test_end_tick_detects_as_detecting_every_tick(make_doc, seed, monkeypatch):
    # the executor detects collisions only when the robot's pose or the
    # attachment changed since its last detection; tick by tick, its events
    # and overlaps must be those of detecting on every tick
    import agnav.mission as mission

    scen = load_scenario(make_doc())
    executor = MissionExecutor(decompose(parse_command(scen.task)), scen.world, scen.config)
    state, rng = executor.state, random.Random(seed)
    # start with a block at the head, so that the first attach engages
    block = state.objects[0]
    r, off = state.ground_robot, state.params.head_offset
    r.x, r.y = block.x - off * math.cos(r.heading), block.y - off * math.sin(r.heading)
    detections = []
    monkeypatch.setattr(mission, "detect_collisions",
                        lambda s, prev: detections.append(s.step) or detect_collisions(s, prev))
    overlaps, releases, events = frozenset(), 0, 0
    assert attach(state, block.id)
    for tick in range(600):
        had = state.attachment
        if tick:
            _random_tick(state, rng)
        releases += had is not None and state.attachment is None
        expected, overlaps = detect_collisions(state, overlaps)
        executor._end_tick("test")
        assert executor.trace[-1]["events"] == expected
        assert executor.overlaps == overlaps
        events += len(expected)
    # the sequences release what they carry, collide, and skip detection on
    # some ticks
    assert releases > 0 and events > 0 and 0 < len(detections) < 600



# held-out noisy runs (the layouts beyond the benchmark suite, under the
# calibrated noise) that fail today; a fix must flip each of them
HELDOUT_FAILURES = [
    ("A6_seed0", lambda: type_a_scenario(6, noise=dict(NOISE_CALIBRATED)), 0,
     "fails at step 70: object 'E' not present in the global map"),
    ("A8_seed1", lambda: type_a_scenario(8, noise=dict(NOISE_CALIBRATED)), 1,
     "fails at step 70: object 'O' not present in the global map"),
    ("B1_seed0", lambda: type_b_scenario(1, noise=dict(NOISE_CALIBRATED)), 0,
     "fails at step 70: letter 'E' has 0 map entries"),
    ("A8_seed2", lambda: type_a_scenario(8, noise=dict(NOISE_CALIBRATED)), 2,
     "succeeds with one collision"),
]


@pytest.mark.parametrize("make_doc,seed", [
    pytest.param(make_doc, seed, id=name, marks=pytest.mark.xfail(strict=True, reason=reason))
    for name, make_doc, seed, reason in HELDOUT_FAILURES])
def test_heldout_noisy_run_succeeds_without_collision(make_doc, seed):
    _, res = run_scenario(make_doc(), seed)
    assert res.success and res.collisions == 0, res.failure


@pytest.mark.xfail(strict=True, reason="attaches the landmark T, carries it to the relation "
                                       "point of T's own map entry and reports success")
def test_relation_carry_moves_the_named_block():
    # held-out layout 9 at seed 17, `move L to back of T`: the approach ends
    # 3.42 m from L, which the map holds confirmed at (1.01, 1.02), and the
    # attach engages T. L stays at (1.0, 1.0), yet the run succeeds, since
    # success is judged against the goal the map believes in, not the world
    _, res = run_scenario(type_a_scenario(9, noise=dict(NOISE_CALIBRATED)), 17)
    attached = [r["attached"] for r in res.trace if r.get("attached")]
    assert attached == ["L"] and res.success


def test_rollback_limit_ends_the_mission():
    # a carry tolerance under the perception noise fails the carry check
    # while the block is still held, so every rollback must release it
    # before the re-attach; the rollback past the limit ends the mission
    doc = type_a_scenario(0, noise=dict(NOISE_CALIBRATED))
    doc.setdefault("sim", {})["carry_radius"] = 0.05
    scen = load_scenario(doc, seed_override=0)
    plan = decompose(parse_command(scen.task, scen.config.relation_clearance),
                     pitch=scen.config.pitch)
    executor = MissionExecutor(plan, scen.world, scen.config)
    res = executor.run()
    assert not res.success
    assert res.failure == "rollback limit exceeded"
    assert res.steps == 109
    assert len([r for r in res.trace if r["phase"] == "rollback"]) == ROLLBACK_LIMIT
    attaches = [r for r in res.trace if r["phase"] == "attach" and r.get("attached")]
    assert len(attaches) == ROLLBACK_LIMIT + 1
    assert executor.state.attachment is None


def test_execute_rejects_plan_without_map_phase():
    doc = type_a_scenario(0)
    scen = load_scenario(doc)
    bad = TaskPlan((
        Subtask("both", "planning_start", goal=GoalSpec.coordinate(1, 1)),
        Subtask("both", "following_start", goal=GoalSpec.coordinate(1, 1)),
    ))
    with pytest.raises(PlanError):
        execute(bad, scen.world, scen.config)


def test_execute_deterministic_trace():
    doc = type_a_scenario(1, seed=3)
    _, a = run_scenario(doc)
    _, b = run_scenario(doc)
    assert json.dumps(a.trace, sort_keys=True) == json.dumps(b.trace, sort_keys=True)
    assert a.summary() == b.summary()


def test_execute_does_not_mutate_input_world():
    doc = type_a_scenario(0)
    before = [(o.id, o.x, o.y) for o in load_scenario(doc).world.objects]
    scen, _ = run_scenario(doc)
    assert [(o.id, o.x, o.y) for o in scen.world.objects] == before


def _blocked_window_doc():
    # a window smaller than the lookahead ring bars every candidate
    doc = type_a_scenario(0)
    weights = doc.setdefault("local_weights", {})
    weights["window_half_extent"] = 3.0
    weights["lookahead"] = 5.0
    return doc


@pytest.mark.parametrize("value", [0.0, -0.55, math.nan])
def test_mission_config_rejects_a_non_positive_relation_clearance(value):
    with pytest.raises(ValueError, match="relation_clearance must be positive"):
        MissionConfig(CameraModel(2.0, math.pi / 2, 1600, 80), relation_clearance=value)


_CAMERA_ARGS = dict(altitude=2.0, horizontal_fov=math.pi / 2, image_width=1600, grid_interval=80)
_POSITIVE_FIELDS = (
    [(FusionParams, {}, name) for name in ("merge_radius", "conflict_radius")]
    + [(SimParams, {}, name) for name in ("drone_speed", "ground_step", "rotate_rate",
                                          "follow_radius", "attach_range", "attach_angle_tol",
                                          "carry_radius", "head_offset")]
    # a NaN altitude is left to ground_scale's cell check
    + [(CameraModel, _CAMERA_ARGS, name) for name in ("image_width", "grid_interval")]
    + [(GridSpec, dict(image_width=800, image_height=600, cell_size=80), name)
       for name in ("image_width", "image_height", "cell_size")]
    + [(MissionConfig, dict(camera=CameraModel(**_CAMERA_ARGS)), name)
       for name in ("map_update_every", "step_budget", "dist_stop", "success_radius")]
)


@pytest.mark.parametrize("cls, args, name", _POSITIVE_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in _POSITIVE_FIELDS])
@pytest.mark.parametrize("value", [math.nan, 0, -1])
def test_config_classes_refuse_nan_where_they_refuse_a_non_positive_value(cls, args, name, value):
    # a NaN passes a bare `<= 0` test: FusionParams(merge_radius=nan) fuses
    # every map to an empty one, and a NaN camera or grid length fails later
    # in a float-to-int conversion
    with pytest.raises(ValueError):
        cls(**{**args, name: value})


@pytest.mark.parametrize("value", [math.nan, -0.1])
def test_mission_config_rejects_a_negative_or_nan_angle_tol(value):
    # a NaN gate never lets a move tick rotate, so the mission runs out its budget
    with pytest.raises(ValueError, match="angle_tol must be non-negative"):
        MissionConfig(CameraModel(**_CAMERA_ARGS), angle_tol=value)


def test_blocked_window_replans_once_then_fails():
    # the executor replans the aerial path once from the current pose and
    # then reports the blocked state as a task failure
    _, res = run_scenario(_blocked_window_doc())
    assert not res.success
    assert "blocked" in res.failure
    replans = [r for r in res.trace if r.get("replanned")]
    assert len(replans) == 1


def test_attach_on_immovable_block_fails_cleanly():
    doc = type_a_scenario(0)
    for o in doc["objects"]:
        if o["name"] == "L":
            o["movable"] = False
    _, res = run_scenario(doc)
    assert not res.success
    assert "attach" in res.failure


# -- pinned trace bytes -------------------------------------------------------

def _fuse_every_tick(doc):
    doc.setdefault("execution", {})["map_update_every"] = 1
    return doc


# sha256 over the trace JSON lines plus summary(), as criterion 9 serialises
# them, of missions that re-fuse the map on every tick, and of the unmodified
# scripted-drop preset, whose rollback path no other digest covers. Criterion 9
# compares two runs inside one process; these constants catch a byte change
# between revisions (computed on x86-64 Linux; the planner makes no BLAS call,
# so the OpenBLAS kernel does not change them).
GOLDEN_DIGESTS = [
    ("type_a_1_seed11", lambda: _fuse_every_tick(type_a_scenario(1, seed=11)), None,
     "31c653a4982bbe02d8c3245e24ed0403dd235a2158065af16b558bcf264b85f2"),
    ("noisy_type_a_0_seed3",
     lambda: _fuse_every_tick(type_a_scenario(0, noise=dict(NOISE_CALIBRATED))), 3,
     "70f87641c7b7f6858b781e6d26a2eafc5ebb29c8feb7c430858a8bd314d12957"),
    ("noisy_type_b_0_seed1",
     lambda: _fuse_every_tick(type_b_scenario(0, noise=dict(NOISE_CALIBRATED))), 1,
     "5420f18925f0b78620d47afb6859ede771d8089a9693273b7096a08ec974bc6e"),
    ("type_a_0_drop130", lambda: type_a_scenario(0, drop_at_step=130), None,
     "3a7d1ad34350560bc69c40090ac3934acdf6e14ae88058cee9032146c6d89de8"),
]


def _hash_run(h, res):
    for rec in res.trace:
        h.update((json.dumps(rec, sort_keys=True) + "\n").encode())
    h.update(json.dumps(res.summary(), sort_keys=True).encode())


@pytest.mark.parametrize("make_doc,seed,expected", [g[1:] for g in GOLDEN_DIGESTS],
                         ids=[g[0] for g in GOLDEN_DIGESTS])
def test_golden_trace_digest(make_doc, seed, expected):
    _, res = run_scenario(make_doc(), seed)
    h = hashlib.sha256()
    _hash_run(h, res)
    assert res.success
    assert h.hexdigest() == expected


def test_preset_suite_digest():
    # one digest over the 35 preset missions of the benchmark suite: the ten
    # noiseless type-A runs, then each noisy scenario at seeds 0-4. It pins
    # bytes only; one of the 35 (noisy type B 1, seed 0) fails its task.
    # Re-pinned when an in-place turn began to take the shorter way: the old
    # sweep-clearance rule picked the other way on 11 of the suite's rotate
    # ticks, which changes the bytes of 3 missions but no outcome. Re-pinned
    # when a leg clear of the d_safe band began to fly the Greville-spaced
    # chord instead of a descended path along the same line: the drone's
    # waypoints move, and with them the bytes of 27 missions but no outcome.
    # Re-pinned when the planner's products became fixed-order folds over one
    # stacked map instead of BLAS calls: every descended leg and every flown
    # sample rounds differently, which moves bytes but no outcome.
    h = hashlib.sha256()
    for i in range(10):
        _hash_run(h, run_scenario(type_a_scenario(i, seed=i))[1])
    for doc in noise_batch_suite():
        for seed in range(5):
            _hash_run(h, run_scenario(doc, seed)[1])
    assert h.hexdigest() == "2b580b58e41951b62b8c8e6da144dab222323e7a6bbee9e33485df709924060d"



def test_blocked_window_fusing_every_tick_digest():
    # the blocked-window mission fusing every tick: its replan at step 74 is
    # the one read of the global map in the middle of a leg
    _, res = run_scenario(_fuse_every_tick(_blocked_window_doc()))
    h = hashlib.sha256()
    _hash_run(h, res)
    assert [r["step"] for r in res.trace if r.get("replanned")] == [74]
    assert h.hexdigest() == "85fd230a0b027066bde757d2c494012c451863c16cb85268381d5199e4b3fd9b"


# -- deferred fusion -----------------------------------------------------------

class _EagerFusionExecutor(MissionExecutor):
    """Reads the global map after every tick, which folds each queued local
    map at once: the per-tick fusion the default executor defers."""

    def _end_tick(self, *args, **kwargs):
        super()._end_tick(*args, **kwargs)
        self.global_map


def assert_deferral_matches_eager(plan, scen):
    runs = []
    for cls in (MissionExecutor, _EagerFusionExecutor):
        executor = cls(plan, scen.world, scen.config)
        res = executor.run()
        h = hashlib.sha256()
        _hash_run(h, res)
        runs.append((h.hexdigest(), res.summary(), executor.global_map))
    (digest, summary, fused), (eager_digest, eager_summary, eager) = runs
    assert digest == eager_digest
    assert summary == eager_summary
    assert fused.revision == eager.revision
    assert fused.entries == eager.entries
    assert fused.pool == eager.pool
    assert fused.footprints == eager.footprints


def _navigate_style_doc(i):
    # a noisy move_to mission fusing every tick, goal across the arena
    doc = _fuse_every_tick(type_a_scenario(i, noise=dict(NOISE_CALIBRATED)))
    x, y = [(-1.0, 1.2), (1.2, 1.0), (0.0, -1.3), (-1.2, -0.8), (1.0, -1.1)][i]
    doc["task"] = f"move_to ({x}, {y})"
    return doc


# the same bytes pin for the five noisy coordinate-goal missions above, whose
# ticks take the perceiver's and the local planner's navigate path (the
# zero-point target, every draw of the noise stream) that GOLDEN_DIGESTS'
# object and relation goals do not
NAVIGATE_STYLE_DIGESTS = [
    "29eb4174f418a55482781f889feac542596d2c61dde86207c09696b5b5113ba3",
    "6e516268044c1b905290a33c6f4ab82db0d2c03f873c2f7791745f512198c615",
    "034579908dc9a91ca1d52d81cc4d9beb517de231a73f71a73d48c01dd6a6d8ca",
    "7229bea2ad7d3826ffd28f780e401fc81771eab7efffa9a07fed76a114fb27e6",
    "24e0ffd40ca2e9a0748b7fa50cf6439952a74c179acba15ad88ba541de7059eb",
]


@pytest.mark.parametrize("i", range(5), ids=[f"navigate_style_{i}" for i in range(5)])
def test_navigate_style_trace_digest(i):
    _, res = run_scenario(_navigate_style_doc(i), i)
    h = hashlib.sha256()
    _hash_run(h, res)
    assert res.success
    assert h.hexdigest() == NAVIGATE_STYLE_DIGESTS[i]


def test_pinned_missions_read_totals_the_search_skipped(monkeypatch):
    # the hysteresis reads the previous direction's total; when the bounded
    # search did not score that candidate, DirectionChoice.total scores it
    # on demand. The digest-pinned missions take that path, so their digests
    # pin its bytes
    total = DirectionChoice.total
    skipped = []

    def counted(choice, index):
        skipped.append(index not in choice.scored)
        return total(choice, index)

    monkeypatch.setattr(DirectionChoice, "total", counted)
    for _, make_doc, seed, _ in GOLDEN_DIGESTS:
        run_scenario(make_doc(), seed)
    golden = sum(skipped)
    for i in range(5):
        run_scenario(_navigate_style_doc(i), i)
    assert golden > 0 and sum(skipped) > golden


DEFERRAL_CASES = (
    [g[:3] for g in GOLDEN_DIGESTS]
    + [("blocked_window", _blocked_window_doc, None),
       ("blocked_window_fuse_every_tick",
        lambda: _fuse_every_tick(_blocked_window_doc()), None)]
    + [(f"navigate_style_{i}", lambda i=i: _navigate_style_doc(i), i) for i in range(5)]
)


@pytest.mark.parametrize("make_doc,seed", [c[1:] for c in DEFERRAL_CASES],
                         ids=[c[0] for c in DEFERRAL_CASES])
def test_deferred_fusion_matches_per_tick_fusion(make_doc, seed):
    scen = load_scenario(make_doc(), seed_override=seed)
    plan = decompose(parse_command(scen.task, scen.config.relation_clearance),
                     pitch=scen.config.pitch)
    assert_deferral_matches_eager(plan, scen)


def test_executor_folds_its_queue_with_one_update_call(monkeypatch):
    import agnav.mission as mission

    folds = []
    fold = mission.update
    monkeypatch.setattr(mission, "update",
                        lambda gm, maps, params: folds.append(list(maps)) or fold(gm, folds[-1], params))
    scen = load_scenario(_fuse_every_tick(_blocked_window_doc()))
    executor = MissionExecutor(decompose(parse_command(scen.task, scen.config.relation_clearance)),
                               scen.world, scen.config)
    executor.run()
    # the replan at step 74 folds every map queued since construct_map in
    # one call; the blocked state then ends the mission, so the read below
    # finds an empty queue and folds nothing
    assert len(folds) == 1
    steps = [m.step_index for m in folds[0]]
    assert len(steps) > 1 and steps == list(range(steps[0], 74))
    assert executor.global_map.revision == len(folds[0])
    assert len(folds) == 1


def test_deferred_fusion_dropped_by_a_later_map_construction():
    # a second construct_map replaces the map: maps queued on the leg before
    # it are never fused, as per-tick fusion would have overwritten them
    scen = load_scenario(_navigate_style_doc(0), seed_override=0)
    move = decompose(parse_command(scen.task)).subtasks
    back = decompose(MoveTo(GoalSpec.coordinate(0.0, 0.0))).subtasks
    assert_deferral_matches_eager(TaskPlan(move + back + move[1:]), scen)


# -- labels drawn on first read --------------------------------------------------

def _noisy(make_doc):
    def doc():
        d = _fuse_every_tick(make_doc())
        d["noise"] = dict(NOISE_CALIBRATED)
        return d
    return doc


LATE_LABEL_CASES = [
    (name, _noisy(make), seed)
    for name, make in [("A0", lambda: type_a_scenario(0)), ("A7", lambda: type_a_scenario(7)),
                       ("B0", lambda: type_b_scenario(0)), ("B2", lambda: type_b_scenario(2)),
                       ("blocked_window", _blocked_window_doc)]
    for seed in range(3)
]


@pytest.mark.parametrize("make_doc,seed", [c[1:] for c in LATE_LABEL_CASES],
                         ids=[f"{c[0]}_seed{c[2]}" for c in LATE_LABEL_CASES])
def test_late_labels_match_labels_read_at_once(make_doc, seed, monkeypatch):
    # noisy missions fusing every tick, where a queued map is labelled when
    # the global map is next read (the blocked window's replan at step 74
    # reads it mid-leg), against an executor whose observe reads the
    # objects before it returns: same trace bytes, same fused map
    import agnav.mission as mission

    scen = load_scenario(make_doc(), seed_override=seed)
    plan = decompose(parse_command(scen.task, scen.config.relation_clearance),
                     pitch=scen.config.pitch)
    observe = mission.observe

    def observe_labelled_at_once(*args):
        local_map = observe(*args)
        local_map.objects
        return local_map

    runs = []
    for labelled_at_once in (False, True):
        if labelled_at_once:
            monkeypatch.setattr(mission, "observe", observe_labelled_at_once)
        executor = MissionExecutor(plan, scen.world, scen.config)
        res = executor.run()
        h = hashlib.sha256()
        _hash_run(h, res)
        runs.append((h.hexdigest(), res.trace, executor.global_map))
    (digest, trace, fused), (at_once_digest, _, at_once) = runs
    assert digest == at_once_digest
    assert (fused.revision, fused.entries, fused.pool, fused.footprints) == (
        at_once.revision, at_once.entries, at_once.pool, at_once.footprints)
    if make_doc is LATE_LABEL_CASES[-1][1]:
        assert [r["step"] for r in trace if r.get("replanned")] == [74]


def test_coordinate_goal_move_ticks_draw_no_label(monkeypatch):
    # a noisy move_to mission: its move ticks read positions only, so no
    # mis, sub or yaw draw is keyed by a move tick's step; the construct-map
    # views are fused, so they are labelled
    draws = []
    sha256 = hashlib.sha256

    def counted(data=b"", **kwargs):
        draws.append(data.decode().split("|"))
        return sha256(data, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counted)
    scen = load_scenario(_navigate_style_doc(0), seed_override=0)
    executor = MissionExecutor(decompose(parse_command(scen.task)), scen.world, scen.config)
    res = executor.run()
    assert res.success
    move_steps = {str(r["step"]) for r in res.trace if r["phase"] == "move"}
    by_phase = {"move": set(), "other": set()}
    for seed, step, _, channel in draws:
        by_phase["move" if step in move_steps else "other"].add(channel)
    assert by_phase["move"] == {"px", "py"}
    assert {"mis", "yaw"} <= by_phase["other"]
