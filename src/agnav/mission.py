"""Task decomposition, word-assembly goal synthesis, and mission execution.

The decomposer is a deterministic grammar over three command forms:

    move_to (x, y) | move to <name>
    carry <name> to (x, y) | move/carry <name> to <direction> of <name>
    assemble <WORD> [, fixed {A, B} | , do not move A [and B]]

It stands in for the language-model reasoner behind the same contract: a
plan always opens with map construction, cooperative moves pair a drone
planning thread with a ground following thread, and manipulation expands to
approach / attach / transport / detach.

Execution interleaves the two threads in one deterministic tick loop:
advance the drone, observe, select a ground direction, step the ground
robot, monitor the carried object (rolling back to re-attach on a drop),
update the global map at a fixed cadence, and count debounced collisions.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from .global_planner import (
    GlobalCostWeights,
    GlobalPlanResult,
    ObstacleSet,
    optimize,
    straight_line_init,
)
from .gridmask import CameraModel, ground_scale
from .local_planner import (
    BlockedError,
    LocalCostWeights,
    LocalObservation,
    MotionCommand,
    MotionKind,
    StepThresholds,
    candidate_theta,
    cost_local,  # noqa: F401 -- not called here; perfbench's tracer wraps it by this name
    select_direction,
    step_decision,
    wrap_angle,
)
from .perception import NoiseModel, TaskContext, TaskKind, observe
from .semantic_map import (
    Category,
    Direction,
    FusionParams,
    GlobalSemanticMap,
    fuse,
    update,
)
from .sim_world import (
    WorldState,
    attach,
    carry_check,
    detach,
    detect_collisions,
    drone_done,
    step_drone,
    step_ground,
)
from .spline import sample


class CommandError(ValueError):
    """Input outside the supported task grammar."""


class PlanError(ValueError):
    """Structurally invalid task plan."""


class AssemblyError(ValueError):
    """Word-assembly goals cannot be synthesized from the map."""


class GoalError(ValueError):
    """A goal names an object the global map does not hold."""


# ---------------------------------------------------------------------------
# Goals and commands


@dataclass(frozen=True)
class GoalSpec:
    kind: str  # coordinate | object | relation
    x: float = 0.0
    y: float = 0.0
    name: Optional[str] = None
    direction: Optional[Direction] = None
    clearance: float = 0.4  # meters, relation goals

    @classmethod
    def coordinate(cls, x: float, y: float) -> "GoalSpec":
        return cls("coordinate", x=x, y=y)

    @classmethod
    def object(cls, name: str) -> "GoalSpec":
        return cls("object", name=name)

    @classmethod
    def relation(cls, name: str, direction: Direction, clearance: float = 0.4) -> "GoalSpec":
        return cls("relation", name=name, direction=direction, clearance=clearance)


@dataclass(frozen=True)
class MoveTo:
    goal: GoalSpec


@dataclass(frozen=True)
class Carry:
    name: str
    goal: GoalSpec


@dataclass(frozen=True)
class Assemble:
    word: str
    fixed: frozenset = frozenset()


_COORD = r"\(\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*\)"
_NAME = r"(?:the\s+)?([A-Za-z0-9_]+)(?:\s+cube|\s+block)?"
_DIR = r"(front|back|left|right)"


def parse_command(text: str, relation_clearance: float = 0.4):
    """Parse a task string into a command; raises CommandError with a
    diagnostic for anything outside the grammar."""
    s = " ".join(text.strip().split())
    low = s.lower()

    m = re.fullmatch(rf"move[_ ]?to\s*{_COORD}", low)
    if m:
        return MoveTo(GoalSpec.coordinate(float(m.group(1)), float(m.group(2))))

    m = re.fullmatch(rf"(?:move|carry)\s+{_NAME}\s+to\s+(?:the\s+)?{_DIR}(?:\s+side)?\s+of\s+{_NAME}",
                     s, flags=re.IGNORECASE)
    if m:
        return Carry(m.group(1), GoalSpec.relation(m.group(3), Direction(m.group(2).lower()),
                                                   relation_clearance))

    m = re.fullmatch(rf"carry\s+{_NAME}\s+to\s+{_COORD}", s, flags=re.IGNORECASE)
    if m:
        return Carry(m.group(1), GoalSpec.coordinate(float(m.group(2)), float(m.group(3))))

    m = re.fullmatch(rf"move[_ ]?to\s+{_NAME}", s, flags=re.IGNORECASE)
    if m:
        return MoveTo(GoalSpec.object(m.group(1)))

    m = re.fullmatch(
        r"assemble\s+(?:the\s+word\s+)?([A-Za-z0-9]+)"
        r"(?:\s*,\s*(?:but\s+)?(?:fixed\s*\{([^}]*)\}|do\s+not\s+move\s+(.+)))?",
        s, flags=re.IGNORECASE)
    if m:
        word = m.group(1)
        fixed: set[str] = set()
        raw = m.group(2) if m.group(2) is not None else m.group(3)
        if raw:
            for tok in re.split(r"[,\s]+|and\s+", raw.strip()):
                if tok and tok.lower() not in ("and",):
                    fixed.add(tok)
        unknown = fixed - set(word)
        if unknown:
            raise CommandError(f"fixed letters {sorted(unknown)} not in word {word!r}")
        return Assemble(word, frozenset(fixed))

    raise CommandError(f"cannot parse task {text!r}: expected move_to/move/carry/assemble forms")


# ---------------------------------------------------------------------------
# Task plans


@dataclass(frozen=True)
class Subtask:
    assignee: str   # drone | dog | both
    function: str   # construct_map | planning_start | following_start | attach | detach
    goal: Optional[GoalSpec] = None
    object_name: Optional[str] = None


@dataclass(frozen=True)
class TaskPlan:
    subtasks: tuple[Subtask, ...]
    pending_assembly: Optional[Assemble] = None

    def validate(self) -> None:
        """Raise PlanError unless the plan opens with construct_map, every
        planning_start is directly followed by its following_start on the
        same goal, and every other subtask is construct_map, attach or
        detach. The executor runs the subtasks as they are and relies on
        all three."""
        if not self.subtasks or self.subtasks[0].function != "construct_map":
            raise PlanError("the first subtask must be construct_map")
        i = 0
        while i < len(self.subtasks):
            s = self.subtasks[i]
            if s.assignee == "both" or s.function in ("planning_start", "following_start"):
                if (s.function != "planning_start"
                        or s.assignee != "both"
                        or i + 1 >= len(self.subtasks)
                        or self.subtasks[i + 1].function != "following_start"
                        or self.subtasks[i + 1].assignee != "both"
                        or self.subtasks[i + 1].goal != s.goal):
                    raise PlanError("cooperative moves must pair planning_start with following_start")
                i += 2
            elif s.function in ("construct_map", "attach", "detach"):
                i += 1
            else:
                raise PlanError(f"unknown motion function {s.function!r}")


def _move_pair(goal: GoalSpec, carrying: Optional[str] = None) -> list[Subtask]:
    return [
        Subtask("both", "planning_start", goal=goal, object_name=carrying),
        Subtask("both", "following_start", goal=goal, object_name=carrying),
    ]


def _carry_subtasks(name: str, goal: GoalSpec) -> list[Subtask]:
    out = _move_pair(GoalSpec.object(name))
    out.append(Subtask("dog", "attach", object_name=name))
    out.extend(_move_pair(goal, carrying=name))
    out.append(Subtask("dog", "detach", object_name=name))
    return out


def decompose(command, global_map: Optional[GlobalSemanticMap] = None,
              pitch: float = 0.4) -> TaskPlan:
    """Expand a parsed command into a task plan opening with map construction.

    Word assembly needs the global map to lay out slots; without one the plan
    carries the assembly for the executor to expand after construct_map.
    """
    subtasks = [Subtask("drone", "construct_map")]
    if isinstance(command, MoveTo):
        subtasks.extend(_move_pair(command.goal))
        plan = TaskPlan(tuple(subtasks))
    elif isinstance(command, Carry):
        subtasks.extend(_carry_subtasks(command.name, command.goal))
        plan = TaskPlan(tuple(subtasks))
    elif isinstance(command, Assemble):
        if global_map is not None:
            for letter, goal in plan_word_assembly(command.word, global_map,
                                                   command.fixed, pitch):
                subtasks.extend(_carry_subtasks(letter, goal))
            plan = TaskPlan(tuple(subtasks))
        else:
            plan = TaskPlan(tuple(subtasks), pending_assembly=command)
    else:
        raise CommandError(f"unsupported command {command!r}")
    plan.validate()
    return plan


def plan_word_assembly(word: str, global_map: GlobalSemanticMap, fixed,
                       pitch: float = 0.4) -> list[tuple[str, GoalSpec]]:
    """Slot goals for arranging the word's letter blocks left to right.

    Slots are spaced ``pitch`` apart on a horizontal row. A non-empty fixed
    set anchors the row on the fixed letters (each must land within half a
    pitch of its slot, else the layout is infeasible); otherwise the row is
    centered on the letters' current centroid. Letters already within half a
    pitch of their slot are skipped. Returns (letter, goal) pairs ordered by
    slot position.
    """
    letters = list(word)
    if len(set(letters)) != len(letters):
        raise AssemblyError(f"word {word!r} repeats a letter; slots would be ambiguous")
    fixed = set(fixed)
    if not fixed <= set(letters):
        raise AssemblyError("fixed letters must come from the word")
    positions = {}
    for letter in letters:
        matches = [e for e in global_map.entries if e.name == letter]
        if len(matches) != 1:
            raise AssemblyError(
                f"letter {letter!r} has {len(matches)} map entries, need exactly 1")
        positions[letter] = (matches[0].x, matches[0].y)

    offsets = {letter: i * pitch for i, letter in enumerate(letters)}
    if fixed:
        anchors = [
            (positions[f][0] - offsets[f], positions[f][1]) for f in sorted(fixed)
        ]
        ax = sum(a[0] for a in anchors) / len(anchors)
        ay = sum(a[1] for a in anchors) / len(anchors)
        for f in sorted(fixed):
            sx, sy = ax + offsets[f], ay
            err = math.hypot(positions[f][0] - sx, positions[f][1] - sy)
            if err > 0.5 * pitch:
                raise AssemblyError(
                    f"fixed letters are {err:.3f} m from a consistent slot row "
                    f"(limit {0.5 * pitch:.3f} m); layout infeasible")
    else:
        ax = sum(positions[l][0] for l in letters) / len(letters) \
            - sum(offsets.values()) / len(letters)
        ay = sum(positions[l][1] for l in letters) / len(letters)

    out = []
    for letter in letters:
        if letter in fixed:
            continue
        sx, sy = ax + offsets[letter], ay
        if math.hypot(positions[letter][0] - sx, positions[letter][1] - sy) <= 0.5 * pitch:
            continue
        out.append((letter, GoalSpec.coordinate(sx, sy)))
    return out


def relation_goal_point(entry, direction: Direction, clearance: float) -> tuple[float, float]:
    """World goal for a directional landmark: offset by clearance along the
    landmark's yawed body axis (unknown yaw falls back to the world frame)."""
    yaw = entry.orientation if entry.orientation is not None else 0.0
    offset = {
        Direction.FRONT: 0.0,
        Direction.BACK: math.pi,
        Direction.LEFT: math.pi / 2.0,
        Direction.RIGHT: -math.pi / 2.0,
    }[direction]
    ang = yaw + offset
    return (entry.x + clearance * math.cos(ang), entry.y + clearance * math.sin(ang))


def resolve_goal(goal: GoalSpec, global_map: Optional[GlobalSemanticMap]) -> tuple[float, float]:
    """World point of a goal: the coordinate itself, the mapped object, or
    the relation point beside the mapped landmark."""
    if goal.kind == "coordinate":
        return (goal.x, goal.y)
    if global_map is None:
        raise GoalError("goal resolution requires the global map")
    entry = global_map.find(goal.name)
    if entry is None:
        raise GoalError(f"object {goal.name!r} not present in the global map")
    if goal.kind == "object":
        return (entry.x, entry.y)
    return relation_goal_point(entry, goal.direction, goal.clearance)


# ---------------------------------------------------------------------------
# Execution

ATTACH_BUDGET = 300  # ticks an attach subtask may take before it fails
ROLLBACK_LIMIT = 3  # drop recoveries allowed per mission


@dataclass(frozen=True)
class MissionConfig:
    camera: CameraModel
    noise: NoiseModel = NoiseModel()
    global_weights: GlobalCostWeights = GlobalCostWeights()
    local_weights: LocalCostWeights = LocalCostWeights()
    fusion: FusionParams = FusionParams()
    arena: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    n_controls: int = 6
    step_budget: int = 4000
    map_update_every: int = 10
    dist_stop: float = StepThresholds.dist_stop  # cells
    angle_tol: float = StepThresholds.angle_tol  # rad
    pitch: float = 0.4
    success_radius: float = 0.2  # meters, ground-truth placement tolerance
    drop_at_step: Optional[int] = None


@dataclass
class ExecutionResult:
    success: bool
    trace: list
    collisions: int
    steps: int
    path_length: float
    placements: list
    failure: Optional[str]
    global_paths: list      # world polylines, one per planned move
    track: list             # ground robot world track
    final_map: Optional[GlobalSemanticMap]
    wall_time: float = 0.0  # seconds in execute, when timed; not in summary()

    def summary(self) -> dict:
        return {
            "success": self.success,
            "collisions": self.collisions,
            "steps": self.steps,
            "path_length": self.path_length,
            "placement_errors": self.placements,
            "failure": self.failure,
        }


def main_point(world: WorldState, carrying: Optional[str]) -> tuple[float, float]:
    """World point being steered: the carried object (by id) while carrying,
    otherwise the ground robot."""
    if carrying is not None:
        obj = world.object_by_id(carrying)
        if obj is not None:
            return (obj.x, obj.y)
    return (world.ground_robot.x, world.ground_robot.y)


@dataclass(frozen=True)
class Leg:
    """One planned aerial leg: the optimizer's result (grid cells) and the
    world waypoints the drone flies."""

    result: GlobalPlanResult
    waypoints: list


def plan_leg(world: WorldState, global_map: Optional[GlobalSemanticMap],
             config: MissionConfig, goal: GoalSpec, carrying: Optional[str] = None,
             carrying_name: Optional[str] = None, target=None) -> Leg:
    """Plan the aerial path of one cooperative move.

    The leg starts at the steered point (the carried object ``carrying``
    while carrying, otherwise the robot) and ends at ``target``, by default
    the resolved goal. Every mapped object is an obstacle except the carried
    one, the robot, and the goal object of an object goal; a relation's
    landmark stays one. A leg already at its goal flies the single start
    point.
    """
    cell = ground_scale(config.camera).cell_m
    end = resolve_goal(goal, global_map) if target is None else target
    start = main_point(world, carrying)
    init, at_goal = straight_line_init(
        (start[0] / cell, start[1] / cell), (end[0] / cell, end[1] / cell), config.n_controls)
    exclude = {carrying_name, "robot"}
    if goal.kind == "object":
        exclude.add(goal.name)
    pairs = [((e.x / cell, e.y / cell), e.radius / cell)
             for e in (global_map.entries if global_map else ()) if e.name not in exclude]
    result = optimize(init, config.global_weights, ObstacleSet.from_pairs(pairs))
    if at_goal:
        return Leg(result, [start])
    pts = sample(result.path, config.global_weights.sample_count) * cell
    return Leg(result, [(float(p[0]), float(p[1])) for p in pts])


def construct_map_viewpoints(arena, camera: CameraModel) -> list[tuple[float, float]]:
    """2 x 2 viewpoint lattice covering the arena, lawnmower order."""
    xmin, xmax, ymin, ymax = arena
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    dx, dy = (xmax - xmin) / 4.0, (ymax - ymin) / 4.0
    return [(cx - dx, cy - dy), (cx + dx, cy - dy), (cx + dx, cy + dy), (cx - dx, cy + dy)]


def _fusion_view(local_map):
    """Strip agent-bound objects (main category, synthetic zero target) so
    only the static environment is fused into the global map."""
    keep = tuple(
        o for o in local_map.objects
        if o.category != Category.MAIN and o.id not in ("robot", "zero-point")
    )
    return replace(local_map, objects=keep)


class _Failure(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class MissionExecutor:
    """Runs a task plan on a world copy, producing a tick trace and metrics."""

    def __init__(self, plan: TaskPlan, world: WorldState, config: MissionConfig):
        plan.validate()
        self.plan = plan
        self.state = world.copy()
        self.cfg = config
        self.cell = ground_scale(config.camera).cell_m
        self.trace: list = []
        self.track: list = [(self.state.ground_robot.x, self.state.ground_robot.y)]
        self.global_paths: list = []
        self.placements: list = []
        self.overlaps: frozenset = frozenset()
        self.collisions = 0
        self.global_map: Optional[GlobalSemanticMap] = None
        self.carrying: Optional[str] = None       # object id
        self.carrying_name: Optional[str] = None
        self.rollbacks = 0
        self.path_length = 0.0

    # -- helpers ----------------------------------------------------------

    def _camera_map(self, task: TaskContext):
        return observe(self.state, self.cfg.camera, task, self.cfg.noise)

    def _record(self, phase: str, command=None, theta=None, cost=None, events=(), extra=None):
        rec = {
            "step": self.state.step,
            "phase": phase,
            "drone": [self.state.drone.x, self.state.drone.y],
            "ground": [self.state.ground_robot.x, self.state.ground_robot.y,
                       self.state.ground_robot.heading],
            "command": command.kind.value if command is not None else None,
            "theta_star": theta,
            "cost": cost,
            "events": list(events),
            "map_revision": self.global_map.revision if self.global_map else None,
        }
        if extra:
            rec.update(extra)
        self.trace.append(rec)

    def _tick_housekeeping(self) -> list:
        events, self.overlaps = detect_collisions(self.state, self.overlaps)
        self.collisions += len(events)
        prev = self.track[-1]
        cur = (self.state.ground_robot.x, self.state.ground_robot.y)
        self.path_length += math.hypot(cur[0] - prev[0], cur[1] - prev[1])
        if cur != prev:
            self.track.append(cur)
        return events

    def _advance_step(self):
        self.state.step += 1
        if self.state.step > self.cfg.step_budget:
            raise _Failure("step budget exhausted")

    def _maybe_drop(self):
        if (self.cfg.drop_at_step is not None
                and self.state.step == self.cfg.drop_at_step
                and self.state.attachment is not None):
            detach(self.state)

    def _update_map(self, local_map):
        if self.global_map is not None and self.state.step % self.cfg.map_update_every == 0:
            self.global_map = update(self.global_map, _fusion_view(local_map), self.cfg.fusion)

    def _alignment_gate(self, goal_dist_cells: Optional[float] = None) -> float:
        # aligning finer than the candidate quantization cannot converge: one
        # rotation tick swings the steered point enough to shift the selected
        # bin, so the gate widens to just over the bin width. While carrying,
        # the steered point rides the head arm and each rotation tick swings
        # it by ~head_offset * rotate_rate; near the goal that swing dwarfs
        # the remaining distance, so the gate must also cover the swing angle
        # or the endgame live-locks chasing its own pivot.
        bin_width = 2.0 * math.pi / self.cfg.local_weights.candidate_count
        gate = max(self.cfg.angle_tol, 1.05 * bin_width)
        if self.carrying is not None and goal_dist_cells is not None:
            swing = self.state.params.head_offset * self.state.params.rotate_rate / self.cell
            shift = math.atan2(swing, max(goal_dist_cells, 1e-9))
            gate = max(gate, min(1.3, 1.05 * bin_width + shift))
        return gate

    def _plan_drone_path(self, goal: GoalSpec, target) -> list:
        leg = plan_leg(self.state, self.global_map, self.cfg, goal,
                       self.carrying, self.carrying_name, target)
        self.global_paths.append(leg.waypoints)
        return leg.waypoints

    def _local_observation(self, local_map) -> Optional[LocalObservation]:
        parts = local_map.parts
        if not all(k in parts for k in ("head", "body", "tail")):
            return None
        if parts["head"] == parts["tail"]:
            return None
        main = parts["body"]
        steer_radius = self.state.ground_robot.radius / self.cell
        if self.carrying is not None:
            for o in local_map.objects:
                if o.id == self.carrying:
                    main = (o.x, o.y)
                    steer_radius = o.radius
                    break
        target = None
        for o in sorted(local_map.objects, key=lambda s: s.id):
            if o.category == Category.TARGET:
                target = (o.x, o.y)
                break
        # obstacle discs inflated by the whole moving ensemble's radius (the
        # trailing body included while carrying): the clearance term then
        # measures surface separation for everything that travels the ray
        inflate = steer_radius
        if self.carrying is not None:
            inflate = max(inflate, self.state.ground_robot.radius / self.cell)
        obstacles = tuple(
            ((o.x, o.y), o.radius + inflate)
            for o in local_map.objects
            if o.id != self.carrying
            and (o.category == Category.OBSTACLE or o.is_obstacle_too)
        )
        return LocalObservation(
            main=main, target=target, obstacles=obstacles,
            head=parts["head"], tail=parts["tail"], body=parts["body"],
        )

    def _world_obstacles(self, local_map) -> list:
        out = []
        for o in local_map.objects:
            if o.id == self.carrying:
                continue
            if o.category == Category.OBSTACLE or o.is_obstacle_too:
                out.append((
                    (local_map.observer_x + o.x * local_map.cell_m,
                     local_map.observer_y + o.y * local_map.cell_m),
                    o.radius * local_map.cell_m,
                ))
        return out

    # -- phases ------------------------------------------------------------

    def _run_construct_map(self):
        views = construct_map_viewpoints(self.cfg.arena, self.cfg.camera)
        task = TaskContext(TaskKind.MAP_CONSTRUCTION)
        maps = []
        for vx, vy in views:
            self.state.drone.waypoint_index = 0
            leg = [(vx, vy)]
            while not drone_done(self.state, leg):
                step_drone(self.state, leg, wait=False)
                events = self._tick_housekeeping()
                self._record("construct_map", events=events)
                self._advance_step()
            maps.append(_fusion_view(self._camera_map(task)))
            self._advance_step()
        self.global_map = fuse(maps, self.cfg.fusion)
        self._record("construct_map", extra={"viewpoints": len(views)})

    def _task_context(self, goal: GoalSpec) -> TaskContext:
        if goal.kind == "object":
            return TaskContext(TaskKind.MOVE_TO_OBJECT, target_name=goal.name,
                               carried_object=self.carrying)
        if goal.kind == "relation":
            return TaskContext(TaskKind.CARRY_TO_RELATION, target_name=goal.name,
                               relation=goal.direction, carried_object=self.carrying)
        return TaskContext(TaskKind.MOVE_TO_COORDINATE, carried_object=self.carrying)

    def _run_move(self, goal: GoalSpec, approach: bool, queue: deque):
        """One cooperative subtask: one follower leg, or two for relation
        placements, which stage at an outer point on the landmark's axis and
        then pull straight in. Staging keeps the carried block between the
        robot and the landmark, so neither the final walk nor any rotation
        sweeps the robot body past the landmark's flank."""
        goal_world = resolve_goal(goal, self.global_map)
        if approach:
            stop_m = self.state.params.head_offset + self.state.params.attach_range / 2.0
        else:
            stop_m = self.cfg.dist_stop * self.cell
        task = self._task_context(goal)

        legs = [(goal_world, stop_m, True, None)]
        if not approach:
            staging = self._staging_point(goal_world)
            if staging is not None:
                axis = math.atan2(goal_world[1] - staging[1], goal_world[0] - staging[0])
                legs = [(staging, 2.0 * stop_m, False, None),
                        (goal_world, stop_m, True, axis)]

        for leg_goal, leg_stop, final, dock_axis in legs:
            done = self._follow_leg(leg_goal, leg_stop, task, goal, approach, queue, dock_axis)
            if not done:
                return  # rollback re-queued the subtask
            if final:
                main = main_point(self.state, self.carrying)
                self.placements.append({
                    "goal": goal.kind,
                    "carrying": self.carrying is not None,
                    "approach": approach,
                    "error_m": math.hypot(main[0] - goal_world[0], main[1] - goal_world[1]),
                })

    def _staging_point(self, goal_world):
        """Outer staging point for goals close to mapped objects (relation
        placements, word slots beside fixed or already-placed letters), two
        head offsets out from the goal. The robot re-orients out there at a
        safe sweep radius and pulls straight in with the carried block
        leading. The staging direction is the one whose pull-in corridor
        clears the known objects best: a slot between two blocks is entered
        perpendicular to their row, not through a neighbor."""
        if self.global_map is None:
            return None
        off = self.state.params.head_offset
        others = [e for e in self.global_map.entries if e.name != self.carrying_name]
        if not any(
            0.0 < math.hypot(goal_world[0] - e.x, goal_world[1] - e.y) <= off + 0.35
            for e in others
        ):
            return None

        def seg_clearance(e, sx, sy) -> float:
            # distance from the entry to the goal->staging segment, minus size
            vx, vy = sx - goal_world[0], sy - goal_world[1]
            wx, wy = e.x - goal_world[0], e.y - goal_world[1]
            t = max(0.0, min(1.0, (wx * vx + wy * vy) / (vx * vx + vy * vy)))
            return math.hypot(wx - t * vx, wy - t * vy) - e.radius

        xmin, xmax, ymin, ymax = self.cfg.arena
        best = None
        for k in range(16):
            ang = 2.0 * math.pi * k / 16.0
            sx = goal_world[0] + 2.0 * off * math.cos(ang)
            sy = goal_world[1] + 2.0 * off * math.sin(ang)
            if not (xmin <= sx <= xmax and ymin <= sy <= ymax):
                continue
            score = min((seg_clearance(e, sx, sy) for e in others), default=math.inf)
            if best is None or score > best[0]:
                best = (score, (sx, sy))
        return None if best is None else best[1]

    def _dock_command(self, obs: LocalObservation, axis: float,
                      thresholds: StepThresholds) -> MotionCommand:
        """Docking decision for the pull-in leg: pure pursuit of the body
        toward the point that puts the steered tip on the goal.

        The body is the pursuit subject because in-place rotations never move
        it, so the desired heading stays fixed while turning (no pivot-swing
        feedback, no limit cycle). Forward motion then walks the body down
        the staged axis and the carried block arrives on the goal.
        """
        anchor = obs.target if obs.target is not None else obs.zero
        main_err = math.hypot(anchor[0] - obs.main[0], anchor[1] - obs.main[1])
        if main_err < thresholds.dist_stop:
            return MotionCommand.stop()
        ax, ay = math.cos(axis), math.sin(axis)
        arm = (self.state.params.head_offset / self.cell) if self.carrying is not None else 0.0
        bgx, bgy = anchor[0] - arm * ax, anchor[1] - arm * ay
        body = obs.body
        # while the body sits laterally off the corridor, aim at a capture
        # point well up the axis (away from the landmark) so the trailing
        # block never sweeps the inside of the turn; once on the line, aim a
        # couple of cells ahead, capped half a cell past the body goal (far
        # enough that the bearing never degenerates on arrival, close enough
        # not to drive the block onward while the anchor still converges)
        t = (body[0] - bgx) * ax + (body[1] - bgy) * ay
        e = (body[0] - bgx) * -ay + (body[1] - bgy) * ax
        if abs(e) > 0.5:
            aim_t = min(t - 1.0, -3.0)
        else:
            aim_t = min(t + 2.0, 0.5)
        aim = (bgx + aim_t * ax, bgy + aim_t * ay)
        desired = math.atan2(aim[1] - body[1], aim[0] - body[0])
        gate = max(thresholds.angle_tol, 0.15)
        err = wrap_angle(obs.heading - desired)
        if abs(err) > gate:
            return MotionCommand.rotate(desired)
        return MotionCommand.forward(thresholds.step)

    def _follow_leg(self, goal_world, stop_m, task, subtask_goal,
                    approach: bool, queue: deque, dock_axis=None) -> bool:
        """Tick the leader-follower loop toward one world point. Returns False
        when a carry rollback interrupted the leg (the subtask is re-queued).

        With ``dock_axis`` set (the pull-in leg after staging) the candidate
        argmin is bypassed: the robot rotates onto the fixed axis once and
        walks straight in. Re-selecting a quantized direction every tick
        around the head-arm pivot limit-cycles in tight placements, while the
        staged corridor is straight and already clear.
        """
        waypoints = self._plan_drone_path(subtask_goal, goal_world)
        self.state.drone.waypoint_index = 0
        thresholds = StepThresholds(dist_stop=stop_m / self.cell, angle_tol=self.cfg.angle_tol,
                                    step=self.state.params.ground_step / self.cell)
        replanned = False
        prev_index = None
        while True:
            self._maybe_drop()
            # the follower-waiting rule applies once the drone has reached the
            # path start (waypoint 0 sits over the steered point); before that
            # it must fly back to regain the ground robot in view
            step_drone(self.state, waypoints, wait=self.state.drone.waypoint_index > 0)
            local_map = self._camera_map(task)
            obs = self._local_observation(local_map)
            cmd, theta, cost = MotionCommand.stop(), None, None
            if obs is not None and dock_axis is not None:
                theta = dock_axis
                cmd = self._dock_command(obs, dock_axis, thresholds)
            elif obs is not None:
                anchor = obs.target if obs.target is not None else obs.zero
                d_obs = math.hypot(anchor[0] - obs.main[0], anchor[1] - obs.main[1])
                # the prospective move never extends beyond the goal anchor,
                # so obstacles sitting behind the goal (the landmark being
                # placed against) stop vetoing the final approach
                weights = replace(
                    self.cfg.local_weights,
                    lookahead=min(self.cfg.local_weights.lookahead, max(d_obs, 0.5)))
                try:
                    choice = select_direction(obs, weights)
                    index = choice.index
                    # hysteresis: keep the previous commanded direction while
                    # it stays near-optimal, so two flanking routes around an
                    # obstacle cannot alternate tick by tick as the steered
                    # point swings on the head arm
                    if (prev_index is not None and prev_index != index
                            and choice.totals[prev_index] <= choice.totals[index] + 0.05):
                        index = prev_index
                    prev_index = index
                    theta = candidate_theta(index, weights.candidate_count)
                    cost = choice.totals[index]
                    cmd = step_decision(
                        obs, theta,
                        replace(thresholds, angle_tol=self._alignment_gate(d_obs)))
                except BlockedError:
                    if replanned:
                        raise _Failure("local planner blocked twice; aborting")
                    replanned = True
                    waypoints = self._plan_drone_path(subtask_goal, goal_world)
                    self.state.drone.waypoint_index = 0
                    self._record("move", extra={"replanned": True})
                    self._advance_step()
                    continue
            step_ground(self.state, cmd, self._world_obstacles(local_map))
            if self.carrying is not None and not carry_check(self.state, local_map):
                self._handle_rollback(subtask_goal, queue)
                return False
            events = self._tick_housekeeping()
            self._update_map(local_map)
            self._record("move", command=cmd, theta=theta, cost=cost, events=events)
            self._advance_step()
            main = main_point(self.state, self.carrying)
            dist = math.hypot(main[0] - goal_world[0], main[1] - goal_world[1])
            # exit when the true distance meets the stop ring or the robot
            # itself judged arrival from its (possibly noisy) observation.
            # Zero-anchored legs also require the drone parked on the goal;
            # object-targeted approaches do not, since the robot homes on the
            # visible block directly and can legitimately beat the drone there
            # (a permanently stopped robot would leash-lock the drone).
            stopped = obs is not None and cmd.kind == MotionKind.STOP
            if approach:
                # approach Stops count only against an observed target; the
                # zero-point fallback would declare arrival at the drone
                arrived = dist <= stop_m or (stopped and obs.target is not None)
            else:
                arrived = dist <= stop_m or stopped
            if arrived and (approach or drone_done(self.state, waypoints)):
                return True

    def _handle_rollback(self, goal: GoalSpec, queue: deque):
        """Drop recovery: release any attachment and re-queue approach,
        attach, and the interrupted transport leg."""
        self.rollbacks += 1
        if self.rollbacks > ROLLBACK_LIMIT:
            raise _Failure("rollback limit exceeded")
        if self.state.attachment is not None:
            detach(self.state)
        name = self.carrying_name
        self.carrying = None
        self.carrying_name = None
        # the carry's own detach is still queued
        queue.extendleft(reversed(_carry_subtasks(name, goal)[:-1]))
        self._record("rollback", extra={"object": name})
        self._advance_step()

    def _run_attach(self, name: str):
        if self.state.attachment is not None:
            raise _Failure("attach requested while something is already attached")
        task = TaskContext(TaskKind.MOVE_TO_OBJECT, target_name=name)
        step = self.state.params.ground_step / self.cell
        for _ in range(ATTACH_BUDGET):
            local_map = self._camera_map(task)
            obs = self._local_observation(local_map)
            candidates = [o for o in local_map.objects
                          if o.name == name and o.id not in ("robot", "zero-point")]
            if obs is None or not candidates:
                self._record("attach", extra={"waiting": True})
                self._advance_step()
                continue
            head = local_map.parts["head"]
            target = min(candidates,
                         key=lambda o: (math.hypot(o.x - head[0], o.y - head[1]), o.id))
            if attach(self.state, target.id):
                self.carrying = target.id
                self.carrying_name = name
                events = self._tick_housekeeping()
                self._record("attach", events=events, extra={"attached": target.id})
                self._advance_step()
                return
            body = local_map.parts["body"]
            bearing = math.atan2(target.y - body[1], target.x - body[0])
            err = wrap_angle(bearing - self.state.ground_robot.heading)
            head_dist_m = math.hypot(target.x - head[0], target.y - head[1]) * local_map.cell_m
            if abs(err) > self.state.params.attach_angle_tol * 0.5:
                cmd = MotionCommand.rotate(bearing)
            elif head_dist_m > self.state.params.attach_range:
                cmd = MotionCommand.forward(step)
            else:
                cmd = MotionCommand.backward(step)
            step_ground(self.state, cmd, self._world_obstacles(local_map))
            events = self._tick_housekeeping()
            self._record("attach", command=cmd, events=events)
            self._advance_step()
        raise _Failure(f"attach on {name!r} did not engage within the attach budget")

    def _run_detach(self):
        if self.state.attachment is None:
            raise _Failure("detach with nothing attached")
        detach(self.state)
        self.carrying = None
        self.carrying_name = None
        events = self._tick_housekeeping()
        self._record("detach", events=events)
        self._advance_step()

    # -- main loop ----------------------------------------------------------

    def run(self) -> ExecutionResult:
        queue = deque(self.plan.subtasks)
        failure = None
        try:
            while queue:
                s = queue.popleft()
                if s.function == "construct_map":
                    self._run_construct_map()
                    assembly = self.plan.pending_assembly
                    if assembly is not None:
                        for letter, goal in plan_word_assembly(
                                assembly.word, self.global_map, assembly.fixed, self.cfg.pitch):
                            queue.extend(_carry_subtasks(letter, goal))
                elif s.function == "planning_start":
                    queue.popleft()  # the paired following_start
                    # an attach approach when an attach on the goal object follows
                    approach = (s.goal.kind == "object" and bool(queue)
                                and queue[0].function == "attach"
                                and queue[0].object_name == s.goal.name)
                    self._run_move(s.goal, approach, queue)
                elif s.function == "attach":
                    self._run_attach(s.object_name)
                else:
                    self._run_detach()
        except _Failure as f:
            failure = f.reason
        except (BlockedError, AssemblyError, GoalError) as e:
            failure = str(e)
        placed_ok = all(
            p["error_m"] <= self.cfg.success_radius
            for p in self.placements if not p["approach"]
        )
        return ExecutionResult(
            success=failure is None and placed_ok,
            trace=self.trace,
            collisions=self.collisions,
            steps=self.state.step,
            path_length=self.path_length,
            placements=self.placements,
            failure=failure if failure is not None else (
                None if placed_ok else "final placement outside success radius"),
            global_paths=self.global_paths,
            track=self.track,
            final_map=self.global_map,
        )


def execute(plan: TaskPlan, world: WorldState, config: MissionConfig) -> ExecutionResult:
    """Run a task plan to completion on a copy of the world."""
    return MissionExecutor(plan, world, config).run()
