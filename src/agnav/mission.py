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
advance the drone, observe, check on the observation that the carried
object still rides the head (``carry_check``; a drop rolls back to
re-attach before any decision is made for carrying), select a ground
direction, step the ground robot, queue the local map for fusion at a fixed
cadence, and record debounced collisions. The queue is folded into the
global map by one ``update`` call only when the map is next read. The
carried object is always the world's attachment, and the mission totals
(collisions, path length) are read off the trace and the track. Grid and
world points convert through ``gridmask``'s helpers.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Optional

from .global_planner import (
    DEGREE,
    GlobalCostWeights,
    GlobalPlanResult,
    ObstacleSet,
    PlanningError,
    optimize,
    straight_line_init,
)
from .gridmask import CameraModel, ground_scale, grid_to_world, world_to_grid
from .local_planner import (
    BlockedError,
    LocalCostWeights,
    LocalObservation,
    MotionCommand,
    MotionKind,
    candidate_theta,
    cost_local,  # noqa: F401 -- not called here; perfbench's tracer wraps it by this name
    pursue,
    select_direction,
    step_decision,
)
from .perception import GoalSpec, NoiseModel, observe
from .semantic_map import (
    Category,
    Direction,
    FusionParams,
    GlobalSemanticMap,
    fuse,
    left_sum,
    update,
)
from .sim_world import (
    WorldState,
    attach,
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
# Settings


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
    dist_stop: float = 0.45  # cells
    angle_tol: float = 0.1  # rad
    pitch: ClassVar[float] = 0.4  # meters, word-assembly slot spacing
    success_radius: float = 0.2  # meters, from the goal as the fused map places it
    relation_clearance: float = GoalSpec.clearance  # meters, from a relation's landmark
    drop_at_step: Optional[int] = None

    def __post_init__(self):
        for name in ("map_update_every", "step_budget"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("dist_stop", "success_radius", "relation_clearance"):
            if not getattr(self, name) > 0:  # NaN included
                raise ValueError(f"{name} must be positive")
        if not self.angle_tol >= 0:
            raise ValueError("angle_tol must be non-negative")
        if self.n_controls < DEGREE + 1:
            raise ValueError(f"n_controls must be at least degree+1 = {DEGREE + 1}")


# ---------------------------------------------------------------------------
# Goals and commands


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


def parse_command(text: str, relation_clearance: float = GoalSpec.clearance):
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
        if m.group(1) == m.group(3):
            raise CommandError(f"cannot place {m.group(1)!r} relative to itself")
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
              pitch: float = MissionConfig.pitch) -> TaskPlan:
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
                       pitch: float) -> list[tuple[str, GoalSpec]]:
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
        ax = left_sum(a[0] for a in anchors) / len(anchors)
        ay = left_sum(a[1] for a in anchors) / len(anchors)
        for f in sorted(fixed):
            sx, sy = ax + offsets[f], ay
            err = math.hypot(positions[f][0] - sx, positions[f][1] - sy)
            if err > 0.5 * pitch:
                raise AssemblyError(
                    f"fixed letters are {err:.3f} m from a consistent slot row "
                    f"(limit {0.5 * pitch:.3f} m); layout infeasible")
    else:
        ax = left_sum(positions[l][0] for l in letters) / len(letters) \
            - left_sum(offsets.values()) / len(letters)
        ay = left_sum(positions[l][1] for l in letters) / len(letters)

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


def resolve_goal(goal: GoalSpec, global_map: GlobalSemanticMap, arena) -> tuple[float, float]:
    """World point of a goal: the coordinate itself, the mapped object, or
    the relation point beside the mapped landmark. Raises GoalError unless
    the point lies inside the arena."""
    if goal.kind == "coordinate":
        point = (goal.x, goal.y)
    else:
        entry = global_map.find(goal.name)
        if entry is None:
            raise GoalError(f"object {goal.name!r} not present in the global map")
        if goal.kind == "object":
            point = (entry.x, entry.y)
        else:
            point = relation_goal_point(entry, goal.direction, goal.clearance)
    if not inside_arena(arena, *point):
        # + 0.0 turns a rounded -0.0 into 0.0: one goal, one spelling
        x, y = (round(c, 2) + 0.0 for c in point)
        raise GoalError(f"goal ({x:.2f}, {y:.2f}) lies outside the arena")
    return point


# ---------------------------------------------------------------------------
# Execution

ATTACH_BUDGET = 300  # ticks an attach subtask may take before it fails
ROLLBACK_LIMIT = 3  # drop recoveries allowed per mission
# the roles, read once: on Python 3.11 a member read through its Enum class
# costs about four plain attribute reads, and _perceive runs every tick
_OBSTACLE, _LANDMARK, _TARGET = Category.OBSTACLE, Category.LANDMARK, Category.TARGET


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


def inside_arena(arena, x: float, y: float) -> bool:
    xmin, xmax, ymin, ymax = arena
    return xmin <= x <= xmax and ymin <= y <= ymax


def main_point(world: WorldState) -> tuple[float, float]:
    """World point being steered: the attached object while carrying,
    otherwise the ground robot."""
    if world.attachment is not None:
        obj = world.object_by_id(world.attachment)
        return (obj.x, obj.y)
    return (world.ground_robot.x, world.ground_robot.y)


@dataclass(frozen=True)
class Leg:
    """One planned aerial leg: the optimizer's result (grid cells) and the
    world waypoints the drone flies."""

    result: GlobalPlanResult
    waypoints: list


def plan_leg(world: WorldState, global_map: GlobalSemanticMap,
             config: MissionConfig, goal: GoalSpec, target=None) -> Leg:
    """Plan the aerial path of one cooperative move.

    The leg starts at the steered point (the world's attached object while
    carrying, otherwise the robot) and ends at ``target``, by default the
    resolved goal. Every mapped object is an obstacle except the carried
    one and the goal object of an object goal; a relation's landmark stays
    one. A leg already at its goal flies the single start point.
    """
    cell = ground_scale(config.camera).cell_m
    end = resolve_goal(goal, global_map, config.arena) if target is None else target
    start = main_point(world)
    init, at_goal = straight_line_init(
        world_to_grid(cell, start), world_to_grid(cell, end), config.n_controls)
    exclude = set()
    if world.attachment is not None:
        exclude.add(world.object_by_id(world.attachment).name)
    if goal.kind == "object":
        exclude.add(goal.name)
    pairs = [(world_to_grid(cell, (e.x, e.y)), e.radius / cell)
             for e in global_map.entries if e.name not in exclude]
    result = optimize(init, config.global_weights, ObstacleSet.from_pairs(pairs))
    if at_goal:
        return Leg(result, [start])
    pts = sample(result.path, config.global_weights.sample_count)
    return Leg(result, [grid_to_world(cell, p) for p in pts.tolist()])


def construct_map_viewpoints(arena) -> list[tuple[float, float]]:
    """2 x 2 viewpoint lattice covering the arena, lawnmower order."""
    xmin, xmax, ymin, ymax = arena
    cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
    dx, dy = (xmax - xmin) / 4.0, (ymax - ymin) / 4.0
    return [(cx - dx, cy - dy), (cx + dx, cy - dy), (cx + dx, cy + dy), (cx - dx, cy + dy)]


class _Failure(Exception):
    """Mission failure; the message is the reason reported."""


class _Dropped(Exception):
    """The carried object was lost mid-leg; ``run`` rolls the carry back."""


def target_block(local_map):
    """The first object labelled target (observe sorts by id), or None."""
    return next((o for o in local_map.objects if o.category == Category.TARGET), None)


def carry_check(state: WorldState, observed_map) -> bool:
    """True when the observed carried object still rides near the observed
    head. On False the executor raises ``_Dropped``, which rolls the carry
    back (re-runs the attach subtask). Losing sight of the object or the
    head counts as a drop."""
    head = observed_map.parts.get("head")
    if head is None:
        return False
    held = state.attachment
    for oid, x, y, _, _ in observed_map.sightings:
        if oid == held:
            dist_m = math.hypot(x - head[0], y - head[1]) * observed_map.cell_m
            return dist_m <= state.params.carry_radius
    return False  # nothing attached matches no object


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
        self._detected = None  # the (x, y, heading, attachment) last detected at
        self._map: Optional[GlobalSemanticMap] = None
        self._unfused: list = []  # local maps queued for fusion, oldest first
        self.rollbacks = 0

    # -- helpers ----------------------------------------------------------

    @property
    def global_map(self) -> Optional[GlobalSemanticMap]:
        """The fused map, with the local maps queued since the last read
        folded in first by one ``update`` call."""
        if self._unfused:
            self._map = update(self._map, self._unfused, self.cfg.fusion)
            self._unfused.clear()
        return self._map

    def _record(self, phase: str, command=None, theta=None, cost=None, events=(), extra=None):
        state, fused = self.state, self._map
        drone, robot = state.drone, state.ground_robot
        rec = {
            "step": state.step,
            "phase": phase,
            "drone": [drone.x, drone.y],
            "ground": [robot.x, robot.y, robot.heading],
            "command": command.kind.value if command is not None else None,
            "theta_star": theta,
            "cost": cost,
            "events": list(events),
            # the revision the map reaches once the queue is folded in
            "map_revision": fused.revision + len(self._unfused) if fused is not None else None,
        }
        if extra:
            rec.update(extra)
        self.trace.append(rec)

    def _advance_step(self):
        self.state.step += 1
        if self.state.step > self.cfg.step_budget:
            raise _Failure("step budget exhausted")

    def _end_tick(self, phase: str, command=None, theta=None, cost=None, extra=None):
        """Close a stepping tick: detect debounced collisions, extend the
        ground track, record the tick and advance the step.

        Collisions are detected only when the robot's (x, y, heading) or the
        world's attachment differs from the last detection's. Otherwise no
        body has moved: the carried object is the only object that moves,
        slaved to the head, and attach, detach and the scripted drop each
        change the attachment. The overlaps then stand and the tick has no
        event, as a detection would find. A scene event that moves any other
        object must extend this key."""
        r = self.state.ground_robot
        key = (r.x, r.y, r.heading, self.state.attachment)
        events = ()
        if key != self._detected:
            self._detected = key
            events, self.overlaps = detect_collisions(self.state, self.overlaps)
        cur = (r.x, r.y)
        if cur != self.track[-1]:
            self.track.append(cur)
        self._record(phase, command, theta, cost, events, extra)
        self._advance_step()

    def _alignment_gate(self, goal_dist_cells: float) -> float:
        # aligning finer than the candidate quantization cannot converge: one
        # rotation tick swings the steered point enough to shift the selected
        # bin, so the gate widens to just over the bin width. While carrying,
        # the steered point rides the head arm and each rotation tick swings
        # it by ~head_offset * rotate_rate; near the goal that swing dwarfs
        # the remaining distance, so the gate must also cover the swing angle
        # or the endgame live-locks chasing its own pivot.
        bin_width = 2.0 * math.pi / self.cfg.local_weights.candidate_count
        gate = max(self.cfg.angle_tol, 1.05 * bin_width)
        if self.state.attachment is not None:
            swing = self.state.params.head_offset * self.state.params.rotate_rate / self.cell
            shift = math.atan2(swing, max(goal_dist_cells, 1e-9))
            gate = max(gate, min(1.3, 1.05 * bin_width + shift))
        return gate

    def _plan_drone_path(self, goal: GoalSpec, target) -> list:
        leg = plan_leg(self.state, self.global_map, self.cfg, goal, target)
        self.global_paths.append(leg.waypoints)
        self.state.drone.waypoint_index = 0
        return leg.waypoints

    def _perceive(self, goal: GoalSpec):
        """Observe prompted with ``goal``, then read off the local observation
        (None unless the robot's head, body and tail are in view and
        distinct), whose target is the first object labelled target by id,
        or the zero point for a coordinate goal. The objects labelled
        obstacle or landmark (a relation's reference) are its obstacles; the
        carried object, labelled main, never is one. The tick reads the
        map's sightings, which under a coordinate goal carry no name, so
        nothing is labelled."""
        local_map = observe(self.state, self.cfg.camera, goal, self.cfg.noise)
        parts = local_map.parts
        head, body, tail = parts.get("head"), parts.get("body"), parts.get("tail")
        if head is None or body is None or tail is None or head == tail:
            return local_map, None
        # obstacle discs inflated by the whole moving ensemble's radius (the
        # trailing body included while carrying): the clearance term then
        # measures surface separation for everything that travels the ray
        inflate = self.state.ground_robot.radius / self.cell
        main = body
        held = self.state.attachment
        sightings = local_map.sightings
        if held is not None:
            for oid, x, y, radius, _ in sightings:
                if oid == held:
                    main, inflate = (x, y), max(radius, inflate)
                    break
        obstacles, target = [], None
        for _, x, y, radius, category in sightings:
            if category is _OBSTACLE or category is _LANDMARK:
                obstacles.append(((x, y), radius + inflate))
            elif category is _TARGET and target is None:
                target = (x, y)
        if target is None and goal.kind == "coordinate":  # it marks no target
            target = LocalObservation.zero
        return local_map, LocalObservation(main, target, tuple(obstacles), head, tail, body)

    # -- phases ------------------------------------------------------------

    def _run_construct_map(self):
        views = construct_map_viewpoints(self.cfg.arena)
        maps = []
        for vx, vy in views:
            self.state.drone.waypoint_index = 0
            leg = [(vx, vy)]
            while not drone_done(self.state, leg):
                step_drone(self.state, leg, wait=False)
                self._end_tick("construct_map")
            maps.append(observe(self.state, self.cfg.camera, None, self.cfg.noise))
            self._advance_step()
        self._map, self._unfused = fuse(maps, self.cfg.fusion), []
        self._record("construct_map", extra={"viewpoints": len(views)})

    def _run_move(self, goal: GoalSpec, approach: bool):
        """One cooperative subtask: one follower leg, or two for relation
        placements, which stage at an outer point on the landmark's axis and
        then pull straight in. Staging keeps the carried block between the
        robot and the landmark, so neither the final walk nor any rotation
        sweeps the robot body past the landmark's flank."""
        goal_world = resolve_goal(goal, self.global_map, self.cfg.arena)
        if approach:
            stop_m = self.state.params.head_offset + self.state.params.attach_range / 2.0
        else:
            stop_m = self.cfg.dist_stop * self.cell
        staging = None if approach else self._staging_point(goal_world)
        dock_axis = None
        if staging is not None:
            self._follow_leg(staging, 2.0 * stop_m, goal, approach)
            dock_axis = math.atan2(goal_world[1] - staging[1], goal_world[0] - staging[0])
        self._follow_leg(goal_world, stop_m, goal, approach, dock_axis)
        main = main_point(self.state)
        self.placements.append({
            "goal": goal.kind,
            "carrying": self.state.attachment is not None,
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
        off = self.state.params.head_offset
        held = self.state.attachment
        held_name = self.state.object_by_id(held).name if held is not None else None
        others = [e for e in self.global_map.entries if e.name != held_name]
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

        best = None
        for k in range(16):
            ang = 2.0 * math.pi * k / 16.0
            sx = goal_world[0] + 2.0 * off * math.cos(ang)
            sy = goal_world[1] + 2.0 * off * math.sin(ang)
            if not inside_arena(self.cfg.arena, sx, sy):
                continue
            score = min((seg_clearance(e, sx, sy) for e in others), default=math.inf)
            if best is None or score > best[0]:
                best = (score, (sx, sy))
        return None if best is None else best[1]

    def _dock_command(self, obs: LocalObservation, axis: float,
                      dist_stop: float) -> MotionCommand:
        """Docking decision for the pull-in leg: pure pursuit of the body
        toward the point that puts the steered tip on the goal.

        The body is the pursuit subject because in-place rotations never move
        it, so the desired heading stays fixed while turning (no pivot-swing
        feedback, no limit cycle). Forward motion then walks the body down
        the staged axis and the carried block arrives on the goal.
        """
        anchor = obs.anchor
        main_err = math.hypot(anchor[0] - obs.main[0], anchor[1] - obs.main[1])
        if main_err < dist_stop:
            return MotionCommand.stop()
        ax, ay = math.cos(axis), math.sin(axis)
        arm = 0.0 if self.state.attachment is None else self.state.params.head_offset / self.cell
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
        return pursue(body, aim, obs.heading, max(self.cfg.angle_tol, 0.15))

    def _follow_leg(self, goal_world, stop_m, subtask_goal, approach: bool, dock_axis=None):
        """Tick the leader-follower loop toward one world point. Raises
        _Dropped on the tick the object carried at the start of the leg is
        seen lost, before any command is chosen for carrying it.

        With ``dock_axis`` set (the pull-in leg after staging) the candidate
        argmin is bypassed: the robot rotates onto the fixed axis once and
        walks straight in. Re-selecting a quantized direction every tick
        around the head-arm pivot limit-cycles in tight placements, while the
        staged corridor is straight and already clear.
        """
        waypoints = self._plan_drone_path(subtask_goal, goal_world)
        state, weights = self.state, self.cfg.local_weights
        held = state.attachment
        dist_stop = stop_m / self.cell
        replanned = False
        prev_index = None
        while True:
            if state.step == self.cfg.drop_at_step and state.attachment is not None:
                detach(state)  # the scripted drop
            # the follower-waiting rule applies once the drone has reached the
            # path start (waypoint 0 sits over the steered point); before that
            # it must fly back to regain the ground robot in view
            step_drone(state, waypoints, wait=state.drone.waypoint_index > 0)
            local_map, obs = self._perceive(subtask_goal)
            if held is not None and not carry_check(state, local_map):
                raise _Dropped
            cmd, theta, cost = MotionCommand.stop(), None, None
            if obs is not None and dock_axis is not None:
                theta = dock_axis
                cmd = self._dock_command(obs, dock_axis, dist_stop)
            elif obs is not None:
                (ax, ay), (mx, my) = obs.anchor, obs.main
                d_obs = math.hypot(ax - mx, ay - my)
                # the prospective move never extends beyond the goal anchor,
                # so obstacles sitting behind the goal (the landmark being
                # placed against) stop vetoing the final approach
                try:
                    choice = select_direction(
                        obs, weights, lookahead=min(weights.lookahead, max(d_obs, 0.5)))
                    index = choice.index
                    cost = choice.total(index)
                    # hysteresis: keep the previous commanded direction while
                    # it stays near-optimal, so two flanking routes around an
                    # obstacle cannot alternate tick by tick as the steered
                    # point swings on the head arm
                    if prev_index is not None and prev_index != index:
                        prev_cost = choice.total(prev_index)
                        if prev_cost <= cost + 0.05:
                            index, cost = prev_index, prev_cost
                    prev_index = index
                    theta = candidate_theta(index, weights.candidate_count)
                    cmd = step_decision(obs, theta, dist_stop, self._alignment_gate(d_obs))
                except BlockedError:
                    if replanned:
                        raise _Failure("local planner blocked twice; aborting")
                    replanned = True
                    waypoints = self._plan_drone_path(subtask_goal, goal_world)
                    self._end_tick("move", extra={"replanned": True})
                    continue
            step_ground(state, cmd)
            if state.step % self.cfg.map_update_every == 0:
                self._unfused.append(local_map)
            self._end_tick("move", cmd, theta, cost)
            main = main_point(state)
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
            if arrived and (approach or drone_done(state, waypoints)):
                return

    def _rollback(self, name: str, goal: GoalSpec, queue: deque):
        """Drop recovery: release any attachment and re-queue approach,
        attach, and the interrupted transport leg of ``name``. A mission
        that exceeds the rollback limit ends with nothing attached."""
        if self.state.attachment is not None:
            detach(self.state)
        self.rollbacks += 1
        if self.rollbacks > ROLLBACK_LIMIT:
            raise _Failure("rollback limit exceeded")
        # the carry's own detach is still queued
        queue.extendleft(reversed(_carry_subtasks(name, goal)[:-1]))
        self._end_tick("rollback", extra={"object": name})

    def _run_attach(self, name: str):
        if self.state.attachment is not None:
            raise _Failure("attach requested while something is already attached")
        for _ in range(ATTACH_BUDGET):
            # the block the approach homed on, reached by rotating to its
            # bearing from the body, then driving forward
            local_map, obs = self._perceive(GoalSpec.object(name))
            block = target_block(local_map)
            if obs is None or block is None:
                self._end_tick("attach", extra={"waiting": True})
                continue
            if attach(self.state, block.id):
                self._end_tick("attach", extra={"attached": block.id})
                return
            # the robot's own heading, not the perceived obs.heading: steering
            # on the perceived one cost one more collision on held-out seeds
            # 10-49 (17 against 16)
            cmd = pursue(obs.body, (block.x, block.y), self.state.ground_robot.heading,
                         self.state.params.attach_angle_tol * 0.5)
            step_ground(self.state, cmd)
            self._end_tick("attach", cmd)
        raise _Failure(f"attach on {name!r} did not engage within the attach budget")

    def _run_detach(self):
        if self.state.attachment is None:
            raise _Failure("detach with nothing attached")
        detach(self.state)
        self._end_tick("detach")

    # -- main loop ----------------------------------------------------------

    def run(self) -> ExecutionResult:
        queue = deque(self.plan.subtasks)
        failure = None
        try:
            while queue:
                s = queue.popleft()
                if s.function == "construct_map":
                    self._run_construct_map()
                    if self.plan.pending_assembly is not None:
                        queue.extend(decompose(self.plan.pending_assembly, self.global_map,
                                               self.cfg.pitch).subtasks[1:])
                elif s.function == "planning_start":
                    queue.popleft()  # the paired following_start
                    # an attach approach when an attach on the goal object follows
                    approach = (s.goal.kind == "object" and bool(queue)
                                and queue[0].function == "attach"
                                and queue[0].object_name == s.goal.name)
                    try:
                        self._run_move(s.goal, approach)
                    except _Dropped:
                        self._rollback(s.object_name, s.goal, queue)
                elif s.function == "attach":
                    self._run_attach(s.object_name)
                else:
                    self._run_detach()
        except (_Failure, PlanningError, AssemblyError, GoalError) as e:
            failure = str(e)
        placed_ok = all(
            p["error_m"] <= self.cfg.success_radius
            for p in self.placements if not p["approach"]
        )
        return ExecutionResult(
            success=failure is None and placed_ok,
            trace=self.trace,
            collisions=sum(len(rec["events"]) for rec in self.trace),
            steps=self.state.step,
            path_length=float(left_sum(math.hypot(b[0] - a[0], b[1] - a[1])
                                       for a, b in zip(self.track, self.track[1:]))),
            placements=self.placements,
            failure=failure if failure is not None else (
                None if placed_ok else "final placement outside success radius"),
            global_paths=self.global_paths,
            track=self.track,
        )


def execute(plan: TaskPlan, world: WorldState, config: MissionConfig) -> ExecutionResult:
    """Run a task plan to completion on a copy of the world."""
    return MissionExecutor(plan, world, config).run()
