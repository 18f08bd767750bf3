"""Ground-truth world state and discrete-step kinematics for both robots.

Motion is kinematic: the drone advances along world waypoints at a fixed
speed (holding position whenever the ground robot falls outside the follow
radius), and the ground robot executes the rotate/forward/backward/stop
command the executor chose; an in-place rotation takes the shorter way to
the target heading. The simulator reads no perceiver output; whether a
carry still holds is the executor's judgment (``mission.carry_check``). An
attached object is slaved to the head offset point every step. Collision
events are debounced: one event per contiguous overlap run per (body,
object) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .local_planner import MotionCommand, MotionKind, wrap_angle

WAYPOINT_CAPTURE = 0.05  # meters
# the motions, read once: on Python 3.11 a member read through its Enum class
# costs about four plain attribute reads, and step_ground runs every move tick
_ROTATE, _FORWARD, _BACKWARD = MotionKind.ROTATE, MotionKind.FORWARD, MotionKind.BACKWARD


@dataclass
class SimObject:
    id: str
    name: str
    x: float
    y: float
    yaw: float = 0.0
    radius: float = 0.1
    movable: bool = True

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")


@dataclass
class DroneState:
    x: float
    y: float
    altitude: float
    waypoint_index: int = 0


@dataclass
class GroundRobot:
    x: float
    y: float
    heading: float
    radius: float = 0.25

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")


@dataclass(frozen=True)
class SimParams:
    drone_speed: float = 0.1       # m per tick
    ground_step: float = 0.05      # m per forward/backward tick
    rotate_rate: float = 0.2       # rad per tick
    follow_radius: float = 1.0     # m, drone waits beyond this
    attach_range: float = 0.15     # m, head to object center
    attach_angle_tol: float = 0.15 # rad, bearing error
    carry_radius: float = 0.2     # m, observed object-to-head tolerance
    head_offset: float = 0.4      # m, head/tail distance from body center

    def __post_init__(self):
        for name in ("drone_speed", "ground_step", "rotate_rate", "follow_radius",
                     "attach_range", "attach_angle_tol", "carry_radius", "head_offset"):
            if not 0 < getattr(self, name) < math.inf:  # NaN included
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class WorldState:
    objects: list
    drone: DroneState
    ground_robot: GroundRobot
    params: SimParams = field(default_factory=SimParams)
    attachment: Optional[str] = None
    step: int = 0

    def object_by_id(self, oid: str) -> Optional[SimObject]:
        for o in self.objects:
            if o.id == oid:
                return o
        return None

    def head_point(self) -> tuple[float, float]:
        r = self.ground_robot
        return (r.x + self.params.head_offset * math.cos(r.heading),
                r.y + self.params.head_offset * math.sin(r.heading))

    def copy(self) -> "WorldState":
        return WorldState(
            objects=[replace(o) for o in self.objects],
            drone=replace(self.drone),
            ground_robot=replace(self.ground_robot),
            params=self.params,
            attachment=self.attachment,
            step=self.step,
        )


class AttachError(RuntimeError):
    pass


def _slave_attached(state: WorldState) -> None:
    if state.attachment is None:
        return
    obj = state.object_by_id(state.attachment)
    hx, hy = state.head_point()
    obj.x, obj.y = hx, hy
    obj.yaw = state.ground_robot.heading


def step_drone(state: WorldState, path_world, wait: bool = True) -> None:
    """Advance the drone one tick along the waypoint list.

    With ``wait`` set (the leader-follower default) the drone holds position
    rather than stretch the separation to a ground robot already farther than
    follow_radius behind; a move that closes the gap (the robot got ahead)
    always proceeds, otherwise the pair can deadlock with each waiting on the
    other. Map-construction flights pass wait=False. Waypoints are captured
    within WAYPOINT_CAPTURE meters.
    """
    if not len(path_world):
        raise ValueError("waypoint path must be non-empty")
    d, g, params = state.drone, state.ground_robot, state.params
    while d.waypoint_index < len(path_world):
        wx, wy = path_world[d.waypoint_index][0], path_world[d.waypoint_index][1]
        if math.hypot(wx - d.x, wy - d.y) <= WAYPOINT_CAPTURE:
            d.waypoint_index += 1
            continue
        break
    # past the last capture ring the drone still homes exactly onto the final
    # waypoint, so its ground projection (the zero anchor) lands on the goal
    idx = min(d.waypoint_index, len(path_world) - 1)
    wx, wy = path_world[idx][0], path_world[idx][1]
    dist = math.hypot(wx - d.x, wy - d.y)
    if dist == 0.0:
        return
    move = min(params.drone_speed, dist)
    nx = d.x + (wx - d.x) / dist * move
    ny = d.y + (wy - d.y) / dist * move
    if wait:
        gap_now = math.hypot(g.x - d.x, g.y - d.y)
        gap_next = math.hypot(g.x - nx, g.y - ny)
        if gap_now > params.follow_radius and gap_next > gap_now:
            return
    d.x, d.y = nx, ny
    if idx < d.waypoint_index:
        return
    if math.hypot(wx - d.x, wy - d.y) <= WAYPOINT_CAPTURE:
        d.waypoint_index += 1


def drone_done(state: WorldState, path_world) -> bool:
    if state.drone.waypoint_index < len(path_world):
        return False
    fx, fy = path_world[-1][0], path_world[-1][1]
    return math.hypot(fx - state.drone.x, fy - state.drone.y) <= 1e-9


def rotation_direction(state: WorldState, target_heading: float) -> int:
    """+1 (counterclockwise) or -1 (clockwise): an in-place rotation to
    ``target_heading`` takes the shorter way, and a half turn goes
    counterclockwise."""
    return -1 if wrap_angle(target_heading - state.ground_robot.heading) < 0.0 else 1


def step_ground(state: WorldState, cmd: MotionCommand) -> None:
    """Execute one motion command tick; the attached object follows the head."""
    r, params, kind = state.ground_robot, state.params, cmd.kind
    if kind is _ROTATE:
        sign = rotation_direction(state, cmd.target_heading)
        remaining = abs(wrap_angle(cmd.target_heading - r.heading))
        r.heading = wrap_angle(r.heading + sign * min(params.rotate_rate, remaining))
    elif kind is _FORWARD:
        r.x += params.ground_step * math.cos(r.heading)
        r.y += params.ground_step * math.sin(r.heading)
    elif kind is _BACKWARD:
        r.x -= params.ground_step * math.cos(r.heading)
        r.y -= params.ground_step * math.sin(r.heading)
    _slave_attached(state)


def attach(state: WorldState, object_id: str) -> bool:
    """Engage the magnetic head. Succeeds only with the object center inside
    attach_range of the head and its bearing within attach_angle_tol of the
    heading; failure leaves the state untouched."""
    if state.attachment is not None:
        raise AttachError("already attached")
    obj = state.object_by_id(object_id)
    if obj is None or not obj.movable:
        return False
    hx, hy = state.head_point()
    if math.hypot(obj.x - hx, obj.y - hy) > state.params.attach_range:
        return False
    r = state.ground_robot
    bearing = math.atan2(obj.y - r.y, obj.x - r.x)
    if abs(wrap_angle(bearing - r.heading)) > state.params.attach_angle_tol:
        return False
    state.attachment = object_id
    _slave_attached(state)
    return True


def detach(state: WorldState) -> str:
    """Release the attachment; the object stays at its slaved position."""
    if state.attachment is None:
        raise AttachError("nothing attached")
    released = state.attachment
    state.attachment = None
    return released


def detect_collisions(state: WorldState, previous_overlaps: frozenset) -> tuple[list, frozenset]:
    """Debounced circle-circle collision events.

    Bodies are the robot footprint and, when attached, the carried object;
    each is tested against every non-carried object. An event fires on the
    transition into overlap; sustained contact stays one event. With nothing
    in overlap the result is ``[], frozenset()``, built with no set work.
    """
    r = state.ground_robot
    held = state.attachment
    bodies = [("robot", r.x, r.y, r.radius)]
    if held is not None:
        c = state.object_by_id(held)
        bodies.append(("carried", c.x, c.y, c.radius))
    current = None
    for label, bx, by, br in bodies:
        for o in state.objects:
            if o.id != held and math.hypot(o.x - bx, o.y - by) < br + o.radius:
                if current is None:
                    current = set()
                current.add((label, o.id))
    if current is None:
        return [], frozenset()
    events = sorted(current - previous_overlaps)
    return [{"pair": list(pair), "step": state.step} for pair in events], frozenset(current)
