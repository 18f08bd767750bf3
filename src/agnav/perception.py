"""Mock bird-view perceiver standing in for the learned vision model.

Projects simulator ground truth into the aerial camera frame (orthographic,
image-center-relative grid cells), applies calibrated deterministic noise,
and labels each scene object with its role under the subtask's goal (the
perceiver's prompt); the carried object is the world's attachment, and the
robot is reported as its parts, not as an object.

Noise is counter-based. A draw's key is the bytes ``seed|step|tag|channel``:
the tag is the object id, or ``robot:<part>``, and the channel is ``px``,
``py``, ``mis``, ``sub`` or ``yaw``. Its uniform is u = (the first 8 bytes of
the key's SHA-256, big-endian, + 0.5) / 2**64, in (0, 1). A Gaussian draw is
sigma * inv_cdf(u); a zero sigma draws nothing and adds 0.0. A draw depends
on its key alone, so identical inputs give byte-identical maps with no shared
generator state, and an object's report does not depend on the other objects
(a substituted name is drawn from the scene's whole alphabet).

``observe`` draws at the call only what every reader needs: the ``px`` and
``py`` draws that place each object in view and the robot's parts. The
``mis``, ``sub`` and ``yaw`` draws, the roles and the ``SemanticObject``s are
made on the map's first read of ``objects``, at most once, from what the
call took: the key prefix, each object's true name and yaw, the goal, the
attachment and the scene's names. Since a draw depends on its key alone, a
draw made later, or never, changes no byte that anyone reads. A tick under
a coordinate goal reads only the map's ``sightings``, whose roles read no
name, so its map is never labelled unless fusion reads it.

``observe`` encodes ``seed|step|`` once per call and ``seed|step|tag|`` once
per point in view, and writes each draw as one expression over locally bound
``sha256``, ``int.from_bytes`` and ``inv_cdf``. The camera keeps its ground
scale (``CameraModel.scale``), and the alphabet is sorted only when a
``mis`` draw hits.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

from .gridmask import CameraModel, GroundScale
from .semantic_map import (
    Category,
    Direction,
    Footprint,
    LocalSemanticMap,
    SemanticObject,
)

_NORMAL = NormalDist()
_by_id, _by_name = operator.attrgetter("id"), operator.attrgetter("name")
# the roles, read once: on Python 3.11 a member read through its Enum class
# costs about four plain attribute reads, and _role runs per object per tick
_MAIN, _TARGET, _LANDMARK, _OBSTACLE = (
    Category.MAIN, Category.TARGET, Category.LANDMARK, Category.OBSTACLE)


@dataclass(frozen=True)
class NoiseModel:
    position_sigma: float = 0.0      # grid cells, per axis
    misclassify_prob: float = 0.0
    orientation_sigma: float = 0.0   # radians
    seed: int = 0

    def __post_init__(self):
        # the seed's text is the head of every draw's key, so 1.0 or True
        # would re-draw the stream that 1 draws
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {type(self.seed).__name__}")
        # a NaN sigma would pass a bare sign test and put every reported
        # point on the footprint corner, where the clamp sends a NaN
        if not all(math.isfinite(s) and s >= 0 for s in (self.position_sigma,
                                                          self.orientation_sigma)):
            raise ValueError("sigmas must be finite and non-negative")
        if not 0.0 <= self.misclassify_prob <= 1.0:
            raise ValueError("misclassify_prob must lie in [0, 1]")


@dataclass(frozen=True)
class GoalSpec:
    kind: str  # coordinate | object | relation
    x: float = 0.0
    y: float = 0.0
    name: Optional[str] = None
    direction: Optional[Direction] = None
    clearance: float = 0.55  # meters, relation goals

    @classmethod
    def coordinate(cls, x: float, y: float) -> "GoalSpec":
        return cls("coordinate", x=x, y=y)

    @classmethod
    def object(cls, name: str) -> "GoalSpec":
        return cls("object", name=name)

    @classmethod
    def relation(cls, name: str, direction: Direction, clearance: float) -> "GoalSpec":
        return cls("relation", name=name, direction=direction, clearance=clearance)


def _footprint(scale: GroundScale, cx: float, cy: float) -> Footprint:
    """World square on the ground seen from (cx, cy): the image is square."""
    half = scale.width_real / 2.0
    return Footprint(cx - half, cx + half, cy - half, cy + half)


def observe(world, camera: CameraModel, goal: Optional[GoalSpec],
            noise: NoiseModel) -> LocalSemanticMap:
    """One aerial observation of the world from the drone's current pose,
    prompted with the subtask's ``goal`` (None: map construction).

    Ground-truth scene objects inside the camera footprint are reported in
    image-center-relative grid cells, with Gaussian position noise, optional
    name misclassification (substituting another name from the scenario's
    alphabet), and orientation noise. Robot head/body/tail parts are emitted
    when the ground robot is in view. Noisy positions clamp to the footprint
    so every reported object projects back inside it. The names, roles and
    orientations are drawn on the map's first read of ``objects``, from what
    the world showed at this call.
    """
    drone = world.drone
    if not drone.altitude > 0:  # NaN included
        raise ValueError("drone altitude must be positive")
    if not (math.isfinite(drone.x) and math.isfinite(drone.y)):
        raise ValueError("drone position must be finite")
    scale = camera.scale
    cell = scale.cell_m
    cx, cy = drone.x, drone.y
    fp = _footprint(scale, cx, cy)
    xmin, xmax, ymin, ymax = fp.xmin, fp.xmax, fp.ymin, fp.ymax
    hi_x = (xmax - xmin) / 2.0 / cell
    hi_y = (ymax - ymin) / 2.0 / cell
    lo_x, lo_y = -hi_x, -hi_y
    step = world.step
    prefix = f"{noise.seed}|{step}|".encode()
    pos_sigma = noise.position_sigma
    sha, from_bytes, inv_cdf = hashlib.sha256, int.from_bytes, _NORMAL.inv_cdf

    # every point in view as (key prefix, x, y, object): the objects by id,
    # then the robot's parts, with object None
    seen = [o for o in world.objects if xmin <= o.x <= xmax and ymin <= o.y <= ymax]
    seen.sort(key=_by_id)
    points = [(prefix + f"{o.id}|".encode(), o.x, o.y, o) for o in seen]
    robot = world.ground_robot
    if xmin <= robot.x <= xmax and ymin <= robot.y <= ymax:
        ax = world.params.head_offset * math.cos(robot.heading)
        ay = world.params.head_offset * math.sin(robot.heading)
        points += ((prefix + b"robot:head|", robot.x + ax, robot.y + ay, None),
                   (prefix + b"robot:body|", robot.x, robot.y, None),
                   (prefix + b"robot:tail|", robot.x - ax, robot.y - ay, None))

    # grid point of each, with position noise, clamped into view as
    # min(hi, max(lo, v)) clamps (a NaN lands on lo); a zero sigma still
    # adds 0.0, which turns a -0.0 offset into 0.0. Each object in view
    # becomes a spot (id, x, y, radius, role): the role is the one that
    # reads no name, or None under an object or relation goal, whose roles
    # read the name and so wait for labelling. What else labelling reads is
    # taken now, since the carried object turns with the robot and the
    # attachment changes: each object's name and yaw, and the scene's names.
    carried = world.attachment
    name_free = goal is None or goal.kind == "coordinate"
    spots, named, grid = [], [], []
    for key, x, y, o in points:
        gx = (x - cx) / cell
        gy = (y - cy) / cell
        if pos_sigma == 0.0:
            gx += 0.0
            gy += 0.0
        else:
            gx += pos_sigma * inv_cdf(
                (from_bytes(sha(key + b"px").digest()[:8], "big") + 0.5) / 2.0 ** 64)
            gy += pos_sigma * inv_cdf(
                (from_bytes(sha(key + b"py").digest()[:8], "big") + 0.5) / 2.0 ** 64)
        gx = gx if gx > lo_x else lo_x
        gy = gy if gy > lo_y else lo_y
        gx = gx if gx < hi_x else hi_x
        gy = gy if gy < hi_y else hi_y
        if o is None:
            grid.append((gx, gy))
        else:
            spots.append((o.id, gx, gy, o.radius / cell,
                          _role(o.id, None, goal, carried)[0] if name_free else None))
            named.append((o.name, o.yaw))
    # tuples, not lists: a queued map keeps them, and the collector stops
    # tracking a tuple of names and numbers
    spots, named = tuple(spots), tuple(named)
    names = tuple(map(_by_name, world.objects)) if noise.misclassify_prob > 0.0 else None
    parts = {"head": grid[0], "body": grid[1], "tail": grid[2]} if grid else {}
    return LocalSemanticMap(
        cx, cy, drone.altitude, cell, fp, None, step, parts,
        label=functools.partial(_label, prefix, spots, named, names, goal, carried, noise),
        sightings=spots if name_free else None)


def _label(prefix: bytes, spots, named, names, goal: Optional[GoalSpec],
           carried: Optional[str], noise: NoiseModel) -> tuple[SemanticObject, ...]:
    """The objects of one observation, labelled: each object in view as
    ``observe`` took it (its spot and its true name and yaw) with its
    reported name (the ``mis`` and ``sub`` draws over the scene's
    ``names``), its role under ``goal`` and its orientation (the ``yaw``
    draw), all keyed by the call's ``prefix``."""
    mis_prob, yaw_sigma = noise.misclassify_prob, noise.orientation_sigma
    sha, from_bytes, inv_cdf = hashlib.sha256, int.from_bytes, _NORMAL.inv_cdf
    objects = []
    alphabet = None  # built on the first misclassification
    for (oid, gx, gy, radius, _), (true_name, yaw) in zip(spots, named):
        key = prefix + f"{oid}|".encode()
        name = true_name
        if mis_prob > 0.0 and (from_bytes(sha(key + b"mis").digest()[:8], "big")
                               + 0.5) / 2.0 ** 64 < mis_prob:
            if alphabet is None:
                alphabet = sorted(set(names))
            if len(alphabet) > 1:
                others = [n for n in alphabet if n != true_name]
                u = (from_bytes(sha(key + b"sub").digest()[:8], "big") + 0.5) / 2.0 ** 64
                name = others[int(u * len(others))]
        category, direction = _role(oid, name, goal, carried)
        yaw += 0.0 if yaw_sigma == 0.0 else yaw_sigma * inv_cdf(
            (from_bytes(sha(key + b"yaw").digest()[:8], "big") + 0.5) / 2.0 ** 64)
        objects.append(SemanticObject(oid, name, gx, gy, category, direction, yaw, radius))
    return tuple(objects)


def _role(oid: str, name: Optional[str], goal: Optional[GoalSpec], carried: Optional[str]):
    """(category, direction) of one scene object as observed under ``name``,
    prompted with ``goal``. Map construction (no goal) assigns no roles; the
    carried object (id ``carried``, the world's attachment) is main; an
    object goal's object is the target; a relation goal's reference is a
    landmark carrying the goal's direction; everything else is an obstacle.
    A coordinate goal marks no target: the robot aligns with the image zero
    point. No goal and a coordinate goal read no name, so ``observe`` asks
    their roles with ``name`` None before any name is drawn."""
    if goal is None:
        return None, None
    if oid == carried:
        return _MAIN, None
    kind = goal.kind
    if kind == "object" and name == goal.name:
        return _TARGET, None
    if kind == "relation" and name == goal.name:
        return _LANDMARK, goal.direction
    return _OBSTACLE, None
