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

``observe`` encodes ``seed|step|`` once per call and ``seed|step|tag|`` once
per point in view, and writes each draw as one expression over locally bound
``sha256``, ``int.from_bytes`` and ``inv_cdf``. The camera's ground scale is
cached per camera (``gridmask.ground_scale``), and the alphabet is sorted only
when a ``mis`` draw hits.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

from .gridmask import CameraModel, GroundScale, ground_scale
from .semantic_map import (
    Category,
    Direction,
    Footprint,
    LocalSemanticMap,
    SemanticObject,
)

_NORMAL = NormalDist()
_by_id = operator.attrgetter("id")


@dataclass(frozen=True)
class NoiseModel:
    position_sigma: float = 0.0      # grid cells, per axis
    misclassify_prob: float = 0.0
    orientation_sigma: float = 0.0   # radians
    seed: int = 0

    def __post_init__(self):
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
    so every reported object projects back inside it.
    """
    drone = world.drone
    if not drone.altitude > 0:  # NaN included
        raise ValueError("drone altitude must be positive")
    scale = ground_scale(camera)
    cell = scale.cell_m
    cx, cy = drone.x, drone.y
    fp = _footprint(scale, cx, cy)
    xmin, xmax, ymin, ymax = fp.xmin, fp.xmax, fp.ymin, fp.ymax
    hi_x = (xmax - xmin) / 2.0 / cell
    hi_y = (ymax - ymin) / 2.0 / cell
    lo_x, lo_y = -hi_x, -hi_y
    step = world.step
    prefix = f"{noise.seed}|{step}|".encode()
    pos_sigma, yaw_sigma = noise.position_sigma, noise.orientation_sigma
    mis_prob = noise.misclassify_prob
    sha, from_bytes, inv_cdf = hashlib.sha256, int.from_bytes, _NORMAL.inv_cdf

    # every point in view as (key prefix, x, y): the objects, then the robot
    seen = [o for o in world.objects if xmin <= o.x <= xmax and ymin <= o.y <= ymax]
    points = [(prefix + f"{o.id}|".encode(), o.x, o.y) for o in seen]
    robot = world.ground_robot
    if xmin <= robot.x <= xmax and ymin <= robot.y <= ymax:
        ax = world.params.head_offset * math.cos(robot.heading)
        ay = world.params.head_offset * math.sin(robot.heading)
        points += ((prefix + b"robot:head|", robot.x + ax, robot.y + ay),
                   (prefix + b"robot:body|", robot.x, robot.y),
                   (prefix + b"robot:tail|", robot.x - ax, robot.y - ay))

    # grid point of each, with position noise, clamped into view as
    # min(hi, max(lo, v)) clamps (a NaN lands on lo); a zero sigma still
    # adds 0.0, which turns a -0.0 offset into 0.0
    grid = []
    for key, x, y in points:
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
        grid.append(((gx if gx < hi_x else hi_x), (gy if gy < hi_y else hi_y)))

    objects = []
    alphabet = None  # built on the first misclassification
    carried = world.attachment
    for o, (key, _, _), (gx, gy) in zip(seen, points, grid):
        name = o.name
        if mis_prob > 0.0 and (from_bytes(sha(key + b"mis").digest()[:8], "big")
                               + 0.5) / 2.0 ** 64 < mis_prob:
            if alphabet is None:
                alphabet = sorted({s.name for s in world.objects})
            if len(alphabet) > 1:
                others = [n for n in alphabet if n != o.name]
                u = (from_bytes(sha(key + b"sub").digest()[:8], "big") + 0.5) / 2.0 ** 64
                name = others[int(u * len(others))]
        category, direction = _role(o.id, name, goal, carried)
        yaw = o.yaw + (0.0 if yaw_sigma == 0.0 else yaw_sigma * inv_cdf(
            (from_bytes(sha(key + b"yaw").digest()[:8], "big") + 0.5) / 2.0 ** 64))
        objects.append(SemanticObject(o.id, name, gx, gy, category, direction, yaw,
                                      o.radius / cell))
    objects.sort(key=_by_id)

    return LocalSemanticMap(cx, cy, drone.altitude, cell, fp, tuple(objects), step,
                            dict(zip(("head", "body", "tail"), grid[len(seen):])))


def _role(oid: str, name: str, goal: Optional[GoalSpec], carried: Optional[str]):
    """(category, direction) of one scene object as observed under ``name``,
    prompted with ``goal``. Map construction (no goal) assigns no roles; the
    carried object (id ``carried``, the world's attachment) is main; an
    object goal's object is the target; a relation goal's reference is a
    landmark carrying the goal's direction; everything else is an obstacle.
    A coordinate goal marks no target: the robot aligns with the image zero
    point."""
    if goal is None:
        return None, None
    if oid == carried:
        return Category.MAIN, None
    if name == goal.name and goal.kind == "object":
        return Category.TARGET, None
    if name == goal.name and goal.kind == "relation":
        return Category.LANDMARK, goal.direction
    return Category.OBSTACLE, None
