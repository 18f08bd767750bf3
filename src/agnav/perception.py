"""Mock bird-view perceiver standing in for the learned vision model.

Projects simulator ground truth into the aerial camera frame (orthographic,
image-center-relative grid cells), applies calibrated deterministic noise,
and labels each scene object with its role under the subtask's goal (the
perceiver's prompt); the carried object is the world's attachment, and the
robot is reported as its parts, not as an object. Noise is counter-based: every
random draw is one SHA-256 over the bytes ``seed|step|tag|channel`` (the tag is
the object id, or ``robot:<part>``), so identical inputs give byte-identical
maps with no shared generator state. ``observe`` encodes the ``seed|step|``
prefix once per call and each tag's prefix once per object.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

from .gridmask import CameraModel, GroundScale, ground_scale, world_to_grid
from .semantic_map import (
    Category,
    Direction,
    Footprint,
    LocalSemanticMap,
    SemanticObject,
)

_NORMAL = NormalDist()


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


def _uniform(key: bytes) -> float:
    """Deterministic uniform in (0, 1) from the hashed counter ``key``."""
    return (int.from_bytes(hashlib.sha256(key).digest()[:8], "big") + 0.5) / 2.0 ** 64


def _gauss(key: bytes, sigma: float) -> float:
    return 0.0 if sigma == 0.0 else sigma * _NORMAL.inv_cdf(_uniform(key))


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
    if world.drone.altitude <= 0:
        raise ValueError("drone altitude must be positive")
    scale = ground_scale(camera)
    cell = scale.cell_m
    cx, cy = world.drone.x, world.drone.y
    fp = _footprint(scale, cx, cy)
    xmin, xmax, ymin, ymax = fp.xmin, fp.xmax, fp.ymin, fp.ymax
    half_w = (xmax - xmin) / 2.0 / cell
    half_h = (ymax - ymin) / 2.0 / cell
    lo_x, lo_y = -half_w, -half_h
    step = world.step
    prefix = f"{noise.seed}|{step}|".encode()
    pos_sigma, yaw_sigma = noise.position_sigma, noise.orientation_sigma
    mis_prob = noise.misclassify_prob
    alphabet = sorted({o.name for o in world.objects}) if mis_prob > 0.0 else ()

    def project(key: bytes, x: float, y: float) -> tuple[float, float]:
        # grid point of a world point, with position noise, clamped into view
        # as min(hi, max(lo, v)) clamps (a NaN lands on lo)
        gx, gy = world_to_grid(cell, (x, y), (cx, cy))
        gx += _gauss(key + b"px", pos_sigma)
        gy += _gauss(key + b"py", pos_sigma)
        gx = gx if gx > lo_x else lo_x
        gy = gy if gy > lo_y else lo_y
        return (gx if gx < half_w else half_w), (gy if gy < half_h else half_h)

    objects = []
    for o in world.objects:
        if not (xmin <= o.x <= xmax and ymin <= o.y <= ymax):
            continue
        key = prefix + f"{o.id}|".encode()
        gx, gy = project(key, o.x, o.y)
        name = o.name
        if len(alphabet) > 1 and _uniform(key + b"mis") < mis_prob:
            others = [n for n in alphabet if n != o.name]
            name = others[int(_uniform(key + b"sub") * len(others))]
        category, direction = _role(o.id, name, goal, world.attachment)
        objects.append(SemanticObject(
            id=o.id,
            name=name,
            x=gx, y=gy,
            category=category,
            direction=direction,
            orientation=o.yaw + _gauss(key + b"yaw", yaw_sigma),
            radius=o.radius / cell,
        ))

    parts = {}
    robot = world.ground_robot
    if xmin <= robot.x <= xmax and ymin <= robot.y <= ymax:
        ax = world.params.head_offset * math.cos(robot.heading)
        ay = world.params.head_offset * math.sin(robot.heading)
        for tag, px, py in (("head", robot.x + ax, robot.y + ay), ("body", robot.x, robot.y),
                            ("tail", robot.x - ax, robot.y - ay)):
            parts[tag] = project(prefix + f"robot:{tag}|".encode(), px, py)
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
