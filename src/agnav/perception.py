"""Mock bird-view perceiver standing in for the learned vision model.

Projects simulator ground truth into the aerial camera frame (orthographic,
image-center-relative grid cells), applies calibrated deterministic noise,
and labels each scene object with its role under the subtask's goal (the
perceiver's prompt); the carried object is the world's attachment, and the
robot is reported as its parts, not as an object. Noise is counter-based: every
random draw hashes (seed, step, object id, channel) so identical inputs give
byte-identical maps with no shared generator state.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

from .gridmask import CameraModel, ground_scale, world_to_grid
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
        if self.position_sigma < 0 or self.orientation_sigma < 0:
            raise ValueError("sigmas must be non-negative")
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


def _uniform(seed: int, step: int, tag: str, channel: str) -> float:
    """Deterministic uniform in (0, 1) from a hashed counter."""
    digest = hashlib.sha256(f"{seed}|{step}|{tag}|{channel}".encode()).digest()
    v = int.from_bytes(digest[:8], "big")
    return (v + 0.5) / 2.0 ** 64


def _gauss(seed: int, step: int, tag: str, channel: str, sigma: float) -> float:
    if sigma == 0.0:
        return 0.0
    return sigma * _NORMAL.inv_cdf(_uniform(seed, step, tag, channel))


def camera_footprint(camera: CameraModel, cx: float, cy: float) -> Footprint:
    """World rectangle on the ground seen from (cx, cy) at the camera altitude."""
    scale = ground_scale(camera)
    half_w = scale.width_real / 2.0
    half_h = half_w * camera.height / camera.image_width
    return Footprint(cx - half_w, cx + half_w, cy - half_h, cy + half_h)


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, v))


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
    fp = camera_footprint(camera, cx, cy)
    half_w_cells = (fp.xmax - fp.xmin) / 2.0 / cell
    half_h_cells = (fp.ymax - fp.ymin) / 2.0 / cell
    step = world.step
    alphabet = sorted({o.name for o in world.objects})

    def project(tag: str, x: float, y: float) -> tuple[float, float]:
        # grid point of a world point, with position noise, clamped into view
        gx, gy = world_to_grid(cell, (x, y), (cx, cy))
        gx += _gauss(noise.seed, step, tag, "px", noise.position_sigma)
        gy += _gauss(noise.seed, step, tag, "py", noise.position_sigma)
        return _clamp(gx, -half_w_cells, half_w_cells), _clamp(gy, -half_h_cells, half_h_cells)

    objects = []
    for o in world.objects:
        if not fp.contains(o.x, o.y):
            continue
        gx, gy = project(o.id, o.x, o.y)
        name = o.name
        if noise.misclassify_prob > 0.0 and len(alphabet) > 1:
            if _uniform(noise.seed, step, o.id, "mis") < noise.misclassify_prob:
                others = [n for n in alphabet if n != o.name]
                name = others[int(_uniform(noise.seed, step, o.id, "sub") * len(others))]
        category, direction, obstacle_too = _role(o.id, name, goal, world.attachment)
        objects.append(SemanticObject(
            id=o.id,
            name=name,
            x=gx, y=gy,
            category=category,
            direction=direction,
            is_obstacle_too=obstacle_too,
            orientation=o.yaw + _gauss(noise.seed, step, o.id, "yaw", noise.orientation_sigma),
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


def _role(oid: str, name: str, goal: Optional[GoalSpec], carried: Optional[str]):
    """(category, direction, is_obstacle_too) of one scene object as observed
    under ``name``, prompted with ``goal``. Map construction (no goal)
    assigns no roles; the carried object (id ``carried``, the world's
    attachment) is main; an object goal's object is the target; a relation
    goal's reference is a landmark carrying the goal's direction and doubling
    as an obstacle; everything else is an obstacle. A coordinate goal marks
    no target: the robot aligns with the image zero point."""
    if goal is None:
        return None, None, False
    if oid == carried:
        return Category.MAIN, None, False
    if name == goal.name and goal.kind == "object":
        return Category.TARGET, None, False
    if name == goal.name and goal.kind == "relation":
        return Category.LANDMARK, goal.direction, True
    return Category.OBSTACLE, None, False
