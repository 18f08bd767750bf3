"""Scenario files: schema validation, config hashing, and world construction.

A scenario is one JSON document holding the arena, the objects, both robot
poses, the camera/noise models, every planner weight, and the task string.
Validation reports field-level paths so a bad file fails with a usable
diagnostic rather than a traceback.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from .global_planner import GlobalCostWeights, OptimizeOptions
from .gridmask import CameraModel
from .local_planner import LocalCostWeights, StepThresholds
from .mission import MissionConfig
from .perception import NoiseModel
from .semantic_map import FusionParams
from .sim_world import DroneState, GroundRobot, SimObject, SimParams, WorldState


class ScenarioError(ValueError):
    """Scenario file violates the schema; message carries the field path."""


_SENTINEL = object()
_NUM = (int, float)


def _expect(doc: dict, key: str, types, path: str, default=_SENTINEL):
    if key not in doc:
        if default is not _SENTINEL:
            return default
        raise ScenarioError(f"{path}.{key}: required field missing")
    val = doc[key]
    tt = types if isinstance(types, tuple) else (types,)
    names = "/".join(t.__name__ for t in tt)
    if isinstance(val, bool) and bool not in tt:
        raise ScenarioError(f"{path}.{key}: expected {names}, got bool")
    if not isinstance(val, tt):
        raise ScenarioError(f"{path}.{key}: expected {names}, got {type(val).__name__}")
    return val


@dataclass
class Scenario:
    seed: int
    task: str
    config: MissionConfig
    world: WorldState
    raw: dict

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def _camera(doc: dict, path: str) -> CameraModel:
    return CameraModel(
        altitude=float(_expect(doc, "altitude", _NUM, path)),
        horizontal_fov=float(_expect(doc, "horizontal_fov", _NUM, path)),
        image_width=int(_expect(doc, "image_width", int, path)),
        grid_interval=float(_expect(doc, "grid_interval", _NUM, path)),
        image_height=doc.get("image_height"),
    )


def _noise(doc: dict, path: str, seed: int) -> NoiseModel:
    return NoiseModel(
        position_sigma=float(_expect(doc, "position_sigma", _NUM, path, 0.0)),
        misclassify_prob=float(_expect(doc, "misclassify_prob", _NUM, path, 0.0)),
        orientation_sigma=float(_expect(doc, "orientation_sigma", _NUM, path, 0.0)),
        seed=seed,
    )


def _build(cls, doc: dict, path: str, fields: dict):
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected object")
    unknown = set(doc) - set(fields)
    if unknown:
        raise ScenarioError(f"{path}: unknown fields {sorted(unknown)}")
    kwargs = {}
    for name, default in fields.items():
        if name in doc:
            want = int if isinstance(default, int) and not isinstance(default, bool) else _NUM
            kwargs[name] = type(default)(_expect(doc, name, want, path))
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"{path}: {e}") from e


def load_scenario(doc: dict, seed_override: Optional[int] = None) -> Scenario:
    """Validate a parsed scenario document and build the world and config."""
    if not isinstance(doc, dict):
        raise ScenarioError("$: scenario must be a JSON object")
    path = "$"
    seed = int(_expect(doc, "seed", int, path, 0))
    if seed_override is not None:
        seed = seed_override
    task = _expect(doc, "task", str, path)

    camera = _camera(_expect(doc, "camera", dict, path), "$.camera")
    noise = _noise(_expect(doc, "noise", dict, path, {}), "$.noise", seed)

    arena_doc = _expect(doc, "arena", dict, path)
    arena = (
        float(_expect(arena_doc, "xmin", _NUM, "$.arena")),
        float(_expect(arena_doc, "xmax", _NUM, "$.arena")),
        float(_expect(arena_doc, "ymin", _NUM, "$.arena")),
        float(_expect(arena_doc, "ymax", _NUM, "$.arena")),
    )
    if arena[0] >= arena[1] or arena[2] >= arena[3]:
        raise ScenarioError("$.arena: min bounds must be below max bounds")

    objects = []
    seen_ids = set()
    for i, o in enumerate(_expect(doc, "objects", list, path)):
        opath = f"$.objects[{i}]"
        if not isinstance(o, dict):
            raise ScenarioError(f"{opath}: expected object")
        name = _expect(o, "name", str, opath)
        oid = str(o.get("id", name))
        if oid in seen_ids:
            raise ScenarioError(f"{opath}.id: duplicate id {oid!r}")
        seen_ids.add(oid)
        objects.append(SimObject(
            id=oid,
            name=name,
            x=float(_expect(o, "x", _NUM, opath)),
            y=float(_expect(o, "y", _NUM, opath)),
            yaw=float(_expect(o, "yaw", _NUM, opath, 0.0)),
            radius=float(_expect(o, "radius", _NUM, opath, 0.1)),
            movable=bool(o.get("movable", True)),
        ))

    d = _expect(doc, "drone", dict, path)
    drone = DroneState(
        x=float(_expect(d, "x", _NUM, "$.drone")),
        y=float(_expect(d, "y", _NUM, "$.drone")),
        altitude=float(_expect(d, "altitude", _NUM, "$.drone", camera.altitude)),
    )
    if abs(drone.altitude - camera.altitude) > 1e-9:
        raise ScenarioError("$.drone.altitude: must match $.camera.altitude")

    g = _expect(doc, "ground_robot", dict, path)
    robot = GroundRobot(
        x=float(_expect(g, "x", _NUM, "$.ground_robot")),
        y=float(_expect(g, "y", _NUM, "$.ground_robot")),
        heading=float(_expect(g, "heading", _NUM, "$.ground_robot", 0.0)),
        radius=float(_expect(g, "radius", _NUM, "$.ground_robot", 0.25)),
    )

    sim = _build(SimParams, doc.get("sim", {}), "$.sim", {
        "drone_speed": 0.1, "ground_step": 0.05, "rotate_rate": 0.2,
        "follow_radius": 1.0, "attach_range": 0.15, "attach_angle_tol": 0.15,
        "carry_radius": 0.2, "head_offset": 0.4, "rotate_clear_cap": 0.1,
    })
    gw = _build(GlobalCostWeights, doc.get("global_weights", {}), "$.global_weights", {
        "q_length": 1.0, "q_curvature": 5.0, "q_obstacle": 50.0,
        "d_safe": 1.5, "sample_count": 64,
    })
    lw = _build(LocalCostWeights, doc.get("local_weights", {}), "$.local_weights", {
        "q_align": 1.0, "q_zero": 0.5, "q_obstacle": 2.0, "q_window": 1.0,
        "beta": 5.0, "d_safe": 1.5, "epsilon": 1e-6, "lookahead": 5.0,
        "window_half_extent": 10.0, "candidate_count": 36,
    })
    fusion = _build(FusionParams, doc.get("fusion", {}), "$.fusion", {
        "merge_radius": 0.1, "conflict_radius": 0.5, "pool_cap": 8,
    })

    ex = doc.get("execution", {})
    if not isinstance(ex, dict):
        raise ScenarioError("$.execution: expected object")
    thresholds = StepThresholds(
        dist_stop=float(_expect(ex, "dist_stop", _NUM, "$.execution", 0.5)),
        angle_tol=float(_expect(ex, "angle_tol", _NUM, "$.execution", 0.1)),
        step=sim.ground_step,  # rescaled to cells by the executor
    )
    optimizer = _build(OptimizeOptions, ex.get("optimizer", {}), "$.execution.optimizer", {
        "degree": 3, "max_iters": 500, "step": 1.0, "tolerance": 1e-8,
        "armijo": 1e-4,
    })
    drop = ex.get("drop_at_step")
    if drop is not None and not isinstance(drop, int):
        raise ScenarioError("$.execution.drop_at_step: expected integer")

    config = MissionConfig(
        camera=camera,
        noise=noise,
        sim=sim,
        global_weights=gw,
        local_weights=lw,
        fusion=fusion,
        thresholds=thresholds,
        optimizer=optimizer,
        arena=arena,
        n_controls=int(_expect(ex, "n_controls", int, "$.execution", 6)),
        step_budget=int(_expect(ex, "step_budget", int, "$.execution", 4000)),
        map_update_every=int(_expect(ex, "map_update_every", int, "$.execution", 10)),
        attach_budget=int(_expect(ex, "attach_budget", int, "$.execution", 300)),
        rollback_limit=int(_expect(ex, "rollback_limit", int, "$.execution", 3)),
        pitch=float(_expect(ex, "pitch", _NUM, "$.execution", 0.4)),
        success_radius=float(_expect(ex, "success_radius", _NUM, "$.execution", 0.2)),
        drop_at_step=drop,
    )

    world = WorldState(objects=objects, drone=drone, ground_robot=robot, params=sim)
    raw = dict(doc)
    raw["seed"] = seed
    return Scenario(seed=seed, task=task, config=config, world=world, raw=raw)


def load_scenario_file(path: str, seed_override: Optional[int] = None) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ScenarioError(f"$: invalid JSON ({e})") from e
    return load_scenario(doc, seed_override)


def relation_clearance(doc_or_scenario) -> float:
    """Clearance used when the task names a directional relation."""
    doc = doc_or_scenario.raw if isinstance(doc_or_scenario, Scenario) else doc_or_scenario
    return float(doc.get("execution", {}).get("relation_clearance", 0.4))
