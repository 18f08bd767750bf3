"""Scenario files: schema validation, config hashing, world construction, and
the one mission run (load, parse, decompose, execute). Local-map documents,
the input of ``agnav fuse``, and local observations, the input of ``agnav
plan-local-step``, are checked by the same section rules.

A scenario is one JSON document holding the arena, the objects, both robot
poses, the camera/noise models, and the task string; the planner weight,
simulator, fusion and execution sections are optional. Each section's schema
is read off the dataclass it builds, so a field's type and default live in
one place, and the defaults are the values the missions run with.
Validation reports field-level paths (unknown keys included) so a bad file
fails with a usable diagnostic rather than a traceback.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
import typing
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .global_planner import GlobalCostWeights
from .gridmask import CameraModel, ground_scale
from .local_planner import LocalCostWeights, LocalObservation
from .mission import (
    CommandError,
    ExecutionResult,
    MissionConfig,
    decompose,
    execute,
    inside_arena,
    parse_command,
)
from .perception import NoiseModel
from .semantic_map import (
    Footprint,
    FusionParams,
    LocalSemanticMap,
    SemanticObject,
)
from .sim_world import DroneState, GroundRobot, SimObject, SimParams, WorldState


class ScenarioError(ValueError):
    """An input file or option violates its schema; the message carries the
    file or the field path."""


_REQUIRED = object()
# accepted JSON types per field type; bool never counts as a number
_KINDS = {float: (int, float), int: (int,), bool: (bool,), str: (str,),
          dict: (dict,), list: (list,)}


class _Field(NamedTuple):
    kind: type
    default: object = _REQUIRED
    nullable: bool = False


@functools.cache
def _spec(cls) -> dict:
    """Document fields of a dataclass, read once from its type hints; an enum
    field takes its members' values. Fields of other types (nested configs,
    the arena tuple) have sections of their own and are left out. The dict
    is shared: extend a copy, never it."""
    hints = typing.get_type_hints(cls)
    spec = {}
    for f in dataclasses.fields(cls):
        kind, args = hints[f.name], typing.get_args(hints[f.name])
        nullable = type(None) in args
        if nullable:
            (kind,) = [a for a in args if a is not type(None)]
        if kind in _KINDS or (isinstance(kind, type) and issubclass(kind, Enum)):
            default = _REQUIRED if f.default is dataclasses.MISSING else f.default
            spec[f.name] = _Field(kind, default, nullable)
    return spec


def _section(doc, path: str, spec: dict, skip=()) -> dict:
    """Typed values of one object section, defaults filled in. Rejects a
    non-object, unknown keys (including the ``skip``ped fields, which come
    from elsewhere), missing required fields, mistyped values and non-finite
    floats."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected object")
    for key in doc:
        if key not in spec or key in skip:
            raise ScenarioError(f"{path}.{key}: unknown field")
    out = {}
    for name, field in spec.items():
        if name in skip:
            continue
        if name not in doc:
            if field.default is _REQUIRED:
                raise ScenarioError(f"{path}.{name}: required field missing")
            out[name] = field.default
            continue
        val = doc[name]
        if val is None and field.nullable:
            out[name] = None
        elif field.kind not in _KINDS:  # an enum
            values = [m.value for m in field.kind]
            if val not in values:
                raise ScenarioError(f"{path}.{name}: expected one of {json.dumps(values)}")
            out[name] = field.kind(val)
        elif isinstance(val, _KINDS[field.kind]) and (
                field.kind is bool or not isinstance(val, bool)):
            # NaN fails the comparison; an int too large for a float exceeds it
            if field.kind is float and not abs(val) <= sys.float_info.max:
                raise ScenarioError(f"{path}.{name}: expected a finite number")
            out[name] = field.kind(val)
        else:
            raise ScenarioError(
                f"{path}.{name}: expected {field.kind.__name__}, got {type(val).__name__}")
    return out


def _new(cls, path: str, **kwargs):
    """``cls(**kwargs)``; a value the class rejects is reported with the
    section."""
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from e


def build(cls, doc, path: str, **fixed):
    """A dataclass from its section (a document object, or command-line
    values keyed by field name); ``fixed`` fields are set by the caller, not
    by the section. A rejected value is reported with the section."""
    return _new(cls, path, **_section(doc, path, _spec(cls), skip=fixed), **fixed)


_TOP = {
    "seed": _Field(int, 0),
    "task": _Field(str),
    "arena": _Field(dict),
    "objects": _Field(list),
    "drone": _Field(dict),
    "ground_robot": _Field(dict),
    "camera": _Field(dict),
    "noise": _Field(dict, {}),
    "sim": _Field(dict, {}),
    "global_weights": _Field(dict, {}),
    "local_weights": _Field(dict, {}),
    "fusion": _Field(dict, {}),
    "execution": _Field(dict, {}),
}
_ARENA = {k: _Field(float) for k in ("xmin", "xmax", "ymin", "ymax")}
_OBJECT = {**_spec(SimObject), "id": _Field(str, None)}  # a missing id takes the name


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


def load_scenario(doc: dict, seed_override: Optional[int] = None) -> Scenario:
    """Validate a parsed scenario document and build the world and config."""
    top = _section(doc, "$", _TOP)
    seed = top["seed"] if seed_override is None else seed_override
    camera = build(CameraModel, top["camera"], "$.camera")
    _new(ground_scale, "$.camera", camera=camera)  # a cell must be a positive finite length
    noise = build(NoiseModel, top["noise"], "$.noise", seed=seed)

    a = _section(top["arena"], "$.arena", _ARENA)
    arena = (a["xmin"], a["xmax"], a["ymin"], a["ymax"])
    if arena[0] >= arena[1] or arena[2] >= arena[3]:
        raise ScenarioError("$.arena: min bounds must be below max bounds")

    objects = []
    seen_ids = set()
    for i, o in enumerate(top["objects"]):
        path = f"$.objects[{i}]"
        kwargs = _section(o, path, _OBJECT)
        if kwargs["id"] is None:
            kwargs["id"] = kwargs["name"]
        if kwargs["id"] in seen_ids:
            raise ScenarioError(f"{path}.id: duplicate id {kwargs['id']!r}")
        seen_ids.add(kwargs["id"])
        objects.append(_new(SimObject, path, **kwargs))

    drone = build(DroneState, {"altitude": camera.altitude, **top["drone"]}, "$.drone",
                  waypoint_index=0)
    if abs(drone.altitude - camera.altitude) > 1e-9:
        raise ScenarioError("$.drone.altitude: must match $.camera.altitude")
    robot = build(GroundRobot, {"heading": 0.0, **top["ground_robot"]}, "$.ground_robot")

    sim = build(SimParams, top["sim"], "$.sim")
    config = build(
        MissionConfig, top["execution"], "$.execution",
        camera=camera,
        noise=noise,
        global_weights=build(GlobalCostWeights, top["global_weights"], "$.global_weights"),
        local_weights=build(LocalCostWeights, top["local_weights"], "$.local_weights"),
        fusion=build(FusionParams, top["fusion"], "$.fusion"),
        arena=arena,
    )

    world = WorldState(objects=objects, drone=drone, ground_robot=robot, params=sim)
    raw = dict(doc)
    raw["seed"] = seed
    return Scenario(seed=seed, task=top["task"], config=config, world=world, raw=raw)


def _finite_point(doc, path: str, fields=("x", "y")) -> tuple:
    if not (isinstance(doc, list) and len(doc) == len(fields) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in doc)):
        raise ScenarioError(f"{path}: expected [{', '.join(fields)}] of finite numbers, "
                            f"got {json.dumps(doc)}")
    return tuple(float(v) for v in doc)


_LOCAL_MAP = {"frame": _Field(str, "grid"), "step_index": _Field(int), "pose": _Field(dict),
              "cell_m": _Field(float), "footprint": _Field(dict), "objects": _Field(list),
              "parts": _Field(dict, {})}
_POSE = {k: _Field(float) for k in ("x", "y", "altitude")}
_PARTS = {k: _Field(list, None) for k in ("head", "body", "tail")}


def local_map_from_json(doc) -> LocalSemanticMap:
    """A local map from its JSON document, the layout that
    ``semantic_map.local_map_to_json`` writes. Only grid-frame maps exist; the
    section rules apply and every error message starts with the field path."""
    top = _section(doc, "$", _LOCAL_MAP)
    if top["frame"] != "grid":
        raise ScenarioError(f"$.frame: expected \"grid\", got {json.dumps(top['frame'])}")
    if not top["cell_m"] > 0.0:
        raise ScenarioError(f"$.cell_m: must be positive, got {top['cell_m']}")
    pose = _section(top["pose"], "$.pose", _POSE)
    objects = tuple(build(SemanticObject, o, f"$.objects[{i}]")
                    for i, o in enumerate(top["objects"]))
    parts = {k: _finite_point(v, f"$.parts.{k}")
             for k, v in _section(top["parts"], "$.parts", _PARTS).items() if v is not None}
    return LocalSemanticMap(
        observer_x=pose["x"], observer_y=pose["y"], altitude=pose["altitude"],
        cell_m=top["cell_m"], footprint=build(Footprint, top["footprint"], "$.footprint"),
        objects=objects, step_index=top["step_index"], parts=parts)


_OBSERVATION = {"main": _Field(list), "target": _Field(list, None, nullable=True),
                "obstacles": _Field(list, []), "parts": _Field(dict)}
_BODY_PARTS = {k: _Field(list) for k in _PARTS}


def observation_from_json(doc) -> LocalObservation:
    """A local observation from its JSON document, the input of ``agnav
    plan-local-step``: ``main``, an optional ``target``, ``obstacles`` as
    ``[x, y, r]`` with a non-negative r, and ``parts.{head,body,tail}``, all
    in grid cells. The section rules apply and every error message starts
    with the field path."""
    top = _section(doc, "$", _OBSERVATION)
    obstacles = []
    for i, o in enumerate(top["obstacles"]):
        x, y, r = _finite_point(o, f"$.obstacles[{i}]", ("x", "y", "r"))
        if r < 0.0:
            raise ScenarioError(f"$.obstacles[{i}]: radius must be non-negative, got {r}")
        obstacles.append(((x, y), r))
    parts = {k: _finite_point(v, f"$.parts.{k}")
             for k, v in _section(top["parts"], "$.parts", _BODY_PARTS).items()}
    target = top["target"]
    return _new(LocalObservation, "$.parts", main=_finite_point(top["main"], "$.main"),
                target=None if target is None else _finite_point(target, "$.target"),
                obstacles=tuple(obstacles), **parts)


def read_json_file(path: str) -> dict:
    """The parsed JSON document of an input file (validated by its reader).
    Every error message starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ScenarioError(f"{path}: cannot read ({e.strerror})") from e
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{path}: not UTF-8 ({e.reason} at byte {e.start})") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: invalid JSON ({e})") from e


def relation_clearance(scen: Scenario) -> float:
    """Clearance used when the task names a directional relation."""
    return scen.config.relation_clearance


def task_command(scen: Scenario):
    """The scenario's task as a command, checked before anything runs: it
    must parse, and a coordinate goal must lie inside the arena. A rejected
    task is reported under ``$.task``."""
    try:
        command = parse_command(scen.task, scen.config.relation_clearance)
    except CommandError as e:
        raise ScenarioError(f"$.task: {e}") from e
    goal = getattr(command, "goal", None)
    if goal is not None and goal.kind == "coordinate" and not inside_arena(
            scen.config.arena, goal.x, goal.y):
        raise ScenarioError(f"$.task: goal ({goal.x:g}, {goal.y:g}) lies outside $.arena")
    return command


def run_scenario(doc: dict, seed: Optional[int] = None) -> tuple[Scenario, ExecutionResult]:
    """One mission end to end: load the document, parse and decompose its
    task, and execute the plan. The result's ``wall_time`` times ``execute``."""
    scen = load_scenario(doc, seed_override=seed)
    plan = decompose(task_command(scen), pitch=scen.config.pitch)
    start = time.perf_counter()
    result = execute(plan, scen.world, scen.config)
    result.wall_time = time.perf_counter() - start
    return scen, result
