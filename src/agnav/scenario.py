"""Scenario files: schema validation, config hashing, world construction, and
the one mission run (load, parse, decompose, execute).

A scenario is one JSON document holding the arena, the objects, both robot
poses, the camera/noise models, every planner weight, and the task string.
Each section's schema is read off the dataclass it builds, so a field's type
and default live in one place. Validation reports field-level paths (unknown
keys included) so a bad file fails with a usable diagnostic rather than a
traceback.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import time
import typing
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .global_planner import GlobalCostWeights
from .gridmask import CameraModel
from .local_planner import LocalCostWeights
from .mission import (
    ExecutionResult,
    GoalSpec,
    MissionConfig,
    decompose,
    execute,
    parse_command,
)
from .perception import NoiseModel
from .semantic_map import FusionParams
from .sim_world import DroneState, GroundRobot, SimObject, SimParams, WorldState


class ScenarioError(ValueError):
    """Scenario file violates the schema; message carries the field path."""


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
    """Document fields of a dataclass, read once from its type hints. Fields
    of other types (nested configs, the arena tuple) have sections of their
    own and are left out. The dict is shared: extend a copy, never it."""
    hints = typing.get_type_hints(cls)
    spec = {}
    for f in dataclasses.fields(cls):
        kind, args = hints[f.name], typing.get_args(hints[f.name])
        nullable = type(None) in args
        if nullable:
            (kind,) = [a for a in args if a is not type(None)]
        if kind in _KINDS:
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


def _build(cls, doc, path: str, **fixed):
    """A dataclass from its section; ``fixed`` fields are set by the loader,
    not by the document. A rejected value is reported with the section."""
    kwargs = _section(doc, path, _spec(cls), skip=fixed)
    try:
        return cls(**kwargs, **fixed)
    except ValueError as e:
        raise ScenarioError(f"{path}: {e}") from e


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
_EXECUTION = {**_spec(MissionConfig), "relation_clearance": _spec(GoalSpec)["clearance"]}


@dataclass
class Scenario:
    seed: int
    task: str
    config: MissionConfig
    world: WorldState
    raw: dict
    relation_clearance: float  # meters, for tasks naming a directional relation

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def load_scenario(doc: dict, seed_override: Optional[int] = None) -> Scenario:
    """Validate a parsed scenario document and build the world and config."""
    top = _section(doc, "$", _TOP)
    seed = top["seed"] if seed_override is None else seed_override
    camera = _build(CameraModel, top["camera"], "$.camera")
    noise = _build(NoiseModel, top["noise"], "$.noise", seed=seed)

    a = _section(top["arena"], "$.arena", _ARENA)
    arena = (a["xmin"], a["xmax"], a["ymin"], a["ymax"])
    if arena[0] >= arena[1] or arena[2] >= arena[3]:
        raise ScenarioError("$.arena: min bounds must be below max bounds")

    objects = []
    seen_ids = set()
    for i, o in enumerate(top["objects"]):
        kwargs = _section(o, f"$.objects[{i}]", _OBJECT)
        if kwargs["id"] is None:
            kwargs["id"] = kwargs["name"]
        if kwargs["id"] in seen_ids:
            raise ScenarioError(f"$.objects[{i}].id: duplicate id {kwargs['id']!r}")
        seen_ids.add(kwargs["id"])
        objects.append(SimObject(**kwargs))

    drone = _build(DroneState, {"altitude": camera.altitude, **top["drone"]}, "$.drone",
                   waypoint_index=0)
    if abs(drone.altitude - camera.altitude) > 1e-9:
        raise ScenarioError("$.drone.altitude: must match $.camera.altitude")
    robot = _build(GroundRobot, {"heading": 0.0, **top["ground_robot"]}, "$.ground_robot")

    sim = _build(SimParams, top["sim"], "$.sim")
    ex = _section(top["execution"], "$.execution", _EXECUTION)
    clearance = ex.pop("relation_clearance")
    config = MissionConfig(
        camera=camera,
        noise=noise,
        global_weights=_build(GlobalCostWeights, top["global_weights"], "$.global_weights"),
        local_weights=_build(LocalCostWeights, top["local_weights"], "$.local_weights"),
        fusion=_build(FusionParams, top["fusion"], "$.fusion"),
        arena=arena,
        **ex,
    )

    world = WorldState(objects=objects, drone=drone, ground_robot=robot, params=sim)
    raw = dict(doc)
    raw["seed"] = seed
    return Scenario(seed=seed, task=top["task"], config=config, world=world, raw=raw,
                    relation_clearance=clearance)


def read_scenario_file(path: str) -> dict:
    """The parsed JSON document of a scenario file (validated on load). Every
    error message starts with the path."""
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
    return scen.relation_clearance


def run_scenario(doc: dict, seed: Optional[int] = None) -> tuple[Scenario, ExecutionResult]:
    """One mission end to end: load the document, parse and decompose its
    task, and execute the plan. The result's ``wall_time`` times ``execute``."""
    scen = load_scenario(doc, seed_override=seed)
    plan = decompose(parse_command(scen.task, scen.relation_clearance),
                     pitch=scen.config.pitch)
    start = time.perf_counter()
    result = execute(plan, scen.world, scen.config)
    result.wall_time = time.perf_counter() - start
    return scen, result
