"""Local/global semantic maps and deterministic rule-based fusion.

Fusion follows a fixed rule pipeline over the pooled observations, which
never include an object labelled main (the carried one):

1. cluster observations whose world positions chain within merge_radius
   (single-linkage transitive closure), growing each component breadth-first
   by the exact pair test against every later observation in canonical
   order. The pass is quadratic in the pool, which POOL_CAP keeps to a few
   observations per object;
2. drop clusters seen by exactly one map while lying inside another map's
   footprint; keep sole-visibility singletons flagged uncertain;
3. name each cluster by majority vote over member names (ties keep the
   lexicographically first name, flagged uncertain);
4. among clusters sharing a name, keep the one with the newest member
   observation (objects that moved follow the freshest sighting);
5. resolve different-name clusters closer than conflict_radius by support
   (ties keep both, flagged uncertain);
6. position each entry at the arithmetic mean of its members.

``update`` folds a sequence of local maps in order. Each map runs rule 1
and the pool retention (each cluster's newest POOL_CAP observations), since
the next map re-fuses from that pool; rules 2-6 read only the clusters, the
footprints and conflict_radius, so a fold resolves once, on the clusters of
its last map. The executor queues each tick's local map and folds the queue
with one ``update`` call only when it next reads the map.

Everything is deterministic and permutation-invariant over the input map
order: observations are canonically sorted before any rule runs.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .gridmask import grid_to_world

POOL_CAP = 8  # newest observations retained per cluster


class Category(Enum):
    MAIN = "main"
    TARGET = "target"
    LANDMARK = "landmark"
    OBSTACLE = "obstacle"


class Direction(Enum):
    FRONT = "front"
    BACK = "back"
    LEFT = "left"
    RIGHT = "right"


# read once: on Python 3.11 a member read through its Enum class costs about
# four plain attribute reads (the metaclass defines __getattr__), and every
# observed object checks its category against it
_LANDMARK = Category.LANDMARK


@dataclass(slots=True)
class SemanticObject:
    """One observed object in image-center-relative grid cells. ``category``
    is None for map-construction passes, which skip role labeling.

    Slotted and not frozen: ``observe`` builds one per object in view every
    tick, and a frozen init costs about three times as much. Nothing assigns
    to an observed object, and fusion pools copies of its fields."""

    id: str
    name: str
    x: float
    y: float
    category: Optional[Category] = None
    direction: Optional[Direction] = None
    orientation: Optional[float] = None
    radius: float = 0.0

    def __post_init__(self):
        if (self.direction is not None) != (self.category is _LANDMARK):
            raise ValueError("direction is present exactly for landmark objects")
        if not self.radius >= 0.0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")


@dataclass(frozen=True)
class Footprint:
    """Axis-aligned world rectangle seen by one observation pose."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin <= self.xmax and self.ymin <= self.ymax):  # NaN included
            raise ValueError("min bounds must not exceed max bounds")

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


@dataclass(slots=True)
class LocalSemanticMap:
    """One aerial observation: the observer pose, its footprint, the objects
    in view in grid cells and the robot's head/body/tail grid points.

    Slotted and not frozen, as ``SemanticObject`` is: ``observe`` builds one
    every tick, and a frozen init costs several times as much. Nothing
    assigns to a local map once built; fusion hashes only its footprint."""

    observer_x: float
    observer_y: float
    altitude: float
    cell_m: float
    footprint: Footprint
    objects: tuple[SemanticObject, ...]
    step_index: int
    parts: dict = field(default_factory=dict)  # head/body/tail grid points


class Confidence(Enum):
    CONFIRMED = "confirmed"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class MapEntry:
    name: str
    x: float
    y: float
    support_count: int
    confidence: Confidence
    radius: float = 0.0
    orientation: Optional[float] = None


@dataclass(frozen=True)
class GlobalSemanticMap:
    """The fused map: its ``entries``, its ``revision``, and the retained
    observation ``pool`` and ``(step_index, Footprint)`` pairs that
    ``update`` re-fuses from."""

    entries: tuple[MapEntry, ...]
    revision: int = 0
    pool: tuple = ()
    footprints: frozenset = frozenset()

    def find(self, name: str) -> Optional[MapEntry]:
        return next((e for e in self.entries if e.name == name), None)


@dataclass(frozen=True)
class FusionParams:
    merge_radius: float = 0.1     # meters
    # below the word pitch: assembled letters legitimately sit 0.4 m apart
    # and must not trigger the mislabel-conflict rule
    conflict_radius: float = 0.3  # meters

    def __post_init__(self):
        if not (self.merge_radius > 0 and self.conflict_radius > 0):  # NaN included
            raise ValueError("radii must be positive")


class _Obs(NamedTuple):
    """World-frame observation record, the unit of clustering. Its first
    five fields, read by ``_obs_key``, are its canonical sort key."""

    step: int
    oid: str
    x: float
    y: float
    name: str
    radius: float
    orientation: Optional[float]


_obs_key = operator.itemgetter(0, 1, 2, 3, 4)  # (step, oid, x, y, name)


def left_sum(values):
    """Left-to-right sum. From Python 3.12 the built-in ``sum`` compensates
    float rounding, so its bits depend on the interpreter; this fold gives
    the bits ``sum`` gives on 3.10 and 3.11 everywhere."""
    return functools.reduce(operator.add, values, 0)


def _observations(maps) -> list[_Obs]:
    """Every object of the maps as a world-frame record, projected through
    its map's observer pose, in canonical order. An object labelled main
    (the carried one) is skipped: only the static scene is fused."""
    obs = []
    for m in maps:
        origin, cell = (m.observer_x, m.observer_y), m.cell_m
        for o in m.objects:
            if o.category is Category.MAIN:
                continue
            x, y = grid_to_world(cell, (o.x, o.y), origin)
            obs.append(_Obs(m.step_index, o.id, x, y, o.name, o.radius * cell, o.orientation))
    obs.sort(key=_obs_key)
    return obs


def _cluster_records(obs: list[_Obs], merge_radius: float) -> list[list[_Obs]]:
    """Single-linkage components of the distance <= merge_radius graph,
    ordered by each component's canonically-first member, members in
    canonical order (rule 1 of the module docstring)."""
    seen = [False] * len(obs)
    groups = []
    for start in range(len(obs)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for a in comp:  # grows while iterated: breadth-first
            ax, ay = obs[a].x, obs[a].y
            for b in range(start + 1, len(obs)):
                if not seen[b] and math.hypot(ax - obs[b].x, ay - obs[b].y) <= merge_radius:
                    seen[b] = True
                    comp.append(b)
        comp.sort()
        groups.append([obs[i] for i in comp])
    return groups


class _Cluster:
    """One component under the rule pipeline; its member statistics are
    computed once, since the members never change."""

    __slots__ = ("members", "name", "uncertain", "removed", "support", "newest", "mean")

    def __init__(self, members: list[_Obs]):
        self.members = members
        self.name = ""
        self.uncertain = False
        self.removed = False
        self.support = len({m.step for m in members})
        self.newest = max(m.step for m in members)
        n = len(members)
        self.mean = (left_sum(m.x for m in members) / n, left_sum(m.y for m in members) / n)


def _vote_name(members) -> tuple[str, bool]:
    counts: dict[str, int] = {}
    for m in members:
        counts[m.name] = counts.get(m.name, 0) + 1
    top = max(counts.values())
    winners = sorted(n for n, c in counts.items() if c == top)
    return winners[0], len(winners) > 1


def _circular_mean(angles) -> Optional[float]:
    vals = [a for a in angles if a is not None]
    if not vals:
        return None
    s = left_sum(math.sin(a) for a in vals)
    c = left_sum(math.cos(a) for a in vals)
    if s == 0.0 and c == 0.0:
        return vals[0]
    return math.atan2(s, c)


def fuse(maps, params: FusionParams = FusionParams()) -> GlobalSemanticMap:
    """Integrate local maps into a global map via the rule pipeline."""
    maps = list(maps)
    if not maps:
        raise ValueError("at least one local map required")
    footprints = frozenset((m.step_index, m.footprint) for m in maps)
    groups, pool = _cluster_pool(_observations(maps), params.merge_radius)
    return GlobalSemanticMap(_resolve(groups, footprints, params.conflict_radius),
                             0, pool, footprints)


def _cluster_pool(pool: list[_Obs], merge_radius: float) -> tuple[list[list[_Obs]], tuple]:
    """Rule 1 and the pool retention: the clusters and the retained pool."""
    groups = _cluster_records(pool, merge_radius)
    # retention policy: every cluster keeps its newest POOL_CAP members,
    # removed ones included. Suppressed sightings must stay poolable or a
    # moved object's first observation at the new spot (a covered singleton)
    # could never accumulate the support to migrate the entry.
    retained: list[_Obs] = []
    for g in groups:
        retained.extend(g if len(g) <= POOL_CAP
                        else sorted(g, key=lambda m: (-m.step, m.oid))[:POOL_CAP])
    retained.sort(key=_obs_key)
    return groups, tuple(retained)


def _resolve(groups: list[list[_Obs]], footprints: frozenset,
             conflict_radius: float) -> tuple[MapEntry, ...]:
    """Rules 2-6 over the clusters of rule 1: the map's entries."""
    clusters = [_Cluster(members=g) for g in groups]

    # rule 2: covered singletons are spurious, isolated ones merely uncertain
    for c in clusters:
        if c.support == 1:
            x, y = c.mean
            step = c.members[0].step
            if any(s != step and fp.contains(x, y) for s, fp in footprints):
                c.removed = True
            else:
                c.uncertain = True

    # rule 3: majority vote
    for c in clusters:
        if not c.removed:
            c.name, tie = _vote_name(c.members)
            c.uncertain = c.uncertain or tie

    # rule 4: a name maps to its newest cluster
    by_name: dict[str, list[_Cluster]] = {}
    for c in clusters:
        if not c.removed:
            by_name.setdefault(c.name, []).append(c)
    for _, group in sorted(by_name.items()):
        if len(group) > 1:
            group.sort(key=lambda c: (-c.newest, -c.support, c.mean))
            for c in group[1:]:
                c.removed = True

    # rule 5: different names unrealistically close resolve by support
    alive = sorted(
        (c for c in clusters if not c.removed),
        key=lambda c: (-c.support, c.name, c.mean),
    )
    for i, a in enumerate(alive):
        if a.removed:
            continue
        ax, ay = a.mean
        for b in alive[i + 1:]:
            if b.removed or b.name == a.name:
                continue
            bx, by = b.mean
            if math.hypot(ax - bx, ay - by) <= conflict_radius:
                if a.support > b.support:
                    b.removed = True
                else:
                    a.uncertain = True
                    b.uncertain = True

    # rule 6: each kept cluster becomes an entry at its members' mean
    entries = []
    for c in clusters:
        if c.removed:
            continue
        x, y = c.mean
        confidence = Confidence.UNCERTAIN if (c.uncertain or c.support < 2) else Confidence.CONFIRMED
        entries.append(MapEntry(
            name=c.name,
            x=x,
            y=y,
            support_count=c.support,
            confidence=confidence,
            radius=left_sum(m.radius for m in c.members) / len(c.members),
            orientation=_circular_mean([m.orientation for m in c.members]),
        ))
    entries.sort(key=lambda e: (e.name, e.x, e.y))
    return tuple(entries)


def update(global_map: GlobalSemanticMap, new_maps: Iterable[LocalSemanticMap],
           params: FusionParams = FusionParams()) -> GlobalSemanticMap:
    """Re-fuse the retained pool with each local map of ``new_maps`` in
    turn, then resolve once; the revision goes up by one per map."""
    pool, footprints, groups = global_map.pool, global_map.footprints, None
    for n, m in enumerate(new_maps, 1):
        # a repeated observation keeps its pooled record, and an id repeated
        # within one map keeps its first record
        merged = {_obs_key(o): o for o in [*reversed(_observations([m])), *pool]}
        footprints = footprints | {(m.step_index, m.footprint)}
        groups, pool = _cluster_pool(sorted(merged.values(), key=_obs_key), params.merge_radius)
    if groups is None:
        return global_map
    return GlobalSemanticMap(_resolve(groups, footprints, params.conflict_radius),
                             global_map.revision + n, pool, footprints)


# ---------------------------------------------------------------------------
# JSON interchange


def _fields_json(obj) -> dict:
    """A flat dataclass as a JSON object: one key per field, enums by value."""
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out[f.name] = v.value if isinstance(v, Enum) else v
    return out


def local_map_to_json(m: LocalSemanticMap) -> dict:
    """JSON document of a local map; ``scenario.local_map_from_json`` reads it."""
    return {
        "frame": "grid",
        "step_index": m.step_index,
        "pose": {"x": m.observer_x, "y": m.observer_y, "altitude": m.altitude},
        "cell_m": m.cell_m,
        "footprint": _fields_json(m.footprint),
        "objects": [_fields_json(o) for o in m.objects],
        "parts": {k: list(v) for k, v in m.parts.items()},
    }


def dump_global_map(g: GlobalSemanticMap) -> str:
    """JSON text of a global map's entries, in the world frame."""
    return json.dumps({"frame": "world", "revision": g.revision,
                       "entries": [_fields_json(e) for e in g.entries]},
                      sort_keys=True, indent=1)
