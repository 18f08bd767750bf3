"""Local/global semantic maps and deterministic rule-based fusion.

Fusion follows a fixed rule pipeline over the pooled observations:

1. cluster observations whose world positions chain within merge_radius
   (single-linkage transitive closure). The search hashes each observation
   into square buckets 2 * merge_radius wide and grows each component by
   breadth-first search over the 3 x 3 buckets around each member. Any two
   points within merge_radius of each other differ by at most half a bucket
   along each axis, so, however ``x / width`` rounds, they land in the same
   or adjacent buckets: the search runs the same exact pair test over the
   same pairs as an all-pairs scan would, in near-linear time;
2. drop clusters seen by exactly one map while lying inside another map's
   footprint; keep sole-visibility singletons flagged uncertain;
3. name each cluster by majority vote over member names (ties keep the
   lexicographically first name, flagged uncertain);
4. among clusters sharing a name, keep the one with the newest member
   observation (objects that moved follow the freshest sighting);
5. resolve different-name clusters closer than conflict_radius by support
   (ties keep both, flagged uncertain);
6. position each entry at the arithmetic mean of its members.

Everything is deterministic and permutation-invariant over the input map
order: observations are canonically sorted before any rule runs.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

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


@dataclass(frozen=True)
class SemanticObject:
    """One observed object. ``category`` is None for map-construction passes,
    which skip role labeling. ``frame`` tags the coordinate units: "grid"
    (image-center-relative cells) or "world" (meters)."""

    id: str
    name: str
    x: float
    y: float
    frame: str = "grid"
    category: Optional[Category] = None
    direction: Optional[Direction] = None
    is_obstacle_too: bool = False
    orientation: Optional[float] = None
    radius: float = 0.0

    def __post_init__(self):
        if self.frame not in ("grid", "world"):
            raise ValueError(f"unknown frame {self.frame!r}")
        if (self.direction is not None) != (self.category == Category.LANDMARK):
            raise ValueError("direction is present exactly for landmark objects")


@dataclass(frozen=True)
class Footprint:
    """Axis-aligned world rectangle seen by one observation pose."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax


@dataclass(frozen=True)
class LocalSemanticMap:
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
    entries: tuple[MapEntry, ...]
    revision: int = 0
    # retained observation pool and per-step footprints, carried so that
    # update() can re-fuse incrementally
    pool: tuple = ()
    footprints: tuple = ()  # unique (step_index, Footprint) pairs, in _footprint_key order

    def find(self, name: str) -> Optional[MapEntry]:
        for e in self.entries:
            if e.name == name:
                return e
        return None


@dataclass(frozen=True)
class FusionParams:
    merge_radius: float = 0.1     # meters
    conflict_radius: float = 0.5  # meters

    def __post_init__(self):
        if self.merge_radius <= 0 or self.conflict_radius <= 0:
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


def _observations(maps) -> list[_Obs]:
    """Every object of the maps as a world-frame record (grid objects are
    projected through their map's observer pose), in canonical order."""
    obs = []
    for m in maps:
        step, ox, oy, cell = m.step_index, m.observer_x, m.observer_y, m.cell_m
        for o in m.objects:
            if o.frame == "world":
                obs.append(_Obs(step, o.id, o.x, o.y, o.name, o.radius, o.orientation))
            else:
                obs.append(_Obs(step, o.id, ox + o.x * cell, oy + o.y * cell, o.name,
                                o.radius * cell, o.orientation))
    obs.sort(key=_obs_key)
    return obs


def _bucket(o: _Obs, width: float):
    """Spatial-hash cell of an observation; None when a coordinate over the
    width is not finite. Such records can only link among themselves: a
    non-finite coordinate fails every pair test, and a finite one that
    overflows the quotient has float neighbours more than a bucket apart."""
    try:
        return (math.floor(o.x / width), math.floor(o.y / width))
    except (ValueError, OverflowError):
        return None


def _cluster_records(obs: list[_Obs], merge_radius: float) -> list[list[_Obs]]:
    """Single-linkage components of the distance <= merge_radius graph,
    ordered by each component's canonically-first member, members in
    canonical order. See rule 1 of the module docstring for the search."""
    width = 2.0 * merge_radius
    cells = [_bucket(o, width) for o in obs]
    buckets: dict = {}
    for i, cell in enumerate(cells):
        buckets.setdefault(cell, []).append(i)
    near = {None: buckets.get(None)}
    for cell in buckets:
        if cell is not None:
            cx, cy = cell
            near[cell] = [j for gx in (cx - 1, cx, cx + 1) for gy in (cy - 1, cy, cy + 1)
                          for j in buckets.get((gx, gy), ())]
    seen = [False] * len(obs)
    groups = []
    for start in range(len(obs)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for a in comp:  # grows while iterated: breadth-first
            ax, ay = obs[a].x, obs[a].y
            for b in near[cells[a]]:
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
        self.mean = (sum(m.x for m in members) / n, sum(m.y for m in members) / n)


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
    s = sum(math.sin(a) for a in vals)
    c = sum(math.cos(a) for a in vals)
    if s == 0.0 and c == 0.0:
        return vals[0]
    return math.atan2(s, c)


def _footprint_key(item):
    step, fp = item
    return (step, fp.xmin, fp.ymin, fp.xmax, fp.ymax)


def fuse(maps, params: FusionParams = FusionParams()) -> GlobalSemanticMap:
    """Integrate local maps into a global map via the rule pipeline."""
    maps = list(maps)
    if not maps:
        raise ValueError("at least one local map required")
    footprints = sorted({(m.step_index, m.footprint) for m in maps}, key=_footprint_key)
    return _fuse_pool(_observations(maps), footprints, params, revision=0)


def _fuse_pool(pool: list[_Obs], footprints, params: FusionParams,
               revision: int) -> GlobalSemanticMap:
    clusters = [_Cluster(members=g) for g in _cluster_records(pool, params.merge_radius)]

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
            if math.hypot(ax - bx, ay - by) <= params.conflict_radius:
                if a.support > b.support:
                    b.removed = True
                else:
                    a.uncertain = True
                    b.uncertain = True

    entries = []
    retained: list[_Obs] = []
    for c in clusters:
        # retention policy: every cluster keeps its newest POOL_CAP members,
        # removed ones included. Suppressed sightings must stay poolable or a
        # moved object's first observation at the new spot (a covered
        # singleton) could never accumulate the support to migrate the entry.
        newest = sorted(c.members, key=lambda m: (-m.step, m.oid))[:POOL_CAP]
        retained.extend(newest)
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
            radius=sum(m.radius for m in c.members) / len(c.members),
            orientation=_circular_mean([m.orientation for m in c.members]),
        ))
    entries.sort(key=lambda e: (e.name, e.x, e.y))
    retained.sort(key=_obs_key)
    return GlobalSemanticMap(
        entries=tuple(entries),
        revision=revision,
        pool=tuple(retained),
        footprints=tuple(footprints),
    )


def update(global_map: GlobalSemanticMap, new_map: LocalSemanticMap,
           params: FusionParams = FusionParams()) -> GlobalSemanticMap:
    """Re-fuse the retained pool plus one new local map; revision increments."""
    merged: dict = {_obs_key(o): o for o in global_map.pool}
    for o in _observations([new_map]):
        merged.setdefault(_obs_key(o), o)
    pool = sorted(merged.values(), key=_obs_key)
    # the new footprint normally sorts last (steps only grow); otherwise it
    # goes in at its sorted place unless already present
    footprints = list(global_map.footprints)
    new = (new_map.step_index, new_map.footprint)
    key = _footprint_key(new)
    if not footprints or _footprint_key(footprints[-1]) < key:
        footprints.append(new)
    else:
        i = bisect.bisect_left(footprints, key, key=_footprint_key)
        if i == len(footprints) or footprints[i] != new:
            footprints.insert(i, new)
    return _fuse_pool(pool, footprints, params, revision=global_map.revision + 1)


# ---------------------------------------------------------------------------
# JSON interchange


def local_map_to_json(m: LocalSemanticMap) -> dict:
    return {
        "frame": "grid",
        "step_index": m.step_index,
        "pose": {"x": m.observer_x, "y": m.observer_y, "altitude": m.altitude},
        "cell_m": m.cell_m,
        "footprint": {
            "xmin": m.footprint.xmin, "xmax": m.footprint.xmax,
            "ymin": m.footprint.ymin, "ymax": m.footprint.ymax,
        },
        "objects": [
            {
                "id": o.id,
                "name": o.name,
                "category": o.category.value if o.category else None,
                "direction": o.direction.value if o.direction else None,
                "is_obstacle_too": o.is_obstacle_too,
                "x": o.x,
                "y": o.y,
                "orientation": o.orientation,
                "radius": o.radius,
            }
            for o in m.objects
        ],
        "parts": {k: list(v) for k, v in m.parts.items()},
    }


def local_map_from_json(doc: dict) -> LocalSemanticMap:
    fp = doc["footprint"]
    objects = tuple(
        SemanticObject(
            id=o["id"],
            name=o["name"],
            x=o["x"],
            y=o["y"],
            frame=doc.get("frame", "grid"),
            category=Category(o["category"]) if o.get("category") else None,
            direction=Direction(o["direction"]) if o.get("direction") else None,
            is_obstacle_too=bool(o.get("is_obstacle_too", False)),
            orientation=o.get("orientation"),
            radius=float(o.get("radius", 0.0)),
        )
        for o in doc["objects"]
    )
    return LocalSemanticMap(
        observer_x=doc["pose"]["x"],
        observer_y=doc["pose"]["y"],
        altitude=doc["pose"]["altitude"],
        cell_m=doc["cell_m"],
        footprint=Footprint(fp["xmin"], fp["xmax"], fp["ymin"], fp["ymax"]),
        objects=objects,
        step_index=doc["step_index"],
        parts={k: tuple(v) for k, v in doc.get("parts", {}).items()},
    )


def global_map_to_json(g: GlobalSemanticMap) -> dict:
    return {
        "frame": "world",
        "revision": g.revision,
        "entries": [
            {
                "name": e.name,
                "x": e.x,
                "y": e.y,
                "support_count": e.support_count,
                "confidence": e.confidence.value,
                "radius": e.radius,
                "orientation": e.orientation,
            }
            for e in g.entries
        ],
    }


def dump_local_map(m: LocalSemanticMap) -> str:
    return json.dumps(local_map_to_json(m), sort_keys=True, indent=1)


def dump_global_map(g: GlobalSemanticMap) -> str:
    return json.dumps(global_map_to_json(g), sort_keys=True, indent=1)
