import json
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnav.semantic_map import (
    Category,
    Confidence,
    Direction,
    Footprint,
    FusionParams,
    LocalSemanticMap,
    SemanticObject,
    _cluster_records,
    _observations,
    fuse,
    left_sum,
    local_map_to_json,
    update,
)
from agnav.scenario import local_map_from_json

WIDE = Footprint(-10, 10, -10, 10)


def world_map(step, entries, footprint=WIDE):
    """Map whose grid frame is the world frame (observer at the origin, 1 m
    cells): entries are (id, name, x, y) tuples."""
    objects = tuple(SemanticObject(id=i, name=n, x=x, y=y) for i, n, x, y in entries)
    return LocalSemanticMap(
        observer_x=0.0, observer_y=0.0, altitude=2.0, cell_m=1.0,
        footprint=footprint, objects=objects, step_index=step,
    )


def bfs_components(points, radius):
    """Independent transitive-closure oracle."""
    n = len(points)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp, queue = [], deque([s])
        seen[s] = True
        while queue:
            a = queue.popleft()
            comp.append(a)
            for b in range(n):
                if not seen[b] and math.dist(points[a], points[b]) <= radius:
                    seen[b] = True
                    queue.append(b)
        comps.append(sorted(comp))
    return sorted(comps)


def test_match_same_object_two_maps():
    maps = [world_map(0, [("a", "O", 1.0, 1.0)]), world_map(1, [("a", "O", 1.05, 1.02)])]
    clusters = _cluster_records(_observations(maps), 0.2)
    assert len(clusters) == 1 and len(clusters[0]) == 2


def test_match_far_objects_separate():
    maps = [world_map(0, [("a", "O", 0.0, 0.0), ("b", "L", 5.0, 0.0)])]
    assert len(_cluster_records(_observations(maps), 0.2)) == 2


def test_match_chain_transitive_closure():
    maps = [world_map(0, [("a", "O", 0.0, 0.0)]),
            world_map(1, [("b", "O", 0.15, 0.0)]),
            world_map(2, [("c", "O", 0.30, 0.0)])]
    clusters = _cluster_records(_observations(maps), 0.2)
    assert len(clusters) == 1 and len(clusters[0]) == 3


def test_match_against_bfs_oracle():
    rng = random.Random(3)
    for _ in range(20):
        pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(1, 12))]
        maps = [world_map(i, [(f"o{i}", "X", x, y)]) for i, (x, y) in enumerate(pts)]
        radius = rng.uniform(0.1, 1.5)
        clusters = _cluster_records(_observations(maps), radius)
        got = sorted(sorted(m.step for m in c) for c in clusters)
        assert got == bfs_components(pts, radius)


def all_pairs_groups(obs, radius):
    """Brute-force reference for _cluster_records: every pair runs the same
    exact test, groups ordered by their first member, members by index."""
    parent = list(range(len(obs)))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if math.hypot(obs[i].x - obs[j].x, obs[i].y - obs[j].y) <= radius:
                parent[max(root(i), root(j))] = min(root(i), root(j))
    groups = {}
    for i in range(len(obs)):
        groups.setdefault(root(i), []).append(obs[i])
    return [groups[r] for r in sorted(groups)]


def pool_of(points):
    """Canonically ordered records, one map per point (duplicates allowed)."""
    return _observations([world_map(s, [(f"o{s}", "X", x, y)]) for s, (x, y) in enumerate(points)])


@pytest.mark.parametrize("radius", [0.1, 0.05, 0.15, 0.2, 0.3])
def test_cluster_exact_on_lattices(radius):
    # 0.1-m lattice points, negative coordinates included: neighbours sit
    # exactly (up to rounding of i * 0.1) one radius apart and many land on
    # bucket edges, where x / (2 * radius) rounds either way
    rng = random.Random(int(radius * 100))
    lattice = [(i * 0.1, j * 0.1) for i in range(-12, 13) for j in range(-12, 13)]
    for _ in range(20):
        obs = pool_of(rng.sample(lattice, rng.randint(1, 120)))
        assert _cluster_records(obs, radius) == all_pairs_groups(obs, radius)


def test_cluster_exact_across_bucket_edges():
    # pairs straddling the edges k * 2r of the buckets, at, just inside and
    # just outside the radius
    radius = 0.1
    points = []
    for k in range(-4, 5):
        edge = k * 2 * radius
        for gap in (radius, math.nextafter(radius, 0.0), math.nextafter(radius, 1.0), 0.0):
            points += [(edge - gap / 2, 0.3 * k), (edge + gap / 2, 0.3 * k)]
            points += [(0.7 * k, edge), (0.7 * k, edge + gap)]
            points += [(math.nextafter(edge, -1.0), -1.0), (edge, -1.0)]
    obs = pool_of(points)
    assert _cluster_records(obs, radius) == all_pairs_groups(obs, radius)


def test_cluster_exact_with_duplicates_and_nonfinite():
    points = [(0.0, 0.0)] * 3 + [(0.1, 0.0)] * 2 + [(-0.35, -0.35)] * 2 + [
        (math.nan, 0.0), (math.inf, 0.0), (math.inf, 0.0), (-math.inf, 1.0),
        (1e308, 0.0), (1e308, 0.0), (1e308, 0.05), (-1e308, 0.0), (0.0, 1e308)]
    obs = pool_of(points)
    got = _cluster_records(obs, 0.1)
    assert got == all_pairs_groups(obs, 0.1)
    assert sorted(len(g) for g in got) == [1] * 6 + [2, 3, 5]
    # radii whose bucket width over- or underflows the quotient
    points += [(1e-16, 0.0), (1e-16, 0.0), (2e-16, 0.0), (1e-300, 1e-300)]
    obs = pool_of(points)
    for radius in (5e-324, 1e-300, 1e307, 1e308):
        assert _cluster_records(obs, radius) == all_pairs_groups(obs, radius)


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), max_size=40),
       copies=st.integers(0, 5),
       radius=st.floats(0.01, 1.0))
def test_cluster_matches_all_pairs_property(points, copies, radius):
    points = points + points[:copies]
    obs = pool_of(points)
    assert _cluster_records(obs, radius) == all_pairs_groups(obs, radius)


def test_fuse_majority_vote():
    maps = [world_map(0, [("a", "O", 0.0, 0.0)]),
            world_map(1, [("a", "O", 0.02, 0.0)]),
            world_map(2, [("a", "L", 0.0, 0.02)])]
    out = fuse(maps)
    assert len(out.entries) == 1
    entry = out.entries[0]
    assert entry.name == "O"
    assert entry.support_count == 3
    assert entry.confidence == Confidence.CONFIRMED


def test_fuse_covered_singleton_removed():
    maps = [world_map(0, [("x", "A", 0.0, 0.0)]),
            world_map(1, [("x", "A", 0.02, 0.0), ("ghost", "B", 2.0, 2.0)]),
            world_map(2, [("x", "A", 0.0, 0.02)])]
    out = fuse(maps)
    assert [e.name for e in out.entries] == ["A"]


def test_fuse_isolated_singleton_kept_uncertain():
    near = Footprint(-1, 1, -1, 1)
    maps = [world_map(0, [("x", "A", 0.0, 0.0)], footprint=near),
            world_map(1, [("x", "A", 0.02, 0.0), ("lone", "B", 5.0, 5.0)], footprint=WIDE)]
    out = fuse(maps)
    names = {e.name: e for e in out.entries}
    assert names["B"].confidence == Confidence.UNCERTAIN
    assert names["B"].support_count == 1


def test_fuse_conflict_resolved_by_support():
    maps = [world_map(0, [("l", "L", 0.0, 0.0)]),
            world_map(1, [("l", "L", 0.02, 0.0)]),
            world_map(2, [("l", "L", 0.0, 0.02)]),
            world_map(3, [("t", "T", 0.3, 0.0)])]
    out = fuse(maps, FusionParams(merge_radius=0.1, conflict_radius=0.5))
    assert [e.name for e in out.entries] == ["L"]


def test_fuse_conflict_tie_keeps_both_uncertain():
    maps = [world_map(0, [("l", "L", 0.0, 0.0), ("t", "T", 0.3, 0.0)]),
            world_map(1, [("l", "L", 0.02, 0.0), ("t", "T", 0.3, 0.02)])]
    out = fuse(maps, FusionParams(merge_radius=0.1, conflict_radius=0.5))
    assert sorted(e.name for e in out.entries) == ["L", "T"]
    assert all(e.confidence == Confidence.UNCERTAIN for e in out.entries)


def test_fuse_name_vote_tie_lexicographic():
    maps = [world_map(0, [("x", "B", 0.0, 0.0)]),
            world_map(1, [("x", "A", 0.02, 0.0)])]
    out = fuse(maps)
    assert out.entries[0].name == "A"
    assert out.entries[0].confidence == Confidence.UNCERTAIN


def test_fuse_mean_position():
    maps = [world_map(0, [("x", "A", 0.0, 0.0)]),
            world_map(1, [("x", "A", 0.1, 0.0)])]
    out = fuse(maps)
    assert out.entries[0].x == pytest.approx(0.05)
    assert out.entries[0].y == 0.0


def test_fuse_rejects_empty():
    with pytest.raises(ValueError):
        fuse([])


def test_fuse_permutation_invariant():
    rng = random.Random(9)
    maps = [
        world_map(s, [(f"o{k}", rng.choice("ABC"),
                       rng.uniform(-3, 3), rng.uniform(-3, 3)) for k in range(4)])
        for s in range(5)
    ]
    reference = fuse(maps)
    for _ in range(10):
        shuffled = maps[:]
        rng.shuffle(shuffled)
        out = fuse(shuffled)
        assert out.entries == reference.entries


def test_no_confirmed_conflicts_property():
    rng = random.Random(10)
    params = FusionParams(merge_radius=0.15, conflict_radius=0.5)
    for _ in range(20):
        maps = [
            world_map(s, [(f"o{k}", rng.choice("ABCD"),
                           rng.uniform(-2, 2), rng.uniform(-2, 2)) for k in range(3)])
            for s in range(4)
        ]
        out = fuse(maps, params)
        confirmed = [e for e in out.entries if e.confidence == Confidence.CONFIRMED]
        for i, a in enumerate(confirmed):
            for b in confirmed[i + 1:]:
                if a.name != b.name:
                    assert math.hypot(a.x - b.x, a.y - b.y) > params.conflict_radius
        for e in confirmed:
            assert e.support_count >= 2


def test_update_empty_map_keeps_entries():
    base = fuse([world_map(0, [("x", "A", 0.0, 0.0)]),
                 world_map(1, [("x", "A", 0.02, 0.0)])])
    out = update(base, world_map(2, []))
    assert out.revision == base.revision + 1
    assert out.entries == base.entries


def test_update_idempotent_for_repeated_map():
    m = world_map(1, [("x", "A", 0.02, 0.0)])
    base = fuse([world_map(0, [("x", "A", 0.0, 0.0)]), m])
    once = update(base, m)
    twice = update(once, m)
    assert once.entries == twice.entries
    assert twice.revision == base.revision + 2


def test_update_moved_object_migrates():
    base = fuse([world_map(0, [("x", "A", 0.0, 0.0)]),
                 world_map(1, [("x", "A", 0.02, 0.0)])])
    moved1 = update(base, world_map(5, [("x", "A", 3.0, 0.0)]))
    moved2 = update(moved1, world_map(6, [("x", "A", 3.02, 0.0)]))
    assert len(moved2.entries) == 1
    assert moved2.entries[0].x == pytest.approx(3.01)


def test_entry_mean_within_member_bounds():
    maps = [world_map(s, [("x", "A", 0.1 * s, 0.05 * s)]) for s in range(3)]
    out = fuse(maps, FusionParams(merge_radius=0.5, conflict_radius=0.5))
    e = out.entries[0]
    assert 0.0 <= e.x <= 0.2 and 0.0 <= e.y <= 0.1


def test_left_sum_does_not_compensate():
    # compensated summation (built-in sum from Python 3.12) gives 1.0 here;
    # fusion must give the 3.10/3.11 bits on every interpreter
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0


def test_local_map_json_round_trip():
    obj = SemanticObject(id="l1", name="L", x=1.5, y=-2.0,
                         category=Category.LANDMARK, direction=Direction.FRONT,
                         is_obstacle_too=True, orientation=0.3, radius=0.6)
    m = LocalSemanticMap(observer_x=1.0, observer_y=2.0, altitude=2.0, cell_m=0.2,
                         footprint=Footprint(-1, 3, 0, 4), objects=(obj,),
                         step_index=7, parts={"head": (1.0, 0.0)})
    doc = json.loads(json.dumps(local_map_to_json(m)))
    back = local_map_from_json(doc)
    assert back.objects == m.objects
    assert back.footprint == m.footprint
    assert back.parts == m.parts
    assert local_map_to_json(back) == local_map_to_json(m)


def test_semantic_object_direction_invariant():
    with pytest.raises(ValueError):
        SemanticObject(id="x", name="X", x=0, y=0, direction=Direction.LEFT)
    with pytest.raises(ValueError):
        SemanticObject(id="x", name="X", x=0, y=0, category=Category.LANDMARK)


def test_grid_objects_project_through_observer():
    obj = SemanticObject(id="a", name="A", x=5.0, y=-5.0, radius=0.5)
    m = LocalSemanticMap(observer_x=1.0, observer_y=1.0, altitude=2.0, cell_m=0.2,
                         footprint=WIDE, objects=(obj,), step_index=0)
    (w,) = _observations([m])
    assert (w.x, w.y) == (2.0, 0.0)
    assert w.radius == pytest.approx(0.1)
    assert (w.step, w.oid, w.name) == (0, "a", "A")
