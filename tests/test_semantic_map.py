import json
import math
import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnav.semantic_map import (
    POOL_CAP,
    Category,
    Confidence,
    Direction,
    Footprint,
    FusionParams,
    LocalSemanticMap,
    MapEntry,
    SemanticObject,
    _circular_mean,
    _cluster_records,
    _obs_key,
    _observations,
    _vote_name,
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
    # exactly (up to rounding of i * 0.1) one radius apart, so the rounding
    # of each pair's distance decides the exact test
    rng = random.Random(int(radius * 100))
    lattice = [(i * 0.1, j * 0.1) for i in range(-12, 13) for j in range(-12, 13)]
    for _ in range(20):
        obs = pool_of(rng.sample(lattice, rng.randint(1, 120)))
        assert _cluster_records(obs, radius) == all_pairs_groups(obs, radius)


def test_cluster_exact_across_bucket_edges():
    # pairs at, just inside and just outside the radius, straddling the
    # multiples k * 2r, where a spatial index with cells 2r wide would put
    # its cell edges
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
    # subnormal and near-maximal radii, whose scaled coordinates would
    # under- or overflow in an indexed search
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
    out = update(base, [world_map(2, [])])
    assert out.revision == base.revision + 1
    assert out.entries == base.entries


def test_update_idempotent_for_repeated_map():
    m = world_map(1, [("x", "A", 0.02, 0.0)])
    base = fuse([world_map(0, [("x", "A", 0.0, 0.0)]), m])
    once = update(base, [m])
    twice = update(once, [m])
    assert once.entries == twice.entries
    assert twice.revision == base.revision + 2


@pytest.mark.parametrize("footprint, kept", [
    (Footprint(-2, 2, -2, 2), False),
    (Footprint(5, 9, 5, 9), True),
])
def test_footprint_without_pooled_observations_still_removes(footprint, kept):
    # the step-0 map saw no object, so no pooled observation carries its
    # step; its footprint alone decides rule 2 for a later singleton inside
    # it, so footprints cannot be pruned by the steps left in the pool
    base = fuse([world_map(0, [], footprint=footprint)])
    assert base.pool == ()
    out = update(base, [world_map(1, [("x", "A", 0.5, 0.5)])])
    if kept:
        assert [(e.name, e.confidence) for e in out.entries] == [("A", Confidence.UNCERTAIN)]
    else:
        assert out.entries == ()


def test_update_resolves_once_per_fold(monkeypatch):
    import agnav.semantic_map as sm

    calls = []
    resolve = sm._resolve
    monkeypatch.setattr(sm, "_resolve", lambda *a: calls.append(a) or resolve(*a))
    base = fuse([world_map(0, [("x", "A", 0.0, 0.0)])])
    out = update(base, [world_map(s, [("x", "A", 0.01 * s, 0.0)]) for s in range(1, 6)])
    assert (len(calls), out.revision) == (2, 5)  # fuse's, then the fold's
    assert update(out, []) is out
    assert len(calls) == 2


def test_update_moved_object_migrates():
    base = fuse([world_map(0, [("x", "A", 0.0, 0.0)]),
                 world_map(1, [("x", "A", 0.02, 0.0)])])
    moved1 = update(base, [world_map(5, [("x", "A", 3.0, 0.0)])])
    moved2 = update(moved1, [world_map(6, [("x", "A", 3.02, 0.0)])])
    assert len(moved2.entries) == 1
    assert moved2.entries[0].x == pytest.approx(3.01)


def test_entry_mean_within_member_bounds():
    maps = [world_map(s, [("x", "A", 0.1 * s, 0.05 * s)]) for s in range(3)]
    out = fuse(maps, FusionParams(merge_radius=0.5, conflict_radius=0.5))
    e = out.entries[0]
    assert 0.0 <= e.x <= 0.2 and 0.0 <= e.y <= 0.1


def eager_fuse_pool(pool, footprints, params):
    """Reference: the whole rule pipeline run at once on a pool, rule 1, the
    retention and rules 2-6 together. Returns (entries, retained)."""
    clusters = []
    for g in _cluster_records(pool, params.merge_radius):
        n = len(g)
        clusters.append({
            "members": g, "name": "", "uncertain": False, "removed": False,
            "support": len({m.step for m in g}), "newest": max(m.step for m in g),
            "mean": (left_sum(m.x for m in g) / n, left_sum(m.y for m in g) / n)})
    for c in clusters:  # rule 2
        if c["support"] == 1:
            x, y = c["mean"]
            step = c["members"][0].step
            if any(s != step and fp.contains(x, y) for s, fp in footprints):
                c["removed"] = True
            else:
                c["uncertain"] = True
    for c in clusters:  # rule 3
        if not c["removed"]:
            c["name"], tie = _vote_name(c["members"])
            c["uncertain"] = c["uncertain"] or tie
    by_name = {}
    for c in clusters:  # rule 4
        if not c["removed"]:
            by_name.setdefault(c["name"], []).append(c)
    for _, group in sorted(by_name.items()):
        group.sort(key=lambda c: (-c["newest"], -c["support"], c["mean"]))
        for c in group[1:]:
            c["removed"] = True
    alive = sorted((c for c in clusters if not c["removed"]),
                   key=lambda c: (-c["support"], c["name"], c["mean"]))
    for i, a in enumerate(alive):  # rule 5
        if a["removed"]:
            continue
        for b in alive[i + 1:]:
            if b["removed"] or b["name"] == a["name"]:
                continue
            if math.dist(a["mean"], b["mean"]) <= params.conflict_radius:
                if a["support"] > b["support"]:
                    b["removed"] = True
                else:
                    a["uncertain"] = b["uncertain"] = True
    entries, retained = [], []
    for c in clusters:  # retention, then rule 6
        retained.extend(sorted(c["members"], key=lambda m: (-m.step, m.oid))[:POOL_CAP])
        if c["removed"]:
            continue
        members = c["members"]
        entries.append(MapEntry(
            name=c["name"], x=c["mean"][0], y=c["mean"][1], support_count=c["support"],
            confidence=(Confidence.UNCERTAIN if c["uncertain"] or c["support"] < 2
                        else Confidence.CONFIRMED),
            radius=left_sum(m.radius for m in members) / len(members),
            orientation=_circular_mean([m.orientation for m in members])))
    entries.sort(key=lambda e: (e.name, e.x, e.y))
    retained.sort(key=_obs_key)
    return tuple(entries), tuple(retained)


def eager_chain(maps, updates, params):
    """(entries, pool, footprints) after fuse(maps) and after each update."""
    footprints = frozenset((m.step_index, m.footprint) for m in maps)
    entries, pool = eager_fuse_pool(_observations(maps), footprints, params)
    states = [(entries, pool, footprints)]
    for m in updates:
        merged = {_obs_key(o): o for o in pool}
        for o in _observations([m]):
            merged.setdefault(_obs_key(o), o)
        footprints = footprints | {(m.step_index, m.footprint)}
        entries, pool = eager_fuse_pool(sorted(merged.values(), key=_obs_key), footprints, params)
        states.append((entries, pool, footprints))
    return states


def assert_chain_matches_eager(maps, updates, params):
    """Fuse, then update one map at a time: every step must match the eager
    reference. One batched ``update`` over all of ``updates`` must reach the
    last step's map."""
    states = eager_chain(maps, updates, params)
    stepwise = fuse(maps, params)
    for k, (entries, pool, footprints) in enumerate(states):
        if k:
            stepwise = update(stepwise, [updates[k - 1]], params)
        assert repr(stepwise.entries) == repr(entries)
        assert stepwise.pool == pool
        assert stepwise.footprints == footprints
        assert stepwise.revision == k
    batched = update(fuse(maps, params), iter(updates), params)
    assert repr(batched.entries) == repr(stepwise.entries)
    assert (batched.pool, batched.footprints) == (stepwise.pool, stepwise.footprints)
    assert batched.revision == len(updates)
    assert repr(batched.find("A")) == repr(next((e for e in states[-1][0] if e.name == "A"), None))


SPOTS = [(0.0, 0.0), (0.12, 0.0), (0.4, 0.1), (-1.0, 0.8)]


@st.composite
def local_maps(draw):
    objects = []
    for _ in range(draw(st.integers(0, 4))):
        sx, sy = draw(st.sampled_from(SPOTS))
        objects.append(SemanticObject(
            id=draw(st.sampled_from("abc")), name=draw(st.sampled_from("ABC")),
            x=sx + draw(st.floats(-0.06, 0.06)), y=sy + draw(st.floats(-0.06, 0.06)),
            radius=draw(st.sampled_from([0.0, 0.1, 0.25])),
            orientation=draw(st.none() | st.floats(-3.0, 3.0))))
    x0, y0 = draw(st.floats(-2.0, 0.5)), draw(st.floats(-2.0, 0.5))
    return LocalSemanticMap(
        observer_x=draw(st.sampled_from([0.0, 0.3])), observer_y=0.0, altitude=2.0,
        cell_m=draw(st.sampled_from([1.0, 0.5])),
        footprint=Footprint(x0, x0 + draw(st.floats(0.0, 3.0)), y0, y0 + draw(st.floats(0.0, 3.0))),
        objects=tuple(objects), step_index=draw(st.integers(0, 14)))


@settings(max_examples=150, deadline=None)
@given(maps=st.lists(local_maps(), min_size=1, max_size=3),
       updates=st.lists(local_maps(), max_size=12),
       merge_radius=st.sampled_from([0.05, 0.1, 0.3]),
       conflict_radius=st.sampled_from([0.2, 0.5]))
def test_fusion_on_read_matches_eager_pipeline(maps, updates, merge_radius, conflict_radius):
    assert_chain_matches_eager(maps, updates, FusionParams(merge_radius, conflict_radius))


def test_update_keeps_the_first_record_of_an_id_repeated_in_one_map():
    # a property-test counterexample: one map reports id 'a' twice, and
    # update kept the second record where the eager reference keeps the first
    empty = LocalSemanticMap(observer_x=0.0, observer_y=0.0, altitude=2.0, cell_m=1.0,
                             footprint=Footprint(0.0, 0.0, 0.0, 0.0), objects=(), step_index=1)
    twice = replace(empty, step_index=0, objects=tuple(
        SemanticObject(id="a", name="A", x=0.0, y=0.0, radius=r) for r in (0.0, 0.1)))
    assert_chain_matches_eager([empty], [twice], FusionParams(0.05, 0.2))


def test_fusion_on_read_matches_eager_pipeline_past_the_pool_cap():
    # one spot seen far more often than POOL_CAP, with same-step repeats, so
    # the retention cut runs on both of its paths
    rng = random.Random(12)
    steps = [s // 2 for s in range(40)]
    maps = [world_map(s, [(rng.choice("ab"), rng.choice("AAB"), rng.uniform(-0.05, 0.05),
                           rng.uniform(-0.05, 0.05)), ("far", "C", 2.0 + 0.01 * s, 1.0)],
                      footprint=Footprint(-3, 3, -3, 3) if s % 3 else Footprint(1, 3, 0, 2))
            for s in steps]
    assert_chain_matches_eager(maps[:2], maps[2:], FusionParams(0.1, 0.5))
    assert max(len(g) for g in _cluster_records(_observations(maps), 0.1)) > 2 * POOL_CAP


def test_left_sum_does_not_compensate():
    # compensated summation (built-in sum from Python 3.12) gives 1.0 here;
    # fusion must give the 3.10/3.11 bits on every interpreter
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum([]) == 0


def _carry_map(step):
    """A map of the carried block, labelled main, beside a static obstacle."""
    objects = (SemanticObject(id="c", name="C", x=1.0, y=0.0, category=Category.MAIN),
               SemanticObject(id="o", name="O", x=-1.0, y=0.0, category=Category.OBSTACLE))
    return LocalSemanticMap(observer_x=0.0, observer_y=0.0, altitude=2.0, cell_m=1.0,
                            footprint=WIDE, objects=objects, step_index=step)


def test_fuse_drops_a_main_object():
    # the carried block moves with the robot: only the static scene is fused
    g = fuse([_carry_map(0), _carry_map(1)])
    assert [e.name for e in g.entries] == ["O"]
    assert {o.oid for o in g.pool} == {"o"}


def test_update_drops_a_main_object():
    g = update(fuse([world_map(0, [("o", "O", -1.0, 0.0)])]), [_carry_map(1), _carry_map(2)])
    assert [(e.name, e.support_count) for e in g.entries] == [("O", 3)]
    assert {o.oid for o in g.pool} == {"o"}


def test_local_map_json_round_trip():
    obj = SemanticObject(id="l1", name="L", x=1.5, y=-2.0,
                         category=Category.LANDMARK, direction=Direction.FRONT,
                         orientation=0.3, radius=0.6)
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
