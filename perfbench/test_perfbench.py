"""Tests of the benchmark's own code: seeded generators, tail rule, tracer.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def canonical(items) -> bytes:
    return json.dumps(items, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("make", [workloads.navigate_missions, workloads.plan_scenes])
def test_same_seed_gives_identical_inputs(make):
    assert canonical(make(3)) == canonical(make(3))
    assert canonical(make(3)) != canonical(make(4))


def test_suite_is_the_fixed_35_missions():
    missions = workloads.suite_missions()
    assert len(missions) == 35
    assert canonical(missions) == canonical(workloads.suite_missions())
    ids = [m[0] for m in missions]
    assert len(set(ids)) == 35
    assert {i for i in ids if i.startswith("noiseless/")} == {f"noiseless/{i}" for i in range(10)}
    assert "noisy/4/seed0" in ids


@pytest.mark.parametrize("seed", range(5))
def test_navigate_scenes_keep_corridor_clearance(seed):
    from agnav.scenario import load_scenario

    for _, doc, _ in workloads.navigate_missions(seed):
        m = re.fullmatch(r"move_to \((-?[\d.]+), (-?[\d.]+)\)", doc["task"])
        goal = (float(m.group(1)), float(m.group(2)))
        start = (doc["ground_robot"]["x"], doc["ground_robot"]["y"])
        assert math.hypot(goal[0] - start[0], goal[1] - start[1]) == pytest.approx(
            workloads.NAV_CHORD, abs=0.02)
        blocks = [(o["x"], o["y"]) for o in doc["objects"]]
        assert len(blocks) == workloads.NAV_BLOCKS
        for p in blocks:
            assert workloads.segment_distance(p, start, goal) >= workloads.NAV_CLEARANCE
        load_scenario(doc)  # the program accepts the generated document


def test_plan_scenes_stratify_the_obstacle_count():
    counts = [len(pairs) for _, (_, _, pairs) in workloads.plan_scenes(5)]
    assert counts == [1 + i % 3 for i in range(workloads.PLAN_SCENES)]
    assert workloads.PLAN_SCENES % 3 == 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail_of(range(35)) == (24, 71, 35)
    assert run.tail_of(range(40)) == (29, 75, 40)
    assert run.tail_of([3.0, 1.0]) == (3.0, 100, 2)


def test_wrapper_passes_values_and_exceptions_through():
    tracer = Tracer()
    marker = object()

    def outer(x, *, y):
        return inner(x), y

    inner = tracer.wrap("inner", lambda x: x)
    outer = tracer.wrap("outer", outer)
    assert outer(marker, y=2) == (marker, 2)
    err = KeyError("k")

    def raise_it():
        raise err

    with pytest.raises(KeyError) as caught:
        tracer.wrap("raise_it", raise_it)()
    assert caught.value is err
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "raise_it"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.spans[2][6] == "KeyError"
    own = tracer.self_times()
    outer_span, inner_span = tracer.spans[0], tracer.spans[1]
    assert own[0] == pytest.approx(
        (outer_span[2] - outer_span[1]) - (inner_span[2] - inner_span[1]))


def test_install_replaces_and_restores_names():
    import agnav.mission
    import agnav.sim_world

    originals = (agnav.mission.optimize, agnav.sim_world.rotation_direction)
    tracer = Tracer()
    undo = tracer.install()
    try:
        assert agnav.mission.optimize is not originals[0]
        assert agnav.mission.optimize.__wrapped__ is originals[0]
        assert agnav.sim_world.rotation_direction.__wrapped__ is originals[1]
    finally:
        Tracer.uninstall(undo)
    assert (agnav.mission.optimize, agnav.sim_world.rotation_direction) == originals
