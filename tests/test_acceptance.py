"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figure and runtime budget."""

import json
import math
import random
import time

import numpy as np

from agnav.global_planner import (
    GlobalCostWeights,
    ObstacleSet,
    cost_global,
    optimize,
    straight_line_init,
)
from agnav.gridmask import CameraModel, grid_to_world, ground_scale, world_to_grid
from agnav.local_planner import BlockedError, LocalCostWeights, select_direction
from agnav.mission import parse_command, plan_word_assembly
from agnav.presets import noise_batch_suite, type_a_scenario
from agnav.scenario import run_scenario
from agnav.semantic_map import (
    Confidence,
    FusionParams,
    GlobalSemanticMap,
    MapEntry,
    fuse,
)
from agnav.spline import basis_matrix, evaluate, make_clamped_uniform, sample

from test_global_planner import brute_force_cost, seeded_scene
from test_local_planner import naive_argmin, random_obs
from test_semantic_map import world_map


def report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_spline_identities():
    t0 = time.perf_counter()
    rng = random.Random(100)
    worst_pu, worst_end, worst_hull = 0.0, 0.0, -math.inf
    from scipy.spatial import ConvexHull

    for _ in range(20):
        n = rng.randint(4, 9)
        pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n)]
        path = make_clamped_uniform(pts, 3)
        us = [rng.random() for _ in range(50)]
        B = basis_matrix(path.knots, path.degree, us)
        assert np.all(B >= 0)
        worst_pu = max(worst_pu, float(np.abs(B.sum(axis=1) - 1.0).max()))
        worst_end = max(
            worst_end,
            float(np.abs(evaluate(path, 0.0) - path.control_points[0]).max()),
            float(np.abs(evaluate(path, 1.0) - path.control_points[-1]).max()),
        )
        hull = ConvexHull(path.control_points)
        evals = B @ path.control_points
        margins = evals @ hull.equations[:, :2].T + hull.equations[:, 2][None, :]
        worst_hull = max(worst_hull, float(margins.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_pu < 1e-9 and worst_end < 1e-12 and worst_hull < 1e-9
    report("criterion 1 spline identities", ok,
           f"partition {worst_pu:.2e}, endpoints {worst_end:.2e}, hull {worst_hull:.2e}",
           elapsed, 1.0)


def test_criterion_2_gridmask_closed_forms():
    t0 = time.perf_counter()
    scale = ground_scale(CameraModel(2.0, math.pi / 2, 1600, 80))
    ok = (scale.n_grid == 20
          and abs(scale.width_real - 4.0) < 1e-12
          and abs(scale.cell_m - 0.2) < 1e-12)
    rng = random.Random(101)
    worst = 0.0
    for _ in range(1000):
        p = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        q = grid_to_world(scale.cell_m, world_to_grid(scale.cell_m, p))
        worst = max(worst, abs(q[0] - p[0]), abs(q[1] - p[1]))
    ok = ok and worst < 1e-12
    report("criterion 2 gridmask closed forms", ok,
           f"n={scale.n_grid} W={scale.width_real} cell={scale.cell_m} "
           f"round-trip {worst:.2e}", time.perf_counter() - t0, 5.0)


def test_criterion_3_global_cost_oracle():
    t0 = time.perf_counter()
    rng = random.Random(102)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(4, 8)
        pts = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(n)]
        path = make_clamped_uniform(pts, 3)
        weights = GlobalCostWeights(
            q_length=rng.uniform(0.1, 2.0), q_curvature=rng.uniform(0.1, 9.0),
            q_obstacle=rng.uniform(1.0, 90.0), d_safe=rng.uniform(0.5, 2.5))
        obstacles = ObstacleSet.from_pairs([
            (((rng.uniform(-8, 8), rng.uniform(-8, 8))), rng.uniform(0, 1.0))
            for _ in range(rng.randint(0, 4))])
        bd = cost_global(path, weights, obstacles)
        _, _, _, total = brute_force_cost(path, weights, obstacles)
        worst = max(worst, abs(bd.total - total))

    weights = GlobalCostWeights(d_safe=1.2)
    descents_ok = True
    improved = 0
    for seed in range(20):
        start, goal, obstacles = seeded_scene(seed)
        init, _ = straight_line_init(start, goal, 6)
        init_cost = cost_global(make_clamped_uniform(init, 3), weights, obstacles)
        res = optimize(init, weights, obstacles)
        hist = res.cost_history
        descents_ok &= all(a >= b for a, b in zip(hist, hist[1:]))
        descents_ok &= hist[-1] <= init_cost.total + 1e-12
        if init_cost.obstacle > 1e-9:
            improved += 1
            descents_ok &= hist[-1] < init_cost.total

    w_mid = GlobalCostWeights(d_safe=1.0)
    clearance = math.inf
    for span, radius in ((8.0, 0.3), (6.0, 0.0), (10.0, 0.5)):
        init, _ = straight_line_init((0, 0), (span, 0), 6)
        mid = (span / 2.0, 0.0)
        res = optimize(init, w_mid, ObstacleSet.from_pairs([(mid, radius)]))
        dense = sample(res.path, 512)
        clearance = min(clearance, float(
            (np.hypot(dense[:, 0] - mid[0], dense[:, 1] - mid[1]) - radius).min()))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and descents_ok and clearance >= 0.95 * w_mid.d_safe
    report("criterion 3 global cost oracle", ok,
           f"oracle gap {worst:.2e}, 20/20 monotone descents "
           f"({improved} with violations improved), worst midpoint clearance {clearance:.3f}",
           elapsed, 30.0)


def test_criterion_4_local_argmin_oracle():
    t0 = time.perf_counter()
    rng = random.Random(103)
    w = LocalCostWeights()
    mismatches = 0
    for _ in range(1000):
        obs = random_obs(rng)
        try:
            got = select_direction(obs, w).index
        except BlockedError:
            got = None
        if got != naive_argmin(obs, w):
            mismatches += 1
    w10 = LocalCostWeights(q_align=10.0, q_zero=5.0, q_obstacle=20.0, q_window=10.0)
    scale_breaks = 0
    for _ in range(200):
        obs = random_obs(rng)
        try:
            a = select_direction(obs, w).index
            b = select_direction(obs, w10).index
        except BlockedError:
            continue
        if a != b:
            scale_breaks += 1
    window_ok = True
    for _ in range(200):
        obs = random_obs(rng)
        try:
            choice = select_direction(obs, w)
        except BlockedError:
            continue
        window_ok &= not math.isinf(choice.table[choice.index].cost.window)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and scale_breaks == 0 and window_ok
    report("criterion 4 local argmin oracle", ok,
           f"{mismatches}/1000 oracle mismatches, {scale_breaks}/200 scale breaks",
           elapsed, 5.0)


def test_criterion_5_fusion_rules():
    t0 = time.perf_counter()
    vote = fuse([world_map(0, [("a", "O", 0.0, 0.0)]),
                 world_map(1, [("a", "O", 0.02, 0.0)]),
                 world_map(2, [("a", "L", 0.0, 0.02)])])
    vote_ok = (len(vote.entries) == 1 and vote.entries[0].name == "O"
               and vote.entries[0].support_count == 3
               and vote.entries[0].confidence == Confidence.CONFIRMED)

    singleton = fuse([world_map(0, [("x", "A", 0.0, 0.0)]),
                      world_map(1, [("x", "A", 0.02, 0.0), ("ghost", "B", 2.0, 2.0)]),
                      world_map(2, [("x", "A", 0.0, 0.02)])])
    singleton_ok = [e.name for e in singleton.entries] == ["A"]

    conflict = fuse([world_map(0, [("l", "L", 0.0, 0.0)]),
                     world_map(1, [("l", "L", 0.02, 0.0)]),
                     world_map(2, [("l", "L", 0.0, 0.02)]),
                     world_map(3, [("t", "T", 0.3, 0.0)])],
                    FusionParams(merge_radius=0.1, conflict_radius=0.5))
    conflict_ok = [e.name for e in conflict.entries] == ["L"]

    rng = random.Random(104)
    maps = [world_map(s, [(f"o{k}", rng.choice("ABC"),
                           rng.uniform(-3, 3), rng.uniform(-3, 3)) for k in range(4)])
            for s in range(5)]
    reference = fuse(maps)
    perm_ok = True
    for _ in range(10):
        shuffled = maps[:]
        rng.shuffle(shuffled)
        perm_ok &= fuse(shuffled).entries == reference.entries

    elapsed = time.perf_counter() - t0
    ok = vote_ok and singleton_ok and conflict_ok and perm_ok
    report("criterion 5 fusion rules", ok,
           f"vote {vote_ok}, singleton {singleton_ok}, conflict {conflict_ok}, "
           f"permutation {perm_ok}", elapsed, 1.0)


def test_criterion_6_noiseless_type_a():
    t0 = time.perf_counter()
    successes, collisions, worst_err = 0, 0, 0.0
    for i in range(10):
        _, res = run_scenario(type_a_scenario(i, seed=i))
        successes += int(res.success)
        collisions += res.collisions
        errors = [p["error_m"] for p in res.placements if not p["approach"]]
        cell = 0.2
        worst_err = max(worst_err, max(errors, default=math.inf) / cell)
    elapsed = time.perf_counter() - t0
    ok = successes == 10 and collisions == 0 and worst_err < 0.5
    report("criterion 6 noiseless type A", ok,
           f"{successes}/10 success, {collisions} collisions, "
           f"worst placement {worst_err:.3f} cells", elapsed, 30.0)


def test_criterion_7_noise_calibrated_batch():
    t0 = time.perf_counter()
    results = []
    for doc in noise_batch_suite():
        for seed in range(5):
            _, res = run_scenario(doc, seed)
            results.append((res.success, res.collisions))
    rate = sum(1 for s, _ in results if s) / len(results)
    mean_collisions = sum(c for _, c in results) / len(results)
    elapsed = time.perf_counter() - t0
    ok = len(results) == 25 and rate >= 0.80 - 0.15 and mean_collisions <= 1.0
    report("criterion 7 noise-calibrated batch", ok,
           f"completion {rate:.2f} (needs >= 0.65), "
           f"mean collisions {mean_collisions:.2f} (needs <= 1.0)", elapsed, 120.0)


def test_criterion_8_word_assembly():
    t0 = time.perf_counter()
    command = parse_command("assemble OK, do not move K")
    gm = GlobalSemanticMap(entries=(
        MapEntry("O", -0.8, 0.3, 4, Confidence.CONFIRMED),
        MapEntry("K", 1.0, 0.0, 4, Confidence.CONFIRMED),
    ))
    goals = plan_word_assembly(command.word, gm, command.fixed, pitch=0.4)
    single_ok = (len(goals) == 1 and goals[0][0] == "O"
                 and abs(goals[0][1].x - 0.6) < 1e-12
                 and abs(goals[0][1].y - 0.0) < 1e-12)
    # reading order: the free letter lands on the correct side of the fixed one
    side_ok = goals[0][1].x < 1.0

    infeasible = GlobalSemanticMap(entries=(
        MapEntry("L", 0.0, 0.0, 4, Confidence.CONFIRMED),
        MapEntry("O", 1.0, 1.0, 4, Confidence.CONFIRMED),
        MapEntry("V", 10.0, 0.0, 4, Confidence.CONFIRMED),
        MapEntry("E", 2.0, -1.0, 4, Confidence.CONFIRMED),
    ))
    try:
        plan_word_assembly("LOVE", infeasible, {"L", "V"}, pitch=0.4)
        reject_ok = False
    except Exception:
        reject_ok = True
    elapsed = time.perf_counter() - t0
    ok = single_ok and side_ok and reject_ok
    report("criterion 8 word assembly", ok,
           f"single goal {single_ok}, reading order {side_ok}, infeasible rejected {reject_ok}",
           elapsed, 5.0)


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    doc = type_a_scenario(1, seed=11)
    outputs = []
    for _ in range(2):
        scen, res = run_scenario(doc)
        trace_bytes = "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in res.trace).encode()
        summary = res.summary()
        outputs.append((trace_bytes, json.dumps(summary, sort_keys=True),
                        scen.config_hash))
    elapsed = time.perf_counter() - t0
    ok = (outputs[0][0] == outputs[1][0]
          and outputs[0][1] == outputs[1][1]
          and outputs[0][2] == outputs[1][2])
    report("criterion 9 determinism", ok,
           f"trace bytes equal {outputs[0][0] == outputs[1][0]}, "
           f"summaries equal {outputs[0][1] == outputs[1][1]}", elapsed, 60.0)
