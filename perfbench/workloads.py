"""Seeded input generators for the three benchmark workloads.

Each generator is a pure function of the benchmark seed: the same seed gives
byte-identical scenario documents and planner inputs, and the program under
test only ever sees those generated inputs.

- ``suite``: the fixed 35-mission acceptance traffic (10 noiseless type-A
  runs plus the 5 noise-calibrated scenarios over seeds 0-4). It has no
  seeded part; the seed is accepted and ignored.
- ``navigate``: ``move_to (x, y)`` missions in a block-strewn arena. Every
  block sits at least ``NAV_CLEARANCE`` m from the start-goal chord, so each
  leg is a single clear-corridor descent and the per-tick layers (perception,
  local planning, map fusion) carry the load. Scenes are filtered by that
  geometric rule alone, never by how a mission turns out.
- ``plan_global``: bare global-planner inputs built like the planner tests'
  seeded scenes: goal 7-9 cells away, 1-3 obstacles near the chord. The
  obstacle count is stratified (scene i has 1 + i % 3) rather than drawn,
  because it is the largest input-side driver of plan time: an equal share
  of each count narrows how much one seed's pass costs against another's.
"""

from __future__ import annotations

import math
import random

NAV_MISSIONS = 40          # missions per navigate pass
NAV_BLOCKS = 6             # blocks per navigate scene
NAV_CLEARANCE = 0.9        # m, minimum block distance from the start-goal chord
NAV_CHORD = 1.6            # m, start-goal distance (fixed so missions cost alike)
NAV_BLOCK_GAP = 0.5        # m, minimum distance between two blocks
NAV_LETTERS = "ABCDEFHKLOPTUVW"

PLAN_SCENES = 36           # optimize calls per plan_global pass (a multiple of 3)
PLAN_N_CONTROLS = 6
PLAN_D_SAFE = 1.2          # cells

NOISE_CALIBRATED = {"position_sigma": 0.15, "misclassify_prob": 0.05,
                    "orientation_sigma": 0.05}


def suite_missions() -> list[tuple[str, dict, int | None]]:
    """(mission id, scenario document, seed override) for the 35-run suite.

    The order interleaves the families: each block of seven holds two
    noiseless runs and one seed of every noisy scenario. Missions of like
    cost are then spread over the pass, so a slow spell of the host does not
    land on one family and skew the per-mission median.
    """
    from agnav.presets import noise_batch_suite, type_a_scenario

    noisy = noise_batch_suite()
    out = []
    for s in range(5):
        out.extend((f"noiseless/{i}", type_a_scenario(i, seed=i), None)
                   for i in (2 * s, 2 * s + 1))
        out.extend((f"noisy/{si}/seed{s}", doc, s) for si, doc in enumerate(noisy))
    return out


def segment_distance(p, a, b) -> float:
    """Distance from point p to the segment a-b."""
    vx, vy = b[0] - a[0], b[1] - a[1]
    wx, wy = p[0] - a[0], p[1] - a[1]
    t = max(0.0, min(1.0, (wx * vx + wy * vy) / (vx * vx + vy * vy)))
    return math.hypot(wx - t * vx, wy - t * vy)


def navigate_doc(rng: random.Random, seed: int) -> dict:
    """One navigate scenario: a fixed-length chord and blocks clear of it."""
    while True:
        sx, sy = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        ang = rng.uniform(-math.pi, math.pi)
        gx = round(sx + NAV_CHORD * math.cos(ang), 2)
        gy = round(sy + NAV_CHORD * math.sin(ang), 2)
        sx, sy = round(sx, 2), round(sy, 2)
        if max(abs(gx), abs(gy)) <= 1.5:
            break
    letters = rng.sample(NAV_LETTERS, NAV_BLOCKS)
    blocks: list[tuple[float, float]] = []
    while len(blocks) < NAV_BLOCKS:
        p = (round(rng.uniform(-1.8, 1.8), 3), round(rng.uniform(-1.8, 1.8), 3))
        if segment_distance(p, (sx, sy), (gx, gy)) < NAV_CLEARANCE:
            continue
        if any(math.hypot(p[0] - q[0], p[1] - q[1]) < NAV_BLOCK_GAP for q in blocks):
            continue
        blocks.append(p)
    objects = [
        {"name": name, "x": x, "y": y, "yaw": round(rng.uniform(-math.pi, math.pi), 3),
         "radius": 0.12, "movable": True}
        for name, (x, y) in zip(letters, blocks)
    ]
    heading = round(rng.uniform(-math.pi, math.pi), 3)
    return {
        "seed": seed,
        "task": f"move_to ({gx:.2f}, {gy:.2f})",
        "arena": {"xmin": -2.0, "xmax": 2.0, "ymin": -2.0, "ymax": 2.0},
        "camera": {"altitude": 2.0, "horizontal_fov": math.pi / 2.0,
                   "image_width": 1600, "grid_interval": 80},
        "noise": dict(NOISE_CALIBRATED),
        "objects": objects,
        "drone": {"x": sx, "y": sy, "altitude": 2.0},
        "ground_robot": {"x": sx, "y": sy, "heading": heading, "radius": 0.25},
        "sim": {"drone_speed": 0.04, "ground_step": 0.02, "rotate_rate": 0.2,
                "follow_radius": 1.0, "attach_range": 0.15, "attach_angle_tol": 0.15,
                "carry_radius": 0.2, "head_offset": 0.4},
        "global_weights": {"q_length": 1.0, "q_curvature": 5.0, "q_obstacle": 50.0,
                           "d_safe": 2.5, "sample_count": 64},
        "local_weights": {"q_align": 1.0, "q_zero": 0.5, "q_obstacle": 2.0,
                          "q_window": 1.0, "beta": 5.0, "d_safe": 1.2,
                          "epsilon": 1e-6, "lookahead": 5.0,
                          "window_half_extent": 10.0, "candidate_count": 36},
        "fusion": {"merge_radius": 0.1, "conflict_radius": 0.3},
        "execution": {"dist_stop": 0.45, "angle_tol": 0.1, "relation_clearance": 0.55,
                      "n_controls": 6, "step_budget": 4000, "map_update_every": 1,
                      "success_radius": 0.2},
    }


def navigate_missions(seed: int) -> list[tuple[str, dict, int | None]]:
    out = []
    for i in range(NAV_MISSIONS):
        rng = random.Random(f"navigate/{seed}/{i}")
        out.append((f"navigate/{seed}/{i}", navigate_doc(rng, seed * NAV_MISSIONS + i), None))
    return out


def plan_scene(scene_seed: int, n_obstacles: int):
    """(start, goal, obstacle pairs) in cells; the planner tests' seeded_scene
    with the obstacle count given instead of drawn."""
    rng = random.Random(scene_seed)
    start = (rng.uniform(-1, 1), rng.uniform(-1, 1))
    goal = (rng.uniform(7, 9), rng.uniform(-1, 1))
    obstacles = []
    for _ in range(n_obstacles):
        t = rng.uniform(0.25, 0.75)
        ox = start[0] + t * (goal[0] - start[0]) + rng.uniform(-0.5, 0.5)
        oy = start[1] + t * (goal[1] - start[1]) + rng.uniform(-0.4, 0.4)
        obstacles.append(((ox, oy), rng.uniform(0.0, 0.3)))
    return start, goal, obstacles


def plan_scenes(seed: int) -> list[tuple[str, tuple]]:
    """Scene seeds seed*PLAN_SCENES .. +PLAN_SCENES-1, so no two seeds share a
    scene; scene i has 1 + i % 3 obstacles."""
    return [(f"plan/{seed * PLAN_SCENES + i}", plan_scene(seed * PLAN_SCENES + i, 1 + i % 3))
            for i in range(PLAN_SCENES)]
