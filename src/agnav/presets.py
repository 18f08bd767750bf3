"""Benchmark scenario builders mirroring the letter-block task families.

Type A are direct relational commands ("move X to the front side of Y"),
type B are word-assembly commands with a fixed block ("assemble OK, do not
move K"). Layouts are hand-placed so blocks stay well separated, goals stay
inside the arena, and a distractor block sits near the carry corridor in some
variants to exercise avoidance.
"""

from __future__ import annotations

import json


def base_scenario(task: str, objects: list[dict], seed: int = 0,
                  noise: dict | None = None, drop_at_step: int | None = None) -> dict:
    """The task, the scene and the hardware; every other setting is its default."""
    doc = {
        "seed": seed,
        "task": task,
        "arena": {"xmin": -2.0, "xmax": 2.0, "ymin": -2.0, "ymax": 2.0},
        "camera": {
            "altitude": 2.0,
            "horizontal_fov": 1.5707963267948966,
            "image_width": 1600,
            "grid_interval": 80,
        },
        "noise": noise or {},
        "objects": objects,
        "drone": {"x": -1.4, "y": -1.4},
        "ground_robot": {"x": -1.4, "y": -1.4, "heading": 0.0, "radius": 0.25},
    }
    if drop_at_step is not None:
        doc["execution"] = {"drop_at_step": drop_at_step}
    return doc


def _block(name: str, x: float, y: float, yaw: float = 0.0) -> dict:
    return {"name": name, "x": x, "y": y, "yaw": yaw, "radius": 0.12, "movable": True}


# (carried, landmark, direction, carried pos, landmark pos, extra blocks)
_TYPE_A_LAYOUTS = [
    ("L", "O", "front", (-0.6, -0.8), (0.8, 0.6), []),
    ("B", "E", "left", (0.9, -0.7), (-0.7, 0.9), []),
    ("I", "U", "back", (-0.9, 0.8), (0.9, -0.6), []),
    ("K", "O", "right", (0.6, 0.9), (-0.8, -0.5), []),
    ("T", "L", "front", (-1.0, 0.2), (1.0, 0.2), []),
    ("L", "O", "back", (-0.5, -1.0), (0.6, 1.0), [("V", (0.1, 0.0))]),
    ("E", "B", "left", (1.0, 0.4), (-0.9, -0.8), [("C", (0.0, -0.3))]),
    ("U", "I", "front", (-0.8, -0.3), (0.8, -1.0), [("W", (0.1, -0.8))]),
    ("O", "K", "right", (0.2, 1.0), (0.2, -1.0), [("V", (0.3, 0.0))]),
    ("L", "T", "back", (1.0, 1.0), (-1.0, -1.0), [("C", (0.1, 0.1))]),
]


def type_a_scenario(index: int, seed: int = 0, noise: dict | None = None,
                    drop_at_step: int | None = None) -> dict:
    carried, landmark, direction, cpos, lpos, extras = _TYPE_A_LAYOUTS[index % len(_TYPE_A_LAYOUTS)]
    objects = [_block(carried, *cpos), _block(landmark, *lpos)]
    for name, pos in extras:
        objects.append(_block(name, *pos))
    task = f"move {carried} to {direction} of {landmark}"
    return base_scenario(task, objects, seed=seed, noise=noise, drop_at_step=drop_at_step)


# (word, fixed letter, block placements)
_TYPE_B_LAYOUTS = [
    ("OK", "K", {"O": (-0.8, 0.3), "K": (0.9, -0.2)}),
    ("BE", "B", {"B": (-0.5, -0.9), "E": (0.8, 0.8)}),
    ("UP", "U", {"U": (-0.2, 0.9), "P": (1.0, -0.9)}),
]


def type_b_scenario(index: int, seed: int = 0, noise: dict | None = None) -> dict:
    word, fixed, placements = _TYPE_B_LAYOUTS[index % len(_TYPE_B_LAYOUTS)]
    objects = [_block(name, *pos) for name, pos in sorted(placements.items())]
    task = f"assemble {word}, do not move {fixed}"
    return base_scenario(task, objects, seed=seed, noise=noise)


def acceptance_type_a_suite() -> list[dict]:
    """The ten noiseless direct-command scenarios."""
    return [type_a_scenario(i, seed=i) for i in range(10)]


NOISE_CALIBRATED = {
    "position_sigma": 0.15,
    "misclassify_prob": 0.05,
    "orientation_sigma": 0.05,
}


def noise_batch_suite() -> list[dict]:
    """Five noise-calibrated scenarios (three type A, two type B); run over
    five seeds each for the 25-run benchmark batch."""
    out = [type_a_scenario(i, noise=dict(NOISE_CALIBRATED)) for i in range(3)]
    out.extend(type_b_scenario(i, noise=dict(NOISE_CALIBRATED)) for i in range(2))
    return out


def heldout_suite() -> list[dict]:
    """Every type-A and type-B layout under the calibrated noise (13
    scenarios); run over seeds 0-9 for the held-out report."""
    out = [type_a_scenario(i, noise=dict(NOISE_CALIBRATED)) for i in range(len(_TYPE_A_LAYOUTS))]
    out.extend(type_b_scenario(i, noise=dict(NOISE_CALIBRATED))
               for i in range(len(_TYPE_B_LAYOUTS)))
    return out


def write_scenarios(scenarios: list[dict], directory) -> list[str]:
    import os

    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, doc in enumerate(scenarios):
        p = os.path.join(directory, f"scenario_{i:02d}.json")
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        paths.append(p)
    return paths
