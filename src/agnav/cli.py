"""Command-line entry points.

Subcommands: run-scenario, batch, plan-global, plan-local-step, fuse,
gridmask-svg. Exit codes: 0 success, 1 usage/config error, 2 task failure.
Every output file is written to a temp path and atomically renamed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .gridmask import GridSpec, render_gridmask_svg
from .local_planner import (
    BlockedError,
    LocalCostWeights,
    LocalObservation,
    StepThresholds,
    select_direction,
    step_decision,
)
from .mission import CommandError, GoalError, parse_command, plan_leg
from .plotting import render_run_svg
from .scenario import ScenarioError, _build, load_scenario, read_scenario_file, run_scenario
from .semantic_map import (
    Confidence,
    FusionParams,
    GlobalSemanticMap,
    MapEntry,
    dump_global_map,
    fuse,
    local_map_from_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TASK = 2


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-agnav-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trace_text(trace: list) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in trace)


def cmd_run_scenario(args) -> int:
    try:
        scen, result = run_scenario(read_scenario_file(args.file), args.seed)
    except (ScenarioError, CommandError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    summary = result.summary()
    summary["config_hash"] = scen.config_hash
    summary["wall_time"] = result.wall_time
    _atomic_write(args.trace, _trace_text(result.trace))
    _atomic_write(args.summary, json.dumps(summary, sort_keys=True, indent=1) + "\n")
    plot_path = args.plot or os.path.splitext(args.summary)[0] + ".svg"
    _atomic_write(plot_path, render_run_svg(
        scen.config.arena, scen.world.objects, result.global_paths, result.track))
    print(f"success={summary['success']} collisions={summary['collisions']} "
          f"steps={summary['steps']}")
    return EXIT_OK if summary["success"] else EXIT_TASK


def cmd_batch(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [None]
    except ValueError:
        print(f"error: --seeds: expected comma-separated integers, got {args.seeds!r}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        files = sorted(
            os.path.join(args.scenarios, f)
            for f in os.listdir(args.scenarios)
            if f.endswith(".json")
        )
    except OSError as e:
        print(f"error: {args.scenarios}: cannot list ({e.strerror})", file=sys.stderr)
        return EXIT_CONFIG
    if not files:
        print("error: no scenario files found", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    for path in files:
        try:
            doc = read_scenario_file(path)
        except ScenarioError as e:  # its message starts with the path
            print(f"error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        for seed in seeds:
            try:
                scen, result = run_scenario(doc, seed)
            except (ScenarioError, CommandError) as e:
                print(f"error: {path}: {e}", file=sys.stderr)
                return EXIT_CONFIG
            errors = [p["error_m"] for p in result.placements if not p["approach"]]
            rows.append((os.path.basename(path), scen.config_hash[:12],
                         int(result.success), result.collisions, result.steps,
                         max(errors, default="")))
    lines = ["scenario,config,success,collisions,steps,placement_err_m"]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    mean_success = sum(r[2] for r in rows) / len(rows)
    mean_coll = sum(r[3] for r in rows) / len(rows)
    lines.append(f"aggregate,,{mean_success},{mean_coll},{sum(r[4] for r in rows)},")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"runs={len(rows)} success_rate={mean_success} mean_collisions={mean_coll}")
    return EXIT_OK


def cmd_plan_global(args) -> int:
    """The aerial leg the executor would fly for the task's movement goal,
    planned on a map of the scenario's ground-truth objects: for a carry
    task, the transport leg from the carried object."""
    try:
        scen = load_scenario(read_scenario_file(args.scenario))
        command = parse_command(scen.task, scen.relation_clearance)
        goal = getattr(command, "goal", None)
        if goal is None:
            raise CommandError("task has no single movement goal to plan")
        ids = {o.name: o.id for o in scen.world.objects}
        carried = getattr(command, "name", None)
        if carried is not None and carried not in ids:
            raise CommandError(f"carried object {carried!r} not in scenario")
        truth = GlobalSemanticMap(tuple(
            MapEntry(o.name, o.x, o.y, 1, Confidence.CONFIRMED, o.radius, o.yaw)
            for o in scen.world.objects))
        leg = plan_leg(scen.world, truth, scen.config, goal, ids.get(carried), carried)
    except (ScenarioError, CommandError, GoalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    result = leg.result
    doc = {
        "already_at_goal": result.already_at_goal,
        "control_points": result.path.control_points.tolist(),
        "degree": result.path.degree,
        "knots": result.path.knots.tolist(),
        "polyline_world": [list(p) for p in leg.waypoints],
        "cost": {
            "length": result.breakdown.length,
            "curvature": result.breakdown.curvature,
            "obstacle": result.breakdown.obstacle,
            "total": result.breakdown.total,
        },
        "converged": result.converged,
        "iterations": len(result.cost_history) - 1,
    }
    _atomic_write(args.out, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    print(f"cost={result.breakdown.total} converged={result.converged}")
    return EXIT_OK


def _finite_point(doc, path: str, fields=("x", "y")) -> tuple:
    if not (isinstance(doc, list) and len(doc) == len(fields) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in doc)):
        raise ValueError(f"{path}: expected [{', '.join(fields)}] of finite numbers, "
                         f"got {json.dumps(doc)}")
    return tuple(float(v) for v in doc)


def _observation_from_json(doc) -> LocalObservation:
    """A local observation from its JSON document; every point must be two
    finite numbers and every obstacle [x, y, r] with a non-negative r."""
    if not isinstance(doc, dict):
        raise ValueError("$: expected object")
    parts, obstacles = doc.get("parts"), doc.get("obstacles", [])
    if not isinstance(parts, dict):
        raise ValueError("$.parts: expected object with head, body and tail")
    if not isinstance(obstacles, list):
        raise ValueError("$.obstacles: expected list")
    pairs = []
    for i, o in enumerate(obstacles):
        x, y, r = _finite_point(o, f"$.obstacles[{i}]", ("x", "y", "r"))
        if r < 0.0:
            raise ValueError(f"$.obstacles[{i}]: radius must be non-negative, got {r}")
        pairs.append(((x, y), r))
    target = doc.get("target")
    return LocalObservation(
        main=_finite_point(doc.get("main"), "$.main"),
        target=None if target is None else _finite_point(target, "$.target"),
        obstacles=tuple(pairs),
        head=_finite_point(parts.get("head"), "$.parts.head"),
        tail=_finite_point(parts.get("tail"), "$.parts.tail"),
        body=_finite_point(parts.get("body"), "$.parts.body"),
    )


def cmd_plan_local_step(args) -> int:
    try:
        with open(args.observation, "r", encoding="utf-8") as fh:
            obs = _observation_from_json(json.load(fh))
        weights = LocalCostWeights()
        if args.weights:
            with open(args.weights, "r", encoding="utf-8") as fh:
                weights = _build(LocalCostWeights, json.load(fh), "$")
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        choice = select_direction(obs, weights)
    except BlockedError as e:
        print(f"error: blocked: {e}", file=sys.stderr)
        return EXIT_TASK
    print("theta_deg,align,zero,obstacle,window,total,chosen")
    for cand in choice.table:
        mark = "*" if cand.index == choice.index else ""
        c = cand.cost
        print(f"{math.degrees(cand.theta):.1f},{c.align:.6g},{c.zero:.6g},"
              f"{c.obstacle:.6g},{c.window:.6g},{c.total:.6g},{mark}")
    cmd = step_decision(obs, choice.theta, StepThresholds())
    print(f"command={cmd.kind.value} theta_star_deg={math.degrees(choice.theta):.1f}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    try:
        files = sorted(
            os.path.join(args.maps, f)
            for f in os.listdir(args.maps)
            if f.endswith(".json")
        )
        maps = []
        for path in files:
            with open(path, "r", encoding="utf-8") as fh:
                maps.append(local_map_from_json(json.load(fh)))
        if not maps:
            raise ValueError("no local map files found")
        params = FusionParams(merge_radius=args.merge_radius,
                              conflict_radius=args.conflict_radius)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    global_map = fuse(maps, params)
    _atomic_write(args.out, dump_global_map(global_map) + "\n")
    print(f"entries={len(global_map.entries)}")
    return EXIT_OK


def cmd_gridmask_svg(args) -> int:
    try:
        spec = GridSpec(args.width, args.height, args.cell)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    _atomic_write(args.out, render_gridmask_svg(spec))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="agnav", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("run-scenario", help="run one scenario end to end")
    s.add_argument("--file", required=True)
    s.add_argument("--trace", required=True)
    s.add_argument("--summary", required=True)
    s.add_argument("--plot", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_run_scenario)

    s = sub.add_parser("batch", help="run a scenario directory over seeds, emit CSV")
    s.add_argument("--scenarios", required=True)
    s.add_argument("--seeds", default=None, help="comma-separated seed list")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_batch)

    s = sub.add_parser("plan-global",
                       help="plan the aerial leg the executor would fly for a scenario's task")
    s.add_argument("--scenario", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_plan_global)

    s = sub.add_parser("plan-local-step", help="score candidate directions for one observation")
    s.add_argument("--observation", required=True)
    s.add_argument("--weights", default=None)
    s.set_defaults(func=cmd_plan_local_step)

    s = sub.add_parser("fuse", help="fuse a directory of local maps into a global map")
    s.add_argument("--maps", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--merge-radius", type=float, default=FusionParams.merge_radius)
    s.add_argument("--conflict-radius", type=float, default=FusionParams.conflict_radius)
    s.set_defaults(func=cmd_fuse)

    s = sub.add_parser("gridmask-svg", help="render the pixel grid overlay as SVG")
    s.add_argument("--width", type=int, required=True)
    s.add_argument("--height", type=int, required=True)
    s.add_argument("--cell", type=float, required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_gridmask_svg)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
