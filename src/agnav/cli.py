"""Command-line entry points.

Subcommands: run-scenario, batch, plan-global, plan-local-step, fuse,
gridmask-svg. Exit codes: 0 success, 1 input error (a malformed command
line included), 2 task failure. Every input file is read by
``scenario.read_json_file`` and checked by the library's readers; ``main``
alone turns their errors into ``error: ...`` and exit 1. Every output file
is written to a temp path and atomically renamed; an output that cannot be
written (``run-scenario`` and ``batch`` check its directory first), or two
outputs of one command that name one file, is an input error too.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import tempfile

from .global_planner import PlanningError
from .gridmask import GridSpec, render_gridmask_svg
from .local_planner import (
    BlockedError,
    LocalCostWeights,
    select_direction,
    step_decision,
)
from .mission import CommandError, GoalError, MissionConfig, plan_leg
from .plotting import render_run_svg
from .scenario import (
    ScenarioError,
    build,
    load_scenario,
    local_map_from_json,
    observation_from_json,
    read_json_file,
    run_scenario,
    task_command,
)
from .semantic_map import (
    Confidence,
    FusionParams,
    GlobalSemanticMap,
    MapEntry,
    dump_global_map,
    fuse,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TASK = 2


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over
    ``path``; a path that cannot be written is an input error."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".tmp-agnav-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise ScenarioError(f"{path}: cannot write ({e.strerror})") from e
    finally:
        if tmp is not None and os.path.exists(tmp):  # a write that failed midway
            os.unlink(tmp)


def _check_directory(path: str) -> None:
    """Refuse an output in a missing directory before any work is done."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ScenarioError(f"{path}: cannot write ({os.strerror(errno.ENOENT)})")


def _trace_text(trace: list) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in trace)


def _json_files(directory: str, what: str) -> list:
    """The sorted ``*.json`` paths of a directory, at least one."""
    try:
        names = os.listdir(directory)
    except OSError as e:
        raise ScenarioError(f"{directory}: cannot list ({e.strerror})") from e
    files = sorted(os.path.join(directory, f) for f in names if f.endswith(".json"))
    if not files:
        raise ScenarioError(f"{directory}: no {what} files found")
    return files


def _in_file(path: str, load, *args):
    """``load(*args)`` on a document read from ``path``, with the path put in
    front of a document error."""
    try:
        return load(*args)
    except (ScenarioError, CommandError) as e:
        raise type(e)(f"{path}: {e}") from e


def cmd_run_scenario(args) -> int:
    plot_path = args.plot or os.path.splitext(args.summary)[0] + ".svg"
    outputs = {}  # resolved path -> the option naming it
    for option, path in (("--trace", args.trace), ("--summary", args.summary),
                         ("--plot" if args.plot else "the plot path", plot_path)):
        other = outputs.setdefault(os.path.realpath(path), option)
        if other != option:
            raise ScenarioError(f"{option} and {other} name one file: {path}")
        _check_directory(path)
    scen, result = run_scenario(read_json_file(args.file), args.seed)
    summary = result.summary()
    summary["config_hash"] = scen.config_hash
    summary["wall_time"] = result.wall_time
    _atomic_write(args.trace, _trace_text(result.trace))
    _atomic_write(args.summary, json.dumps(summary, sort_keys=True, indent=1) + "\n")
    _atomic_write(plot_path, render_run_svg(
        scen.config.arena, scen.world.objects, result.global_paths, result.track))
    print(f"success={summary['success']} collisions={summary['collisions']} "
          f"steps={summary['steps']}")
    return EXIT_OK if summary["success"] else EXIT_TASK


def cmd_batch(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [None]
    except ValueError:
        raise ScenarioError(
            f"--seeds: expected comma-separated integers, got {args.seeds!r}") from None
    _check_directory(args.out)
    rows = []
    for path in _json_files(args.scenarios, "scenario"):
        doc = read_json_file(path)
        for seed in seeds:
            scen, result = _in_file(path, run_scenario, doc, seed)
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
    scen = load_scenario(read_json_file(args.scenario))
    command = task_command(scen)
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
    world = scen.world.copy()
    world.attachment = ids.get(carried)
    try:
        leg = plan_leg(world, truth, scen.config, goal)
    except PlanningError as e:
        print(f"error: planning failed: {e}", file=sys.stderr)
        return EXIT_TASK
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


def cmd_plan_local_step(args) -> int:
    obs = observation_from_json(read_json_file(args.observation))
    weights = LocalCostWeights()
    if args.weights:
        weights = build(LocalCostWeights, read_json_file(args.weights), "$")
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
    cmd = step_decision(obs, choice.theta, MissionConfig.dist_stop, MissionConfig.angle_tol)
    print(f"command={cmd.kind.value} theta_star_deg={math.degrees(choice.theta):.1f}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    maps = [_in_file(path, local_map_from_json, read_json_file(path))
            for path in _json_files(args.maps, "local map")]
    params = build(FusionParams, {"merge_radius": args.merge_radius,
                                  "conflict_radius": args.conflict_radius}, "fuse")
    global_map = fuse(maps, params)
    _atomic_write(args.out, dump_global_map(global_map) + "\n")
    print(f"entries={len(global_map.entries)}")
    return EXIT_OK


def cmd_gridmask_svg(args) -> int:
    spec = build(GridSpec, {"image_width": args.width, "image_height": args.height,
                            "cell_size": args.cell}, "gridmask-svg")
    _atomic_write(args.out, render_gridmask_svg(spec))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the input-error code;
    argparse's own code, 2, is the code of a failed task here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="agnav", description=__doc__)
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
    try:
        return args.func(args)
    except (ScenarioError, CommandError, GoalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
