#!/usr/bin/env python3
"""Mission benchmark for agnav: end-to-end and per-layer figures offline.

    python3 perfbench/run.py --workload suite|navigate|plan_global \
        --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from ``src/``). The
load is one process, one operation at a time in a closed loop, no threads:
an operation is one mission (``execute``) on ``suite`` and ``navigate`` and
one ``optimize`` call on ``plan_global``. A pass runs every operation of the
workload once; a run makes passes until another would overrun ``--seconds``
(at least two), and each operation's time is its fastest pass. Set-up is
timed in short bursts spread between the passes; ``setup_s`` is the median
over the bursts of each burst's fastest set-up.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
and one traced pass, checks that tracing changed no outcome, and prints the
per-layer metrics; spans are written to ``.perfbench/``. Human-readable
report lines come first; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A failed output
check prints ``correct: false`` and exits with code 1. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# one thread: the load is a single closed loop, and an idle BLAS pool would
# only add threads for the scheduler to place on the host's few cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 6          # set-up bursts per run at the nominal pass count
SETUP_BURST = 3            # back-to-back set-ups per burst; the fastest counts
MIN_PASSES = 2
PROGRAM_MODULES = ("agnav.global_planner", "agnav.mission", "agnav.presets",
                   "agnav.scenario", "agnav.spline")
IMPORT_PROBE = ("import importlib, sys, time\n"
                "t0 = time.perf_counter()\n"
                "for m in sys.argv[1:]: importlib.import_module(m)\n"
                "print(time.perf_counter() - t0)")


def import_program() -> None:
    """Import the program from this checkout's src/."""
    import importlib

    if not os.path.isfile(os.path.join(SRC, "agnav", "__init__.py")):
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    for name in PROGRAM_MODULES:
        mod = importlib.import_module(name)
        if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: imported {name} from {mod.__file__}, not {SRC}")


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *PROGRAM_MODULES], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def tail_of(values):
    """(value, percentile, count): the highest percentile with at least ten
    samples beyond it; with ten or fewer samples, the maximum."""
    vals = sorted(values)
    n = len(vals)
    if n <= 10:
        return vals[-1], 100, n
    return vals[n - 11], math.floor(100 * (n - 10) / n), n


# ---------------------------------------------------------------------------
# Workloads: setup builds the operations, run_op is the timed call.


@dataclass
class Op:
    id: str
    args: tuple


class MissionWorkload:
    """Closed-loop missions: generating the documents, load_scenario and
    decompose are set-up; execute is the timed operation.

    ``pass_s`` (here and on PlanWorkload) is a pass's nominal duration on the
    reference host. It only sets how many set-up bursts go between two
    passes; how many passes a run makes follows the measured pass time."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.pass_s = 30.0 if name == "suite" else 5.5

    def setup(self, only_first: bool = False) -> list[Op]:
        import workloads
        from agnav import mission, scenario

        items = (workloads.suite_missions() if self.name == "suite"
                 else workloads.navigate_missions(self.seed))
        ops = []
        for mid, doc, seed in items[:1] if only_first else items:
            scen = scenario.load_scenario(doc, seed_override=seed)
            command = mission.parse_command(scen.task, scenario.relation_clearance(scen))
            plan = mission.decompose(command, pitch=scen.config.pitch)
            ops.append(Op(mid, (plan, scen.world, scen.config)))
        return ops

    @staticmethod
    def run_op(op: Op):
        from agnav import mission

        return mission.execute(*op.args)

    @staticmethod
    def digest(result) -> str:
        """Criterion 9's bytes: trace JSON lines plus the summary."""
        h = hashlib.sha256()
        for rec in result.trace:
            h.update((json.dumps(rec, sort_keys=True) + "\n").encode())
        h.update(json.dumps(result.summary(), sort_keys=True).encode())
        return h.hexdigest()

    @staticmethod
    def succeeded(result) -> bool:
        return bool(result.success)

    @staticmethod
    def check(op: Op, result) -> list[str]:
        return []

    def report(self, results, per_op) -> dict:
        """Workload figures printed beside the metrics (first pass)."""
        missions = [r for r, err in results if err is None]
        steps = sum(r.steps for r in missions)
        errors = sorted(p["error_m"] for r in missions for p in r.placements
                        if not p["approach"])
        fails = sum(1 for r, err in results if err is not None or not r.success)
        tail, pct, n = tail_of(per_op)
        return {
            "steps_per_s": (steps / sum(per_op), "1/s"),
            "mission_s_p50": (statistics.median(per_op), "s"),
            "mission_s_tail": (tail, f"s (p{pct} of {n})"),
            "fail_share": (fails / len(results), "share"),
            "collisions_per_mission": (sum(r.collisions for r in missions) / len(results),
                                       "count"),
            "placement_err_p50_m": (statistics.median(errors) if errors else float("nan"), "m"),
            "placement_err_max_m": (errors[-1] if errors else float("nan"), "m"),
            "mission.steps": (steps, "count"),
        }

    @staticmethod
    def describe(op: Op, result, err) -> str:
        if err is not None:
            return f"mission {op.id} raised {err}"
        return (f"mission {op.id} success={result.success} steps={result.steps} "
                f"collisions={result.collisions} failure={result.failure!r}")


class PlanWorkload:
    """Bare global_planner.optimize calls on seeded scenes."""

    pass_s = 17.0

    def __init__(self, name: str, seed: int):
        self.seed = seed

    def setup(self, only_first: bool = False) -> list[Op]:
        import workloads
        from agnav import global_planner

        items = workloads.plan_scenes(self.seed)
        weights = global_planner.GlobalCostWeights(d_safe=workloads.PLAN_D_SAFE)
        ops = []
        for sid, (start, goal, pairs) in items[:1] if only_first else items:
            init, _ = global_planner.straight_line_init(start, goal, workloads.PLAN_N_CONTROLS)
            ops.append(Op(sid, (init, weights, global_planner.ObstacleSet.from_pairs(pairs))))
        return ops

    @staticmethod
    def run_op(op: Op):
        from agnav import global_planner

        return global_planner.optimize(*op.args)

    @staticmethod
    def digest(result) -> str:
        h = hashlib.sha256(result.path.control_points.tobytes())
        h.update(json.dumps([result.cost_history, result.converged]).encode())
        return h.hexdigest()

    @staticmethod
    def succeeded(result) -> bool:
        return True

    @staticmethod
    def check(op: Op, result) -> list[str]:
        return plan_checks(op.id, op.args, result)

    def report(self, results, per_op) -> dict:
        plans = [r for r, err in results if err is None]
        tail, pct, n = tail_of(per_op)
        return {
            "plan_ms_p50": (1e3 * statistics.median(per_op), "ms"),
            "plan_ms_tail": (1e3 * tail, f"ms (p{pct} of {n})"),
            "fail_share": (sum(1 for _, err in results if err is not None) / len(results),
                           "share"),
            "plan_cost_mean": (statistics.fmean(r.cost_history[-1] for r in plans), "cost"),
        }

    @staticmethod
    def describe(op: Op, result, err) -> str:
        if err is not None:
            return f"plan {op.id} raised {err}"
        return (f"plan {op.id} iters={len(result.cost_history) - 1} "
                f"converged={result.converged} cost={result.cost_history[-1]!r}")


def straight_seed_cost(args):
    """Public-API cost of the straight seed an optimize call started from."""
    from agnav import global_planner, spline

    init, weights, obstacles = args[0], args[1], args[2]
    degree = args[3].degree if len(args) > 3 and args[3] is not None else 3
    path = spline.make_clamped_uniform(init, degree)
    return global_planner.cost_global(path, weights, obstacles)


def plan_checks(label: str, args, result) -> list[str]:
    """Promised optimize invariants: pinned endpoints, a non-increasing
    history, and a final cost no higher than the straight seed's."""
    import numpy as np

    if result.already_at_goal:
        return []
    init = np.asarray(args[0], dtype=float)
    out = []
    cps = result.path.control_points
    # the planner tests' tolerance: a bowed seed adds sin(pi) * amp ~ 1e-16
    # to the goal endpoint
    moved = max(float(np.abs(cps[0] - init[0]).max()), float(np.abs(cps[-1] - init[-1]).max()))
    if moved >= 1e-12:
        out.append(f"{label}: endpoints moved by {moved!r}")
    hist = result.cost_history
    if any(b > a for a, b in zip(hist, hist[1:])):
        out.append(f"{label}: cost history increases")
    seed_cost = straight_seed_cost(args).total
    if hist[-1] > seed_cost + 1e-12:
        out.append(f"{label}: final cost {hist[-1]!r} above straight seed {seed_cost!r}")
    return out


WORKLOADS = {"suite": MissionWorkload, "navigate": MissionWorkload,
             "plan_global": PlanWorkload}


# ---------------------------------------------------------------------------
# Passes


def run_pass(workload, ops, tracer=None):
    """One closed-loop pass; returns (wall seconds, per-op seconds, results).
    With a tracer, its mission id follows the operation being run."""
    gc.collect()
    clock = time.perf_counter
    results, times = [], []
    t_pass = clock()
    for op in ops:
        if tracer is not None:
            tracer.mission = op.id
        t0 = clock()
        try:
            results.append((workload.run_op(op), None))
        except Exception as e:  # a failed operation: counted, reported, not fatal
            results.append((None, f"{type(e).__name__}: {e}"))
        times.append(clock() - t0)
    return clock() - t_pass, times, results


def digests(workload, results) -> list:
    return [workload.digest(r) if err is None else err for r, err in results]


def timed_setup(workload):
    """Operations, and the import plus set-up time of one set-up."""
    import_s = import_seconds()
    t0 = time.perf_counter()
    ops = workload.setup()
    return ops, import_s + time.perf_counter() - t0


def setup_burst(workload) -> float:
    """The fastest of SETUP_BURST back-to-back set-ups."""
    return min(timed_setup(workload)[1] for _ in range(SETUP_BURST))


def measure(workload, seconds: int):
    """Untraced run: e2e metrics plus correctness problems."""
    nominal_passes = max(MIN_PASSES, round(seconds / workload.pass_s))
    setups_per_pass = math.ceil(SETUP_SAMPLES / nominal_passes)
    ops = workload.setup()
    setup_times = []
    problems = []

    # determinism probe and warm-up: the first operation from a fresh setup
    probe_op = workload.setup(only_first=True)[0]
    _, _, probe = run_pass(workload, [probe_op])

    # only the first pass's results are kept (checks, report); later passes
    # keep their digests, so peak memory does not grow with the pass count.
    # The set-up bursts are spread between the passes, so a slow spell of
    # the host reaches only some of them and their median stays put.
    walls, op_times, pass_digests = [], [], []
    first_results = None
    attempted = failed = succeeded = 0
    start = time.perf_counter()
    while True:
        for _ in range(setups_per_pass):
            setup_times.append(setup_burst(workload))
        wall, times, results = run_pass(workload, ops)
        walls.append(wall)
        op_times.append(times)
        pass_digests.append(digests(workload, results))
        attempted += len(results)
        failed += sum(1 for _, err in results if err is not None)
        succeeded += sum(1 for r, err in results if err is None and workload.succeeded(r))
        if first_results is None:
            first_results = results
        del results
        # stop when one more pass of the average length would overrun
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = pass_digests[0]
    if digests(workload, probe)[0] != first[0]:
        problems.append(f"{ops[0].id}: re-run from a fresh setup gave different bytes")
    for i, later in enumerate(pass_digests[1:], start=2):
        for op, a, b in zip(ops, first, later):
            if a != b:
                problems.append(f"{op.id}: pass {i} output differs from pass 1")
    for op, (res, err) in zip(ops, first_results):
        if err is None:
            problems.extend(workload.check(op, res))

    # host contention only ever adds time, so each operation's cost is its
    # fastest pass; the passes are spread over the run to decorrelate them
    per_op = [min(t) for t in zip(*op_times)]
    tail, pct, n = tail_of(per_op)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_op), "s"),
        "latency_ms_p50": (1e3 * statistics.median(per_op), "ms"),
        "latency_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_share": (succeeded / attempted, "share"),
    }
    for op, (res, err), t in zip(ops, first_results, per_op):
        print(f"{workload.describe(op, res, err)} s={t:.4f}")
    print(f"passes {len(walls)}: wall_s {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"set-up bursts {len(setup_times)}: setup_s {' '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"latency_ms_tail is p{pct} of {n} operations")
    for name, (value, unit) in workload.report(first_results, per_op).items():
        print(f"report {name} {value!r} {unit}")
    return metrics, attempted, failed, problems


# ---------------------------------------------------------------------------
# Traced run


def layer_metrics(tracer, traced_wall: float, untraced_wall: float, missions) -> dict:
    """Per-layer figures from the spans of one traced set-up and pass, plus
    the traced pass's mission results (empty on plan_global)."""
    spans = tracer.spans
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durs(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, [])]

    def notes(name):
        return [spans[i][5] for i in by_name.get(name, []) if spans[i][5] is not None]

    m = {}

    def timing(name, stats):
        d = durs(name)
        if "calls" in stats:
            m[f"{name}.calls"] = (len(d), "count")
        if "s" in stats:
            m[f"{name}.s"] = (float(sum(d)), "s")
        if "share" in stats:
            m[f"{name}.share"] = (sum(d) / traced_wall, "share")
        if "ms_p50" in stats:
            m[f"{name}.ms_p50"] = (1e3 * statistics.median(d) if d else 0.0, "ms")
        if "ms_tail" in stats:
            m[f"{name}.ms_tail"] = (1e3 * tail_of(d)[0] if d else 0.0, "ms")
            if d:
                _, pct, n = tail_of(d)
                print(f"layer {name}.ms_tail is p{pct} of {n} calls")

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    full = ("calls", "s", "share", "ms_p50", "ms_tail")
    timing("global_planner.optimize", full)
    opt = notes("global_planner.optimize")
    plans = [res for (_, res) in opt if not res.already_at_goal]
    m["global_planner.optimize.iters_mean"] = (mean([len(r.cost_history) - 1 for r in plans]),
                                               "count")
    m["global_planner.optimize.converged_share"] = (
        mean([1.0 if r.converged else 0.0 for r in plans]), "share")
    m["global_planner.optimize.multistart_share"] = (
        mean([1.0 if straight_seed_cost(a).obstacle > 0.0 else 0.0
              for (a, res) in opt if not res.already_at_goal]), "share")
    m["global_planner.optimize.cost_mean"] = (mean([r.cost_history[-1] for r in plans]), "cost")

    timing("semantic_map.update", full)
    timing("semantic_map.fuse", ("calls", "s"))
    upd = notes("semantic_map.update")
    m["semantic_map.footprints_max"] = (max((f for f, _ in upd), default=0), "count")
    m["semantic_map.pool_max"] = (max((p for _, p in upd), default=0), "count")

    timing("local_planner.select_direction", ("calls", "s", "share", "ms_p50"))
    timing("local_planner.cost_local", ("calls", "s"))
    timing("local_planner.step_decision", ("s",))
    m["local_planner.blocked"] = (sum(1 for i in by_name.get("local_planner.select_direction", [])
                                      if spans[i][6] == "BlockedError"), "count")
    m["local_planner.obstacles_mean"] = (mean(notes("local_planner.select_direction")), "count")

    timing("perception.observe", ("calls", "s", "share", "ms_p50"))
    m["perception.objects_mean"] = (mean(notes("perception.observe")), "count")

    for name in ("step_ground", "rotation_direction", "step_drone", "detect_collisions",
                 "carry_check"):
        timing(f"sim_world.{name}", ("s",))
    timing("sim_world.attach", ("calls",))
    m["sim_world.attach.success_share"] = (mean([1.0 if a else 0.0
                                                 for a in notes("sim_world.attach")]), "share")

    timing("spline.sample", ("s",))
    timing("scenario.load_scenario", ("s",))
    timing("mission.decompose", ("s",))
    timing("mission.execute", ("s",))
    m["mission.self_s"] = (float(sum(own[i] for i in by_name.get("mission.execute", []))), "s")
    m["mission.steps"] = (sum(r.steps for r in missions), "count")
    m["mission.replans"] = (sum(1 for r in missions for rec in r.trace if rec.get("replanned")),
                            "count")
    m["mission.rollbacks"] = (sum(1 for r in missions for rec in r.trace
                                  if rec["phase"] == "rollback"), "count")
    errors = sorted(p["error_m"] for r in missions for p in r.placements if not p["approach"])
    m["mission.collisions_per_mission"] = (
        mean([float(r.collisions) for r in missions]), "count")
    m["mission.placement_err_p50_m"] = (statistics.median(errors) if errors else 0.0, "m")
    m["mission.placement_err_max_m"] = (errors[-1] if errors else 0.0, "m")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m


def measure_traced(workload, workload_name: str, seed: int):
    from tracer import Tracer

    ops = workload.setup()
    run_pass(workload, ops[:1])  # warm-up
    untraced_wall, _, plain = run_pass(workload, ops)

    tracer = Tracer()
    undo = tracer.install()
    try:
        tracer.mission = "setup"
        traced_ops = workload.setup()
        traced_wall, _, traced = run_pass(workload, traced_ops, tracer)
    finally:
        Tracer.uninstall(undo)

    problems = []
    for op, a, b in zip(ops, digests(workload, plain), digests(workload, traced)):
        if a != b:
            problems.append(f"{op.id}: traced output differs from the untraced run")
    for op, (res, err) in zip(ops, traced):
        if err is None:
            problems.extend(workload.check(op, res))
    for i, s in enumerate(tracer.spans):
        if s[0] == "global_planner.optimize" and s[5] is not None:
            problems.extend(plan_checks(f"{s[4]} optimize #{i}", *s[5]))

    missions = ([r for r, err in traced if err is None]
                if isinstance(workload, MissionWorkload) else [])
    metrics = layer_metrics(tracer, traced_wall, untraced_wall, missions)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload_name}-seed{seed}.jsonl")
    tracer.write(path)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    print(f"untraced wall_s {untraced_wall!r}, traced wall_s {traced_wall!r}")
    attempted = len(plain) + len(traced)
    failed = sum(1 for _, err in plain + traced if err is not None)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    import_program()
    workload = WORKLOADS[args.workload](args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, problems = measure_traced(workload, args.workload, args.seed)
    else:
        metrics, attempted, failed, problems = measure(workload, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
