"""In-memory span tracer that wraps the program's public layer functions.

The executor in ``agnav.mission`` binds its callees with ``from .x import
name``, so the wrappers replace those names in ``agnav.mission``'s namespace.
``rotation_direction`` is replaced as the ``agnav.sim_world`` attribute
instead, because ``step_ground`` looks it up there. Every wrapper passes
arguments, return values and exceptions through unchanged; it only records
a span (name, start, end, parent, mission id) and a small per-call note that
the layer metrics read later.
"""

from __future__ import annotations

import functools
import json
import time

# (span name, module whose attribute the caller looks up, attribute). The
# last three are the calls the benchmark itself makes, by module attribute.
LAYER_CALLS = (
    ("global_planner.optimize", "agnav.mission", "optimize"),
    ("spline.sample", "agnav.mission", "sample"),
    ("perception.observe", "agnav.mission", "observe"),
    ("local_planner.select_direction", "agnav.mission", "select_direction"),
    ("local_planner.cost_local", "agnav.mission", "cost_local"),
    ("local_planner.step_decision", "agnav.mission", "step_decision"),
    ("semantic_map.fuse", "agnav.mission", "fuse"),
    ("semantic_map.update", "agnav.mission", "update"),
    ("sim_world.step_drone", "agnav.mission", "step_drone"),
    ("sim_world.step_ground", "agnav.mission", "step_ground"),
    ("sim_world.rotation_direction", "agnav.sim_world", "rotation_direction"),
    ("sim_world.detect_collisions", "agnav.mission", "detect_collisions"),
    ("sim_world.carry_check", "agnav.mission", "carry_check"),
    ("sim_world.attach", "agnav.mission", "attach"),
    ("mission.decompose", "agnav.mission", "decompose"),
    ("mission.execute", "agnav.mission", "execute"),
    ("scenario.load_scenario", "agnav.scenario", "load_scenario"),
    ("global_planner.optimize", "agnav.global_planner", "optimize"),
)


def _note(name, args, result):
    """Cheap per-call figure kept with the span (None when not needed)."""
    if name == "perception.observe":
        return len(result.objects)
    if name == "local_planner.select_direction":
        return len(args[0].obstacles)
    if name == "semantic_map.update":
        return (len(result.footprints), len(result.pool))
    if name == "sim_world.attach":
        return bool(result)
    if name == "global_planner.optimize":
        # derived figures (seed cost, output checks) are computed after the
        # run; every caller passes the planner's arguments positionally
        return (args, result)
    return None


class Tracer:
    """Records spans in memory; ``wrap`` builds a transparent timing wrapper."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, mission id, note, error]
        self._stack: list[int] = []
        self.mission: str | None = None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.mission, None, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[2] = clock()
                stack.pop()
                span[6] = type(e).__name__
                raise
            span[2] = clock()
            stack.pop()
            span[5] = _note(name, args, result)
            return result

        return traced

    def install(self):
        """Replace the executor's callees with wrappers; returns an undo list."""
        import importlib

        undo = []
        for name, module, attr in LAYER_CALLS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            setattr(mod, attr, self.wrap(name, original))
            undo.append((mod, attr, original))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    def self_times(self) -> list[float]:
        """Per-span duration minus the part covered by its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, parent, mission, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, mission, _, error in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, mission, error]) + "\n")
