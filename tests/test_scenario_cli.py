import hashlib
import json
import math
import re
import subprocess
import sys

import pytest

from agnav.mission import GoalSpec, MissionConfig, MissionExecutor, Subtask, TaskPlan
from agnav.presets import NOISE_CALIBRATED, type_a_scenario, type_b_scenario, write_scenarios
from agnav.scenario import ScenarioError, load_scenario
from agnav.sim_world import SimParams


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "agnav.cli", *args],
        capture_output=True, text=True,
    )


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return str(p)


def test_load_scenario_defaults_and_hash():
    scen_a = load_scenario(type_a_scenario(0, seed=5))
    scen_b = load_scenario(type_a_scenario(0, seed=5))
    assert scen_a.config_hash == scen_b.config_hash
    assert scen_a.seed == 5
    assert load_scenario(type_a_scenario(0, seed=6)).config_hash != scen_a.config_hash


def test_load_scenario_field_diagnostics():
    doc = type_a_scenario(0)
    del doc["camera"]
    with pytest.raises(ScenarioError, match=r"\$\.camera"):
        load_scenario(doc)
    doc = type_a_scenario(0)
    doc["objects"][0]["x"] = "oops"
    with pytest.raises(ScenarioError, match=r"objects\[0\]"):
        load_scenario(doc)
    doc = type_a_scenario(0)
    doc.setdefault("local_weights", {})["bogus"] = 1
    with pytest.raises(ScenarioError, match="bogus"):
        load_scenario(doc)


def test_former_perceiver_ids_are_plain_scene_names():
    # observe reports only scene objects, so no id or name is reserved: an
    # object with id zero-point and one named robot load and get mapped
    doc = type_a_scenario(5, seed=5)
    doc["objects"][1]["id"] = "zero-point"
    doc["objects"][2]["name"] = "robot"
    scen = load_scenario(doc)
    assert [o.id for o in scen.world.objects][1:] == ["zero-point", "robot"]
    executor = MissionExecutor(TaskPlan((Subtask("drone", "construct_map"),)),
                               scen.world, scen.config)
    assert executor.run().success
    for o in doc["objects"][1:]:
        entry = executor.global_map.find(o["name"])
        assert (entry.x, entry.y) == pytest.approx((o["x"], o["y"]))


def _set(doc, path, value):
    """Set a dotted key path of a scenario document (list indices allowed),
    creating a missing section."""
    *parents, leaf = path.split(".")
    for key in parents:
        doc = doc[int(key)] if isinstance(doc, list) else doc.setdefault(key, {})
    doc[leaf] = value


def _json_path(path):
    return "$." + re.sub(r"\.(\d+)", r"[\1]", path)


@pytest.mark.parametrize("path", [
    "gloabl_weights", "execution.step_budgt", "noise.position_sigm",
    "camera.grid_intervall", "ground_robot.headng", "objects.0.radus",
    # solver and executor tuning are module constants, not scenario keys
    "execution.optimizer", "execution.attach_budget", "execution.rollback_limit",
    "fusion.pool_cap", "sim.rotate_clear_cap",
    # the camera image is square: its width is its height
    "camera.image_height",
    # the word-assembly pitch is a module constant
    "execution.pitch",
])
def test_load_scenario_rejects_unknown_key(path):
    doc = type_a_scenario(0)
    _set(doc, path, 1.0)
    with pytest.raises(ScenarioError, match=re.escape(_json_path(path) + ": unknown field")):
        load_scenario(doc)


@pytest.mark.parametrize("path, value", [
    ("camera.horizontal_fov", 4.0),
    # a positive altitude so small that the cell underflows to 0 m
    ("camera.altitude", 5e-324),
    ("noise.misclassify_prob", 2.0),
    ("objects.0.radius", -0.5),
    ("ground_robot.radius", -0.5),
    ("local_weights.window_half_extent", 0.0),
    ("execution.map_update_every", 0),
    ("execution.n_controls", 3),
])
def test_load_scenario_dataclass_rule_names_section(path, value):
    doc = type_a_scenario(0)
    _set(doc, path, value)
    section = _json_path(path.rsplit(".", 1)[0])
    with pytest.raises(ScenarioError, match=re.escape(section + ":")):
        load_scenario(doc)


@pytest.mark.parametrize("path, value", [
    ("objects.0.movable", "false"),
    ("execution.drop_at_step", True),
    ("execution.relation_clearance", "abc"),
])
def test_load_scenario_rejects_mistyped_value(path, value):
    doc = type_a_scenario(0)
    _set(doc, path, value)
    with pytest.raises(ScenarioError, match=re.escape(_json_path(path) + ": expected")):
        load_scenario(doc)


def test_run_scenario_cli_bad_fov_is_a_diagnostic(tmp_path):
    doc = type_a_scenario(0)
    doc["camera"]["horizontal_fov"] = 4.0
    p = write_doc(tmp_path, doc)
    r = run_cli("run-scenario", "--file", p,
                "--trace", str(tmp_path / "t.jsonl"),
                "--summary", str(tmp_path / "s.json"))
    assert r.returncode == 1
    assert "error: $.camera" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("key, value, reason", [
    ("map_update_every", 0, "map_update_every must be at least 1"),
    ("step_budget", 0, "step_budget must be at least 1"),
    ("step_budget", -4000, "step_budget must be at least 1"),
    ("angle_tol", -0.1, "angle_tol must be non-negative"),
    ("n_controls", 3, "n_controls must be at least degree+1 = 4"),
    ("n_controls", 1, "n_controls must be at least degree+1 = 4"),
    ("dist_stop", -1, "dist_stop must be positive"),
    ("dist_stop", 0, "dist_stop must be positive"),
    ("success_radius", -1, "success_radius must be positive"),
    ("relation_clearance", 0.0, "relation_clearance must be positive"),
    ("relation_clearance", -0.55, "relation_clearance must be positive"),
])
def test_run_scenario_cli_bad_execution_value_is_a_diagnostic(tmp_path, key, value, reason):
    doc = type_a_scenario(0)
    doc["execution"] = {key: value}
    r = run_cli("run-scenario", "--file", write_doc(tmp_path, doc),
                "--trace", str(tmp_path / "t.jsonl"), "--summary", str(tmp_path / "s.json"))
    assert r.returncode == 1
    assert r.stderr == f"error: $.execution: {reason}\n"


PRESETS = ([(f"type_a_{i}", type_a_scenario(i)) for i in range(10)]
           + [(f"type_b_{i}", type_b_scenario(i)) for i in range(3)]
           + [("noisy_type_a_0", type_a_scenario(0, noise=dict(NOISE_CALIBRATED))),
              ("drop130", type_a_scenario(0, drop_at_step=130))])


@pytest.mark.parametrize("doc", [p[1] for p in PRESETS], ids=[p[0] for p in PRESETS])
def test_presets_state_only_task_scene_hardware(doc):
    # a preset names its task, scene and hardware; every planner weight,
    # simulator and execution setting is the dataclass default
    assert not {"sim", "global_weights", "local_weights", "fusion"} & set(doc)
    assert set(doc.get("execution", {})) <= {"drop_at_step"}
    scen = load_scenario(doc)
    cfg = scen.config
    assert cfg == MissionConfig(camera=cfg.camera, noise=cfg.noise, arena=cfg.arena,
                                drop_at_step=doc.get("execution", {}).get("drop_at_step"))
    assert scen.world.params == SimParams()
    assert scen.config.relation_clearance == GoalSpec.clearance


def test_run_scenario_cli_success(tmp_path):
    p = write_doc(tmp_path, type_a_scenario(0, seed=1))
    r = run_cli("run-scenario", "--file", p,
                "--trace", str(tmp_path / "trace.jsonl"),
                "--summary", str(tmp_path / "summary.json"))
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["success"] is True
    assert "config_hash" in summary and "wall_time" in summary
    assert (tmp_path / "summary.svg").exists()
    trace_lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(trace_lines) > 100
    records = [json.loads(ln) for ln in trace_lines]
    assert records[-1]["step"] <= summary["steps"]
    assert all("drone" in r and "ground" in r for r in records)


def test_run_scenario_cli_schema_error(tmp_path):
    doc = type_a_scenario(0)
    del doc["camera"]
    p = write_doc(tmp_path, doc)
    r = run_cli("run-scenario", "--file", p,
                "--trace", str(tmp_path / "t.jsonl"),
                "--summary", str(tmp_path / "s.json"))
    assert r.returncode == 1
    assert "camera" in r.stderr


def test_run_scenario_cli_task_failure_exit_code(tmp_path):
    doc = type_a_scenario(0)
    doc.setdefault("execution", {})["step_budget"] = 50  # cannot finish
    p = write_doc(tmp_path, doc)
    r = run_cli("run-scenario", "--file", p,
                "--trace", str(tmp_path / "t.jsonl"),
                "--summary", str(tmp_path / "s.json"))
    assert r.returncode == 2


def test_run_scenario_cli_deterministic(tmp_path):
    p = write_doc(tmp_path, type_a_scenario(2, seed=9))
    for tag in ("a", "b"):
        r = run_cli("run-scenario", "--file", p,
                    "--trace", str(tmp_path / f"trace_{tag}.jsonl"),
                    "--summary", str(tmp_path / f"summary_{tag}.json"))
        assert r.returncode == 0
    ta = (tmp_path / "trace_a.jsonl").read_bytes()
    tb = (tmp_path / "trace_b.jsonl").read_bytes()
    assert ta == tb
    sa = json.loads((tmp_path / "summary_a.json").read_text())
    sb = json.loads((tmp_path / "summary_b.json").read_text())
    sa.pop("wall_time"), sb.pop("wall_time")
    assert sa == sb


@pytest.mark.parametrize("task, reason", [
    ("move L to front of L", "cannot place 'L' relative to itself"),
    ("move_to (9, 9)", "goal (9, 9) lies outside $.arena"),
    ("carry L to (9, 9)", "goal (9, 9) lies outside $.arena"),
    ("move_to (0, -2.5)", "goal (0, -2.5) lies outside $.arena"),
], ids=["self-relation", "move-outside", "carry-outside", "move-below"])
def test_run_scenario_cli_rejects_nonsense_goal_before_execution(tmp_path, task, reason):
    doc = type_a_scenario(0)
    doc["task"] = task
    p = write_doc(tmp_path, doc)
    trace = tmp_path / "t.jsonl"
    r = run_cli("run-scenario", "--file", p, "--trace", str(trace),
                "--summary", str(tmp_path / "s.json"))
    assert r.returncode == 1
    assert r.stderr == f"error: $.task: {reason}\n"
    assert not trace.exists()


def test_batch_cli(tmp_path):
    scen_dir = tmp_path / "scenarios"
    write_scenarios([type_a_scenario(0), type_a_scenario(3)], scen_dir)
    out = tmp_path / "metrics.csv"
    r = run_cli("batch", "--scenarios", str(scen_dir), "--seeds", "1,2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scenario,config,success,collisions,steps,placement_err_m"
    assert len(lines) == 1 + 4 + 1  # header, 2 scenarios x 2 seeds, aggregate
    rows = [ln.split(",") for ln in lines[1:-1]]
    # both tasks carry a block, so every run records a placement error
    assert all(float(r[5]) >= 0.0 for r in rows)
    agg = lines[-1].split(",")
    assert agg[0] == "aggregate"
    assert float(agg[2]) == pytest.approx(sum(int(r[2]) for r in rows) / len(rows))
    assert float(agg[3]) == pytest.approx(sum(int(r[3]) for r in rows) / len(rows))


def test_batch_cli_aborts_on_config_error(tmp_path):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    (scen_dir / "bad.json").write_text("{}")
    r = run_cli("batch", "--scenarios", str(scen_dir), "--out", str(tmp_path / "m.csv"))
    assert r.returncode == 1


def test_run_scenario_cli_non_utf8_file_is_a_diagnostic(tmp_path):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe" + json.dumps(type_a_scenario(0)).encode("utf-16-le"))
    r = run_cli("run-scenario", "--file", str(p),
                "--trace", str(tmp_path / "t.jsonl"),
                "--summary", str(tmp_path / "s.json"))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {p}: not UTF-8")
    assert "Traceback" not in r.stderr


def test_batch_cli_bad_seed_list_is_a_diagnostic(tmp_path):
    scen_dir = tmp_path / "scenarios"
    write_scenarios([type_a_scenario(0)], scen_dir)
    r = run_cli("batch", "--scenarios", str(scen_dir), "--seeds", "0,x",
                "--out", str(tmp_path / "m.csv"))
    assert r.returncode == 1
    assert r.stderr.startswith("error: --seeds: ")
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "m.csv").exists()


def test_cli_usage_error_is_an_input_error():
    # a malformed command line exits 1 like every other input error; 2 is
    # left to a failed task
    r = run_cli("batch", "--scenarios", "x")
    assert r.returncode == 1
    assert r.stderr.endswith("agnav batch: error: the following arguments are required: --out\n")
    assert r.stdout == ""


@pytest.mark.parametrize("command", [
    ("run-scenario", "--file", "{missing}", "--trace", "{tmp}/t.jsonl", "--summary", "{tmp}/s.json"),
    ("plan-global", "--scenario", "{missing}", "--out", "{tmp}/p.json"),
    ("batch", "--scenarios", "{missing}", "--out", "{tmp}/m.csv"),
    ("fuse", "--maps", "{missing}", "--out", "{tmp}/g.json"),
    ("plan-local-step", "--observation", "{missing}"),
])
def test_cli_missing_input_is_a_diagnostic(tmp_path, command):
    missing = tmp_path / "missing"
    r = run_cli(*(a.format(missing=missing, tmp=tmp_path) for a in command))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {missing}")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", [
    ("run-scenario", "--file", "{scenarios}/s.json", "--trace", "{tmp}/t.jsonl",
     "--summary", "{out}"),
    ("batch", "--scenarios", "{scenarios}", "--out", "{out}"),
    ("plan-global", "--scenario", "{scenarios}/s.json", "--out", "{out}"),
    ("fuse", "--maps", "{maps}", "--out", "{out}"),
    ("gridmask-svg", "--width", "100", "--height", "100", "--cell", "10", "--out", "{out}"),
], ids=lambda c: c[0])
def test_cli_output_in_a_missing_directory_is_a_diagnostic(tmp_path, command):
    (tmp_path / "scenarios").mkdir()
    write_doc(tmp_path / "scenarios", type_a_scenario(0), name="s.json")
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / "map0.json").write_text(json.dumps(_map_doc(lambda d: None)))
    out = tmp_path / "missing" / "out"
    r = run_cli(*(a.format(tmp=tmp_path, scenarios=tmp_path / "scenarios",
                           maps=tmp_path / "maps", out=out) for a in command))
    assert r.returncode == 1
    assert r.stderr == f"error: {out}: cannot write (No such file or directory)\n"
    assert not (tmp_path / "missing").exists()
    # refused before any work: run-scenario leaves no trace behind
    assert not (tmp_path / "t.jsonl").exists()


def test_batch_cli_output_in_a_missing_directory_runs_no_mission(tmp_path, monkeypatch, capsys):
    from agnav import cli

    def run_scenario(*args):
        raise AssertionError("a mission ran before the output was checked")

    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    write_scenarios([type_a_scenario(0)], tmp_path / "scenarios")
    out = tmp_path / "missing" / "m.csv"
    assert cli.main(["batch", "--scenarios", str(tmp_path / "scenarios"),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out}: cannot write (No such file or directory)\n"


@pytest.mark.parametrize("outputs, message", [
    (("--trace", "t.jsonl", "--summary", "out.svg"), "the plot path and --summary"),
    (("--trace", "s.json", "--summary", "s.json"), "--summary and --trace"),
    (("--trace", "t.jsonl", "--summary", "s.json", "--plot", "x/../t.jsonl"),
     "--plot and --trace"),
], ids=["default-plot", "trace", "plot-resolved"])
def test_run_scenario_cli_refuses_two_outputs_naming_one_file(tmp_path, outputs, message):
    # the later output would overwrite the earlier one: refused before the
    # mission runs, so nothing is written
    p = write_doc(tmp_path, type_a_scenario(0))
    args = [str(tmp_path / a) if i % 2 else a for i, a in enumerate(outputs)]
    r = run_cli("run-scenario", "--file", p, *args)
    assert r.returncode == 1
    assert r.stderr == f"error: {message} name one file: {args[-1]}\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize("command, what", [
    (("batch", "--scenarios"), "scenario"),
    (("fuse", "--maps"), "local map"),
], ids=["batch", "fuse"])
def test_cli_empty_input_directory_names_itself(tmp_path, command, what):
    r = run_cli(*command, str(tmp_path), "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    assert r.stderr == f"error: {tmp_path}: no {what} files found\n"


def test_plan_global_cli(tmp_path):
    p = write_doc(tmp_path, type_a_scenario(0))
    out = tmp_path / "path.json"
    r = run_cli("plan-global", "--scenario", p, "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert {"control_points", "degree", "knots", "polyline_world", "cost"} <= set(doc)
    assert doc["cost"]["total"] >= 0
    assert len(doc["polyline_world"]) == 65

    at_robot = type_a_scenario(0)
    robot = at_robot["ground_robot"]
    at_robot["task"] = f"move_to ({robot['x']}, {robot['y']})"
    p = write_doc(tmp_path, at_robot, "at_robot.json")
    r = run_cli("plan-global", "--scenario", p, "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["already_at_goal"] is True
    assert doc["iterations"] == 0


def test_plan_global_cli_clear_leg_is_one_closed_form_step(tmp_path):
    # the leg from the robot at (-1.4, -1.4) to (-1.4, 1.4) clears every
    # block by more than d_safe: the Greville-spaced chord, 14 cells long
    doc = type_a_scenario(0)
    doc["task"] = "move_to (-1.4, 1.4)"
    out = tmp_path / "path.json"
    r = run_cli("plan-global", "--scenario", write_doc(tmp_path, doc), "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["iterations"] == 1 and doc["converged"] is True
    assert doc["cost"]["obstacle"] == 0.0
    assert doc["cost"]["length"] == pytest.approx(14.0, rel=1e-12)
    assert all(x == pytest.approx(-7.0, abs=1e-12) for x, _ in doc["control_points"])


def test_plan_global_cli_plans_the_transport_leg(tmp_path):
    # move B to left of E: the executor flies from the carried block, with
    # the landmark E kept as an obstacle
    doc = type_a_scenario(1)
    by_name = {o["name"]: o for o in doc["objects"]}
    b, e = by_name["B"], by_name["E"]
    out = tmp_path / "path.json"
    r = run_cli("plan-global", "--scenario", write_doc(tmp_path, doc), "--out", str(out))
    assert r.returncode == 0, r.stderr
    poly = json.loads(out.read_text())["polyline_world"]
    assert poly[0] == pytest.approx([b["x"], b["y"]])
    clearance = min(math.hypot(x - e["x"], y - e["y"]) - e["radius"] for x, y in poly)
    assert clearance >= 0.3


def _overflowing_weights_doc():
    # weights this large overflow the seed's cost: the optimizer raises
    # PlanningError on the first leg, which fails the mission like a blocked
    # local planner
    doc = type_a_scenario(0)
    doc["global_weights"] = {"q_length": 1e308, "q_obstacle": 1e308}
    return doc


def test_run_scenario_cli_planning_error_is_a_task_failure(tmp_path):
    summary = tmp_path / "s.json"
    r = run_cli("run-scenario", "--file", write_doc(tmp_path, _overflowing_weights_doc()),
                "--trace", str(tmp_path / "t.jsonl"), "--summary", str(summary))
    assert r.returncode == 2
    assert r.stderr == ""
    assert json.loads(summary.read_text())["failure"] == (
        "non-finite cost at the initial control polygon")


def test_plan_global_cli_planning_error_is_a_task_failure(tmp_path):
    out = tmp_path / "p.json"
    r = run_cli("plan-global", "--scenario", write_doc(tmp_path, _overflowing_weights_doc()),
                "--out", str(out))
    assert r.returncode == 2
    assert r.stderr == "error: planning failed: non-finite cost at the initial control polygon\n"
    assert not out.exists()


def test_plan_global_cli_rejects_a_goal_outside_the_arena(tmp_path):
    # the front of O at (1.7, 0) lies past the arena's +2 m wall: plan-global
    # refuses the leg with the check that fails the mission in run-scenario
    doc = type_a_scenario(0)
    doc["objects"][1].update(x=1.7, y=0.0, yaw=0.0)
    out = tmp_path / "path.json"
    r = run_cli("plan-global", "--scenario", write_doc(tmp_path, doc), "--out", str(out))
    assert r.returncode == 1
    assert r.stderr == "error: goal (2.25, 0.00) lies outside the arena\n"
    assert not out.exists()


def test_arena_error_reads_the_same_from_run_scenario_and_plan_global(tmp_path):
    # run-scenario resolves the relation point from the fused map, where O's
    # y is a tiny negative float, and plan-global from the scene; the two
    # print one goal the same way, with no "-0.00"
    doc = type_a_scenario(0)
    doc["objects"][1].update(x=1.7, y=0.0, yaw=0.0)
    path = write_doc(tmp_path, doc)
    summary = tmp_path / "s.json"
    r = run_cli("run-scenario", "--file", path, "--trace", str(tmp_path / "t.jsonl"),
                "--summary", str(summary))
    assert r.returncode == 2, r.stderr
    failure = json.loads(summary.read_text())["failure"]
    assert failure == "goal (2.25, 0.00) lies outside the arena"
    r = run_cli("plan-global", "--scenario", path, "--out", str(tmp_path / "p.json"))
    assert r.stderr == f"error: {failure}\n"


def test_plan_local_step_cli(tmp_path):
    obs = {
        "main": [0.0, 0.0],
        "target": [4.0, 0.0],
        "obstacles": [[2.0, 0.3, 0.2]],
        "parts": {"head": [1.0, 0.0], "body": [0.0, 0.0], "tail": [-1.0, 0.0]},
    }
    p = tmp_path / "obs.json"
    p.write_text(json.dumps(obs))
    r = run_cli("plan-local-step", "--observation", str(p))
    assert r.returncode == 0, r.stderr
    assert "theta_deg" in r.stdout
    assert r.stdout.count("\n") >= 37  # header + 36 candidates + command
    assert "command=" in r.stdout
    assert r.stdout.endswith("command=rotate theta_star_deg=320.0\n")
    # the whole table and command, byte for byte. Re-pinned when the
    # LocalCostWeights defaults became the executor's weights (d_safe 1.2
    # cells): without --weights the table now scores as a mission does
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "7d3f4b956de84d322f4224e4a8eebe95df9fda11c2dd171b3b7cc74ce6a88cd1")


@pytest.mark.parametrize("obs, weights, last, digest", [
    # the zero point as the target, main off-centre: the search scores the
    # pairs around the zero point's bearing until the obstacle's candidates
    # are passed, and the table scores the rest on demand
    ({"main": [3, -2], "target": [0, 0], "obstacles": [[1.5, -0.5, 0.3]],
      "parts": {"head": [3, -1], "body": [3, -2], "tail": [3, -3]}}, None,
     "command=rotate theta_star_deg=190.0\n",
     "466b27297acd3a0cdc3863e4e64ba9e3131200d77ec8719110a856e6ef4c786f"),
    # no alignment weight bounds a total: every candidate is scored, and the
    # goal-deviation tie-break picks among the zero totals
    ({"main": [0, 0], "target": [4, 0], "obstacles": [[2, 0.3, 0.2]],
      "parts": {"head": [1, 0], "body": [0, 0], "tail": [-1, 0]}}, {"q_align": 0, "q_zero": 0},
     "command=rotate theta_star_deg=320.0\n",
     "425265ec19a06e221dc6650bcb415037a65bdf48230ead06a4872983bc64ae2e"),
], ids=["zero-target", "no-alignment-weights"])
def test_plan_local_step_cli_table_bytes(tmp_path, obs, weights, last, digest):
    (tmp_path / "obs.json").write_text(json.dumps(obs))
    args = ["plan-local-step", "--observation", str(tmp_path / "obs.json")]
    if weights is not None:
        (tmp_path / "w.json").write_text(json.dumps(weights))
        args += ["--weights", str(tmp_path / "w.json")]
    r = run_cli(*args)
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("\n") == 38  # header, 36 candidates, command
    assert r.stdout.endswith(last)
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("weights, field", [
    ({"candidate_count": 36.5}, "candidate_count"),
    ({"q_align": True}, "q_align"),
])
def test_plan_local_step_cli_mistyped_weight_is_a_diagnostic(tmp_path, weights, field):
    obs = {"main": [0.0, 0.0], "target": [4.0, 0.0],
           "parts": {"head": [1.0, 0.0], "body": [0.0, 0.0], "tail": [-1.0, 0.0]}}
    (tmp_path / "obs.json").write_text(json.dumps(obs))
    (tmp_path / "w.json").write_text(json.dumps(weights))
    r = run_cli("plan-local-step", "--observation", str(tmp_path / "obs.json"),
                "--weights", str(tmp_path / "w.json"))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: $.{field}: expected")
    assert "Traceback" not in r.stderr


def _local_obs_doc(**changes):
    doc = {"main": [0.0, 0.0], "target": [4.0, 0.0], "obstacles": [[2.0, 0.3, 0.2]],
           "parts": {"head": [1.0, 0.0], "body": [0.0, 0.0], "tail": [-1.0, 0.0]}}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("changes, path", [
    ({"main": [0.0]}, "$.main"),
    ({"main": [0.0, "x"]}, "$.main"),
    ({"target": [math.nan, 0.0]}, "$.target"),
    ({"obstacles": [[2.0, 0.3]]}, "$.obstacles[0]"),
    ({"obstacles": [[2.0, 0.3, -0.2]]}, "$.obstacles[0]"),
    ({"parts": {"head": [1.0, 0.0], "body": [0.0, 0.0], "tail": [True, 0.0]}},
     "$.parts.tail"),
    ({"mian": [0.0, 0.0]}, "$.mian"),
    ({"parts": {"head": [1.0, 0.0], "body": [0.0, 0.0], "tail": [-1.0, 0.0],
                "neck": [0.5, 0.0]}}, "$.parts.neck"),
    ({"parts": {"head": [1.0, 0.0], "body": [0.0, 0.0], "tail": [1.0, 0.0]}}, "$.parts"),
], ids=["short-main", "text-main", "nan-target", "short-obstacle", "negative-radius",
        "bool-tail", "unknown-key", "unknown-part", "head-at-tail"])
def test_plan_local_step_cli_malformed_observation_is_a_diagnostic(tmp_path, changes, path):
    p = tmp_path / "obs.json"
    p.write_text(json.dumps(_local_obs_doc(**changes)))
    r = run_cli("plan-local-step", "--observation", str(p))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {path}: ")
    assert r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("path, value", [
    ("local_weights.lookahead", math.nan),
    ("global_weights.q_obstacle", math.inf),
    ("objects.0.x", 10 ** 400),  # an int no float can hold
], ids=["nan-lookahead", "inf-q-obstacle", "huge-int-x"])
def test_run_scenario_cli_non_finite_number_is_a_diagnostic(tmp_path, path, value):
    doc = type_a_scenario(0)
    _set(doc, path, value)
    r = run_cli("run-scenario", "--file", write_doc(tmp_path, doc),
                "--trace", str(tmp_path / "t.jsonl"), "--summary", str(tmp_path / "s.json"))
    assert r.returncode == 1
    assert r.stderr == f"error: {_json_path(path)}: expected a finite number\n"


@pytest.mark.parametrize("edit, path", [
    (lambda d: d.pop("main"), "$.main"),
    (lambda d: d["parts"].pop("tail"), "$.parts.tail"),
], ids=["main", "tail"])
def test_plan_local_step_cli_missing_observation_field_is_a_diagnostic(tmp_path, edit, path):
    doc = _local_obs_doc()
    edit(doc)
    p = tmp_path / "obs.json"
    p.write_text(json.dumps(doc))
    r = run_cli("plan-local-step", "--observation", str(p))
    assert r.returncode == 1
    assert r.stderr == f"error: {path}: required field missing\n"


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe" + json.dumps(_local_obs_doc()).encode("utf-16-le"), "not UTF-8"),
    (b"{", "invalid JSON"),
], ids=["utf16", "truncated"])
def test_plan_local_step_cli_unreadable_observation_names_its_path(tmp_path, content, reason):
    p = tmp_path / "obs.json"
    p.write_bytes(content)
    r = run_cli("plan-local-step", "--observation", str(p))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {p}: {reason}")
    assert r.stderr.count("\n") == 1


def test_plan_local_step_cli_nan_weight_is_a_diagnostic(tmp_path):
    p = tmp_path / "obs.json"
    p.write_text(json.dumps(_local_obs_doc()))
    (tmp_path / "w.json").write_text('{"lookahead": NaN}')
    r = run_cli("plan-local-step", "--observation", str(p), "--weights", str(tmp_path / "w.json"))
    assert r.returncode == 1
    assert r.stderr == "error: $.lookahead: expected a finite number\n"
    assert r.stdout == ""


def test_plan_local_step_cli_blocked_is_a_diagnostic(tmp_path):
    # the steered point sits so far out that every lookahead leaves the window
    p = tmp_path / "obs.json"
    p.write_text(json.dumps(_local_obs_doc(
        main=[30.0, 30.0], target=None, obstacles=[],
        parts={"head": [31.0, 30.0], "body": [30.0, 30.0], "tail": [29.0, 30.0]})))
    r = run_cli("plan-local-step", "--observation", str(p))
    assert r.returncode == 2
    assert r.stderr.startswith("error: blocked: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("content, reason", [
    (b"\xff\xfe" + json.dumps(type_a_scenario(0)).encode("utf-16-le"), "not UTF-8"),
    (b"{", "invalid JSON"),
], ids=["utf16", "truncated"])
def test_batch_cli_unreadable_file_names_its_path_once(tmp_path, content, reason):
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    bad = scen_dir / "bad.json"
    bad.write_bytes(content)
    r = run_cli("batch", "--scenarios", str(scen_dir), "--out", str(tmp_path / "m.csv"))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {bad}: {reason}")
    assert r.stderr.count(str(bad)) == 1
    assert "Traceback" not in r.stderr


def test_batch_cli_config_error_names_its_path(tmp_path):
    scen_dir = tmp_path / "scenarios"
    doc = type_a_scenario(0)
    doc["task"] = "dance"
    write_scenarios([doc], scen_dir)
    r = run_cli("batch", "--scenarios", str(scen_dir), "--out", str(tmp_path / "m.csv"))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {scen_dir / 'scenario_00.json'}: ")
    assert "Traceback" not in r.stderr


def test_fuse_cli(tmp_path):
    from agnav.semantic_map import (
        Footprint, LocalSemanticMap, SemanticObject, local_map_to_json)

    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    for step, x in ((0, 1.0), (1, 1.04)):
        m = LocalSemanticMap(
            observer_x=0.0, observer_y=0.0, altitude=2.0, cell_m=0.2,
            footprint=Footprint(-4, 4, -4, 4),
            objects=(SemanticObject(id="o", name="O", x=x / 0.2, y=0.0),),
            step_index=step)
        (maps_dir / f"map{step}.json").write_text(json.dumps(local_map_to_json(m)))
    out = tmp_path / "global.json"
    r = run_cli("fuse", "--maps", str(maps_dir), "--out", str(out))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 1
    assert doc["entries"][0]["name"] == "O"
    assert doc["entries"][0]["support_count"] == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c9d7af328aedb4275137a5bf16c46726eb2c534b68d60e385e1cdf3be0cf50b3")


def _map_doc(edit):
    from agnav.semantic_map import (
        Footprint, LocalSemanticMap, SemanticObject, local_map_to_json)

    m = LocalSemanticMap(
        observer_x=0.0, observer_y=0.0, altitude=2.0, cell_m=0.2,
        footprint=Footprint(-4, 4, -4, 4),
        objects=(SemanticObject(id="o", name="O", x=5.0, y=0.0),), step_index=0)
    doc = json.loads(json.dumps(local_map_to_json(m)))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, path", [
    (lambda d: d["objects"][0].update(x="abc"), "$.objects[0].x"),
    (lambda d: d.update(objects="xx"), "$.objects"),
    (lambda d: d["objects"][0].update(x=math.nan), "$.objects[0].x"),
    (lambda d: d["objects"][0].update(y=True), "$.objects[0].y"),
    (lambda d: d["objects"][0].update(colour="red"), "$.objects[0].colour"),
    (lambda d: d["objects"][0].update(category="prop"), "$.objects[0].category"),
    (lambda d: d.update(cell_m=-1), "$.cell_m"),
    (lambda d: d.update(frame="world"), "$.frame"),
    (lambda d: d["pose"].update(altitude=None), "$.pose.altitude"),
    (lambda d: d["parts"].update(head=[1.0]), "$.parts.head"),
    (lambda d: d["footprint"].update(xmin=4.0, xmax=-4.0), "$.footprint"),
    (lambda d: d["objects"][0].update(radius=-3.0), "$.objects[0]"),
], ids=["text-x", "text-objects", "nan-x", "bool-y", "unknown-key", "unknown-category",
        "negative-cell", "world-frame", "null-altitude", "short-part", "inverted-footprint",
        "negative-radius"])
def test_fuse_cli_malformed_map_is_a_diagnostic(tmp_path, edit, path):
    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    bad = maps_dir / "map0.json"
    bad.write_text(json.dumps(_map_doc(edit)))
    out = tmp_path / "global.json"
    r = run_cli("fuse", "--maps", str(maps_dir), "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {bad}: {path}: ")
    assert r.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (("fuse", "--maps", "{maps}", "--merge-radius", "nan"),
     "fuse.merge_radius: expected a finite number"),
    (("fuse", "--maps", "{maps}", "--conflict-radius", "-1"), "fuse: radii must be positive"),
    (("gridmask-svg", "--width", "100", "--height", "100", "--cell", "nan"),
     "gridmask-svg.cell_size: expected a finite number"),
], ids=["fuse-nan", "fuse-negative", "gridmask-nan"])
def test_cli_config_flags_follow_the_section_rules(tmp_path, command, message):
    maps_dir = tmp_path / "maps"
    maps_dir.mkdir()
    (maps_dir / "map0.json").write_text(json.dumps(_map_doc(lambda d: None)))
    out = tmp_path / "out"
    r = run_cli(*(a.format(maps=maps_dir) for a in command), "--out", str(out))
    assert r.returncode == 1
    assert r.stderr == f"error: {message}\n"
    assert not out.exists()


def test_gridmask_svg_cli(tmp_path):
    out = tmp_path / "grid.svg"
    r = run_cli("gridmask-svg", "--width", "800", "--height", "600",
                "--cell", "80", "--out", str(out))
    assert r.returncode == 0
    svg = out.read_text()
    assert svg.count("<line") == 17  # 10 vertical + 7 horizontal
    r = run_cli("gridmask-svg", "--width", "10", "--height", "10",
                "--cell", "80", "--out", str(out))
    assert r.returncode == 1
