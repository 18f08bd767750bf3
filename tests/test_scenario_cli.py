import json
import math
import re
import subprocess
import sys

import pytest

from agnav.presets import type_a_scenario, write_scenarios
from agnav.scenario import ScenarioError, load_scenario


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
    doc["local_weights"]["bogus"] = 1
    with pytest.raises(ScenarioError, match="bogus"):
        load_scenario(doc)


def _set(doc, path, value):
    """Set a dotted key path of a scenario document (list indices allowed)."""
    *parents, leaf = path.split(".")
    for key in parents:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    doc[leaf] = value


def _json_path(path):
    return "$." + re.sub(r"\.(\d+)", r"[\1]", path)


@pytest.mark.parametrize("path", [
    "gloabl_weights", "execution.step_budgt", "noise.position_sigm",
    "camera.grid_intervall", "ground_robot.headng", "objects.0.radus",
    # solver and executor tuning are module constants, not scenario keys
    "execution.optimizer", "execution.attach_budget", "execution.rollback_limit",
    "fusion.pool_cap", "sim.rotate_clear_cap",
])
def test_load_scenario_rejects_unknown_key(path):
    doc = type_a_scenario(0)
    _set(doc, path, 1.0)
    with pytest.raises(ScenarioError, match=re.escape(_json_path(path) + ": unknown field")):
        load_scenario(doc)


@pytest.mark.parametrize("path, value", [
    ("camera.horizontal_fov", 4.0),
    ("noise.misclassify_prob", 2.0),
])
def test_load_scenario_dataclass_rule_names_section(path, value):
    doc = type_a_scenario(0)
    _set(doc, path, value)
    section = _json_path(path.split(".")[0])
    with pytest.raises(ScenarioError, match=re.escape(section + ":")):
        load_scenario(doc)


@pytest.mark.parametrize("path, value", [
    ("objects.0.movable", "false"),
    ("camera.image_height", "x"),
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
    doc["execution"]["step_budget"] = 50  # cannot finish
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


@pytest.mark.parametrize("command", [
    ("run-scenario", "--file", "{missing}", "--trace", "{tmp}/t.jsonl", "--summary", "{tmp}/s.json"),
    ("plan-global", "--scenario", "{missing}", "--out", "{tmp}/p.json"),
    ("batch", "--scenarios", "{missing}", "--out", "{tmp}/m.csv"),
])
def test_cli_missing_input_is_a_diagnostic(tmp_path, command):
    missing = tmp_path / "missing"
    r = run_cli(*(a.format(missing=missing, tmp=tmp_path) for a in command))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {missing}")
    assert "Traceback" not in r.stderr


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
], ids=["short-main", "text-main", "nan-target", "short-obstacle", "negative-radius",
        "bool-tail"])
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
