import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tamperest
from tamperest import fixtures
from tamperest.cli import _dumps, main
from test_oracle import CLI_MODULES

EST_PLANT = str(fixtures.plant_path("estimation"))
EST_COSTS = str(fixtures.costs_path("estimation"))
DIAG_PLANT = str(fixtures.plant_path("diagnosable"))
DIAG_COSTS = str(fixtures.costs_path("diagnosable"))
DEFE_PLANT = str(fixtures.plant_path("defeatable"))
DEFE_COSTS = str(fixtures.costs_path("defeatable"))
CONF_PLANT = str(fixtures.plant_path("confusable"))
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_observer_json_contains_the_chain(capsys):
    code, out, _err = run_cli(capsys, "observer", "--plant", EST_PLANT)
    assert code == 0
    payload = json.loads(out)
    assert payload["initial"] == [0, 1, 2, 3, 4]
    assert {"from": [0, 1, 2, 3, 4], "event": "α", "to": [2, 3, 4]} in payload["transitions"]
    assert {"from": [2, 3, 4], "event": "β", "to": [2, 3]} in payload["transitions"]
    assert {"from": [2, 3], "event": "α", "to": [3, 4]} in payload["transitions"]


def test_observer_text_and_dot_formats(capsys):
    code, out, _ = run_cli(capsys, "observer", "--plant", EST_PLANT, "--format", "text")
    assert code == 0
    assert "{2,3,4} --β--> {2,3}" in out
    code, out, _ = run_cli(capsys, "observer", "--plant", EST_PLANT, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph observer {")


def test_observer_of_deterministic_plant_mirrors_it(capsys, tmp_path):
    plant = {
        "states": ["p", "q"],
        "observable": ["a"],
        "unobservable": [],
        "faults": [],
        "initial": ["p"],
        "transitions": [{"from": "p", "event": "a", "to": "q"}],
    }
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(plant))
    code, out, _ = run_cli(capsys, "observer", "--plant", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["transitions"] == [{"from": ["p"], "event": "a", "to": ["q"]}]


def test_estimate_matches_fixture_expectation(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--plant", EST_PLANT,
        "--attacks", EST_COSTS,
        "--obs", "β α α",
        "--budget", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimates"] == [
        {"state": 3, "cost": 0},
        {"state": 4, "cost": 0},
        {"state": 2, "cost": 1},
    ]
    assert payload["over_budget"] == []


def test_estimate_output_is_byte_identical(capsys):
    args = (
        "estimate",
        "--plant", EST_PLANT,
        "--attacks", EST_COSTS,
        "--obs", "β α α",
        "--budget", "2",
    )
    _code, first, _ = run_cli(capsys, *args)
    _code, second, _ = run_cli(capsys, *args)
    assert first == second


def test_estimate_witness_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--plant", EST_PLANT,
        "--attacks", EST_COSTS,
        "--obs", "β α α",
        "--budget", "2",
        "--witness",
    )
    assert code == 0
    payload = json.loads(out)
    by_state = {entry["state"]: entry for entry in payload["estimates"]}
    assert by_state[2]["witness"][-1] == {"type": "sub", "from": "γ", "to": "α"}
    assert by_state[3]["explanation"] == "β α α"


def test_estimate_infeasible_observation_is_empty_success(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--plant", EST_PLANT,
        "--obs", "γ γ γ γ",
        "--budget", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimates"] == []


def test_estimate_writes_dot_file(capsys, tmp_path):
    out_path = tmp_path / "product.dot"
    code, _out, _ = run_cli(
        capsys,
        "estimate",
        "--plant", EST_PLANT,
        "--attacks", EST_COSTS,
        "--obs", "β α α",
        "--budget", "2",
        "--dot", str(out_path),
    )
    assert code == 0
    assert out_path.read_text().startswith("digraph product {")


def test_diagnose_verdicts(capsys):
    code, out, _ = run_cli(
        capsys,
        "diagnose",
        "--plant", DIAG_PLANT,
        "--attacks", DIAG_COSTS,
        "--faults", "σf",
        "--budget", "4",
    )
    assert code == 0
    assert json.loads(out) == {"budget": 4, "diagnosable": True}
    code, out, _ = run_cli(
        capsys,
        "diagnose",
        "--plant", DEFE_PLANT,
        "--attacks", DEFE_COSTS,
        "--budget", "2",
        "--witness",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["diagnosable"] is False
    witness = payload["witness"]
    assert witness["cycle"]["left"] and witness["cycle"]["right"]
    left_obs = [e for e in witness["left_run"] if e in {"α", "β", "γ", "ζ"}]
    right_obs = [e for e in witness["right_run"] if e in {"α", "β", "γ", "ζ"}]
    assert left_obs == right_obs


def test_cmin_on_fixtures(capsys):
    code, out, _ = run_cli(
        capsys, "cmin", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS
    )
    assert code == 0
    assert json.loads(out) == {"cmin": 2}
    code, out, _ = run_cli(
        capsys, "cmin", "--plant", DIAG_PLANT, "--attacks", DIAG_COSTS
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cmin"] is None
    assert "reason" in payload
    code, out, _ = run_cli(capsys, "cmin", "--plant", CONF_PLANT)
    assert code == 0
    assert json.loads(out) == {"cmin": 0}


def test_cmin_witness(capsys):
    argv = ("cmin", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS)
    _code, plain, _ = run_cli(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["cmin"] == 2
    witness = payload.pop("witness")
    assert payload == json.loads(plain)
    assert witness["cycle"]["left"] and witness["cycle"]["right"]
    left_obs = [e for e in witness["left_run"] if e in {"α", "β", "γ", "ζ"}]
    right_obs = [e for e in witness["right_run"] if e in {"α", "β", "γ", "ζ"}]
    assert left_obs == right_obs
    assert ("σf" in witness["left_run"]) != ("σf" in witness["right_run"])
    # no defeating attack, no witness
    code, out, _ = run_cli(capsys, "cmin", "--plant", DIAG_PLANT, "--attacks", DIAG_COSTS, "--witness")
    assert code == 0
    assert "witness" not in json.loads(out)


def test_empty_observation_estimates_the_initial_closure(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--plant", EST_PLANT, "--obs", "", "--budget", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimates"] == [{"state": s, "cost": 0} for s in range(5)]


def test_all_commands_are_byte_stable(capsys):
    invocations = [
        ("observer", "--plant", EST_PLANT),
        ("observer", "--plant", EST_PLANT, "--format", "dot"),
        ("diagnose", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS,
         "--budget", "2", "--witness"),
        ("cmin", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS),
        ("cmin", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS, "--witness"),
        ("export-dot", "--plant", DIAG_PLANT, "--target", "observer"),
    ]
    for argv in invocations:
        _c, first, _ = run_cli(capsys, *argv)
        _c, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_export_dot_targets(capsys):
    code, out, _ = run_cli(capsys, "export-dot", "--plant", EST_PLANT)
    assert code == 0
    assert out.startswith("digraph plant {")
    code, out, _ = run_cli(capsys, "export-dot", "--plant", EST_PLANT, "--target", "observer")
    assert code == 0
    assert out.startswith("digraph observer {")


def test_malformed_json_exits_2_with_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"states": [1, ]')
    code, _out, err = run_cli(capsys, "observer", "--plant", str(path))
    assert code == 2
    body = json.loads(err)
    assert "malformed JSON" in body["error"]
    assert body["line"] == 1 and body["column"] > 1


def test_missing_file_exits_2(capsys):
    code, _out, err = run_cli(capsys, "observer", "--plant", "/nonexistent.json")
    assert code == 2
    assert "not found" in json.loads(err)["error"]


def _one_line(err) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and err.endswith("\n")
    return lines[0]


def _one_json_error(err) -> str:
    return json.loads(_one_line(err))["error"]


def test_malformed_options_exit_2_with_one_json_error_line(capsys):
    cases = [
        (("estimate", "--plant", "x", "--obs", "a", "--budget", "x"), "invalid int value: 'x'"),
        (("cmin", "--plant"), "expected one argument"),
        (("cmin", "--plant", CONF_PLANT, "--budget", "1"), "unrecognized arguments"),
        (("diagnose", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS, "--budget", "-2"),
         "budget must be an integer >= 0, got -2"),
        ((), "required: command"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in _one_json_error(err)


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as done:
        main(["cmin", "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tamperest cmin")


def test_directory_as_plant_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "cmin", "--plant", str(tmp_path))
    assert (code, out) == (2, "")
    assert "Is a directory" in _one_json_error(err)


def test_directory_as_dot_target_exits_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "cmin", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS, "--dot", str(tmp_path)
    )
    assert (code, out) == (2, "")  # the DOT file is written before the verdict
    assert "Is a directory" in _one_json_error(err)


def test_non_utf8_input_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"deletions": {"é": 1}}'.encode("latin-1"))
    for argv in (("--plant", str(path)), ("--plant", DEFE_PLANT, "--attacks", str(path))):
        code, out, err = run_cli(capsys, "cmin", *argv)
        assert (code, out) == (2, "")
        assert _one_json_error(err) == f"not UTF-8 text: {path}"


def test_too_deeply_nested_plant_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "cmin", "--plant", str(path))
    assert (code, out) == (2, "")
    assert _one_json_error(err) == f"JSON nested too deeply: {path}"


def test_non_standard_json_constants_exit_2(capsys, tmp_path):
    plant = tmp_path / "plant.json"
    plant.write_text(
        '{"states": [0, Infinity], "initial": [0], "observable": ["a"], "unobservable": [],'
        ' "faults": [], "transitions": [{"from": 0, "event": "a", "to": Infinity}]}'
    )
    costs = tmp_path / "costs.json"
    costs.write_text('{"deletions": {"α": NaN}}')
    cases = [
        (("observer", "--plant", str(plant)), f"not a JSON value: Infinity in {plant}"),
        (
            ("estimate", "--plant", str(plant), "--obs", "a", "--budget", "0"),
            f"not a JSON value: Infinity in {plant}",
        ),
        (
            ("estimate", "--plant", EST_PLANT, "--attacks", str(costs), "--obs", "α",
             "--budget", "0"),
            f"not a JSON value: NaN in {costs}",
        ),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert _one_json_error(err) == message


def test_mismatched_attack_table_exits_2(capsys, tmp_path):
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps({"deletions": {"zzz": 1}}))
    code, _out, err = run_cli(
        capsys, "estimate", "--plant", EST_PLANT, "--attacks", str(costs),
        "--obs", "α", "--budget", "1",
    )
    assert code == 2
    assert "non-observable" in json.loads(err)["error"]


def test_malformed_plants_exit_2(capsys, tmp_path):
    def plant(states=(1, 2), initial=(1,), transitions=(), observable=("a",), unobservable=(),
              faults=()):
        return {
            "states": list(states), "observable": list(observable),
            "unobservable": list(unobservable), "faults": list(faults),
            "initial": list(initial), "transitions": list(transitions),
        }

    unhashable = "must be strings or numbers"
    cases = [
        (plant(states=([1], 2)), unhashable),
        (plant(states=(1, {"x": 1})), unhashable),
        (plant(observable=(["a"],)), unhashable),
        (plant(initial=([1],)), unhashable),
        (plant(transitions=({"from": [1], "event": "a", "to": 2},)), unhashable),
        (plant(transitions=({"from": 1, "event": "a", "to": {"x": 2}},)), unhashable),
        (plant(states=(1, True, 1.0), initial=(2,)), "distinct"),
        (plant(states=(1, 2, 1)), "distinct"),
        (plant(initial=(True,)), "true names no declared state"),
        (plant(transitions=({"from": 1.0, "event": "a", "to": 2},)), "1.0 names no declared state"),
        (plant(transitions=({"from": 1, "event": "a", "to": True},)), "true names no declared"),
        (
            plant(transitions=(
                {"from": 1.0, "event": "a", "to": 2}, {"from": 1, "event": "a", "to": 2},
            )),
            "1.0 names no declared state",
        ),
        (plant(transitions=({"from": 1, "event": "a", "to": 2},) * 2), "must not repeat"),
        (plant(initial=(1, 1)), "'initial' entries must not repeat"),
        (plant(observable=("a", "a")), "'observable' entries must not repeat"),
        (plant(unobservable=("u", "u")), "'unobservable' entries must not repeat"),
        (plant(unobservable=("u",), faults=("u", "u")), "'faults' entries must not repeat"),
    ]
    path = tmp_path / "plant.json"
    for data, message in cases:
        path.write_text(json.dumps(data))
        code, _out, err = run_cli(capsys, "observer", "--plant", str(path))
        assert code == 2, data
        assert message in json.loads(err)["error"]


def test_malformed_substitutions_exit_2(capsys, tmp_path):
    costs = tmp_path / "costs.json"
    cases = [
        ([{"from": "α", "to": "γ", "cost": 1}, {"from": "α", "to": "γ", "cost": 2}], "duplicate"),
        ([{"from": ["α"], "to": "γ", "cost": 1}], "event names"),
        ([{"from": "α", "to": {"γ": 1}, "cost": 1}], "event names"),
        (None, "'substitutions' must be a list"),
        (3, "'substitutions' must be a list"),
    ]
    for substitutions, message in cases:
        costs.write_text(json.dumps({"substitutions": substitutions}))
        code, _out, err = run_cli(capsys, "cmin", "--plant", EST_PLANT, "--attacks", str(costs))
        assert code == 2, substitutions
        assert message in json.loads(err)["error"]


def test_unknown_fault_symbol_exits_2(capsys):
    code, _out, err = run_cli(
        capsys, "diagnose", "--plant", DIAG_PLANT, "--faults", "α", "--budget", "1"
    )
    assert code == 2
    assert "unobservable" in json.loads(err)["error"]


DEAD_PLANT = {
    "states": [0, 1],
    "observable": ["a"],
    "unobservable": ["f"],
    "faults": ["f"],
    "initial": [0],
    "transitions": [
        {"from": 0, "event": "f", "to": 1},
        {"from": 0, "event": "a", "to": 0},
    ],
}

SILENT_CYCLE_PLANT = {
    "states": [0, 1, 2],
    "observable": ["a"],
    "unobservable": ["f", "u"],
    "faults": ["f"],
    "initial": [0],
    "transitions": [
        {"from": src, "event": event, "to": dst}
        for (src, event, dst) in [(0, "a", 0), (0, "f", 1), (1, "u", 2), (2, "u", 1)]
    ],
}


def test_precondition_violation_exits_3(capsys, tmp_path):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(DEAD_PLANT))
    code, _out, err = run_cli(capsys, "diagnose", "--plant", str(path), "--budget", "1")
    assert code == 3
    body = json.loads(err)
    assert body["kind"] == "liveness"


def test_cmin_refuses_the_plants_diagnose_refuses(capsys, tmp_path):
    path = tmp_path / "plant.json"
    for data, kind in ((DEAD_PLANT, "liveness"), (SILENT_CYCLE_PLANT, "unobservable-cycle")):
        path.write_text(json.dumps(data))
        code, out, refusal = run_cli(capsys, "diagnose", "--plant", str(path), "--budget", "1")
        assert (code, out) == (3, "")
        assert json.loads(refusal)["kind"] == kind
        for extra in ((), ("--witness",)):
            code, out, err = run_cli(capsys, "cmin", "--plant", str(path), *extra)
            assert (code, out, err) == (3, "", refusal)


def test_unreachable_unobservable_cycle_still_gets_a_verdict(capsys, tmp_path):
    plant = {
        "states": [0, 1, 2],
        "observable": ["a"],
        "unobservable": ["u"],
        "faults": [],
        "initial": [0],
        "transitions": [
            {"from": 0, "event": "a", "to": 0},
            {"from": 1, "event": "u", "to": 2},
            {"from": 2, "event": "u", "to": 1},
        ],
    }
    path = tmp_path / "island.json"
    path.write_text(json.dumps(plant))
    code, out, _err = run_cli(capsys, "diagnose", "--plant", str(path), "--budget", "1")
    assert code == 0
    assert json.loads(out) == {"budget": 1, "diagnosable": True}


def test_deletion_witness_shows_epsilon(capsys, tmp_path):
    plant = {
        "states": [0, 1, 2, 3, 4],
        "observable": ["a", "b"],
        "unobservable": ["f"],
        "faults": ["f"],
        "initial": [0],
        "transitions": [
            {"from": src, "event": event, "to": dst}
            for (src, event, dst) in [
                (0, "f", 1), (1, "a", 2), (2, "b", 3), (3, "a", 3), (0, "a", 4), (4, "a", 4),
            ]
        ],
    }
    plant_path = tmp_path / "plant.json"
    plant_path.write_text(json.dumps(plant))
    costs_path = tmp_path / "costs.json"
    costs_path.write_text(json.dumps({"deletions": {"b": 1}}))
    code, out, _err = run_cli(
        capsys, "diagnose", "--plant", str(plant_path), "--attacks", str(costs_path),
        "--budget", "1", "--witness",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["diagnosable"] is False
    witness = payload["witness"]
    assert "ε" in witness["left_run"] + witness["right_run"]
    left_obs = [e for e in witness["left_run"] if e in {"a", "b"}]
    right_obs = [e for e in witness["right_run"] if e in {"a", "b"}]
    assert left_obs == right_obs


def test_diagnose_and_cmin_write_dot_files(capsys, tmp_path):
    vf = tmp_path / "vf.dot"
    code, _out, _ = run_cli(
        capsys, "diagnose", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS,
        "--budget", "2", "--dot", str(vf),
    )
    assert code == 0
    assert vf.read_text().startswith("digraph verifier {")
    twin = tmp_path / "twin.dot"
    code, _out, _ = run_cli(
        capsys, "cmin", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS, "--dot", str(twin)
    )
    assert code == 0
    assert twin.read_text().startswith("digraph twin {")


def test_dot_export_validates_the_model_once(capsys, tmp_path, monkeypatch):
    """``--dot`` exports the corrupted automaton the analysis built: one model check."""
    calls = []
    validate = tamperest.AttackModel.validate_against

    def counting(self, plant):
        calls.append(plant)
        return validate(self, plant)

    monkeypatch.setattr(tamperest.AttackModel, "validate_against", counting)
    inputs = ("--plant", DEFE_PLANT, "--attacks", DEFE_COSTS, "--dot", str(tmp_path / "out.dot"))
    for argv in (("cmin", *inputs), ("diagnose", *inputs, "--budget", "2")):
        calls.clear()
        code, _out, _err = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == 1, argv[0]


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "tamperest.cli", "cmin", "--plant", DEFE_PLANT,
         "--attacks", DEFE_COSTS],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"cmin": 2}


def test_multi_character_symbol_names(capsys, tmp_path):
    plant = {
        "states": ["idle", "busy"],
        "observable": ["start", "stop"],
        "unobservable": [],
        "faults": [],
        "initial": ["idle"],
        "transitions": [
            {"from": "idle", "event": "start", "to": "busy"},
            {"from": "busy", "event": "stop", "to": "idle"},
        ],
    }
    costs = {"insertions": {"stop": 1}}
    plant_path = tmp_path / "plant.json"
    costs_path = tmp_path / "costs.json"
    plant_path.write_text(json.dumps(plant))
    costs_path.write_text(json.dumps(costs))
    code, out, _ = run_cli(
        capsys, "estimate", "--plant", str(plant_path), "--attacks", str(costs_path),
        "--obs", "start stop stop", "--budget", "1",
    )
    assert code == 0
    payload = json.loads(out)
    # the only affordable explanation treats one "stop" as inserted, so the
    # plant really ran start-stop and is back at idle
    assert payload["estimates"] == [{"state": "idle", "cost": 1}]


def test_output_is_stable_across_processes():
    # hash randomisation differs per interpreter, so set-order leaks would show
    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "tamperest.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        return result.stdout

    invocations = [
        ("estimate", "--plant", EST_PLANT, "--attacks", EST_COSTS,
         "--obs", "β α α", "--budget", "2", "--witness"),
        ("diagnose", "--plant", DEFE_PLANT, "--attacks", DEFE_COSTS,
         "--budget", "2", "--witness"),
        ("observer", "--plant", EST_PLANT, "--format", "dot"),
    ]
    for argv in invocations:
        assert run(*argv) == run(*argv)


def test_optimized_interpreter_prints_the_same(tmp_path):
    """Checks stay in force under ``python -O``, and the output does not change."""
    src = str(Path(tamperest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run(flags, *argv):
        result = subprocess.run(
            [sys.executable, *flags, "-m", "tamperest.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        return result.returncode, result.stdout

    for plant_name, costs_name in zip(fixtures.PLANTS, fixtures.COST_TABLES):
        inputs = (
            "--plant", str(fixtures.plant_path(plant_name)),
            "--attacks", str(fixtures.costs_path(costs_name)),
        )
        for argv in (("cmin", *inputs), ("diagnose", *inputs, "--budget", "2", "--witness")):
            assert run(["-O"], *argv) == run([], *argv)
    estimate = ("estimate", "--plant", EST_PLANT, "--attacks", EST_COSTS,
                "--obs", "β α α", "--budget", "2", "--witness")
    assert run(["-O"], *estimate) == run([], *estimate)


def test_cli_process_loads_no_reference_module(tmp_path):
    """Every command runs on production modules alone: no reference code, layered verifier or oracle."""
    src = str(Path(tamperest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    defeatable = ("--plant", DEFE_PLANT, "--attacks", DEFE_COSTS)
    runs = [
        ["estimate", "--plant", EST_PLANT, "--attacks", EST_COSTS, "--obs", "β α α",
         "--budget", "2", "--witness", "--dot", str(tmp_path / "estimate.dot")],
        ["diagnose", *defeatable, "--budget", "2", "--witness",
         "--dot", str(tmp_path / "diagnose.dot")],
        ["cmin", *defeatable, "--witness", "--dot", str(tmp_path / "cmin.dot")],
        ["observer", "--plant", EST_PLANT],
        ["export-dot", "--plant", DIAG_PLANT, "--target", "observer"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from tamperest.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('tamperest'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs)],
        capture_output=True,
        encoding="utf-8",
        env=env,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert loaded == set(CLI_MODULES)
    assert all((tmp_path / name).read_text().startswith("digraph")
               for name in ("estimate.dot", "diagnose.dot", "cmin.dot"))


def test_package_runs_as_a_module(capsys):
    """``python -m tamperest`` exits and prints as `main` does in-process."""
    src = str(Path(tamperest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    argv = ("estimate", "--plant", EST_PLANT, "--attacks", EST_COSTS,
            "--obs", "β α α", "--budget", "2", "--witness")
    result = subprocess.run(
        [sys.executable, "-m", "tamperest", *argv], capture_output=True, encoding="utf-8", env=env
    )
    code, out, _err = run_cli(capsys, *argv)
    assert (result.returncode, result.stdout) == (code, out)
    assert code == 0 and json.loads(out)["estimates"]


_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(["ε", "→", 'say "hi"', "back\\slash", "\x00\x1f\n\t", "\u2028", "ε t_α→β"]),
    st.integers(),
    st.sampled_from([2**70, -(2**70), -1, 0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, 1.5e-7, float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([True, False, None]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@given(_VALUES, st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3))
@settings(max_examples=300, deadline=None)
def test_dumps_is_json_dumps_with_indent_2(value, shared):
    """The CLI renderer is byte-identical to the standard library's indented JSON."""

    def reference(v):
        return json.dumps(v, ensure_ascii=False, sort_keys=True, indent=2)

    assert _dumps(value) == reference(value)
    # one flat dict object at several depths, as the witness fragments are shared
    payload = {"value": value, "shared": shared, "deeper": [shared, {"again": (shared, shared)}]}
    assert _dumps(payload) == reference(payload)


def test_cmin_without_faults_reports_null(capsys):
    code, out, _ = run_cli(capsys, "cmin", "--plant", EST_PLANT, "--attacks", EST_COSTS)
    assert code == 0
    assert json.loads(out)["cmin"] is None


# -- fuzzed contract: any input exits 0, 2 or 3, never with a traceback ---------------

_FUZZ_INPUTS = [
    (fixtures.plant_path(plant), fixtures.costs_path(costs))
    for plant, costs in zip(fixtures.PLANTS, fixtures.COST_TABLES)
] + [(GOLDEN_INPUTS / "mixed_plant.json", GOLDEN_INPUTS / "mixed_costs.json")]
_FUZZ_KEYS = (
    "states", "observable", "unobservable", "faults", "initial", "transitions", "from",
    "event", "to", "deletions", "insertions", "substitutions", "cost", "metadata",
)
_FUZZ_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.sampled_from([0.5, 1.0, 10.0, 2**70, float("nan"), float("inf")]),
    st.text(max_size=3),
    st.sampled_from(["α", "β", "γ", "ζ", "σf", "a", "b", "c", "u", "", "ε"] + list(_FUZZ_KEYS)),
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(_FUZZ_KEYS) | st.text(max_size=2), children, max_size=3),
    ),
    max_leaves=6,
)


def _slots(value) -> list:
    """Every (container, key) inside a JSON value, the value itself first."""
    slots, stack = [], [value]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return slots


def _mutated(data, doc):
    """`doc` after a few drawn edits: replace, delete or add an entry, or copy one elsewhere."""
    doc = {"doc": doc}
    for _ in range(data.draw(st.integers(0, 3))):
        slots = _slots(doc)
        node, key = data.draw(st.sampled_from(slots))
        donor, donor_key = data.draw(st.sampled_from(slots))
        value = data.draw(_FUZZ_VALUES | st.just(json.loads(json.dumps(donor[donor_key]))))
        action = data.draw(st.sampled_from(("replace", "delete", "add")))
        if action == "replace" or node is doc:
            node[key] = value
        elif action == "delete":
            del node[key]
        elif isinstance(node[key], list):
            node[key].insert(data.draw(st.integers(0, len(node[key]))), value)
        elif isinstance(node[key], dict):
            node[key][data.draw(st.sampled_from(_FUZZ_KEYS))] = value
    return doc["doc"]


@given(st.data())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_inputs_exit_0_2_or_3_with_one_json_error_line(tmp_path, data):
    plant_path, costs_path = data.draw(st.sampled_from(_FUZZ_INPUTS))
    plant = _mutated(data, json.loads(plant_path.read_text(encoding="utf-8")))
    costs = _mutated(data, json.loads(costs_path.read_text(encoding="utf-8")))
    (tmp_path / "plant.json").write_text(json.dumps(plant), encoding="utf-8")
    (tmp_path / "costs.json").write_text(json.dumps(costs), encoding="utf-8")
    command = data.draw(st.sampled_from(("estimate", "diagnose", "cmin")))
    argv = [command, "--plant", str(tmp_path / "plant.json")]
    if data.draw(st.booleans()):
        argv += ["--attacks", str(tmp_path / "costs.json")]
    symbols = st.sampled_from(["α", "β", "γ", "ζ", "σf", "a", "b", "c", "u", "zz"])
    if command == "estimate":
        argv.append("--obs=" + " ".join(data.draw(st.lists(symbols, max_size=6))))
    if command != "cmin":
        budgets = st.integers(-1, 4).map(str) | st.sampled_from(["", "x", "1.5", "2e1"])
        argv.append(f"--budget={data.draw(budgets)}")
    elif data.draw(st.booleans()):
        argv += ["--faults", *data.draw(st.lists(symbols, min_size=1, max_size=2))]
    if data.draw(st.booleans()):
        argv.append("--witness")
    dot_path = tmp_path / "out.dot"
    if data.draw(st.booleans()):
        argv += ["--dot", str(dot_path)]
    if data.draw(st.integers(0, 9)) == 0:
        argv.append(data.draw(st.sampled_from(["--plant", "--attacks", "--dot", "--faults"])))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert code in (2, 3), argv
        assert out.getvalue() == ""
        assert "error" in json.loads(_one_line(err.getvalue()))
    if code == 0 and "--dot" in argv:
        assert dot_path.read_text(encoding="utf-8").startswith("digraph ")
    dot_path.unlink(missing_ok=True)
