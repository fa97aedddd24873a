"""CLI output on the bundled fixtures, byte for byte against `tests/golden/`.

Every bundled fixture numbers its states with ints, so one more plant,
`tests/golden/inputs/mixed_plant.json`, mixes float, int and str states and
has cost ties that the canonical state order (`sort_key`) breaks: ordering
the states by `str`, by `repr` or by numeric value changes every one of its
witnesses.

The fixtures have at most 8 states, too few for the `cmin` engine's search
to do much, so `tests/golden/inputs/` also holds mid-size plants written by
`perfbench/generate.py`: sig-chains (minimum defeating budget ``k*c``) of
22-36 states and random plants of 29 and 43 states, with and without
deletions in their attack tables.

Regenerate the files (only when an output change is intended) with::

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from tamperest import fixtures
from tamperest.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_inputs(name: str) -> tuple:
    inputs = GOLDEN / "inputs"
    plant, costs = inputs / f"{name}_plant.json", inputs / f"{name}_costs.json"
    return ("--plant", str(plant), "--attacks", str(costs))


MIXED = _golden_inputs("mixed")
#: Mid-size generated plant -> its minimum defeating budget (``k*c`` for a sig-chain).
MID_SIZE = {
    "chain22k2": 2,
    "chain29k2": 4,
    "chain29k3": 3,
    "chain36k3": 6,
    "chain36k3del": 6,
    "random29": 0,
    "random43": 0,
    "random43del": 0,
}
#: A 12-symbol word on which `random43del` has 32 estimates, 11 over budget 3.
RANDOM43DEL_WORD = "o5 o1 o3 o2 o1 o3 o1 o0 o1 o4 o4 o3"


def _inputs(plant: str, costs: str) -> tuple:
    return ("--plant", str(fixtures.plant_path(plant)), "--attacks", str(fixtures.costs_path(costs)))


def _cases() -> dict:
    """Golden file stem -> (argv, whether the command also writes a DOT file)."""
    cases = {}
    estimation = _inputs("estimation", "estimation")
    for budget in range(4):
        argv = ("estimate", *estimation, "--obs", "β α α", "--budget", str(budget), "--witness")
        cases[f"estimate_estimation_b{budget}"] = (argv, False)
    for plant, costs in zip(fixtures.PLANTS, fixtures.COST_TABLES):
        inputs = _inputs(plant, costs)
        for budget in range(4):
            argv = ("diagnose", *inputs, "--budget", str(budget), "--witness")
            cases[f"diagnose_{plant}_b{budget}"] = (argv, False)
        cases[f"cmin_{plant}"] = (("cmin", *inputs, "--witness"), False)
    defeatable = _inputs("defeatable", "defeatable")
    cases["estimate_estimation_b2_dot"] = (
        ("estimate", *estimation, "--obs", "β α α", "--budget", "2"), True
    )
    cases["diagnose_defeatable_b2_dot"] = (("diagnose", *defeatable, "--budget", "2"), True)
    cases["cmin_defeatable_dot"] = (("cmin", *defeatable), True)
    cases["cmin_confusable_dot"] = (("cmin", *_inputs("confusable", "empty")), True)
    for budget in (1, 2):
        argv = ("estimate", *MIXED, "--obs", "a b", "--budget", str(budget), "--witness")
        cases[f"estimate_mixed_b{budget}"] = (argv, False)
    cases["diagnose_mixed_b1"] = (("diagnose", *MIXED, "--budget", "1", "--witness"), False)
    cases["cmin_mixed"] = (("cmin", *MIXED, "--witness"), False)
    cases["diagnose_mixed_b1_dot"] = (("diagnose", *MIXED, "--budget", "1"), True)
    cases["cmin_mixed_dot"] = (("cmin", *MIXED), True)
    cases["estimate_mixed_b3_long"] = (
        ("estimate", *MIXED, "--obs", "a a c a a", "--budget", "3", "--witness"), False
    )
    cases["estimate_estimation_empty"] = (
        ("estimate", *estimation, "--obs", "", "--budget", "1", "--witness"), False
    )
    cases["estimate_mixed_b3_long_dot"] = (
        ("estimate", *MIXED, "--obs", "a a c a a", "--budget", "3"), True
    )
    cases["estimate_random43del_b3_dot"] = (
        ("estimate", *_golden_inputs("random43del"), "--obs", RANDOM43DEL_WORD, "--budget", "3",
         "--witness"),
        True,
    )
    for name, value in MID_SIZE.items():
        inputs = _golden_inputs(name)
        cases[f"cmin_{name}"] = (("cmin", *inputs, "--witness"), False)
        argv = ("diagnose", *inputs, "--budget", str(value), "--witness")
        cases[f"diagnose_{name}_b{value}"] = (argv, False)
    for name, plant in (("estimation", str(fixtures.plant_path("estimation"))), ("mixed", MIXED[1])):
        cases[f"observer_{name}"] = (("observer", "--plant", plant), False)
    return cases


CASES = _cases()


def _run(argv: tuple, dot_path) -> str:
    if dot_path is not None:
        argv = (*argv, "--dot", str(dot_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return out.getvalue()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_cli_output_matches_golden(stem, tmp_path):
    argv, writes_dot = CASES[stem]
    dot_path = tmp_path / "out.dot" if writes_dot else None
    out = _run(argv, dot_path)
    assert out.encode("utf-8") == (GOLDEN / f"{stem}.json").read_bytes()
    if writes_dot:
        assert dot_path.read_bytes() == (GOLDEN / f"{stem}.dot").read_bytes()


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    for stem, (argv, writes_dot) in sorted(CASES.items()):
        dot_path = GOLDEN / f"{stem}.dot" if writes_dot else None
        (GOLDEN / f"{stem}.json").write_bytes(_run(argv, dot_path).encode("utf-8"))


if __name__ == "__main__":
    write_golden()
