"""Tests of the benchmark's own code: generators, known answers and checks.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random

import pytest

import check
import generate
import run
import workloads
from tamperest.attacks import model_from_dict
from tamperest.automata import plant_from_dict
from tamperest.estimator import estimate_least_cost
from tamperest.oracle import OracleBudget, brute_force_minimum_budget


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = workloads.build(workload, 7, dirs[0], rounds=2)
    again = workloads.build(workload, 7, dirs[1], rounds=2)
    other = workloads.build(workload, 8, dirs[2], rounds=2)
    assert first == again
    assert _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])


@pytest.mark.parametrize("seed", range(6))
def test_sig_chain_answer_agrees_with_the_oracle(seed):
    rng = random.Random(seed)
    k = 1 + seed % 2
    c = 1 + seed // 3
    plant, model = generate.sig_chain(rng, 3, k, c, deletions=2 * (seed % 2))
    assert len(plant["states"]) <= 6
    # the path enumeration order follows set order, so allow it some slack
    limits = OracleBudget(max_expansions=2_000_000)
    assert brute_force_minimum_budget(plant_from_dict(plant), model_from_dict(model), limits=limits) == k * c


@pytest.mark.parametrize("seed", range(4))
def test_tampered_word_keeps_the_true_state_within_its_spend(seed):
    rng = random.Random(seed)
    plant = generate.random_plant(rng, 12)
    model = generate.random_model(rng, deletions=2 * (seed % 2))
    observation, true_state = generate.random_run(rng, plant, 20)
    received, spend = generate.tamper(rng, observation, model, 3)
    assert spend <= 3
    estimate = estimate_least_cost(plant_from_dict(plant), model_from_dict(model), received, 3)
    assert estimate.cost(true_state) is not None
    assert estimate.cost(true_state) <= spend


def _diagnose_query(budget, cmin, witness=False):
    return {
        "command": "diagnose",
        "argv": ["diagnose", "--budget", str(budget)] + (["--witness"] if witness else []),
        "expect": {"family": "chain", "cmin": cmin, "budget": budget},
    }


PLANT = {"observable": ["o0", "sig"], "faults": ["f"]}


def _out(payload):
    return json.dumps(payload)


def test_checker_accepts_right_verdicts():
    ok = _out({"budget": 3, "diagnosable": True})
    assert check.judge(_diagnose_query(3, 4), 0, ok, PLANT, None) is None
    ok = _out({"budget": 4, "diagnosable": False})
    assert check.judge(_diagnose_query(4, 4), 0, ok, PLANT, None) is None


def test_checker_flags_a_wrong_verdict():
    wrong = _out({"budget": 1, "diagnosable": False})
    assert check.judge(_diagnose_query(1, 4), 0, wrong, PLANT, None)[0] == "answer"
    wrong = _out({"budget": 4, "diagnosable": True})
    assert check.judge(_diagnose_query(4, 4), 0, wrong, PLANT, None)[0] == "answer"
    assert check.judge(_diagnose_query(4, 4), 2, "", PLANT, None)[0] == "exit-code"


def test_checker_names_the_budget_off_by_one():
    verdict = _out({"budget": 3, "diagnosable": False})
    kind, _ = check.judge(_diagnose_query(3, 4), 0, verdict, PLANT, None)
    assert kind == check.BUDGET_SEMANTICS


def test_checker_flags_a_witness_with_unequal_projections():
    witness = {"left_run": ["f", "o0"], "right_run": ["o0", "o0"], "cycle": {}}
    out = _out({"budget": 4, "diagnosable": False, "witness": witness})
    assert check.judge(_diagnose_query(4, 4, witness=True), 0, out, PLANT, None)[0] == "witness"


def test_checker_flags_a_wrong_estimate_and_witness():
    model = {"deletions": {}, "insertions": {"a": 2}, "substitutions": []}
    query = {
        "command": "estimate",
        "argv": ["estimate", "--witness"],
        "expect": {"true_state": 1, "spend": 2, "received": ["a", "b"]},
    }
    witness = [{"type": "ins", "symbol": "a"}, {"type": "plain", "symbol": "b"}]
    good = {"received": ["a", "b"], "estimates": [{"state": 1, "cost": 2, "witness": witness}]}
    assert check.judge(query, 0, _out(good), {}, model) is None
    too_dear = dict(good, estimates=[{"state": 1, "cost": 3, "witness": witness}])
    assert check.judge(query, 0, _out(too_dear), {}, model)[0] == "answer"
    missing = dict(good, estimates=[{"state": 0, "cost": 0, "witness": []}])
    assert check.judge(query, 0, _out(missing), {}, model)[0] == "answer"
    bad_witness = dict(good, estimates=[{"state": 1, "cost": 2, "witness": witness[1:]}])
    assert check.judge(query, 0, _out(bad_witness), {}, model)[0] == "witness"


def test_tail_leaves_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0
    assert percentile == 75.0
