"""Every `cmin` witness, replayed side by side through the least-cost estimator.

Each side of a witness is a plant run plus attacks that cost that side its
spend and produce the word both sides observe.  So the least-cost estimate
of that word at budget ``spend`` holds the side's end state at a cost no
higher than the spend, after the access path and after any number of laps
of the cost-free cycle.  The estimator reads the attack rules off the cost
table through its own per-symbol move table, not through the corrupted
automaton, and searches stage by stage rather than over twin states, so
the two engines check each other at sizes the oracle refuses.

The plants: the bundled fixtures, the mid-size golden inputs, and seeded
random and sig-chain plants from ``perfbench/generate.py``.
"""

import random
from pathlib import Path

from tamperest import fixtures
from tamperest.attacks import load_model, model_from_dict
from tamperest.automata import load_plant, plant_from_dict
from tamperest.cmin import analyze_minimum_budget
from tamperest.estimator import estimate_least_cost

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_INPUTS = ROOT / "tests" / "golden" / "inputs"
FIXTURES = (
    ("estimation", "estimation"),
    ("diagnosable", "diagnosable"),
    ("defeatable", "defeatable"),
    ("confusable", "empty"),
)
LAPS = (0, 1, 2)


def _side(steps, plant, i: int) -> tuple:
    """Observed word and spend of side `i` (0 left, 1 right) along twin-verifier steps."""
    word = tuple(tau[i][0] for (_src, tau, _side, _dst) in steps if tau[i][0] in plant.observable)
    return word, sum(tau[i][1] for (_src, tau, _side, _dst) in steps)


def _replay(plant, model) -> tuple:
    """The `cmin` value of `plant` under `model` and the side checks made on its witness."""
    result = analyze_minimum_budget(plant, model, want_witness=True)
    if result.value is None:
        return None, 0
    access, cycle = result.witness, result.cycle
    ending = cycle[0][0]
    assert cycle[-1][3] == ending and (not access or access[-1][3] == ending)
    assert max(_side(access, plant, i)[1] for i in (0, 1)) == result.value
    checks = 0
    for i, end in ((0, ending[0]), (1, ending[2])):
        word, spend = _side(access, plant, i)
        lap, lap_spend = _side(cycle, plant, i)
        assert lap_spend == 0
        for laps in LAPS:
            received = word + lap * laps
            estimate = estimate_least_cost(plant, model, received, spend)
            cost = estimate.cost(end)
            assert cost is not None and cost <= spend, (received, spend, end, estimate.pairs)
            checks += 1
    return result.value, checks


def _generated(count: int) -> list:
    """``(plant, model, cmin or None)``: random plants of 10-60 states and sig-chains.

    The sig-chains' one attack on ``sig`` cycles through the generator's
    substitution ``sig -> o0``, a deletion and an insertion of ``sig`` at
    the same cost ``c``, so that the witnesses use every kind of attack;
    each of the ``k`` ``sig`` symbols must be attacked once, so ``cmin`` is
    ``k * c`` in all three.
    """
    import generate

    rng = random.Random(20201103)
    cases = []
    for i in range(count):
        deletions = i % 3
        if i % 2:
            plant = generate.random_plant(rng, rng.randint(10, 60))
            model, expected = generate.random_model(rng, deletions), None
        else:
            n_body, k, c = rng.randint(10, 40), rng.randint(1, 3), rng.randint(1, 3)
            plant, model = generate.sig_chain(rng, n_body, k, c, deletions)
            kind = (i // 2) % 3
            if kind:
                sig = model["substitutions"].pop()
                model["deletions" if kind == 1 else "insertions"][sig["from"]] = sig["cost"]
            expected = k * c
        cases.append((plant_from_dict(plant), model_from_dict(model), expected))
    return cases


def test_fixture_and_golden_witnesses_replay_through_the_estimator():
    cases = [(fixtures.plant(p), fixtures.costs(c)) for p, c in FIXTURES]
    for path in sorted(GOLDEN_INPUTS.glob("*_plant.json")):
        stem = path.name[: -len("_plant.json")]
        cases.append((load_plant(path), load_model(GOLDEN_INPUTS / f"{stem}_costs.json")))
    assert len(cases) == 4 + 9
    checks = sum(_replay(plant, model)[1] for plant, model in cases)
    assert checks >= 2 * len(LAPS) * 10


def test_generated_witnesses_replay_through_the_estimator(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks = 0
    for plant, model, expected in _generated(200):
        value, made = _replay(plant, model)
        assert expected is None or value == expected
        checks += made
    assert checks >= 2 * len(LAPS) * 190
