"""Seeded instance families with known answers.

Everything here is plain data: plants and attack tables are the JSON
dictionaries the ``tamperest`` command line reads, built without importing
the package, so the program under test sees only the generated files.

Families:

* the random family: ``o0`` .. ``o5`` observable, each (state, event) edge
  present with probability 1/2 and 1-2 targets, an ``o0`` ring for liveness,
  and forward-only unobservable (``u``) and fault (``f``) edges.  Attacks
  touch ``o1`` .. ``o5`` at costs 1-3.  Edge and attack counts are fixed,
  not drawn, so instances of one size cost about the same to analyse.
* the sig-chain family: a fault-free random body with an ``o0`` ring, plus a
  fault edge into a chain of ``k`` observable ``sig`` edges that merges back
  into the body.  The only attack on ``sig`` is the substitution
  ``sig -> o0`` at cost ``c``; the other attacks touch only ``o1`` .. ``o5``.
  A faulty run must emit ``k`` symbols that no fault-free run can emit, and
  after the merge both runs can follow the ``o0`` ring forever, so the
  minimum defeating budget is exactly ``k * c``.
* tampered words: a random run of a plant, corrupted by random attacks
  within a budget.  The true final state and the attacker's spend are known,
  so the least-cost estimate must hold that state at no higher cost.
"""

from __future__ import annotations

import random

OBS = tuple(f"o{i}" for i in range(6))
SIG = "sig"
UO = "u"
FAULT = "f"


def _body(rng: random.Random, n: int) -> set:
    """Random transitions over states 0..n-1: observable edges, o0 ring, forward u edges.

    Each (state, event) edge exists with probability 1/2 and has 1 or 2
    targets, but the draws are balanced: every event has edges at exactly
    n // 2 states, half of them with two targets, and exactly 3n // 10 states
    get a ``u`` edge.  The size of the twin products then hardly depends on
    the seed.
    """
    transitions = {(state, "o0", (state + 1) % n) for state in range(n)}
    half = n // 2
    for event in OBS:
        for i, state in enumerate(rng.sample(range(n), half)):
            for target in rng.sample(range(n), 1 + i % 2):
                transitions.add((state, event, target))
    for state in rng.sample(range(n - 1), 3 * n // 10):
        transitions.add((state, UO, rng.randrange(state + 1, n)))
    return transitions


def _plant_dict(n: int, observable, transitions) -> dict:
    return {
        "states": list(range(n)),
        "observable": sorted(observable),
        "unobservable": [FAULT, UO],
        "faults": [FAULT],
        "initial": [0],
        "transitions": [
            {"from": src, "event": event, "to": dst}
            for (src, event, dst) in sorted(transitions)
        ],
    }


def random_plant(rng: random.Random, n: int) -> dict:
    """One plant of the random family, with one fault edge per ten states (at least one)."""
    transitions = _body(rng, n)
    for state in rng.sample(range(n - 1), max(1, n // 10)):
        transitions.add((state, FAULT, rng.randrange(state + 1, n)))
    return _plant_dict(n, OBS, transitions)


#: Every attack table has this many insertions and substitutions, on these
#: symbols, at costs 1 .. MAX_COST.
ATTACKED = OBS[1:]
INSERTIONS = 2
SUBSTITUTIONS = 3
MAX_COST = 3


def random_model(rng: random.Random, deletions: int) -> dict:
    """Attack table with `deletions` deletions and fixed numbers of the other attacks on ATTACKED.

    The costs are 1, 2, .., MAX_COST, 1, 2, .. shuffled over the attacks.
    Fixed counts and costs, and leaving the denser ring symbol ``o0`` alone,
    keep the work of a query from swinging with the attacks a seed draws.
    """
    pairs = [(a, b) for a in ATTACKED for b in ATTACKED if a != b]
    count = deletions + INSERTIONS + SUBSTITUTIONS
    costs = [1 + i % MAX_COST for i in range(count)]
    rng.shuffle(costs)
    return {
        "deletions": dict(zip(rng.sample(ATTACKED, deletions), costs)),
        "insertions": dict(zip(rng.sample(ATTACKED, INSERTIONS), costs[deletions:])),
        "substitutions": [
            {"from": a, "to": b, "cost": cost}
            for (a, b), cost in zip(
                sorted(rng.sample(pairs, SUBSTITUTIONS)), costs[deletions + INSERTIONS:]
            )
        ],
    }


def sig_chain(rng: random.Random, n_body: int, k: int, c: int, deletions: int) -> tuple:
    """A sig-chain plant and attack table whose minimum defeating budget is ``k * c``.

    Body states are ``0 .. n_body-1``; chain states follow.  Returns
    ``(plant, model)``.
    """
    transitions = _body(rng, n_body)
    chain = list(range(n_body, n_body + k))
    transitions.add((rng.randrange(n_body), FAULT, chain[0]))
    for here, there in zip(chain, chain[1:]):
        transitions.add((here, SIG, there))
    transitions.add((chain[-1], SIG, rng.randrange(n_body)))
    plant = _plant_dict(n_body + k, OBS + (SIG,), transitions)
    model = random_model(rng, deletions=deletions)
    model["substitutions"].append({"from": SIG, "to": "o0", "cost": c})
    return plant, model


def _outgoing(plant: dict) -> dict:
    out: dict = {}
    for t in plant["transitions"]:
        out.setdefault(t["from"], []).append((t["event"], t["to"]))
    return out


def random_run(rng: random.Random, plant: dict, length: int) -> tuple:
    """Walk the plant from its first initial state until `length` observable events occurred.

    Returns ``(observation, final_state)``.
    """
    out = _outgoing(plant)
    observable = set(plant["observable"])
    state = plant["initial"][0]
    observation = []
    while len(observation) < length:
        event, state = rng.choice(out[state])
        if event in observable:
            observation.append(event)
    return tuple(observation), state


def tamper(rng: random.Random, observation, model: dict, budget: int) -> tuple:
    """Corrupt `observation` with random attacks of total cost at most `budget`.

    Returns ``(received, spend)``.  Each attack hits a random position; the
    attacker stops when nothing affordable is left or, with probability 1/4,
    before each further attack.
    """
    word = list(observation)
    spend = 0
    substitutions = [(s["from"], s["to"], s["cost"]) for s in model["substitutions"]]
    while rng.random() >= 0.25:
        left = budget - spend
        options = []
        for i, symbol in enumerate(word):
            if word[i] is None:
                continue
            cost = model["deletions"].get(symbol)
            if cost is not None and cost <= left:
                options.append(("del", i, symbol, cost))
            for original, observed, cost in substitutions:
                if original == symbol and cost <= left:
                    options.append(("sub", i, observed, cost))
        for symbol, cost in model["insertions"].items():
            if cost <= left:
                options.append(("ins", rng.randrange(len(word) + 1), symbol, cost))
        if not options:
            break
        kind, i, symbol, cost = rng.choice(options)
        spend += cost
        if kind == "del":
            word[i] = None
        elif kind == "sub":
            word[i] = (symbol,)  # already attacked: never attacked again
        else:
            word.insert(i, (symbol,))
    received = []
    for symbol in word:
        if isinstance(symbol, tuple):
            received.append(symbol[0])
        elif symbol is not None:
            received.append(symbol)
    return tuple(received), spend
