import random

import pytest

from tamperest.attacks import (
    Del,
    Ins,
    Plain,
    Sub,
)
from tamperest.errors import ValidationError
from tamperest.oracle import enumerate_matching
from tamperest.reference import (
    build_costed_matching_dfa,
    build_matching_automaton,
    matching_language,
    total_cost,
)

from instances import random_attack_model, random_observation

A, B, G = "α", "β", "γ"


# -- stage machine ---------------------------------------------------------------


def test_stage_machine_structure(estimation_costs):
    machine = build_matching_automaton((B, A, A), estimation_costs)
    assert machine.final_stage == 3
    assert set(machine.advancing_labels(0)) == {Plain(B), Ins(B), Sub(A, B)}
    assert set(machine.advancing_labels(1)) == {Plain(A), Sub(G, A)}
    assert set(machine.advancing_labels(2)) == {Plain(A), Sub(G, A)}
    assert machine.advancing_labels(3) == ()
    assert machine.loop_labels() == (Del(A),)
    moves = [
        (stage, label, stage) for stage in range(4) for label in machine.loop_labels()
    ] + [
        (stage, label, stage + 1) for stage in range(4) for label in machine.advancing_labels(stage)
    ]
    assert (0, Del(A), 0) in moves
    assert (0, Sub(A, B), 1) in moves
    assert len(set(moves)) == len(moves) == 4 * 1 + 3 + 2 + 2  # a loop per stage plus the advances


def test_empty_observation_machine(estimation_costs):
    machine = build_matching_automaton((), estimation_costs)
    assert machine.final_stage == 0
    assert machine.advancing_labels(0) == ()
    assert machine.loop_labels() == (Del(A),)


def test_machine_rejects_symbols_outside_alphabet(estimation_costs):
    with pytest.raises(ValidationError):
        build_matching_automaton(("zzz",), estimation_costs, alphabet=frozenset({A, B, G}))


def test_machine_language_agrees_with_enumeration(estimation_costs):
    machine = build_matching_automaton((B, A, A), estimation_costs)
    expected = [(cs.labels, cs.cost) for cs in enumerate_matching((B, A, A), estimation_costs, 2)]
    assert matching_language(machine, 2) == expected


def test_machine_language_agrees_on_random_instances():
    rng = random.Random(43)
    for _ in range(25):
        model = random_attack_model(rng)
        word = random_observation(rng)
        budget = rng.randint(0, 3)
        machine = build_matching_automaton(word, model)
        got = set(matching_language(machine, budget))
        expected = {(cs.labels, cs.cost) for cs in enumerate_matching(word, model, budget)}
        assert got == expected


# -- costed DFA -------------------------------------------------------------------


def test_costed_dfa_spot_checks(estimation_costs):
    dfa = build_costed_matching_dfa((B, A, A), estimation_costs, 3)
    assert dfa.step((0, 0), Ins(B)) == (1, 2)
    assert dfa.step((0, 3), Sub(A, B)) == (1, 3)


def test_costed_dfa_zero_bound_empty_model_is_a_chain():
    from tamperest.attacks import AttackModel

    word = ("x", "y", "z")
    dfa = build_costed_matching_dfa(word, AttackModel.empty(), 0)
    assert dfa.states == frozenset({(i, 0) for i in range(4)})
    assert dfa.run(tuple(Plain(s) for s in word)) == (3, 0)
    assert dfa.run((Plain("y"),)) is None


def test_costed_dfa_only_reachable_states(estimation_costs):
    dfa = build_costed_matching_dfa((B, A, A), estimation_costs, 3)
    # cost 1 is unreachable at stage 1: the cheapest non-plain first step costs 2
    assert (1, 1) not in dfa.states
    assert (0, 0) in dfa.states and (0, 3) in dfa.states


def test_costed_dfa_is_deterministic_and_monotone():
    rng = random.Random(47)
    for _ in range(25):
        model = random_attack_model(rng)
        word = random_observation(rng)
        bound = rng.randint(0, 4)
        dfa = build_costed_matching_dfa(word, model, bound)
        seen = set()
        for ((state, label), target) in dfa.transitions.items():
            assert (state, label) not in seen
            seen.add((state, label))
            assert target[0] >= state[0]
            assert target[1] >= state[1]
            assert target[1] <= bound


def test_costed_dfa_tracks_exact_costs_below_saturation():
    rng = random.Random(53)
    for _ in range(25):
        model = random_attack_model(rng)
        word = random_observation(rng)
        budget = rng.randint(0, 3)
        bound = budget + 1
        dfa = build_costed_matching_dfa(word, model, bound)
        for cs in enumerate_matching(word, model, budget):
            # cost <= bound - 1, so saturation never kicks in
            assert dfa.run(cs.labels) == (len(word), cs.cost)


def test_saturation_pins_expensive_runs_to_the_bound():
    rng = random.Random(97)
    for _ in range(20):
        model = random_attack_model(rng)
        word = random_observation(rng, max_len=2)
        bound = rng.randint(0, 2)
        dfa = build_costed_matching_dfa(word, model, bound)
        machine = build_matching_automaton(word, model)
        for labels, cost in matching_language(machine, bound + 3):
            state = dfa.run(labels)
            assert state is not None
            assert state == (len(word), min(cost, bound))


def test_costed_dfa_saturates_expensive_runs(estimation_costs):
    dfa = build_costed_matching_dfa((B,), estimation_costs, 1)
    # an insertion costs 2, beyond the bound: lands at the sentinel cost 1
    assert dfa.run((Ins(B),)) == (1, 1)


def test_accepted_language_agrees_below_the_bound():
    rng = random.Random(59)
    for _ in range(20):
        model = random_attack_model(rng)
        word = random_observation(rng)
        budget = rng.randint(0, 2)
        bound = budget + 1
        dfa = build_costed_matching_dfa(word, model, bound)
        machine = build_matching_automaton(word, model)
        accepted = {
            labels
            for labels, _cost in matching_language(machine, budget)
            if dfa.run(labels) is not None and dfa.run(labels)[1] <= budget
        }
        expected = {cs.labels for cs in enumerate_matching(word, model, budget)}
        assert accepted == expected
        for labels in expected:
            stage, cost = dfa.run(labels)
            assert stage == len(word)
            assert cost == total_cost(labels, model)
