import random

import pytest

from tamperest.attacks import AttackModel
from tamperest.automata import PlantNfa
from tamperest.cmin import (
    FAULTY,
    NORMAL,
    is_mismatched,
    minimum_defeating_budget,
    side_run,
    step_costs,
    verify_diagnosability,
)
from tamperest.diagnoser import (
    DeletionMarker,
    build_costed_plant,
    build_twin_verifier,
    find_confused_cycle,
)
from tamperest.errors import PreconditionError, ValidationError
from tamperest.oracle import OracleBudget, brute_force_diagnosable

from instances import random_attack_model, random_plant

A, B, G, Z = "α", "β", "γ", "ζ"
WIDE = OracleBudget(max_states=8)


def plant_of(transitions, observable, unobservable, faults, initial=(0,)):
    states = {s for (s, _e, _d) in transitions} | {d for (_s, _e, d) in transitions}
    return PlantNfa(
        states=frozenset(states | set(initial)),
        observable=frozenset(observable),
        unobservable=frozenset(unobservable),
        faults=frozenset(faults),
        transitions=frozenset(transitions),
        initial=frozenset(initial),
    )


# -- augmented plant ---------------------------------------------------------------


def test_substitution_layers_cost(diagnosable_plant, diagnosable_costs):
    costed = build_costed_plant(diagnosable_plant, diagnosable_costs, 5)
    assert (2, 1) in costed.successors((1, 0), B)
    # the plain α move stays on the zero-cost layer
    assert costed.successors((1, 0), A) == frozenset({(2, 0)})


def test_two_substitutions_accumulate(defeatable_plant, defeatable_costs):
    costed = build_costed_plant(defeatable_plant, defeatable_costs, 3)
    assert costed.successors((1, 0), G) == frozenset({(2, 1)})
    assert costed.successors((2, 1), A) == frozenset({(3, 2)})


def test_empty_model_reproduces_the_plant(confusable_plant):
    costed = build_costed_plant(confusable_plant, AttackModel.empty(), 4)
    assert costed.states == frozenset((s, 0) for s in confusable_plant.states)
    assert costed.transitions == frozenset(
        ((src, 0), event, (dst, 0)) for (src, event, dst) in confusable_plant.transitions
    )


def test_insertions_self_loop_with_cost():
    plant = plant_of([(0, "a", 0)], ("a", "b"), (), ())
    model = AttackModel({}, {"b": 2}, {})
    costed = build_costed_plant(plant, model, 5)
    assert costed.successors((0, 0), "b") == frozenset({(0, 2)})
    assert costed.successors((0, 4), "b") == frozenset()  # 4 + 2 > 5


def test_deletions_become_unobservable_markers():
    plant = plant_of([(0, "a", 1), (1, "b", 1)], ("a", "b"), (), ())
    model = AttackModel({"a": 1}, {}, {})
    costed = build_costed_plant(plant, model, 2)
    marker = DeletionMarker("a")
    assert costed.successors((0, 0), marker) == frozenset({(1, 1)})
    assert not costed.is_observable_event(marker)


def test_every_layer_carries_the_plain_plant():
    rng = random.Random(127)
    for _ in range(15):
        plant = random_plant(
            rng, max_states=4, allow_unobservable_cycles=False, ensure_live=True,
            with_fault=True,
        )
        model = random_attack_model(rng, max_cost=2)
        costed = build_costed_plant(plant, model, 3)
        for (state, spent) in costed.states:
            for event in plant.events_at(state):
                for target in plant.successors(state, event):
                    assert (target, spent) in costed.successors((state, spent), event)


def test_cost_layers_are_cut_at_the_bound(defeatable_plant, defeatable_costs):
    costed = build_costed_plant(defeatable_plant, defeatable_costs, 1)
    assert all(spent <= 1 for (_s, spent) in costed.states)


def test_bound_must_be_positive(confusable_plant):
    with pytest.raises(ValidationError):
        build_costed_plant(confusable_plant, AttackModel.empty(), 0)


# -- twin verifier ------------------------------------------------------------------


def test_fault_moves_one_side_and_relabels(diagnosable_plant, diagnosable_costs):
    costed = build_costed_plant(diagnosable_plant, diagnosable_costs, 5)
    verifier = build_twin_verifier(costed, diagnosable_plant.faults)
    src = ((1, 0), FAULTY, (0, 0), NORMAL)
    assert src in verifier.states
    targets = {dst for (s, e, _side, dst) in verifier.transitions if s == src and e == "σf"}
    assert ((1, 0), FAULTY, (1, 0), FAULTY) in targets


def test_substituted_symbol_synchronises_both_sides(diagnosable_plant, diagnosable_costs):
    costed = build_costed_plant(diagnosable_plant, diagnosable_costs, 5)
    verifier = build_twin_verifier(costed, diagnosable_plant.faults)
    src = ((1, 0), FAULTY, (0, 0), NORMAL)
    moves = {
        dst for (s, e, _side, dst) in verifier.transitions if s == src and e == B
    }
    assert moves == {((2, 1), FAULTY, (5, 0), NORMAL)}


def test_fault_free_plant_keeps_normal_labels(estimation_plant):
    costed = build_costed_plant(estimation_plant, AttackModel.empty(), 1)
    verifier = build_twin_verifier(costed, frozenset())
    assert all(l1 == NORMAL and l2 == NORMAL for (_x, l1, _y, l2) in verifier.states)


def test_verifier_state_count_bound(defeatable_plant, defeatable_costs):
    costed = build_costed_plant(defeatable_plant, defeatable_costs, 3)
    verifier = build_twin_verifier(costed, defeatable_plant.faults)
    assert len(verifier.states) <= (2 * len(defeatable_plant.states) * 4) ** 2


def test_verifier_is_symmetric(defeatable_plant, defeatable_costs):
    costed = build_costed_plant(defeatable_plant, defeatable_costs, 3)
    verifier = build_twin_verifier(costed, defeatable_plant.faults)
    for (x, l1, y, l2) in verifier.states:
        assert (y, l2, x, l1) in verifier.states


def test_fault_labels_absorb(defeatable_plant, defeatable_costs):
    costed = build_costed_plant(defeatable_plant, defeatable_costs, 3)
    verifier = build_twin_verifier(costed, defeatable_plant.faults)
    for (src, _e, _side, dst) in verifier.transitions:
        if src[1] == FAULTY:
            assert dst[1] == FAULTY
        if src[3] == FAULTY:
            assert dst[3] == FAULTY


# -- confusion detection ---------------------------------------------------------------


def test_diagnosable_fixture_has_no_confused_cycle(diagnosable_plant, diagnosable_costs):
    costed = build_costed_plant(diagnosable_plant, diagnosable_costs, 5)
    verifier = build_twin_verifier(costed, diagnosable_plant.faults)
    assert find_confused_cycle(verifier) is None


def test_defeatable_fixture_has_a_confused_cycle(defeatable_plant, defeatable_costs):
    costed = build_costed_plant(defeatable_plant, defeatable_costs, 3)
    verifier = build_twin_verifier(costed, defeatable_plant.faults)
    found = find_confused_cycle(verifier)
    assert found is not None
    for (src, _e, _side, dst) in found.cycle:
        assert src[1] != src[3] and dst[1] != dst[3]
    assert found.cycle[0][0] == found.cycle[-1][3]


def test_no_fault_labels_means_no_cycle(estimation_plant):
    costed = build_costed_plant(estimation_plant, AttackModel.empty(), 1)
    verifier = build_twin_verifier(costed, frozenset())
    assert find_confused_cycle(verifier) is None


# -- verdicts ----------------------------------------------------------------------------


def test_dead_plant_is_rejected():
    plant = plant_of([(0, "a", 1)], ("a",), (), ())
    with pytest.raises(PreconditionError) as err:
        verify_diagnosability(plant, AttackModel.empty(), budget=2)
    assert err.value.kind == "liveness"
    assert err.value.witness == 1


def test_unobservable_cycle_is_rejected():
    plant = plant_of([(0, "u", 1), (1, "u", 0), (0, "a", 0), (1, "a", 1)], ("a",), ("u",), ())
    with pytest.raises(PreconditionError) as err:
        verify_diagnosability(plant, AttackModel.empty(), budget=2)
    assert err.value.kind == "unobservable-cycle"


def test_published_verdicts(diagnosable_plant, diagnosable_costs, defeatable_plant, defeatable_costs):
    assert verify_diagnosability(diagnosable_plant, diagnosable_costs, budget=4).diagnosable
    assert not verify_diagnosability(defeatable_plant, defeatable_costs, budget=2).diagnosable


def test_classical_confusable_toy_is_not_diagnosable(confusable_plant, empty_model):
    assert not verify_diagnosability(confusable_plant, empty_model, budget=0).diagnosable


def test_deletion_attack_defeats_a_distinguishing_symbol():
    plant = plant_of(
        [(0, "f", 1), (1, "a", 2), (2, "b", 3), (3, "a", 3), (0, "a", 4), (4, "a", 4)],
        ("a", "b"),
        ("f",),
        ("f",),
    )
    assert verify_diagnosability(plant, AttackModel.empty(), budget=0).diagnosable
    deleting = AttackModel({"b": 1}, {}, {})
    assert not verify_diagnosability(plant, deleting, budget=1).diagnosable


def test_insertion_attack_fakes_a_missing_symbol():
    plant = plant_of(
        [(0, "f", 1), (1, "a", 2), (2, "a", 2), (0, "a", 3), (3, "b", 4), (4, "a", 4)],
        ("a", "b"),
        ("f",),
        ("f",),
    )
    assert verify_diagnosability(plant, AttackModel.empty(), budget=0).diagnosable
    inserting = AttackModel({}, {"b": 1}, {})
    assert not verify_diagnosability(plant, inserting, budget=1).diagnosable


def test_non_diagnosable_is_monotone_in_budget(defeatable_plant, defeatable_costs):
    verdicts = [
        verify_diagnosability(defeatable_plant, defeatable_costs, budget=c).diagnosable
        for c in range(5)
    ]
    first_bad = verdicts.index(False)
    assert all(not v for v in verdicts[first_bad:])


def test_classically_broken_plants_stay_broken_under_attacks(confusable_plant):
    model = AttackModel({"a": 1}, {"a": 2}, {})
    for budget in (0, 1, 2):
        assert not verify_diagnosability(confusable_plant, model, budget=budget).diagnosable


def test_witness_runs_have_equal_projections_and_split_fault(defeatable_plant, defeatable_costs):
    result = verify_diagnosability(
        defeatable_plant, defeatable_costs, budget=2, want_witness=True
    )
    assert not result.diagnosable
    witness = result.witness
    observable = defeatable_plant.observable

    def projection(run):
        return [e for e in run if e in observable]

    steps = witness.access + witness.cycle
    left_run, right_run = side_run(steps, "L"), side_run(steps, "R")
    assert projection(left_run) == projection(right_run)
    left_faulty = any(e in defeatable_plant.faults for e in left_run)
    right_faulty = any(e in defeatable_plant.faults for e in right_run)
    assert left_faulty != right_faulty


def test_verdicts_agree_with_the_oracle_on_fixtures(
    diagnosable_plant, diagnosable_costs, defeatable_plant, defeatable_costs
):
    for budget in range(4):
        assert (
            verify_diagnosability(diagnosable_plant, diagnosable_costs, budget=budget).diagnosable
            == brute_force_diagnosable(diagnosable_plant, diagnosable_costs, budget=budget, limits=WIDE)
        )
        assert (
            verify_diagnosability(defeatable_plant, defeatable_costs, budget=budget).diagnosable
            == brute_force_diagnosable(defeatable_plant, defeatable_costs, budget=budget, limits=WIDE)
        )


def test_classical_verdicts_agree_with_the_oracle_on_random_plants():
    rng = random.Random(97)
    empty = AttackModel.empty()
    for _ in range(60):
        plant = random_plant(
            rng,
            max_states=5,
            allow_unobservable_cycles=False,
            ensure_live=True,
            with_fault=True,
        )
        got = verify_diagnosability(plant, empty, budget=0).diagnosable
        expected = brute_force_diagnosable(plant, empty, budget=0)
        assert got == expected


def _attacked_instances(seed, positive=10, others=40):
    """Seeded live attacked plants with their minimum defeating budgets.

    Yields the first `others` plants whose budget is 0 or None, and draws on
    until `positive` plants with a positive budget have come up, since the
    random family rarely has one.
    """
    rng = random.Random(seed)
    while positive or others:
        plant = random_plant(
            rng,
            max_states=5,
            allow_unobservable_cycles=False,
            ensure_live=True,
            with_fault=True,
        )
        model = random_attack_model(rng, max_cost=3, p_del=0.3, p_ins=0.3, p_sub=0.25)
        cmin = minimum_defeating_budget(plant, model)
        if cmin and positive:
            positive -= 1
        elif not cmin and others:
            others -= 1
        else:
            continue
        yield plant, model, cmin


def test_attacked_verdicts_agree_with_the_oracle_on_random_plants():
    """diagnose(C), cmin and the oracle give one verdict for every C in 0..5."""
    for plant, model, cmin in _attacked_instances(101):
        for budget in range(6):
            got = verify_diagnosability(plant, model, budget=budget).diagnosable
            assert got == (cmin is None or budget < cmin)
            assert got == brute_force_diagnosable(plant, model, budget=budget)


def test_witness_attack_fits_the_budget_and_cycle_is_free(defeatable_plant, defeatable_costs):
    cases = [(defeatable_plant, defeatable_costs, 2, 2), (defeatable_plant, defeatable_costs, 2, 4)]
    cases += [
        (p, m, c, 5) for (p, m, c) in _attacked_instances(131, others=10) if c is not None and c <= 5
    ]
    for plant, model, cmin, budget in cases:
        result = verify_diagnosability(plant, model, budget=budget, want_witness=True)
        access, cycle = result.witness.access, result.witness.cycle
        x, l1, y, l2 = access[0][0]  # the attack starts at an initial pair
        assert x in plant.initial and y in plant.initial and l1 == l2 == NORMAL
        steps = access + cycle
        for (before, after) in zip(steps, steps[1:]):
            assert before[3] == after[0]
        spent = (sum(step_costs(s).left for s in access), sum(step_costs(s).right for s in access))
        assert max(spent) == cmin <= budget
        assert cycle[-1][3] == cycle[0][0] == access[-1][3]
        for step in cycle:
            assert step_costs(step) == (0, 0)
            assert is_mismatched(step[0]) and is_mismatched(step[3])


def test_layered_reference_agrees_with_diagnose():
    for plant, model, _cmin in _attacked_instances(137, positive=5, others=20):
        for budget in range(1, 5):
            reference = build_twin_verifier(build_costed_plant(plant, model, budget), plant.faults)
            assert (find_confused_cycle(reference) is None) == verify_diagnosability(
                plant, model, budget=budget
            ).diagnosable


def test_faults_must_be_unobservable(estimation_plant, empty_model):
    with pytest.raises(ValidationError):
        verify_diagnosability(estimation_plant, empty_model, faults=frozenset({A}), budget=0)
