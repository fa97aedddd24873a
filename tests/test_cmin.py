import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamperest import fixtures
from tamperest.attacks import AttackModel
from tamperest.cmin import (
    EPSILON,
    CostPair,
    _LazyTwin,
    analyze_minimum_budget,
    build_corrupted_automaton,
    build_costed_twin_verifier,
    find_free_confusion_states,
    is_mismatched,
    minimum_defeating_budget,
    pareto_update,
    propagate_cost_labels,
    step_costs,
)
from tamperest.diagnoser import (
    FAULTY,
    NORMAL,
    build_costed_plant,
    build_twin_verifier,
    verify_diagnosability,
)
from tamperest.errors import PreconditionError, ValidationError
from tamperest.oracle import brute_force_minimum_budget

from instances import random_attack_model, random_plant

A, B, G, Z = "α", "β", "γ", "ζ"
SF = "σf"


# -- corrupted automaton -------------------------------------------------------------


def test_corrupted_automaton_and_explicit_verifiers_are_read_only(
    defeatable_plant, defeatable_costs
):
    """What `CminResult.corrupted` and `DiagnosisResult.corrupted` expose cannot be written to."""
    result = analyze_minimum_budget(defeatable_plant, defeatable_costs)
    corrupted = verify_diagnosability(defeatable_plant, defeatable_costs, budget=2).corrupted
    x = defeatable_plant.index[1]
    for automaton in (result.corrupted, corrupted):
        by_event = automaton.observed[x]
        g = automaton.symbols.index(G)
        assert by_event[g] == ((1, (defeatable_plant.index[2],)),)
        with pytest.raises(TypeError):
            by_event[g] = ()
        with pytest.raises(TypeError):
            automaton.observed[x] = {}
        with pytest.raises(TypeError):
            automaton.silent[x] = ()
        with pytest.raises(AttributeError):
            automaton.observed = ()
    assert result.corrupted.targets(1, G, 1) == frozenset({2})
    verifiers = [
        build_costed_twin_verifier(result.corrupted, defeatable_plant.faults),
        build_twin_verifier(build_costed_plant(defeatable_plant, defeatable_costs, 2),
                            defeatable_plant.faults),
    ]
    for verifier in verifiers:
        q = min(verifier.initial, key=repr)
        with pytest.raises(AttributeError):
            verifier.outgoing(q).append(None)


def test_attack_edges_carry_their_cost(defeatable_plant, defeatable_costs):
    corrupted = build_corrupted_automaton(defeatable_plant, defeatable_costs)
    assert corrupted.targets(1, G, 1) == frozenset({2})
    assert corrupted.targets(0, G, 0) == frozenset({4})
    assert corrupted.targets(2, A, 1) == frozenset({3})


def test_zero_cost_edges_reproduce_the_plant(defeatable_plant, defeatable_costs):
    corrupted = build_corrupted_automaton(defeatable_plant, defeatable_costs)
    for (src, event, dst) in defeatable_plant.transitions:
        assert dst in corrupted.targets(src, event, 0)


def test_empty_model_keeps_only_plant_edges(confusable_plant):
    corrupted = build_corrupted_automaton(confusable_plant, AttackModel.empty())
    assert corrupted.symbols == (EPSILON, *sorted(confusable_plant.alphabet))
    for x, state in enumerate(confusable_plant.order):
        assert corrupted.observed[x][0] == ((0, (x,)),)  # the stay, and no deletion
        for e, moves in corrupted.observed[x].items():
            assert [cost for cost, _targets in moves] == [0]
        for symbol in confusable_plant.alphabet:
            assert corrupted.targets(state, symbol, 0) == confusable_plant.successors(state, symbol)
            assert corrupted.targets(state, symbol, 1) == frozenset()


def test_deletions_produce_empty_observations():
    from tamperest.automata import PlantNfa

    plant = PlantNfa(
        states=frozenset({0, 1}),
        observable=frozenset({"a"}),
        unobservable=frozenset(),
        faults=frozenset(),
        transitions=frozenset({(0, "a", 1), (1, "a", 1)}),
        initial=frozenset({0}),
    )
    corrupted = build_corrupted_automaton(plant, AttackModel({"a": 2}, {}, {}))
    assert corrupted.targets(0, EPSILON, 2) == frozenset({1})


def _attacked_targets(plant, model, state, symbol, cost) -> frozenset:
    """The attack rules read off the plant and the model, one edge at a time."""
    if symbol == EPSILON:
        if cost == 0:
            return frozenset({state})
        found = [plant.successors(state, s) for s, c in model.deletions.items() if c == cost]
    else:
        found = [plant.successors(state, symbol)] if cost == 0 else []
        if model.insertions.get(symbol) == cost:
            found.append({state})
        found += [
            plant.successors(state, original)
            for (original, observed), c in model.substitutions.items()
            if observed == symbol and c == cost
        ]
    return frozenset().union(*found)


def test_tables_are_canonical_and_follow_the_attack_rules():
    """Keys, costs and targets come out sorted, so no table depends on hash order."""
    rng = random.Random(131)
    for _ in range(40):
        plant = random_plant(rng, max_states=5, with_fault=True)
        model = random_attack_model(rng, max_cost=3, p_del=0.3, p_ins=0.3, p_sub=0.3)
        corrupted = build_corrupted_automaton(plant, model)
        assert corrupted.symbols == (EPSILON, *sorted(plant.alphabet))
        for x, state in enumerate(plant.order):
            observed, silent = corrupted.observed[x], corrupted.silent[x]
            assert list(observed) == sorted(observed) and observed[0][0] == (0, (x,))
            assert [e for e, _targets in silent] == sorted(e for e, _targets in silent)
            assert {corrupted.symbols[e] for e in observed} <= {EPSILON} | plant.observable
            assert {corrupted.symbols[e] for e, _targets in silent} <= plant.unobservable
            for moves in observed.values():
                assert [c for c, _targets in moves] == sorted({c for c, _targets in moves})
            for targets in [t for moves in observed.values() for _c, t in moves] + [
                t for _e, t in silent
            ]:
                assert targets and list(targets) == sorted(set(targets))
            for symbol in corrupted.symbols:
                for cost in range(4):
                    expected = _attacked_targets(plant, model, state, symbol, cost)
                    assert corrupted.targets(state, symbol, cost) == expected


# -- costed twin verifier ---------------------------------------------------------------


def test_fault_pair_fans_out_three_ways(defeatable_plant, defeatable_costs):
    corrupted = build_corrupted_automaton(defeatable_plant, defeatable_costs)
    verifier = build_costed_twin_verifier(corrupted, defeatable_plant.faults)
    src = (0, NORMAL, 0, NORMAL)
    fault_tau = ((SF, 0), (SF, 0))
    targets = {dst for (s, tau, _side, dst) in verifier.transitions if s == src and tau == fault_tau}
    assert targets == {(1, FAULTY, 0, NORMAL), (0, NORMAL, 1, FAULTY), (1, FAULTY, 1, FAULTY)}


def test_asymmetric_costs_pair_on_the_observed_symbol(defeatable_plant, defeatable_costs):
    corrupted = build_corrupted_automaton(defeatable_plant, defeatable_costs)
    verifier = build_costed_twin_verifier(corrupted, defeatable_plant.faults)
    src = (1, FAULTY, 0, NORMAL)
    tau = ((G, 1), (G, 0))
    targets = {dst for (s, t, _side, dst) in verifier.transitions if s == src and t == tau}
    assert targets == {(2, FAULTY, 4, NORMAL)}


def test_fault_free_plant_never_reaches_fault_labels(estimation_plant):
    corrupted = build_corrupted_automaton(estimation_plant, AttackModel.empty())
    verifier = build_costed_twin_verifier(corrupted, frozenset())
    assert all(l1 == NORMAL and l2 == NORMAL for (_x, l1, _y, l2) in verifier.states)


def test_pure_stay_pairs_are_not_materialised(defeatable_plant, defeatable_costs):
    corrupted = build_corrupted_automaton(defeatable_plant, defeatable_costs)
    verifier = build_costed_twin_verifier(corrupted, defeatable_plant.faults)
    for (_src, tau, _side, _dst) in verifier.transitions:
        (e, c1), (_e, c2) = tau
        if e == EPSILON:
            assert (c1, c2) != (0, 0)


def test_verifier_size_and_degree_bounds():
    rng = random.Random(103)
    for _ in range(20):
        plant = random_plant(rng, max_states=4, with_fault=True)
        model = random_attack_model(rng)
        corrupted = build_corrupted_automaton(plant, model)
        verifier = build_costed_twin_verifier(corrupted, plant.faults)
        n = len(plant.states)
        assert len(verifier.states) <= 4 * n * n
        costs = list(model.deletions.values()) + list(model.insertions.values()) + list(
            model.substitutions.values()
        )
        c_max = max(costs, default=0)
        degree_cap = (c_max + 1) ** 2 * (len(plant.observable) + 1) * n * n + 3 * len(
            plant.unobservable
        ) * n * n
        for q in verifier.states:
            assert len(verifier.outgoing(q)) <= degree_cap


def test_costed_twin_verifier_is_symmetric(defeatable_plant, defeatable_costs):
    corrupted = build_corrupted_automaton(defeatable_plant, defeatable_costs)
    verifier = build_costed_twin_verifier(corrupted, defeatable_plant.faults)
    for (x, l1, y, l2) in verifier.states:
        assert (y, l2, x, l1) in verifier.states


# -- free-confusion states ---------------------------------------------------------------


def test_ending_states_on_the_defeatable_fixture(defeatable_plant, defeatable_costs):
    corrupted = build_corrupted_automaton(defeatable_plant, defeatable_costs)
    verifier = build_costed_twin_verifier(corrupted, defeatable_plant.faults)
    ending, cycles = find_free_confusion_states(verifier)
    assert ending == frozenset({(3, FAULTY, 5, NORMAL), (5, NORMAL, 3, FAULTY)})
    assert cycles
    for nodes in cycles:
        assert nodes[0] == nodes[-1]


def test_diagnosable_fixture_has_no_free_confusion(diagnosable_plant, diagnosable_costs):
    corrupted = build_corrupted_automaton(diagnosable_plant, diagnosable_costs)
    verifier = build_costed_twin_verifier(corrupted, diagnosable_plant.faults)
    ending, cycles = find_free_confusion_states(verifier)
    assert ending == frozenset()
    assert cycles == []


def test_no_faults_means_no_free_confusion(estimation_plant, estimation_costs):
    corrupted = build_corrupted_automaton(estimation_plant, estimation_costs)
    verifier = build_costed_twin_verifier(corrupted, frozenset())
    ending, _cycles = find_free_confusion_states(verifier)
    assert ending == frozenset()


# -- pareto update -------------------------------------------------------------------------


def test_incomparable_pairs_accumulate():
    assert pareto_update({(2, 0)}, (0, 2)) == (frozenset({(2, 0), (0, 2)}), True)


def test_dominating_pair_evicts():
    assert pareto_update({(2, 3)}, (2, 1)) == (frozenset({(2, 1)}), True)


def test_duplicate_is_a_no_op():
    assert pareto_update({(1, 1)}, (1, 1)) == (frozenset({(1, 1)}), False)


def test_dominated_candidate_is_rejected():
    assert pareto_update({(1, 1)}, (2, 1)) == (frozenset({(1, 1)}), False)


def test_dominating_candidate_evicts_everything_it_dominates():
    updated, changed = pareto_update({(4, 4), (1, 6), (6, 1)}, (2, 2))
    assert changed
    assert updated == frozenset({(2, 2), (1, 6), (6, 1)})


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_pareto_sets_stay_antichains(updates):
    pairs = frozenset()
    for candidate in updates:
        pairs, _changed = pareto_update(pairs, candidate)
        for left, right in itertools.permutations(pairs, 2):
            assert not (
                (left[0] <= right[0] and left[1] < right[1])
                or (left[0] < right[0] and left[1] <= right[1])
            )


def test_cost_pair_total_is_the_max():
    assert CostPair(2, 0).total == 2
    assert CostPair(1, 3).total == 3


# -- minimum defeating budget ------------------------------------------------------------


def _reference_verifier(plant, model, budget=None):
    return build_costed_twin_verifier(
        build_corrupted_automaton(plant, model), plant.faults, budget=budget
    )


def _reference_value(plant, model, budget=None):
    """Minimum defeating budget by the reference route: explicit verifier, FIFO labels."""
    verifier = _reference_verifier(plant, model, budget)
    ending, _cycles = find_free_confusion_states(verifier)
    labels, _parents = propagate_cost_labels(verifier, budget=budget)
    return min((max(pair) for q in ending for pair in labels[q]), default=None)


def test_defeatable_fixture_minimum_budget(defeatable_plant, defeatable_costs):
    result = analyze_minimum_budget(defeatable_plant, defeatable_costs)
    assert result.value == 2
    labels, _parents = propagate_cost_labels(_reference_verifier(defeatable_plant, defeatable_costs))
    assert labels[(3, FAULTY, 5, NORMAL)] == frozenset({(2, 0)})
    assert labels[(5, NORMAL, 3, FAULTY)] == frozenset({(0, 2)})


def test_classically_broken_toy_needs_no_budget(confusable_plant, empty_model):
    assert minimum_defeating_budget(confusable_plant, empty_model) == 0


def test_diagnosable_fixture_cannot_be_defeated(diagnosable_plant, diagnosable_costs):
    assert minimum_defeating_budget(diagnosable_plant, diagnosable_costs) is None


def test_witness_path_reaches_an_ending_state(defeatable_plant, defeatable_costs):
    result = analyze_minimum_budget(defeatable_plant, defeatable_costs, want_witness=True)
    steps = result.witness
    assert steps
    assert steps[0][0] == (0, NORMAL, 0, NORMAL)  # the only initial pair
    ending, _cycles = find_free_confusion_states(
        _reference_verifier(defeatable_plant, defeatable_costs)
    )
    assert steps[-1][3] in ending
    for (left, right) in zip(steps, steps[1:]):
        assert left[3] == right[0]
    totals = [0, 0]
    for step in steps:
        pair = step_costs(step)
        totals[0] += pair.left
        totals[1] += pair.right
    assert max(totals) == result.value


def _live_plant(rng, max_states):
    """A random faulty plant that meets the engine's preconditions."""
    return random_plant(
        rng,
        max_states=max_states,
        allow_unobservable_cycles=False,
        ensure_live=True,
        with_fault=True,
    )


def test_agrees_with_the_oracle_on_random_instances():
    rng = random.Random(107)
    for _ in range(40):
        plant = _live_plant(rng, max_states=4)
        model = random_attack_model(rng, max_cost=3, p_del=0.2, p_ins=0.2, p_sub=0.25)
        assert minimum_defeating_budget(plant, model) == brute_force_minimum_budget(plant, model)


def test_oracle_answers_every_small_live_plant():
    """The oracle's budget scan is polynomial, so it refuses no plant within its state cap."""
    rng = random.Random(139)
    for _ in range(60):
        plant = _live_plant(rng, max_states=6)
        model = random_attack_model(rng, max_cost=3, p_del=0.3, p_ins=0.3, p_sub=0.3)
        assert brute_force_minimum_budget(plant, model) == minimum_defeating_budget(plant, model)


def test_value_exists_exactly_when_free_confusion_exists():
    rng = random.Random(109)
    for _ in range(40):
        plant = _live_plant(rng, max_states=4)
        model = random_attack_model(rng, max_cost=2)
        ending, _cycles = find_free_confusion_states(_reference_verifier(plant, model))
        assert (minimum_defeating_budget(plant, model) is not None) == bool(ending)


def _attacked_plants(seed, count):
    """Random attacked plants of at most 5 states with their oracle minimum.

    Half have a positive minimum, which random plants rarely do, so plants
    are drawn until enough turn up.
    """
    rng = random.Random(seed)
    positive = others = count // 2
    while positive or others:
        plant = _live_plant(rng, max_states=5)
        model = random_attack_model(rng, max_cost=3, p_del=0.3, p_ins=0.3, p_sub=0.3)
        engine_positive = bool(minimum_defeating_budget(plant, model))
        if not (positive if engine_positive else others):
            continue
        value = brute_force_minimum_budget(plant, model)
        if engine_positive:
            positive -= 1
        else:
            others -= 1
        yield plant, model, value


def test_engine_reference_and_oracle_agree_at_every_budget():
    for plant, model, oracle in _attacked_plants(127, 30):
        for budget in (None, 0, 1, 2, 3, 4, 5):
            within = budget is None or (oracle is not None and oracle <= budget)
            expected = oracle if within else None
            assert analyze_minimum_budget(plant, model, budget=budget).value == expected
            assert _reference_value(plant, model, budget) == expected


def test_witness_is_a_cheapest_attack_into_a_free_confusion_cycle():
    for plant, model, value in _attacked_plants(131, 30):
        ending, _cycles = find_free_confusion_states(_reference_verifier(plant, model))
        budgets = (None,) if value is None else (None, value, value + 2)
        for budget in budgets:
            result = analyze_minimum_budget(plant, model, want_witness=True, budget=budget)
            if value is None:
                assert result.witness is None and result.cycle is None
                continue
            access, cycle = result.witness, result.cycle
            x, l1, y, l2 = access[0][0]
            assert x in plant.initial and y in plant.initial and l1 == l2 == NORMAL
            steps = access + cycle
            for (before, after) in zip(steps, steps[1:]):
                assert before[3] == after[0]
            spent = (sum(step_costs(s).left for s in access), sum(step_costs(s).right for s in access))
            assert max(spent) == result.value == value
            assert budget is None or value <= budget
            assert access[-1][3] in ending
            assert cycle and cycle[-1][3] == cycle[0][0] == access[-1][3]
            for step in cycle:
                assert step_costs(step) == (0, 0)
                assert is_mismatched(step[0]) and is_mismatched(step[3])


def _fixture_instances():
    for plant, costs in zip(fixtures.PLANTS, fixtures.COST_TABLES):
        yield fixtures.plant(plant), fixtures.costs(costs)


def test_no_label_settles_where_both_sides_are_faulty():
    """``FAULTY`` is absorbing, so an (F, F) twin state can never lead to a mismatched one."""
    instances = list(_fixture_instances()) + [
        (plant, model) for plant, model, _value in _attacked_plants(137, 20)
    ]
    settled = 0
    for plant, model in instances:
        for budget in (None, 1):
            twin = _LazyTwin(build_corrupted_automaton(plant, model), plant.faults, budget)
            twin.cheapest_ending_label()
            for code, *_costs in twin.labels:
                _x, l1, _y, l2 = twin.render(code)
                assert (l1, l2) != (FAULTY, FAULTY)
            settled += len(twin.labels)
            result = analyze_minimum_budget(plant, model, want_witness=True, budget=budget)
            assert result.value == _reference_value(plant, model, budget)
            if result.value is None:
                continue
            verifier = _reference_verifier(plant, model, budget)
            ending, _cycles = find_free_confusion_states(verifier)
            labels, _parents = propagate_cost_labels(verifier, budget=budget)
            end = result.witness[-1][3]
            spent = tuple(map(sum, zip(*map(step_costs, result.witness))))
            assert end in ending and spent in labels[end]
    assert settled


def _late_cycle_plant(width: int, depth: int):
    """A fault run and a normal run that agree for free through a wide acyclic region.

    From the initial state, ``f`` (a fault) and ``u`` enter two stacks of
    `depth` layers of `width` states each, every state of a layer moving on
    ``a`` to every state of the next.  The faulty stack leaves on ``b`` and
    the normal one on ``c`` into ``d`` self-loops, so the mismatched twin
    states in the layers (``depth * width**2`` per order of the sides) lie
    on no cost-free cycle; the only ending states lie past the substitution
    ``b -> c`` (cost 1).
    """
    from tamperest.automata import PlantNfa

    stacks = {side: [[(side, i, p) for p in range(width)] for i in range(depth)] for side in "LR"}
    transitions = {(0, "d", 0)}
    for side, event, exit_event in (("L", "f", "b"), ("R", "u", "c")):
        layers = stacks[side]
        transitions |= {(0, event, q) for q in layers[0]}
        for here, there in zip(layers, layers[1:]):
            transitions |= {(p, "a", q) for p in here for q in there}
        transitions |= {(p, exit_event, ("end", side)) for p in layers[-1]}
        transitions.add((("end", side), "d", ("end", side)))
    states = {src for (src, _e, _dst) in transitions} | {dst for (_src, _e, dst) in transitions}
    plant = PlantNfa(
        states=frozenset(states),
        observable=frozenset({"a", "b", "c", "d"}),
        unobservable=frozenset({"f", "u"}),
        faults=frozenset({"f"}),
        transitions=frozenset(transitions),
        initial=frozenset({0}),
    )
    return plant, AttackModel({}, {}, {("b", "c"): 1})


def test_ending_test_expands_each_state_at_most_twice(monkeypatch):
    """The first mismatched states lie on no free cycle but reach a wide acyclic free region."""
    width, depth = 5, 6
    plant, model = _late_cycle_plant(width, depth)
    expansions = Counter()
    free_successors = _LazyTwin.free_successors

    def counting(self, code):
        expansions[code] += 1
        return free_successors(self, code)

    monkeypatch.setattr(_LazyTwin, "free_successors", counting)
    assert analyze_minimum_budget(plant, model).value == 1
    assert len(expansions) >= 2 * depth * width**2
    assert max(expansions.values()) <= 2
    assert _reference_value(plant, model) == 1


def _simple_path_label_sets(verifier, cap=50_000):
    """Antichains of (left, right) costs over all simple paths, per state.

    Returns None when the enumeration would exceed `cap` extensions.
    """
    expected = {q: frozenset() for q in verifier.states}
    for q in verifier.initial:
        expected[q], _ = pareto_update(expected[q], (0, 0))
    budget = [cap]

    def walk(node, on_path, c_left, c_right):
        for step in verifier.outgoing(node):
            dst = step[3]
            if dst in on_path:
                continue
            budget[0] -= 1
            if budget[0] < 0:
                return
            pair = step_costs(step)
            new = (c_left + pair.left, c_right + pair.right)
            expected[dst], _ = pareto_update(expected[dst], new)
            on_path.add(dst)
            walk(dst, on_path, new[0], new[1])
            on_path.discard(dst)

    for q in verifier.initial:
        walk(q, {q}, 0, 0)
    return None if budget[0] < 0 else expected


def test_label_sets_match_exhaustive_path_enumeration():
    rng = random.Random(113)
    checked = 0
    for _ in range(25):
        plant = random_plant(rng, max_states=3, with_fault=True)
        model = random_attack_model(rng, max_cost=2, p_del=0.15, p_ins=0.15, p_sub=0.2)
        corrupted = build_corrupted_automaton(plant, model)
        verifier = build_costed_twin_verifier(corrupted, plant.faults)
        expected = _simple_path_label_sets(verifier)
        if expected is None:
            continue  # too branchy to enumerate naively
        labels, _parents = propagate_cost_labels(verifier)
        for q in verifier.states:
            assert labels[q] == expected[q]
        checked += 1
    assert checked >= 10


def test_budget_at_the_minimum_defeats_diagnosis(defeatable_plant, defeatable_costs, confusable_plant, empty_model):
    for plant, model in ((defeatable_plant, defeatable_costs), (confusable_plant, empty_model)):
        value = minimum_defeating_budget(plant, model)
        assert value is not None
        assert not verify_diagnosability(plant, model, budget=value).diagnosable
        assert not verify_diagnosability(plant, model, budget=value + 1).diagnosable


def test_preconditions_are_those_of_diagnose():
    from tamperest.automata import PlantNfa

    def plant_of(transitions):
        return PlantNfa(
            states=frozenset({0, 1, 2}),
            observable=frozenset({"a"}),
            unobservable=frozenset({"f", "u"}),
            faults=frozenset({"f"}),
            transitions=frozenset(transitions),
            initial=frozenset({0}),
        )

    dead = plant_of([(0, "a", 0), (0, "f", 1), (1, "a", 1), (0, "u", 2)])
    silent = plant_of([(0, "a", 0), (0, "f", 1), (1, "u", 2), (2, "u", 1)])
    for plant, kind in ((dead, "liveness"), (silent, "unobservable-cycle")):
        with pytest.raises(PreconditionError) as diagnosed:
            verify_diagnosability(plant, AttackModel.empty(), budget=1)
        with pytest.raises(PreconditionError) as refused:
            minimum_defeating_budget(plant, AttackModel.empty())
        assert refused.value.kind == diagnosed.value.kind == kind
        assert refused.value.witness == diagnosed.value.witness
        assert str(refused.value) == str(diagnosed.value)


def test_faults_must_be_unobservable(estimation_plant, empty_model):
    with pytest.raises(ValidationError):
        analyze_minimum_budget(estimation_plant, empty_model, faults=frozenset({A}))
