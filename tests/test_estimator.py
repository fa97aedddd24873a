import random

import pytest

from tamperest.attacks import (
    AttackModel,
    Del,
    Plain,
    Sub,
    project_original,
)
from tamperest import dot
from tamperest.automata import build_observer
from tamperest.errors import ConfigurationError, ValidationError
from tamperest.estimator import _moves, estimate_least_cost, estimation_graph
from tamperest.oracle import brute_force_estimate
from tamperest.reference import (
    build_costed_matching_dfa,
    build_matching_automaton,
    build_product,
    ending_estimates,
    estimate_via_product,
    label_cost,
    project_received,
    reduce_product,
    total_cost,
)

from instances import random_attack_model, random_observation, random_plant

A, B, G = "α", "β", "γ"


def _product(plant, model, word, budget):
    dfa = build_costed_matching_dfa(word, model, budget + 1, alphabet=plant.observable)
    return build_product(plant, dfa)


# -- product construction ---------------------------------------------------------


def test_substitution_hypothesis_moves_the_plant(estimation_plant, estimation_costs):
    product = _product(estimation_plant, estimation_costs, (B, A, A), 2)
    got = product.successors((1, 0, 0), Sub(A, B))
    assert got == frozenset({(2, 1, 2), (3, 1, 2)})


def test_plain_moves_use_reach(estimation_plant, estimation_costs):
    product = _product(estimation_plant, estimation_costs, (B, A, A), 2)
    assert product.successors((2, 0, 0), Plain(B)) == frozenset({(3, 1, 0)})
    assert product.successors((4, 0, 0), Plain(B)) == frozenset({(2, 1, 0)})


def test_product_under_empty_model_mirrors_observer(estimation_plant):
    observer = build_observer(estimation_plant)
    word = (A, B)
    product = _product(estimation_plant, AttackModel.empty(), word, 3)
    current = observer.initial
    for stage, symbol in enumerate(word):
        current = observer.step(current, symbol)
        at_stage = {
            s for (s, st, c) in product.states if st == stage + 1 and c == 0
        }
        assert at_stage == set(current)
    assert all(cost == 0 for (_s, _st, cost) in product.states)


def test_product_size_respects_the_bound(estimation_plant, estimation_costs):
    product = _product(estimation_plant, estimation_costs, (B, A, A), 2)
    cap = len(estimation_plant.states) * 4 * 4
    assert len(product.states) <= cap


def test_product_rejects_foreign_observations(estimation_plant, estimation_costs):
    dfa = build_costed_matching_dfa(("nope",), estimation_costs, 2)
    with pytest.raises(ConfigurationError):
        build_product(estimation_plant, dfa)


def test_final_stage_matches_brute_force():
    rng = random.Random(61)
    for _ in range(30):
        plant = random_plant(rng, max_states=4)
        model = random_attack_model(rng)
        word = random_observation(rng)
        budget = rng.randint(0, 3)
        product = _product(plant, model, word, budget)
        estimate = ending_estimates(product, budget)
        assert estimate.pairs == brute_force_estimate(plant, model, word, budget)


# -- reduction ---------------------------------------------------------------------


def test_reduction_drops_dominated_copies(estimation_plant, estimation_costs):
    product = _product(estimation_plant, estimation_costs, (B, A, A), 2)
    reduced = reduce_product(product)
    assert (2, 1, 2) in product.states and (3, 1, 2) in product.states
    assert (2, 1, 2) not in reduced.states and (3, 1, 2) not in reduced.states
    assert (2, 1, 0) in reduced.states and (3, 1, 0) in reduced.states
    assert not any(
        src == (1, 0, 0) and label == Sub(A, B) for (src, label, _d) in reduced.transitions
    )


def test_reduction_is_identity_without_cost_ties():
    plant = random_plant(random.Random(67), max_states=3)
    product = _product(plant, AttackModel.empty(), ("a",), 2)
    by_pair = {}
    for (s, st, c) in product.states:
        by_pair.setdefault((s, st), set()).add(c)
    assert all(len(costs) == 1 for costs in by_pair.values())
    reduced = reduce_product(product)
    assert reduced.states == product.states
    assert reduced.transitions == product.transitions


def test_reduction_preserves_least_cost_endings():
    rng = random.Random(71)
    for _ in range(40):
        plant = random_plant(rng, max_states=5)
        model = random_attack_model(rng)
        word = random_observation(rng)
        budget = rng.randint(0, 4)
        product = _product(plant, model, word, budget)
        full = ending_estimates(product, budget)
        reduced = ending_estimates(reduce_product(product), budget)
        assert full.pairs == reduced.pairs
        assert full.over_budget == reduced.over_budget


def test_reduction_keeps_exactly_the_cheapest_copies_and_all_are_reachable():
    rng = random.Random(73)
    for _ in range(150):
        plant = random_plant(rng, max_states=6)
        model = random_attack_model(rng)
        word = random_observation(rng, max_len=5)
        product = _product(plant, model, word, rng.randint(0, 5))
        reduced = reduce_product(product)
        cheapest = {}
        for (state, stage, cost) in product.states:
            cheapest[(state, stage)] = min(cost, cheapest.get((state, stage), cost))
        assert reduced.states == {(x, stage, c) for (x, stage), c in cheapest.items()}
        reached = set(reduced.initial)
        frontier = list(reached)
        while frontier:
            src = frontier.pop()
            for (s, _label, dst) in reduced.transitions:
                if s == src and dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        assert reached == reduced.states


# -- ending estimates ---------------------------------------------------------------


def test_empty_model_estimate_is_the_observer_state(estimation_plant):
    word = (A, B, A)
    estimate = ending_estimates(_product(estimation_plant, AttackModel.empty(), word, 0), 0)
    assert estimate.pairs == {s: 0 for s in estimation_plant.reach(estimation_plant.initial, word)}


def test_infeasible_observation_gives_empty_estimate(estimation_plant):
    # γ is never feasible as a first observation from the initial closure
    word = (G, G, G, G)
    estimate = ending_estimates(_product(estimation_plant, AttackModel.empty(), word, 0), 0)
    assert estimate.pairs == {}
    assert estimate.over_budget == frozenset()


def test_ending_estimates_checks_the_bound(estimation_plant, estimation_costs):
    product = _product(estimation_plant, estimation_costs, (B,), 2)
    with pytest.raises(ValidationError):
        ending_estimates(product, 1)


def test_over_budget_states_are_reported(estimation_plant, estimation_costs):
    # with budget 0 the substituted-γ explanations are too expensive, but the
    # sentinel layer still reaches state 2 at the final stage
    estimate = estimate_least_cost(estimation_plant, estimation_costs, (B, A, A), 0)
    assert estimate.pairs == {3: 0, 4: 0}
    assert estimate.over_budget == frozenset({2})


# -- estimate_least_cost --------------------------------------------------------------


def test_sweep_matches_fixture_expectation(estimation_plant, estimation_costs):
    estimate = estimate_least_cost(estimation_plant, estimation_costs, (B, A, A), 2)
    assert estimate.pairs == {3: 0, 4: 0, 2: 1}
    assert estimate.states() == frozenset({2, 3, 4})
    assert estimate.cost(2) == 1
    assert estimate.cost(0) is None


def test_sweep_equals_product_pipeline():
    rng = random.Random(73)
    for _ in range(60):
        plant = random_plant(rng, max_states=5)
        model = random_attack_model(rng)
        word = random_observation(rng)
        budget = rng.randint(0, 4)
        sweep = estimate_least_cost(plant, model, word, budget)
        explicit = estimate_via_product(plant, model, word, budget)
        assert sweep.pairs == explicit.pairs
        assert sweep.over_budget == explicit.over_budget


def test_sweep_equals_oracle():
    rng = random.Random(79)
    for _ in range(40):
        plant = random_plant(rng, max_states=5)
        model = random_attack_model(rng)
        word = random_observation(rng)
        budget = rng.randint(0, 4)
        assert estimate_least_cost(plant, model, word, budget).pairs == brute_force_estimate(
            plant, model, word, budget
        )


def test_empty_model_sweep_is_the_observer(estimation_plant):
    observer = build_observer(estimation_plant)
    for word in [(), (A,), (A, B), (A, B, A)]:
        estimate = estimate_least_cost(estimation_plant, AttackModel.empty(), word, 2)
        node = observer.run(word)
        expected = {} if node is None else {s: 0 for s in node}
        assert estimate.pairs == expected


def test_budget_monotonicity():
    rng = random.Random(83)
    for _ in range(30):
        plant = random_plant(rng, max_states=5)
        model = random_attack_model(rng)
        word = random_observation(rng)
        low = rng.randint(0, 3)
        high = rng.randint(low, 4)
        small = estimate_least_cost(plant, model, word, low)
        large = estimate_least_cost(plant, model, word, high)
        assert set(small.pairs) <= set(large.pairs)
        for state, cost in small.pairs.items():
            assert large.pairs[state] <= cost


def test_witnesses_explain_their_states():
    rng = random.Random(89)
    cases = [
        (random_plant(rng, max_states=5), random_attack_model(rng), random_observation(rng),
         rng.randint(0, 4))
        for _ in range(30)
    ]
    # deletion loops at every budget: relaxed states whose parent lies in the same stage,
    # and parent chains that merge, so that witnesses share their prefixes
    cases += [
        (random_plant(rng, max_states=7), random_attack_model(rng, p_del=1.0),
         random_observation(rng, max_len=6), budget)
        for budget in range(4)
        for _ in range(15)
    ]
    deletions = 0
    for plant, model, word, budget in cases:
        estimate = estimate_least_cost(plant, model, word, budget, witness=True)
        assert estimate.witnesses.keys() == estimate.pairs.keys()
        dfa = build_costed_matching_dfa(word, model, budget + 1)
        for state, cost in estimate.pairs.items():
            labels = estimate.witnesses[state]
            assert project_received(labels) == word
            assert total_cost(labels, model) == cost
            assert state in plant.reach(plant.initial, project_original(labels))
            assert dfa.run(labels) == (len(word), cost)
            deletions += sum(isinstance(label, Del) for label in labels)
    assert deletions > 0


def test_over_budget_states_carry_costs_just_beyond_the_budget():
    rng = random.Random(131)
    for _ in range(30):
        plant = random_plant(rng, max_states=4)
        model = random_attack_model(rng, max_cost=2)
        word = random_observation(rng, max_len=2)
        budget = rng.randint(0, 2)
        estimate = estimate_least_cost(plant, model, word, budget)
        richer = brute_force_estimate(plant, model, word, budget + 2)
        for state, cost in estimate.pairs.items():
            assert richer[state] == cost
        for state in estimate.over_budget:
            if state in richer:
                assert budget < richer[state] <= budget + 2


def test_move_table_is_the_matching_automaton():
    """The sweep moves by the stage machine's labels, in order, at their costs and plant moves."""
    rng = random.Random(83)
    orders = 0
    for _ in range(200):
        plant = random_plant(rng, max_states=5)
        model = random_attack_model(rng, p_sub=0.6)
        word = random_observation(rng, max_len=6)
        machine = build_matching_automaton(word, model)
        loop, advance = _moves(plant, model, word, 0)
        assert len(advance) == machine.final_stage
        stages = [(loop, machine.loop_labels())]
        stages += [(moves, machine.advancing_labels(stage)) for stage, moves in enumerate(advance)]
        for moves, labels in stages:
            assert tuple(label for label, _cost, _post in moves) == labels
            for label, cost, post in moves:
                assert cost == label_cost(label, model)
                assert post == plant.posts[project_original((label,))]
            orders += sum(isinstance(label, Sub) for label in labels) > 1
    assert orders > 0


def test_budget_must_be_non_negative(estimation_plant, estimation_costs):
    with pytest.raises(ValidationError):
        estimate_least_cost(estimation_plant, estimation_costs, (A,), -1)


def test_observation_symbols_must_be_observable(estimation_plant, estimation_costs):
    with pytest.raises(ValidationError):
        estimate_least_cost(estimation_plant, estimation_costs, ("ζ",), 1)


# -- the reduced product, read off the sweep ----------------------------------------


def test_estimation_graph_is_the_reduced_product():
    """One sweep gives the reduced product and the witnessed estimate."""
    rng = random.Random(97)
    deletion_edges = 0
    for i in range(1500):
        plant = random_plant(rng, max_states=8)
        model = random_attack_model(rng, p_del=(0.0, 0.3, 1.0)[i % 3])
        word = random_observation(rng, max_len=8)
        budget = rng.randint(0, 5)
        estimate, states, transitions = estimation_graph(plant, model, word, budget)
        expected = estimate_least_cost(plant, model, word, budget, witness=True)
        assert estimate == expected and estimate.witnesses == expected.witnesses
        dfa = build_costed_matching_dfa(word, model, budget + 1, alphabet=plant.observable)
        reduced = reduce_product(build_product(plant, dfa))
        assert states == reduced.states
        assert transitions == reduced.transitions
        assert dot.product_to_dot(states, transitions) == dot.product_to_dot(
            reduced.states, reduced.transitions
        )
        deletion_edges += sum(isinstance(label, Del) for (_src, label, _dst) in transitions)
    assert deletion_edges > 0
