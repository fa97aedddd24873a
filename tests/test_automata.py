import itertools
import random

import pytest

from tamperest.automata import (
    PlantNfa,
    build_observer,
    dead_reachable_state,
    plant_from_dict,
    plant_to_dict,
    sort_key,
    unobservable_cycle,
)
from tamperest.errors import ValidationError
from tamperest.estimator import estimate_least_cost
from tamperest.reference import build_costed_matching_dfa

from instances import random_plant


def toy(transitions, observable=("a", "b"), unobservable=("u",), initial=(0,), faults=()):
    states = {s for (s, _e, _d) in transitions} | {d for (_s, _e, d) in transitions}
    states |= set(initial)
    return PlantNfa(
        states=frozenset(states),
        observable=frozenset(observable),
        unobservable=frozenset(unobservable),
        faults=frozenset(faults),
        transitions=frozenset(transitions),
        initial=frozenset(initial),
    )


# -- validation ---------------------------------------------------------------


def test_alphabet_partition_enforced():
    with pytest.raises(ValidationError):
        toy([(0, "a", 0)], observable=("a",), unobservable=("a",))


def test_faults_must_be_unobservable():
    with pytest.raises(ValidationError):
        toy([(0, "a", 0)], faults=("a",))


def test_unknown_transition_endpoint_rejected():
    with pytest.raises(ValidationError):
        PlantNfa(
            states=frozenset({0}),
            observable=frozenset({"a"}),
            unobservable=frozenset(),
            faults=frozenset(),
            transitions=frozenset({(0, "a", 1)}),
            initial=frozenset({0}),
        )


def test_empty_symbol_name_rejected():
    with pytest.raises(ValidationError):
        toy([(0, "ε", 0)], observable=("ε",))


def test_initial_states_required():
    with pytest.raises(ValidationError):
        toy([(0, "a", 0)], initial=())


# -- step ---------------------------------------------------------------------


def test_step_dead_ends_on_undefined_move(estimation_plant):
    assert estimation_plant.step({2}, ("α", "β", "α")) == frozenset()


def test_step_follows_defined_runs(estimation_plant):
    assert estimation_plant.step({2}, ("β", "α", "α")) == frozenset({3, 4})


def test_step_empty_sequence_is_identity(estimation_plant):
    for subset in ({0}, {1, 3}, set(estimation_plant.states)):
        assert estimation_plant.step(subset, ()) == frozenset(subset)


def test_step_rejects_unknown_state(estimation_plant):
    with pytest.raises(ValidationError):
        estimation_plant.step({99}, ())


def test_step_rejects_unknown_symbol(estimation_plant):
    with pytest.raises(ValidationError):
        estimation_plant.step({0}, ("nope",))


# -- project ------------------------------------------------------------------


def test_project_erases_unobservable(estimation_plant):
    assert estimation_plant.project(("ζ", "α", "α", "α")) == ("α", "α", "α")


def test_project_empty(estimation_plant):
    assert estimation_plant.project(()) == ()


def test_project_identity_on_observable(estimation_plant):
    assert estimation_plant.project(("α", "β", "γ")) == ("α", "β", "γ")


def test_project_rejects_unknown_symbol(estimation_plant):
    with pytest.raises(ValidationError):
        estimation_plant.project(("x",))


# -- reach --------------------------------------------------------------------


def test_reach_chain(estimation_plant):
    plant = estimation_plant
    assert plant.reach(plant.initial, ("α", "β", "α")) == frozenset({3, 4})


def test_reach_empty_observation_is_closure():
    plant = toy([(0, "u", 1), (1, "a", 1)])
    assert plant.reach({0}, ()) == frozenset({0, 1})


def test_reach_rejects_unobservable_symbol(estimation_plant):
    with pytest.raises(ValidationError):
        estimation_plant.reach(estimation_plant.initial, ("ζ",))


def _reach_by_string_enumeration(plant, sources, observation):
    """Splice bounded silent runs between observed symbols and take plain steps."""
    cap = len(plant.states)
    silent = [()]
    for length in range(1, cap + 1):
        silent.extend(itertools.product(sorted(plant.unobservable), repeat=length))
    segments = [silent] + [silent for _ in observation]
    out = set()
    for choice in itertools.product(*segments):
        run = list(choice[0])
        for symbol, gap in zip(observation, choice[1:]):
            run.append(symbol)
            run.extend(gap)
        out |= plant.step(sources, run)
    return frozenset(out)


def test_reach_matches_string_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        plant = random_plant(rng, max_states=4)
        observation = tuple(rng.choice(("a", "b")) for _ in range(rng.randint(0, 2)))
        expected = _reach_by_string_enumeration(plant, plant.initial, observation)
        assert plant.reach(plant.initial, observation) == expected


def test_reach_composes():
    rng = random.Random(11)
    for _ in range(40):
        plant = random_plant(rng, max_states=5)
        full = tuple(rng.choice(("a", "b", "c")) for _ in range(rng.randint(0, 4)))
        cut = rng.randint(0, len(full))
        via = plant.reach(plant.reach(plant.initial, full[:cut]), full[cut:])
        assert via == plant.reach(plant.initial, full)


def test_reach_covers_projected_runs():
    rng = random.Random(13)
    for _ in range(40):
        plant = random_plant(rng, max_states=5)
        # random run of the plant
        run = []
        current = sorted(plant.initial)[0]
        for _ in range(rng.randint(0, 5)):
            events = sorted(plant.events_at(current))
            if not events:
                break
            event = rng.choice(events)
            run.append(event)
            current = sorted(plant.successors(current, event))[0]
        landed = plant.step(plant.initial, run)
        assert landed <= plant.reach(plant.initial, plant.project(run))


def test_posts_tabulate_reach_over_the_canonical_order():
    rng = random.Random(17)
    for _ in range(40):
        plant = random_plant(rng, max_states=6)
        assert list(plant.order) == sorted(plant.states, key=sort_key)
        assert all(plant.order[plant.index[state]] == state for state in plant.states)
        assert set(plant.posts) == {()} | {(symbol,) for symbol in plant.observable}
        for word, post in plant.posts.items():
            for x, state in enumerate(plant.order):
                expected = sorted(plant.index[t] for t in plant.reach((state,), word))
                assert list(post[x]) == expected


# -- observer -----------------------------------------------------------------


def test_observer_chain(estimation_plant):
    observer = build_observer(estimation_plant)
    chain = [observer.initial]
    for symbol in ("α", "β", "α"):
        chain.append(observer.step(chain[-1], symbol))
    assert chain == [
        frozenset({0, 1, 2, 3, 4}),
        frozenset({2, 3, 4}),
        frozenset({2, 3}),
        frozenset({3, 4}),
    ]


def test_observer_of_deterministic_observable_plant_is_isomorphic():
    plant = toy(
        [(0, "a", 1), (1, "b", 2), (2, "a", 0)],
        observable=("a", "b"),
        unobservable=(),
        initial=(0,),
    )
    observer = build_observer(plant)
    assert observer.states == frozenset({frozenset({s}) for s in plant.states})
    for (subset, symbol), target in observer.transitions.items():
        (src,) = subset
        assert plant.successors(src, symbol) == target


def _projected_language(plant, max_len):
    """Projections of plant runs, enumerated run by run with silent-step caps."""
    out = set()
    cap = len(plant.states)

    def walk(state, projection, silent_steps):
        out.add(projection)
        if len(projection) > max_len:
            return
        for event in sorted(plant.events_at(state)):
            silent = event in plant.unobservable
            if silent and silent_steps >= cap:
                continue
            if not silent and len(projection) == max_len:
                continue
            for target in sorted(plant.successors(state, event)):
                walk(
                    target,
                    projection if silent else projection + (event,),
                    silent_steps + 1 if silent else 0,
                )

    for state in sorted(plant.initial):
        walk(state, (), 0)
    return {w for w in out if len(w) <= max_len}


def test_observer_language_is_projected_plant_language():
    rng = random.Random(17)
    for _ in range(15):
        plant = random_plant(rng, max_states=4)
        observer = build_observer(plant)
        expected = _projected_language(plant, 6)
        got = set()
        frontier = [((), observer.initial)]
        while frontier:
            word, node = frontier.pop()
            got.add(word)
            if len(word) == 6:
                continue
            for symbol in sorted(plant.observable):
                nxt = observer.step(node, symbol)
                if nxt is not None:
                    frontier.append((word + (symbol,), nxt))
        assert got == expected


def test_observer_states_are_reaches():
    rng = random.Random(19)
    for _ in range(15):
        plant = random_plant(rng, max_states=4)
        observer = build_observer(plant)
        frontier = [((), observer.initial)]
        seen = set()
        while frontier:
            word, node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            assert node == plant.reach(plant.initial, word)
            if len(word) < 8:
                for symbol in sorted(plant.observable):
                    nxt = observer.step(node, symbol)
                    if nxt is not None:
                        frontier.append((word + (symbol,), nxt))
        assert seen == set(observer.states)


# -- structural checks ----------------------------------------------------------


def test_unobservable_self_loop_is_a_cycle():
    plant = toy([(0, "u", 0), (0, "a", 0)])
    cycle = unobservable_cycle(plant)
    assert cycle == [(0, "u", 0)]


def test_diagnosable_fixture_has_no_unobservable_cycle(diagnosable_plant):
    assert unobservable_cycle(diagnosable_plant) is None


def test_plant_without_unobservable_events_has_no_cycle():
    plant = toy([(0, "a", 1), (1, "b", 0)], unobservable=())
    assert unobservable_cycle(plant) is None


def test_unobservable_cycle_witness_closes():
    plant = toy([(0, "u", 1), (1, "u", 2), (2, "u", 0), (0, "a", 0)])
    cycle = unobservable_cycle(plant)
    assert cycle is not None
    assert cycle[0][0] == cycle[-1][2]
    for (left, right) in zip(cycle, cycle[1:]):
        assert left[2] == right[0]


def test_unobservable_cycle_exists_exactly_when_a_reachable_state_reenters_silently():
    rng = random.Random(19)
    for _ in range(60):
        plant = random_plant(rng, max_states=6)
        reachable = plant.reachable_states()
        silent = {(s, e, d) for (s, e, d) in plant.transitions if e in plant.unobservable}
        reenters = any(
            state in plant.unobservable_closure({d for (s, _e, d) in silent if s == state})
            for state in reachable
        )
        cycle = unobservable_cycle(plant)
        assert (cycle is not None) == reenters
        if cycle is not None:
            assert set(cycle) <= silent
            assert cycle[0][0] in reachable and cycle[0][0] == cycle[-1][2]
            assert all(left[2] == right[0] for left, right in zip(cycle, cycle[1:]))


def test_self_loop_is_live():
    plant = toy([(0, "a", 0)], unobservable=())
    assert dead_reachable_state(plant) is None


def test_dead_chain_end_is_reported():
    plant = toy([(0, "a", 1)], unobservable=())
    assert dead_reachable_state(plant) == 1


def test_defeatable_fixture_is_live(defeatable_plant):
    assert dead_reachable_state(defeatable_plant) is None


def test_unreachable_dead_state_does_not_matter():
    plant = PlantNfa(
        states=frozenset({0, 9}),
        observable=frozenset({"a"}),
        unobservable=frozenset(),
        faults=frozenset(),
        transitions=frozenset({(0, "a", 0)}),
        initial=frozenset({0}),
    )
    assert dead_reachable_state(plant) is None


# -- JSON ---------------------------------------------------------------------


def test_plant_round_trip(estimation_plant, diagnosable_plant, defeatable_plant, confusable_plant):
    for plant in (estimation_plant, diagnosable_plant, defeatable_plant, confusable_plant):
        assert plant_from_dict(plant_to_dict(plant)) == plant


def test_plant_from_dict_rejects_missing_keys():
    with pytest.raises(ValidationError):
        plant_from_dict({"states": []})


def test_plant_from_dict_rejects_bad_transition():
    data = plant_to_dict(toy([(0, "a", 0)]))
    data["transitions"] = [{"from": 0, "to": 0}]
    with pytest.raises(ValidationError):
        plant_from_dict(data)


def test_results_and_plant_tables_are_read_only(estimation_plant, estimation_costs):
    estimate = estimate_least_cost(
        estimation_plant, estimation_costs, ("β", "α", "α"), 2, witness=True
    )
    dfa = build_costed_matching_dfa(("β",), estimation_costs, 3)
    maps = [
        estimate.pairs,
        estimate.witnesses,
        build_observer(estimation_plant).transitions,
        dfa.transitions,
        estimation_plant.index,
        estimation_plant.posts,
        estimation_plant.order,
        estimation_plant.posts[()],
    ]
    for table in maps:
        with pytest.raises(TypeError):
            table[99] = 1
