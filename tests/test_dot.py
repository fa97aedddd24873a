from tamperest import dot
from tamperest.automata import build_observer
from tamperest.cmin import build_corrupted_automaton, build_costed_twin_verifier
from tamperest.estimator import estimation_graph
from tamperest.reference import (
    build_costed_matching_dfa,
    build_product,
    matching_dfa_to_dot,
    reduce_product,
)


def test_plant_dot_is_deterministic_and_complete(estimation_plant):
    first = dot.plant_to_dot(estimation_plant)
    second = dot.plant_to_dot(estimation_plant)
    assert first == second
    assert first.startswith("digraph plant {")
    for state in estimation_plant.states:
        assert f'"{state}"' in first
    assert '"0" -> "1" [label="ζ", style=dashed];' in first


def test_fault_edges_are_highlighted(defeatable_plant):
    text = dot.plant_to_dot(defeatable_plant)
    assert '"0" -> "1" [label="σf", color=red, style=dashed];' in text


def test_observer_dot_renders_subset_literals(estimation_plant):
    text = dot.observer_to_dot(build_observer(estimation_plant))
    assert '"{0,1,2,3,4}"' in text
    assert '"{2,3,4}" -> "{2,3}" [label="β"];' in text


def test_matching_dfa_dot_groups_stages(estimation_costs):
    dfa = build_costed_matching_dfa(("β", "α"), estimation_costs, 3)
    text = matching_dfa_to_dot(dfa)
    assert "rank=same" in text
    assert '"(0,0)"' in text
    assert "i_β" in text


def test_product_dot_runs(estimation_plant, estimation_costs):
    dfa = build_costed_matching_dfa(("β", "α"), estimation_costs, 3)
    product = reduce_product(build_product(estimation_plant, dfa))
    text = dot.product_to_dot(product.states, product.transitions)
    _estimate, states, transitions = estimation_graph(
        estimation_plant, estimation_costs, ("β", "α"), 2
    )
    assert text == dot.product_to_dot(states, transitions)
    assert "rank=same" in text


def test_costed_twin_verifier_dot_shows_cost_pairs(defeatable_plant, defeatable_costs):
    corrupted = build_corrupted_automaton(defeatable_plant, defeatable_costs)
    verifier = build_costed_twin_verifier(corrupted, defeatable_plant.faults)
    text = dot.costed_twin_verifier_to_dot(verifier)
    assert "((γ,1),(γ,0))" in text
    assert text == dot.costed_twin_verifier_to_dot(verifier)

