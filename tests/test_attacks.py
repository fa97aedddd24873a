import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamperest.attacks import (
    AttackModel,
    Del,
    Ins,
    Plain,
    Sub,
    model_from_dict,
    model_to_dict,
    project_original,
)
from tamperest.errors import ValidationError
from tamperest.oracle import enumerate_matching
from tamperest.reference import enumerate_tampered, label_cost, project_received, total_cost

from instances import random_attack_model, random_observation

A, B, G = "α", "β", "γ"


# -- model validation ----------------------------------------------------------


def test_costs_must_be_positive():
    with pytest.raises(ValidationError):
        AttackModel({"a": 0}, {}, {})
    with pytest.raises(ValidationError):
        AttackModel({}, {"a": -1}, {})
    with pytest.raises(ValidationError):
        AttackModel({}, {}, {("a", "b"): 0})


def test_model_is_immutable():
    source = {"a": 1}
    model = AttackModel(source, {"b": 2}, {("a", "b"): 3})
    source["a"] = 5
    assert model.deletions == {"a": 1}
    for table in (model.deletions, model.insertions, model.substitutions):
        with pytest.raises(TypeError):
            table["zz"] = -3
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.deletions = {"zz": -3}


def test_identity_substitution_rejected():
    with pytest.raises(ValidationError):
        AttackModel({}, {}, {("a", "a"): 1})


def test_validate_against_plant(estimation_plant):
    stray = AttackModel({"nope": 1}, {}, {})
    with pytest.raises(ValidationError):
        stray.validate_against(estimation_plant)
    into_unobservable = AttackModel({}, {}, {("α", "ζ"): 1})
    with pytest.raises(ValidationError):
        into_unobservable.validate_against(estimation_plant)


# -- label and sequence costs ---------------------------------------------------


def test_label_costs_from_the_cost_table(estimation_costs):
    assert label_cost(Sub(A, B), estimation_costs) == 2
    assert label_cost(Del(A), estimation_costs) == 3
    assert label_cost(Ins(B), estimation_costs) == 2
    assert label_cost(Sub(G, A), estimation_costs) == 1
    assert label_cost(Plain(B), estimation_costs) == 0


def test_label_cost_rejects_disallowed_labels(estimation_costs):
    with pytest.raises(ValidationError):
        label_cost(Del(B), estimation_costs)
    with pytest.raises(ValidationError):
        label_cost(Sub(B, A), estimation_costs)


def test_sequence_costs(estimation_costs):
    assert total_cost((Plain(B), Sub(G, A), Sub(G, A)), estimation_costs) == 2
    assert total_cost((), estimation_costs) == 0
    assert total_cost((Ins(B), Plain(A), Plain(A)), estimation_costs) == 2


# -- projections ---------------------------------------------------------------


def test_project_original_examples():
    assert project_original((Plain(B), Sub(G, A), Plain(A))) == (B, G, A)
    assert project_original((Ins(B), Plain(A), Plain(A))) == (A, A)
    assert project_original((Plain(A), Plain(B))) == (A, B)
    assert project_original((Del(A), Plain(B))) == (A, B)


def test_project_received_reassembles_the_observation():
    labels = (Del(A), Plain(B), Sub(G, A), Ins(B))
    assert project_received(labels) == (B, A, B)


# -- enumerate_tampered ----------------------------------------------------------


def test_tampered_set_reproduction(estimation_costs):
    got = dict(enumerate_tampered((A, A, A), estimation_costs, 2))
    expected = {
        (A, A, A): 0,
        (B, A, A, A): 2,
        (A, B, A, A): 2,
        (A, A, B, A): 2,
        (A, A, A, B): 2,
        (B, A, A): 2,
        (A, B, A): 2,
        (A, A, B): 2,
    }
    assert got == expected


def test_tampered_under_empty_model():
    assert enumerate_tampered(("x",), AttackModel.empty(), 5) == [(("x",), 0)]


def test_tampered_single_symbol(estimation_costs):
    got = dict(enumerate_tampered((G,), estimation_costs, 1))
    assert got == {(G,): 0, (A,): 1}


def test_tampered_keeps_minimum_cost_for_duplicates():
    # inserting "a" before or after the kept "a" produces the same string;
    # substitution b->a then insert a is costlier than insert alone
    model = AttackModel({}, {"a": 1}, {("a", "b"): 2})
    got = dict(enumerate_tampered(("a",), model, 3))
    assert got[("a", "a")] == 1


def test_tampered_deletions_and_double_substitutions(estimation_costs):
    got = dict(enumerate_tampered((A, A, A), estimation_costs, 4))
    assert got[(A, A)] == 3        # one symbol deleted
    assert got[(B, B, A)] == 4     # two substitutions
    assert got[(B, A, B)] == 4
    assert got[(A, A, A)] == 0


def test_matching_deletion_interleavings(estimation_costs):
    got = {cs.labels: cs.cost for cs in enumerate_matching((B, A, A), estimation_costs, 3)}
    base = (Plain(B), Plain(A), Plain(A))
    for position in range(4):
        labels = base[:position] + (Del(A),) + base[position:]
        assert got[labels] == 3


def test_tampered_ordering_is_canonical(estimation_costs):
    pairs = enumerate_tampered((A, A, A), estimation_costs, 2)
    assert pairs == sorted(pairs, key=lambda p: (p[1], len(p[0]), p[0]))


# -- enumerate_matching -----------------------------------------------------------


def test_matching_set_reproduction(estimation_costs):
    got = {
        (cs.labels, cs.cost) for cs in enumerate_matching((B, A, A), estimation_costs, 2)
    }
    expected = {
        ((Plain(B), Plain(A), Plain(A)), 0),
        ((Plain(B), Sub(G, A), Plain(A)), 1),
        ((Plain(B), Plain(A), Sub(G, A)), 1),
        ((Ins(B), Plain(A), Plain(A)), 2),
        ((Sub(A, B), Plain(A), Plain(A)), 2),
        ((Plain(B), Sub(G, A), Sub(G, A)), 2),
    }
    assert got == expected


def test_matching_projections_match_published_list(estimation_costs):
    got = {
        (project_original(cs.labels), cs.cost)
        for cs in enumerate_matching((B, A, A), estimation_costs, 2)
    }
    expected = {
        ((B, A, A), 0),
        ((B, G, A), 1),
        ((B, A, G), 1),
        ((A, A), 2),
        ((A, A, A), 2),
        ((B, G, G), 2),
    }
    assert got == expected


def test_matching_under_empty_model():
    out = enumerate_matching(("x", "y"), AttackModel.empty(), 9)
    assert [(cs.labels, cs.cost) for cs in out] == [((Plain("x"), Plain("y")), 0)]


def test_received_sequence_always_matches_itself_for_free():
    rng = random.Random(23)
    for _ in range(50):
        model = random_attack_model(rng)
        received = random_observation(rng)
        budget = rng.randint(0, 4)
        out = enumerate_matching(received, model, budget)
        plain = tuple(Plain(s) for s in received)
        assert any(cs.labels == plain and cs.cost == 0 for cs in out)


def test_matching_round_trip_regenerates_received():
    rng = random.Random(29)
    for _ in range(50):
        model = random_attack_model(rng)
        received = random_observation(rng)
        for cs in enumerate_matching(received, model, rng.randint(0, 4)):
            assert project_received(cs.labels) == received
            assert total_cost(cs.labels, model) == cs.cost


def test_enumerations_grow_with_budget():
    rng = random.Random(31)
    for _ in range(30):
        model = random_attack_model(rng)
        word = random_observation(rng)
        low, high = sorted((rng.randint(0, 3), rng.randint(0, 4)))
        small_t = set(dict(enumerate_tampered(word, model, low)))
        large_t = set(dict(enumerate_tampered(word, model, high)))
        assert small_t <= large_t
        small_m = {cs.labels for cs in enumerate_matching(word, model, low)}
        large_m = {cs.labels for cs in enumerate_matching(word, model, high)}
        assert small_m <= large_m


def test_label_counts_relate_projection_lengths():
    rng = random.Random(37)
    for _ in range(40):
        model = random_attack_model(rng)
        received = random_observation(rng)
        for cs in enumerate_matching(received, model, 3):
            insertions = sum(isinstance(l, Ins) for l in cs.labels)
            deletions = sum(isinstance(l, Del) for l in cs.labels)
            assert len(project_original(cs.labels)) == len(cs.labels) - insertions
            assert len(received) == len(cs.labels) - deletions


def test_every_tampering_is_explained_by_some_matching():
    # exhaustive cross-check of the two enumerations against each other
    rng = random.Random(41)
    for _ in range(25):
        model = random_attack_model(rng, p_del=0.25, p_ins=0.25, p_sub=0.2)
        word = random_observation(rng, max_len=4)
        budget = rng.randint(0, 4)
        for tampered, cost in enumerate_tampered(word, model, budget):
            explanations = enumerate_matching(tampered, model, budget)
            matches = [
                cs
                for cs in explanations
                if project_original(cs.labels) == word and cs.cost == cost
            ]
            assert matches, (word, tampered, cost)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matching_costs_never_exceed_budget(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    model = random_attack_model(rng)
    received = random_observation(rng)
    budget = data.draw(st.integers(0, 4))
    for cs in enumerate_matching(received, model, budget):
        assert 0 <= cs.cost <= budget


def test_infinite_or_fractional_budgets_are_rejected(estimation_costs):
    for bad in (float("inf"), 1.5, "2", None, True):
        with pytest.raises(ValidationError):
            enumerate_tampered((A,), estimation_costs, bad)
        with pytest.raises(ValidationError):
            enumerate_matching((A,), estimation_costs, bad)


# -- JSON ------------------------------------------------------------------------


def test_model_round_trip(estimation_costs, diagnosable_costs, defeatable_costs):
    for model in (estimation_costs, diagnosable_costs, defeatable_costs, AttackModel.empty()):
        assert model_from_dict(model_to_dict(model)) == model


def test_model_from_dict_rejects_bad_entries():
    with pytest.raises(ValidationError):
        model_from_dict({"substitutions": [{"from": "a"}]})
    with pytest.raises(ValidationError):
        model_from_dict({"bogus": {}})
    with pytest.raises(ValidationError):
        model_from_dict({"deletions": {"a": "three"}})
