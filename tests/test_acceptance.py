"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they print).
"""

import contextlib
import itertools
import random

from tamperest.attacks import (
    Ins,
    Plain,
    Sub,
    project_original,
)
from tamperest.automata import build_observer
from tamperest.cmin import (
    analyze_minimum_budget,
    build_corrupted_automaton,
    build_costed_twin_verifier,
    find_free_confusion_states,
    minimum_defeating_budget,
    pareto_update,
)
from tamperest.diagnoser import (
    FAULTY,
    NORMAL,
    build_costed_plant,
    build_twin_verifier,
    verify_diagnosability,
)
from tamperest.estimator import estimate_least_cost
from tamperest.oracle import (
    brute_force_diagnosable,
    brute_force_estimate,
    brute_force_minimum_budget,
    enumerate_matching,
)
from tamperest.reference import (
    build_costed_matching_dfa,
    build_product,
    ending_estimates,
    enumerate_tampered,
    reduce_product,
)

from instances import random_attack_model, random_observation, random_plant

A, B, G = "α", "β", "γ"


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL", flush=True)
        raise
    print(f"{label}: PASS", flush=True)


def test_criterion_01_tampered_set_reproduction(estimation_costs):
    with criterion("criterion 1 (tampered-set reproduction)"):
        got = enumerate_tampered((A, A, A), estimation_costs, 2)
        expected = [
            ((A, A, A), 0),
            ((A, A, B), 2),
            ((A, B, A), 2),
            ((B, A, A), 2),
            ((A, A, A, B), 2),
            ((A, A, B, A), 2),
            ((A, B, A, A), 2),
            ((B, A, A, A), 2),
        ]
        assert got == expected  # canonical order, exact set


def test_criterion_02_matching_set_reproduction(estimation_costs):
    with criterion("criterion 2 (matching-set reproduction)"):
        got = enumerate_matching((B, A, A), estimation_costs, 2)
        expected = [
            ((Plain(B), Plain(A), Plain(A)), 0),
            ((Plain(B), Plain(A), Sub(G, A)), 1),
            ((Plain(B), Sub(G, A), Plain(A)), 1),
            ((Plain(B), Sub(G, A), Sub(G, A)), 2),
            ((Ins(B), Plain(A), Plain(A)), 2),
            ((Sub(A, B), Plain(A), Plain(A)), 2),
        ]
        assert [(cs.labels, cs.cost) for cs in got] == expected
        projected = {(project_original(cs.labels), cs.cost) for cs in got}
        assert projected == {
            ((B, A, A), 0),
            ((B, G, A), 1),
            ((B, A, G), 1),
            ((A, A), 2),
            ((A, A, A), 2),
            ((B, G, G), 2),
        }


def test_criterion_03_observer_reproduction(estimation_plant):
    with criterion("criterion 3 (observer estimation chain)"):
        observer = build_observer(estimation_plant)
        chain = [observer.initial]
        for symbol in (A, B, A):
            chain.append(observer.step(chain[-1], symbol))
        assert chain == [
            frozenset({0, 1, 2, 3, 4}),
            frozenset({2, 3, 4}),
            frozenset({2, 3}),
            frozenset({3, 4}),
        ]


def test_criterion_04_costed_matching_spot_checks(estimation_costs):
    with criterion("criterion 4 (costed matching machine spot checks)"):
        dfa = build_costed_matching_dfa((B, A, A), estimation_costs, 3)
        assert dfa.step((0, 0), Ins(B)) == (1, 2)
        assert dfa.step((0, 3), Sub(A, B)) == (1, 3)


def test_criterion_05_estimator_optimality():
    with criterion("criterion 5 (estimator optimality on 200 random instances)"):
        rng = random.Random(20_260_810)
        for _ in range(200):
            plant = random_plant(rng, max_states=5)
            model = random_attack_model(rng, max_cost=3)
            word = random_observation(rng, max_len=3)
            budget = rng.randint(0, 4)
            estimate = estimate_least_cost(plant, model, word, budget)
            assert estimate.pairs == brute_force_estimate(plant, model, word, budget)
            dfa = build_costed_matching_dfa(word, model, budget + 1, alphabet=plant.observable)
            product = build_product(plant, dfa)
            full = ending_estimates(product, budget)
            reduced = ending_estimates(reduce_product(product), budget)
            assert full.pairs == reduced.pairs == estimate.pairs
            assert full.over_budget == reduced.over_budget == estimate.over_budget


def test_criterion_06_diagnosability_verdicts(
    diagnosable_plant, diagnosable_costs, defeatable_plant, defeatable_costs, empty_model
):
    with criterion("criterion 6 (diagnosability verdicts)"):
        assert verify_diagnosability(diagnosable_plant, diagnosable_costs, budget=4).diagnosable
        assert not verify_diagnosability(defeatable_plant, defeatable_costs, budget=2).diagnosable
        rng = random.Random(606)
        for _ in range(100):
            plant = random_plant(
                rng,
                max_states=5,
                allow_unobservable_cycles=False,
                ensure_live=True,
                with_fault=True,
            )
            got = verify_diagnosability(plant, empty_model, budget=0).diagnosable
            assert got == brute_force_diagnosable(plant, empty_model, budget=0)


def test_criterion_07_verifier_size_bound(
    diagnosable_plant, diagnosable_costs, defeatable_plant, defeatable_costs
):
    with criterion("criterion 7 (verifier size bound)"):
        violations = 0

        def check(plant, model, budget):
            nonlocal violations
            costed = build_costed_plant(plant, model, budget + 1)
            verifier = build_twin_verifier(costed, plant.faults)
            if len(verifier.states) > (2 * len(plant.states) * (budget + 2)) ** 2:
                violations += 1

        check(diagnosable_plant, diagnosable_costs, 4)
        check(defeatable_plant, defeatable_costs, 2)
        rng = random.Random(707)
        for _ in range(60):
            plant = random_plant(
                rng,
                max_states=5,
                allow_unobservable_cycles=False,
                ensure_live=True,
                with_fault=True,
            )
            model = random_attack_model(rng, max_cost=3, p_del=0.2, p_ins=0.2, p_sub=0.2)
            check(plant, model, rng.randint(0, 3))
        assert violations == 0


def test_criterion_08_minimum_defeating_budget(defeatable_plant, defeatable_costs):
    with criterion("criterion 8 (minimum defeating budget)"):
        result = analyze_minimum_budget(defeatable_plant, defeatable_costs)
        assert result.value == 2
        verifier = build_costed_twin_verifier(
            build_corrupted_automaton(defeatable_plant, defeatable_costs), defeatable_plant.faults
        )
        ending, _cycles = find_free_confusion_states(verifier)
        assert ending == frozenset({(3, FAULTY, 5, NORMAL), (5, NORMAL, 3, FAULTY)})
        rng = random.Random(808)
        for _ in range(100):
            plant = random_plant(
                rng,
                max_states=4,
                allow_unobservable_cycles=False,
                ensure_live=True,
                with_fault=True,
            )
            model = random_attack_model(rng, max_cost=3, p_del=0.2, p_ins=0.2, p_sub=0.25)
            assert minimum_defeating_budget(plant, model) == brute_force_minimum_budget(
                plant, model
            )


def test_criterion_09_pareto_antichain_invariant():
    with criterion("criterion 9 (antichain invariant over 10^4 update sequences)"):
        rng = random.Random(909)
        for _ in range(10_000):
            pairs = frozenset()
            for _ in range(rng.randint(1, 12)):
                candidate = (rng.randint(0, 8), rng.randint(0, 8))
                pairs, _changed = pareto_update(pairs, candidate)
                for left, right in itertools.permutations(pairs, 2):
                    assert not (
                        (left[0] <= right[0] and left[1] < right[1])
                        or (left[0] < right[0] and left[1] <= right[1])
                    )


def test_criterion_10_consistency_triangle(
    defeatable_plant, defeatable_costs, confusable_plant, empty_model
):
    """Defeating budget versus diagnosability verdicts.

    The budget bounds what the attacker spends on each run, inclusive, so a
    plant with minimum defeating budget ``c*`` is non-diagnosable at every
    budget from ``c*`` on and diagnosable below it.  The defeatable fixture
    pins the sharp boundary: its cheapest defeating route costs 2.
    """
    with criterion("criterion 10 (defeating budget vs diagnosability)"):
        cases = [
            (defeatable_plant, defeatable_costs),
            (confusable_plant, empty_model),
        ]
        for plant, model in cases:
            c_star = minimum_defeating_budget(plant, model)
            assert c_star is not None
            assert not verify_diagnosability(plant, model, budget=c_star).diagnosable
            assert not verify_diagnosability(plant, model, budget=c_star + 1).diagnosable
        assert minimum_defeating_budget(defeatable_plant, defeatable_costs) == 2
        assert verify_diagnosability(defeatable_plant, defeatable_costs, budget=1).diagnosable
        assert not verify_diagnosability(defeatable_plant, defeatable_costs, budget=2).diagnosable
