import ast
import random
from pathlib import Path

import pytest

import tamperest
import tamperest.attacks
import tamperest.dot
import tamperest.oracle
import tamperest.reference
from tamperest.attacks import AttackModel
from tamperest.errors import OracleBudgetError
from tamperest.oracle import (
    OracleBudget,
    brute_force_diagnosable,
    brute_force_estimate,
    brute_force_minimum_budget,
)

from instances import random_plant

WIDE = OracleBudget(max_states=8)


def _imported_modules(path) -> set:
    """Dotted names of the modules a source file imports, relative imports resolved."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = "tamperest" + ("." + module if module else "")
            modules.add(module)
            if module == "tamperest":  # from . import name
                modules.update(module + "." + alias.name for alias in node.names)
    return modules


def test_oracle_imports_no_engine_module():
    """The oracle checks the engines only while it shares none of their code."""
    package = {
        name.partition(".")[2].split(".")[0]
        for name in _imported_modules(tamperest.oracle.__file__)
        if name.split(".")[0] == "tamperest" and name != "tamperest"
    }
    assert package == {"attacks", "automata", "errors"}
    assert not package & {"cmin", "diagnoser", "estimator", "matching", "reference", "scc"}


#: What `tamperest.reference` holds: the paper's explicit estimation construction,
#: the stage machine and its language, and the tampered-word enumerator.
REFERENCE_NAMES = (
    "CostedMatchingDfa",
    "ProductAutomaton",
    "build_costed_matching_dfa",
    "build_product",
    "MatchingAutomaton",
    "build_matching_automaton",
    "ending_estimates",
    "enumerate_tampered",
    "estimate_via_product",
    "label_cost",
    "matching_dfa_to_dot",
    "matching_language",
    "project_received",
    "reduce_product",
    "total_cost",
)


def test_only_the_tests_import_the_reference_module():
    """Production reaches no reference code, and the package exports none of it."""
    source = Path(tamperest.__file__).parent
    modules = sorted(source.glob("*.py"))
    assert source / "reference.py" in modules
    for path in modules:
        if path.name != "reference.py":
            assert "tamperest.reference" not in _imported_modules(path), path.name
    for name in REFERENCE_NAMES:
        assert hasattr(tamperest.reference, name)
        assert name not in tamperest.__all__ and not hasattr(tamperest, name)
    for module in (tamperest.estimator, tamperest.attacks, tamperest.dot):
        assert not any(hasattr(module, name) for name in REFERENCE_NAMES)
    assert "reference code" in tamperest.reference.__doc__.lower()


def test_estimate_reduces_to_the_observer(estimation_plant, empty_model):
    word = ("α", "β", "α")
    got = brute_force_estimate(estimation_plant, empty_model, word, 3)
    assert got == {s: 0 for s in estimation_plant.reach(estimation_plant.initial, word)}


def test_estimate_at_zero_budget_is_plain_reach(estimation_plant, estimation_costs):
    word = ("β", "α")
    got = brute_force_estimate(estimation_plant, estimation_costs, word, 0)
    assert got == {s: 0 for s in estimation_plant.reach(estimation_plant.initial, word)}


def test_estimate_refuses_oversized_inputs(estimation_plant, estimation_costs):
    with pytest.raises(OracleBudgetError):
        brute_force_estimate(estimation_plant, estimation_costs, ("α",) * 9, 2)
    with pytest.raises(OracleBudgetError):
        brute_force_estimate(estimation_plant, estimation_costs, ("α",), 7)
    big = random_plant(random.Random(0), max_states=5)
    with pytest.raises(OracleBudgetError):
        brute_force_estimate(big, AttackModel.empty(), (), 0, OracleBudget(max_states=1))


def test_diagnosable_verdicts_on_fixtures(
    diagnosable_plant, diagnosable_costs, defeatable_plant, defeatable_costs
):
    assert brute_force_diagnosable(diagnosable_plant, diagnosable_costs, budget=4, limits=WIDE)
    assert not brute_force_diagnosable(defeatable_plant, defeatable_costs, budget=2)


def test_confusable_toy_is_not_diagnosable(confusable_plant, empty_model):
    assert not brute_force_diagnosable(confusable_plant, empty_model, budget=0)


def test_diagnosable_refuses_oversized_inputs(diagnosable_plant, diagnosable_costs):
    with pytest.raises(OracleBudgetError):
        brute_force_diagnosable(diagnosable_plant, diagnosable_costs, budget=2)  # 8 states


def test_minimum_budget_on_fixtures(defeatable_plant, defeatable_costs, confusable_plant, empty_model):
    assert brute_force_minimum_budget(defeatable_plant, defeatable_costs) == 2
    assert brute_force_minimum_budget(confusable_plant, empty_model) == 0


def test_minimum_budget_without_faults_is_none(estimation_plant, estimation_costs):
    assert brute_force_minimum_budget(estimation_plant, estimation_costs) is None


def test_minimum_budget_none_when_diagnosable_forever(diagnosable_plant, diagnosable_costs):
    assert brute_force_minimum_budget(diagnosable_plant, diagnosable_costs, limits=WIDE) is None


def test_minimum_budget_refuses_oversized_inputs(defeatable_plant, defeatable_costs):
    with pytest.raises(OracleBudgetError):
        brute_force_minimum_budget(
            defeatable_plant, defeatable_costs, limits=OracleBudget(max_states=2)
        )
