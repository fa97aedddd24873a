import ast
import importlib
import random
from pathlib import Path

import pytest

import tamperest
import tamperest.attacks
import tamperest.cli
import tamperest.cmin
import tamperest.diagnoser
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


#: Reference code kept in other modules: the paper's cost-layered verifier, the
#: `cmin` reference searches (the benchmark's traced run wraps them where they
#: are) and the oracle's label projection.
REFERENCE_NAMES_ELSEWHERE = {
    tamperest.diagnoser: (
        "CostedPlant",
        "DeletionMarker",
        "TwinVerifier",
        "build_costed_plant",
        "build_twin_verifier",
        "find_confused_cycle",
    ),
    tamperest.cmin: ("CostPair", "find_free_confusion_states", "pareto_update"),
    tamperest.oracle: ("project_original",),
}

#: The modules that hold reference or ground-truth code; production imports none.
REFERENCE_MODULES = ("diagnoser", "oracle", "reference")


def test_only_the_tests_import_the_reference_module():
    """Production reaches no reference code, and the package exports none of it."""
    source = Path(tamperest.__file__).parent
    modules = sorted(source.glob("*.py"))
    assert {source / f"{name}.py" for name in REFERENCE_MODULES} <= set(modules)
    held = {f"tamperest.{name}" for name in REFERENCE_MODULES}
    for path in modules:
        if path.stem not in REFERENCE_MODULES:
            assert not _imported_modules(path) & held, path.name
    elsewhere = [name for names in REFERENCE_NAMES_ELSEWHERE.values() for name in names]
    for name in REFERENCE_NAMES:
        assert hasattr(tamperest.reference, name)
    for module, names in REFERENCE_NAMES_ELSEWHERE.items():
        assert all(hasattr(module, name) for name in names), module.__name__
    for name in (*REFERENCE_NAMES, *elsewhere):
        assert name not in tamperest.__all__ and not hasattr(tamperest, name)
    for module in (tamperest.estimator, tamperest.attacks, tamperest.dot, tamperest.cli):
        assert not any(hasattr(module, name) for name in (*REFERENCE_NAMES, *elsewhere))
    assert "reference code" in tamperest.reference.__doc__.lower()
    assert "reference code" in tamperest.diagnoser.__doc__.lower()


#: The modules one CLI process loads (`test_cli_process_loads_no_reference_module`).
CLI_MODULES = (
    "tamperest", "tamperest.attacks", "tamperest.automata", "tamperest.cli", "tamperest.cmin",
    "tamperest.dot", "tamperest.errors", "tamperest.estimator", "tamperest.fixtures",
    "tamperest.scc",
)

#: Names in the CLI modules that no CLI module calls, and why each stays.
PINS = {
    "PlantNfa.events_at": "the benchmark's traced run patches it",
    "find_free_confusion_states": "the benchmark's traced run patches it",
    "propagate_cost_labels": "the benchmark's traced run patches it",
    "minimum_defeating_budget": "the benchmark's run imports it",
    "Estimate.cost": "the benchmark's tests call it",
    "CostPair.total": "part of the reference types the traced run reaches",
    "label_sort_key": "the label order the oracle and tamperest.reference sort by",
    "OracleBudgetError": "the oracle's error, in the one error module the oracle may import",
    "_Parser.error": "argparse calls it on a usage error",
}


def test_every_production_name_has_a_production_caller():
    """Each module-level function and class of a CLI module, and each method of those
    classes, is used by some CLI module other than ``__init__.py``, or pinned above.

    A use is an `ast.Name`, an attribute or an imported name; a method counts only
    attribute uses.  A use of any same-named thing counts, so the scan can miss an
    unused name but never flags a used one.
    """
    defined, names, attributes = set(), set(), set()  # defined: (class or None, name)
    for module in CLI_MODULES:
        path = Path(importlib.import_module(module).__file__)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((None, node.name))
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                )
        if module == "tamperest":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    unused = {
        name if owner is None else f"{owner}.{name}"
        for owner, name in defined
        if name not in (names | attributes if owner is None else attributes)
    }
    assert unused == set(PINS)


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
