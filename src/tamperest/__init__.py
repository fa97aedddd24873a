"""State estimation and fault diagnosis for partially observed automata
whose sensor readings may be corrupted by a cost-bounded attacker.

The package answers three questions about a plant, an attack capability
table, and an attacker budget:

* which plant states explain a received observation, and at what minimum
  recovery cost (`estimate_least_cost`);
* whether every fault is still detectable after finitely many observations
  despite any attack within the budget (`verify_diagnosability`);
* the smallest budget with which an attacker can keep the diagnoser
  confused forever (`minimum_defeating_budget`).
"""

from .attacks import (
    AttackModel,
    Del,
    Ins,
    Plain,
    Sub,
    load_model,
    model_from_dict,
)
from .automata import (
    ObserverDfa,
    PlantNfa,
    build_observer,
    dead_reachable_state,
    load_plant,
    plant_from_dict,
    unobservable_cycle,
)
from .cmin import (
    CminResult,
    DiagnosisResult,
    analyze_minimum_budget,
    build_corrupted_automaton,
    build_costed_twin_verifier,
    minimum_defeating_budget,
    verify_diagnosability,
)
from .errors import (
    ConfigurationError,
    OracleBudgetError,
    PreconditionError,
    TamperestError,
    ValidationError,
)
from .estimator import Estimate, estimate_least_cost, estimation_graph
from . import fixtures

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
