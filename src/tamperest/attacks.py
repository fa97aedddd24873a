"""Attacker capabilities, per-action costs, and attack labels.

An attacker may delete, insert, or substitute observable symbols; every
action carries a strictly positive integer cost.  Matching sequences relabel
a received observation with hypothesised attack actions: ``Del``/``Ins``/
``Sub`` labels mark a deletion, insertion, or substitution, while ``Plain``
marks an untouched symbol.

The exact but exponential enumerators of tampered words and of matching
sequences are test code: `enumerate_matching` lives in
:mod:`tamperest.oracle`, `enumerate_tampered` in :mod:`tamperest.reference`.
`project_original`, the pre-attack word a label sequence explains, is test
code too and lives in :mod:`tamperest.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Union

from .automata import PlantNfa, check_symbol_name, read_json
from .errors import ValidationError


@dataclass(frozen=True)
class Plain:
    symbol: str


@dataclass(frozen=True)
class Del:
    symbol: str


@dataclass(frozen=True)
class Ins:
    symbol: str


@dataclass(frozen=True)
class Sub:
    original: str
    observed: str


Label = Union[Plain, Del, Ins, Sub]

_LABEL_RANK = {Plain: 0, Del: 1, Ins: 2, Sub: 3}


def label_sort_key(label: Label):
    if isinstance(label, Sub):
        return (3, label.original, label.observed)
    return (_LABEL_RANK[type(label)], getattr(label, "symbol"), "")


def render_label(label: Label) -> str:
    if isinstance(label, Plain):
        return label.symbol
    if isinstance(label, Del):
        return f"d_{label.symbol}"
    if isinstance(label, Ins):
        return f"i_{label.symbol}"
    return f"t_{label.original}→{label.observed}"


def label_to_dict(label: Label) -> dict:
    if isinstance(label, Plain):
        return {"type": "plain", "symbol": label.symbol}
    if isinstance(label, Del):
        return {"type": "del", "symbol": label.symbol}
    if isinstance(label, Ins):
        return {"type": "ins", "symbol": label.symbol}
    return {"type": "sub", "from": label.original, "to": label.observed}


@dataclass(frozen=True)
class AttackModel:
    """Deletable/insertable symbols and substitution pairs with their costs.

    The key sets of the three cost maps are exactly the capability sets;
    every cost is a strictly positive integer and identity substitutions are
    rejected.  The maps are read-only copies of the ones passed in.
    """

    deletions: Mapping[str, int]
    insertions: Mapping[str, int]
    substitutions: Mapping[tuple, int]

    def __post_init__(self):
        for name in ("deletions", "insertions", "substitutions"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        for symbol, cost in list(self.deletions.items()) + list(self.insertions.items()):
            check_symbol_name(symbol)
            _check_cost(cost, f"attack on {symbol!r}")
        for pair, cost in self.substitutions.items():
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValidationError(f"substitution key must be a pair, got {pair!r}")
            original, observed = pair
            check_symbol_name(original)
            check_symbol_name(observed)
            if original == observed:
                raise ValidationError(f"identity substitution {pair!r} is not allowed")
            _check_cost(cost, f"substitution {pair!r}")

    @classmethod
    def empty(cls) -> "AttackModel":
        return cls({}, {}, {})

    def symbols(self) -> frozenset:
        """Every observable symbol the model mentions."""
        subs = {s for pair in self.substitutions for s in pair}
        return frozenset(self.deletions) | frozenset(self.insertions) | frozenset(subs)

    def validate_against(self, plant: PlantNfa):
        """Check that every attacked symbol is observable in `plant`."""
        stray = self.symbols() - plant.observable
        if stray:
            raise ValidationError(
                f"attack model mentions non-observable symbols: {sorted(stray)}"
            )


def _check_cost(cost, what: str) -> int:
    if not isinstance(cost, int) or isinstance(cost, bool) or cost <= 0:
        raise ValidationError(f"cost of {what} must be a positive integer, got {cost!r}")
    return cost


def check_budget(value, what: str = "budget", minimum: int = 0) -> int:
    """Budgets and bounds are finite non-negative integers; nothing else."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


# -- JSON interchange (cost table) -------------------------------------------


def model_from_dict(data: dict) -> AttackModel:
    if not isinstance(data, dict):
        raise ValidationError("attack model description must be a JSON object")
    unknown = data.keys() - {"deletions", "insertions", "substitutions"}
    if unknown:
        raise ValidationError(f"unknown attack model keys: {sorted(unknown)}")
    deletions = data.get("deletions", {})
    insertions = data.get("insertions", {})
    if not isinstance(deletions, dict) or not isinstance(insertions, dict):
        raise ValidationError("'deletions' and 'insertions' must be objects")
    entries = data.get("substitutions", [])
    if not isinstance(entries, list):
        raise ValidationError("'substitutions' must be a list")
    substitutions = {}
    for entry in entries:
        if not isinstance(entry, dict) or {"from", "to", "cost"} - entry.keys():
            raise ValidationError(f"bad substitution entry: {entry!r}")
        pair = (check_symbol_name(entry["from"]), check_symbol_name(entry["to"]))
        if pair in substitutions:
            raise ValidationError(f"duplicate substitution entry: {entry!r}")
        substitutions[pair] = entry["cost"]
    return AttackModel(deletions, insertions, substitutions)


def load_model(path) -> AttackModel:
    return model_from_dict(read_json(path))
