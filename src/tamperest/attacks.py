"""Attacker capabilities, per-action costs, and bounded enumeration.

An attacker may delete, insert, or substitute observable symbols; every
action carries a strictly positive integer cost.  Matching sequences relabel
a received observation with hypothesised attack actions: ``Del``/``Ins``/
``Sub`` labels mark a deletion, insertion, or substitution, while ``Plain``
marks an untouched symbol.

The two enumerators here (`enumerate_tampered`, `enumerate_matching`) are
exact but exponential and intended for tests and desk-scale inputs; the
automaton constructions in :mod:`tamperest.matching` cover the general case.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence, Union

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
class CostedSequence:
    """A matching label sequence together with its recovery cost."""

    labels: tuple
    cost: int


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


def label_cost(label: Label, model: AttackModel) -> int:
    """Cost of recovering one label: 0 for untouched symbols."""
    if isinstance(label, Plain):
        return 0
    if isinstance(label, Del):
        try:
            return model.deletions[label.symbol]
        except KeyError:
            raise ValidationError(f"{label.symbol!r} is not deletable under this model") from None
    if isinstance(label, Ins):
        try:
            return model.insertions[label.symbol]
        except KeyError:
            raise ValidationError(f"{label.symbol!r} is not insertable under this model") from None
    if isinstance(label, Sub):
        try:
            return model.substitutions[(label.original, label.observed)]
        except KeyError:
            raise ValidationError(
                f"substitution {label.original!r} -> {label.observed!r} "
                "is not allowed under this model"
            ) from None
    raise ValidationError(f"not an attack label: {label!r}")


def total_cost(labels: Sequence[Label], model: AttackModel) -> int:
    return sum(label_cost(label, model) for label in labels)


def project_original(labels: Sequence[Label]) -> tuple:
    """The pre-attack observation a label sequence explains.

    Untouched and deleted symbols map to themselves, substitutions map to
    their original symbol, insertions vanish.
    """
    out = []
    for label in labels:
        if isinstance(label, (Plain, Del)):
            out.append(label.symbol)
        elif isinstance(label, Sub):
            out.append(label.original)
        elif not isinstance(label, Ins):
            raise ValidationError(f"not an attack label: {label!r}")
    return tuple(out)


def project_received(labels: Sequence[Label]) -> tuple:
    """The observation the estimation unit received, reassembled from labels."""
    out = []
    for label in labels:
        if isinstance(label, (Plain, Ins)):
            out.append(label.symbol)
        elif isinstance(label, Sub):
            out.append(label.observed)
        elif not isinstance(label, Del):
            raise ValidationError(f"not an attack label: {label!r}")
    return tuple(out)


def enumerate_tampered(observation: Sequence[str], model: AttackModel, budget: int) -> list:
    """All corruptions of `observation` with total attack cost <= `budget`.

    Returns ``(sequence, cost)`` pairs where `cost` is the cheapest way the
    attacker can produce that exact sequence.  Ordered by (cost, length,
    sequence) for reproducible output.
    """
    check_budget(budget)
    observation = tuple(observation)
    best: dict = {}

    def visit(index: int, out: tuple, spent: int):
        if index == len(observation):
            if spent < best.get(out, budget + 1):
                best[out] = spent
        else:
            symbol = observation[index]
            visit(index + 1, out + (symbol,), spent)
            cost = model.deletions.get(symbol)
            if cost is not None and spent + cost <= budget:
                visit(index + 1, out, spent + cost)
            for (original, observed), cost in model.substitutions.items():
                if original == symbol and spent + cost <= budget:
                    visit(index + 1, out + (observed,), spent + cost)
        for symbol, cost in model.insertions.items():
            if spent + cost <= budget:
                visit(index, out + (symbol,), spent + cost)

    visit(0, (), 0)
    return sorted(best.items(), key=lambda item: (item[1], len(item[0]), item[0]))


def enumerate_matching(
    received: Sequence[str], model: AttackModel, budget: int
) -> list:
    """All relabelled explanations of `received` with recovery cost <= `budget`.

    Returns :class:`CostedSequence` objects; distinct label sequences are
    all kept, even when they explain the same original observation.
    """
    check_budget(budget)
    received = tuple(received)
    results = []

    def visit(index: int, labels: tuple, spent: int):
        if index == len(received):
            results.append(CostedSequence(labels, spent))
        else:
            symbol = received[index]
            visit(index + 1, labels + (Plain(symbol),), spent)
            cost = model.insertions.get(symbol)
            if cost is not None and spent + cost <= budget:
                visit(index + 1, labels + (Ins(symbol),), spent + cost)
            for (original, observed), cost in model.substitutions.items():
                if observed == symbol and spent + cost <= budget:
                    visit(index + 1, labels + (Sub(original, observed),), spent + cost)
        for symbol, cost in model.deletions.items():
            if spent + cost <= budget:
                visit(index, labels + (Del(symbol),), spent + cost)

    visit(0, (), 0)
    results.sort(
        key=lambda cs: (cs.cost, len(cs.labels), [label_sort_key(l) for l in cs.labels])
    )
    return results


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


def model_to_dict(model: AttackModel) -> dict:
    return {
        "deletions": {s: c for s, c in sorted(model.deletions.items())},
        "insertions": {s: c for s, c in sorted(model.insertions.items())},
        "substitutions": [
            {"from": original, "to": observed, "cost": cost}
            for (original, observed), cost in sorted(model.substitutions.items())
        ],
    }


def load_model(path) -> AttackModel:
    return model_from_dict(read_json(path))
