"""Automata whose languages are the matching label sequences.

`build_matching_automaton` produces a stage machine: stage ``i`` means the
first ``i`` received symbols have been explained.  Deletion labels self-loop
at every stage (the plant moved, nothing was received); each non-deletion
label advances one stage and must account for the next received symbol,
either untouched, inserted, or substituted.

`build_costed_matching_dfa` augments the stage machine with a saturating
cost counter: the cost component accumulates label costs but never exceeds
the bound ``B``, so a state with cost exactly ``B`` means "accumulated cost
is at least B".  Consumers that filter at an attacker budget ``C`` build the
machine with ``B = C + 1``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .attacks import (
    AttackModel,
    Del,
    Ins,
    Label,
    Plain,
    Sub,
    check_budget,
    label_cost,
    label_sort_key,
)
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class MatchingAutomaton:
    """Stage machine over plain symbols and attack labels.

    States are the integers ``0 .. len(received)``; the transition map is
    deterministic and partial.
    """

    received: tuple
    model: AttackModel

    @property
    def stages(self) -> range:
        return range(len(self.received) + 1)

    @property
    def final_stage(self) -> int:
        return len(self.received)

    def loop_labels(self) -> tuple:
        """Deletion labels; they self-loop at every stage."""
        return tuple(Del(s) for s in sorted(self.model.deletions))

    def advancing_labels(self, stage: int) -> tuple:
        """Labels that explain received symbol `stage` and move to `stage`+1."""
        if stage >= self.final_stage:
            return ()
        symbol = self.received[stage]
        labels = [Plain(symbol)]
        if symbol in self.model.insertions:
            labels.append(Ins(symbol))
        for (original, observed) in self.model.substitutions:
            if observed == symbol:
                labels.append(Sub(original, observed))
        return tuple(sorted(labels, key=label_sort_key))

    def step(self, stage: int, label: Label) -> Optional[int]:
        if isinstance(label, Del):
            return stage if label.symbol in self.model.deletions else None
        if stage < self.final_stage and label in self.advancing_labels(stage):
            return stage + 1
        return None

    def transitions(self):
        for stage in self.stages:
            for label in self.loop_labels():
                yield stage, label, stage
            for label in self.advancing_labels(stage):
                yield stage, label, stage + 1

    def language(self, max_cost: int) -> list:
        """Label sequences accepted at the final stage with cost <= `max_cost`."""
        out = []

        def walk(stage: int, labels: tuple, spent: int):
            if stage == self.final_stage:
                out.append((labels, spent))
            for label in self.loop_labels():
                cost = label_cost(label, self.model)
                if spent + cost <= max_cost:
                    walk(stage, labels + (label,), spent + cost)
            if stage < self.final_stage:
                for label in self.advancing_labels(stage):
                    cost = label_cost(label, self.model)
                    if spent + cost <= max_cost:
                        walk(stage + 1, labels + (label,), spent + cost)

        walk(0, (), 0)
        out.sort(key=lambda pair: (pair[1], len(pair[0]), [label_sort_key(l) for l in pair[0]]))
        return out


def build_matching_automaton(
    received: Sequence[str], model: AttackModel, alphabet: Optional[frozenset] = None
) -> MatchingAutomaton:
    """Stage machine for the given received observation.

    When `alphabet` is provided, every received symbol must belong to it.
    """
    received = tuple(received)
    if alphabet is not None:
        for symbol in received:
            if symbol not in alphabet:
                raise ValidationError(f"received symbol {symbol!r} is not observable")
    return MatchingAutomaton(received=received, model=model)


@dataclass(frozen=True, eq=False)
class CostedMatchingDfa:
    """Stage machine paired with a saturating cost counter.

    States are ``(stage, cost)`` with ``cost <= bound``; only states
    reachable from ``(0, 0)`` are materialised.  The transition map is
    read-only.
    """

    received: tuple
    model: AttackModel
    bound: int
    states: frozenset
    transitions: Mapping

    initial = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "transitions", MappingProxyType(dict(self.transitions)))

    @property
    def final_stage(self) -> int:
        return len(self.received)

    def step(self, state: tuple, label: Label) -> Optional[tuple]:
        return self.transitions.get((state, label))

    def run(self, labels: Sequence[Label]) -> Optional[tuple]:
        current = self.initial
        for label in labels:
            current = self.step(current, label)
            if current is None:
                return None
        return current

    def labels(self) -> tuple:
        seen = {label for (_state, label) in self.transitions}
        return tuple(sorted(seen, key=label_sort_key))


def build_costed_matching_dfa(
    received: Sequence[str],
    model: AttackModel,
    bound: int,
    alphabet: Optional[frozenset] = None,
) -> CostedMatchingDfa:
    """Accessible product of the stage machine with a cost counter saturated at `bound`."""
    check_budget(bound, "saturation bound")
    skeleton = build_matching_automaton(received, model, alphabet)
    start = (0, 0)
    states = {start}
    transitions = {}
    queue = deque([start])
    loops = skeleton.loop_labels()
    while queue:
        stage, cost = queue.popleft()
        moves = [(label, stage) for label in loops]
        moves.extend((label, stage + 1) for label in skeleton.advancing_labels(stage))
        for label, next_stage in moves:
            next_cost = min(cost + label_cost(label, model), bound)
            target = (next_stage, next_cost)
            transitions[((stage, cost), label)] = target
            if target not in states:
                states.add(target)
                queue.append(target)
    return CostedMatchingDfa(
        received=skeleton.received,
        model=model,
        bound=bound,
        states=frozenset(states),
        transitions=transitions,
    )
