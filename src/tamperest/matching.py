"""Automata whose languages are the matching label sequences.

`build_matching_automaton` produces a stage machine: stage ``i`` means the
first ``i`` received symbols have been explained.  Deletion labels self-loop
at every stage (the plant moved, nothing was received); each non-deletion
label advances one stage and must account for the next received symbol,
either untouched, inserted, or substituted.  The estimator sweeps this
machine stage by stage; the paper's costed matching DFA, which pairs it with
a saturating cost counter, is reference code in :mod:`tamperest.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .attacks import (
    AttackModel,
    Del,
    Ins,
    Plain,
    Sub,
    label_sort_key,
)
from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class MatchingAutomaton:
    """Stage machine over plain symbols and attack labels.

    States are the integers ``0 .. len(received)``.  Every stage loops on
    `loop_labels` and moves on `advancing_labels(stage)` to the next one;
    no other move exists.
    """

    received: tuple
    model: AttackModel

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
