"""Reference code only, for the tests: the paper's cost-layered verifier.

No production module imports it.  Tamper-tolerant diagnosability at budget
C is decided in production by :func:`tamperest.cmin.verify_diagnosability`,
the minimum-defeating-budget search cut off at C.  This module builds the
paper's own construction for the same question, and the tests check the
production verdicts against it.

The plant is augmented with the attacker's actions: states become
``(plant_state, spent)`` pairs, substitutions and insertions appear as extra
observable transitions that raise the spent component, and deletions appear
as fresh unobservable marker events.  A twin verifier then tracks two runs
of the augmented plant with equal observable projections, labelling each
run ``N`` or ``F``; built with cost bound C, it has a reachable mismatched
cycle exactly when the system is non-diagnosable at C.  Its state count is
bounded by ``(2|X|(C+1))^2``, the paper's size bound, and the build checks
it.  `PlantNfa.events_at` serves only this construction and the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .attacks import AttackModel, check_budget
from .automata import PlantNfa, sort_key
from .cmin import FAULTY, NORMAL, check_faults, is_mismatched
from .scc import cycle_within, strongly_connected_components


@dataclass(frozen=True)
class DeletionMarker:
    """Unobservable stand-in event for an attacker-deleted symbol."""

    symbol: str


def event_sort_key(event):
    if isinstance(event, DeletionMarker):
        return (1, event.symbol)
    return (0, event)


@dataclass(frozen=True, eq=False)
class CostedPlant:
    """Plant with attack actions embedded and costs attached to states.

    States are ``(plant_state, spent)`` with ``spent <= bound``; only the
    part reachable from ``(x, 0)`` for initial ``x`` is kept.
    """

    plant: PlantNfa
    model: AttackModel
    bound: int
    states: frozenset
    initial: frozenset
    transitions: frozenset  # (src, event, dst)
    _succ: dict = field(init=False, repr=False, compare=False)
    _events_at: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        succ: dict = {}
        events: dict = {state: set() for state in self.states}
        for (src, event, dst) in self.transitions:
            succ.setdefault((src, event), set()).add(dst)
            events[src].add(event)
        object.__setattr__(self, "_succ", {k: frozenset(v) for k, v in succ.items()})
        object.__setattr__(
            self, "_events_at", {k: frozenset(v) for k, v in events.items()}
        )

    @property
    def observable(self) -> frozenset:
        return self.plant.observable

    def successors(self, state, event) -> frozenset:
        return self._succ.get((state, event), frozenset())

    def events_at(self, state) -> frozenset:
        return self._events_at.get(state, frozenset())

    def is_observable_event(self, event) -> bool:
        return not isinstance(event, DeletionMarker) and event in self.plant.observable

    def is_fault_event(self, event, faults: frozenset) -> bool:
        return not isinstance(event, DeletionMarker) and event in faults


def build_costed_plant(plant: PlantNfa, model: AttackModel, bound: int) -> CostedPlant:
    """Attach attack transitions to the plant, cut at accumulated cost `bound`."""
    check_budget(bound, "cost bound", minimum=1)
    model.validate_against(plant)
    initial = frozenset((state, 0) for state in plant.initial)
    states = set(initial)
    transitions = set()
    queue = deque(sorted(initial, key=lambda s: sort_key(s[0])))

    def emit(src, event, dst):
        transitions.add((src, event, dst))
        if dst not in states:
            states.add(dst)
            queue.append(dst)

    while queue:
        src = queue.popleft()
        state, spent = src
        for event in plant.events_at(state):
            for target in plant.successors(state, event):
                emit(src, event, (target, spent))
        for (original, observed), cost in model.substitutions.items():
            if spent + cost > bound:
                continue
            for target in plant.successors(state, original):
                emit(src, observed, (target, spent + cost))
        for symbol, cost in model.insertions.items():
            if spent + cost <= bound:
                emit(src, symbol, (state, spent + cost))
        for symbol, cost in model.deletions.items():
            if spent + cost > bound:
                continue
            for target in plant.successors(state, symbol):
                emit(src, DeletionMarker(symbol), (target, spent + cost))

    return CostedPlant(
        plant=plant,
        model=model,
        bound=bound,
        states=frozenset(states),
        initial=initial,
        transitions=frozenset(transitions),
    )


@dataclass(frozen=True, eq=False)
class TwinVerifier:
    """Product tracking two equal-projection runs of the augmented plant.

    States are ``(left_state, left_label, right_state, right_label)`` where
    the labels are ``"N"`` or ``"F"``; fault labels are absorbing.
    Transitions record which side moved (``"L"``, ``"R"`` or ``"LR"``);
    `outgoing` returns a tuple.
    """

    source: CostedPlant
    faults: frozenset
    states: frozenset
    initial: frozenset
    transitions: frozenset  # (src, event, side, dst)
    _out: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out: dict = {}
        for step in self.transitions:
            out.setdefault(step[0], []).append(step)
        sorted_out = {q: tuple(sorted(steps, key=_step_sort_key)) for q, steps in out.items()}
        object.__setattr__(self, "_out", MappingProxyType(sorted_out))

    def outgoing(self, state) -> Sequence:
        return self._out.get(state, ())


def _state_sort_key(q):
    (x, c), l1, (y, d), l2 = q
    return (sort_key(x), c, l1, sort_key(y), d, l2)


def _step_sort_key(step):
    src, event, side, dst = step
    return (event_sort_key(event), side, _state_sort_key(dst))


def build_twin_verifier(costed: CostedPlant, faults: frozenset) -> TwinVerifier:
    """Accessible twin product of the augmented plant against itself.

    Observable events move both sides synchronously; unobservable events
    (including deletion markers) move either side alone or both together;
    fault events additionally set the moved side's label to ``F``.
    """
    faults = check_faults(costed.plant, faults)
    initial = frozenset(
        (x, NORMAL, y, NORMAL) for x in costed.initial for y in costed.initial
    )
    states = set(initial)
    transitions = set()
    queue = deque(sorted(initial, key=_state_sort_key))

    def emit(src, event, side, dst):
        transitions.add((src, event, side, dst))
        if dst not in states:
            states.add(dst)
            queue.append(dst)

    while queue:
        src = queue.popleft()
        left, l1, right, l2 = src
        left_events = costed.events_at(left)
        right_events = costed.events_at(right)
        for event in sorted(left_events | right_events, key=event_sort_key):
            left_targets = costed.successors(left, event)
            right_targets = costed.successors(right, event)
            if costed.is_observable_event(event):
                for lt in left_targets:
                    for rt in right_targets:
                        emit(src, event, "LR", (lt, l1, rt, l2))
                continue
            fault = costed.is_fault_event(event, faults)
            new_l1 = FAULTY if fault else l1
            new_l2 = FAULTY if fault else l2
            for lt in left_targets:
                emit(src, event, "L", (lt, new_l1, right, l2))
            for rt in right_targets:
                emit(src, event, "R", (left, l1, rt, new_l2))
            for lt in left_targets:
                for rt in right_targets:
                    emit(src, event, "LR", (lt, new_l1, rt, new_l2))

    plant_size = len(costed.plant.states)
    cap = (2 * plant_size * (costed.bound + 1)) ** 2
    if len(states) > cap:
        raise RuntimeError("verifier grew beyond its (2|X|(B+1))^2 state bound")
    return TwinVerifier(
        source=costed,
        faults=faults,
        states=frozenset(states),
        initial=initial,
        transitions=frozenset(transitions),
    )


@dataclass(frozen=True)
class ConfusedCycle:
    """A reachable verifier cycle on which exactly one side is fault-labelled."""

    access: tuple  # steps from an initial verifier state to the cycle
    cycle: tuple  # steps closing on the first cycle state


def find_confused_cycle(verifier: TwinVerifier) -> Optional[ConfusedCycle]:
    """Search the mismatched-label subgraph for a cycle; None when clean."""
    mismatched = {q for q in verifier.states if is_mismatched(q)}

    def successors(q):
        return [step[3] for step in verifier.outgoing(q) if step[3] in mismatched]

    components = strongly_connected_components(
        sorted(mismatched, key=_state_sort_key), successors
    )
    cyclic = []
    for component in components:
        if len(component) > 1 or component[0] in successors(component[0]):
            # fault labels are absorbing, so labels cannot vary inside an SCC
            if len({(q[1], q[3]) for q in component}) != 1:
                raise RuntimeError("fault labels vary inside a verifier component")
            cyclic.append(component)
    if not cyclic:
        return None
    component = min(cyclic, key=lambda comp: min(_state_sort_key(q) for q in comp))
    nodes = cycle_within(component[0], successors)
    cycle_steps = tuple(
        _step_between(verifier, a, b, restrict=mismatched)
        for a, b in zip(nodes, nodes[1:])
    )
    access_steps = _access_path(verifier, nodes[0])
    return ConfusedCycle(access=access_steps, cycle=cycle_steps)


def _step_between(verifier: TwinVerifier, src, dst, restrict=None):
    for step in verifier.outgoing(src):
        if step[3] == dst and (restrict is None or step[3] in restrict):
            return step
    raise ValueError(f"no transition between {src!r} and {dst!r}")


def _access_path(verifier: TwinVerifier, goal) -> tuple:
    parent: dict = {q: None for q in sorted(verifier.initial, key=_state_sort_key)}
    queue = deque(parent)
    while queue:
        node = queue.popleft()
        if node == goal:
            steps = []
            while parent[node] is not None:
                step = parent[node]
                steps.append(step)
                node = step[0]
            steps.reverse()
            return tuple(steps)
        for step in verifier.outgoing(node):
            dst = step[3]
            if dst not in parent:
                parent[dst] = step
                queue.append(dst)
    raise ValueError("confused cycle is not reachable; verifier is inconsistent")
