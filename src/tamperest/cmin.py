"""Minimum attack budget that defeats diagnosis forever.

The corrupted automaton keeps the plant's states but labels every edge with
an ``(event, cost)`` pair: original moves cost zero, attacker actions carry
their exact positive cost, and a deletion shows up as an empty observed
event.  A twin verifier over this automaton synchronises two runs on the
*observed* symbol while letting each side pay its own cost.  The attacker
wins forever from any state that sits on a cost-free cycle whose label pair
stays mismatched; the cheapest way in, measured as the larger of the two
side costs, is the minimum defeating budget.  A label-correcting search with
Pareto (antichain) cost pairs computes it.

The same search decides diagnosability at a budget C: given ``budget=C`` it
explores only attacks that cost each side at most C, so it finds a value
exactly when the minimum defeating budget is at most C.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Optional, Sequence

from .attacks import AttackModel
from .automata import EPSILON_DISPLAY, PlantNfa, sort_key
from .errors import ValidationError
from .scc import cycle_within, strongly_connected_components

#: Event component of a deletion edge: nothing is observed.
EPSILON = ""

#: Fault labels of one side of a twin verifier; ``FAULTY`` is absorbing.
NORMAL = "N"
FAULTY = "F"


def is_mismatched(state) -> bool:
    _x, l1, _y, l2 = state
    return l1 != l2


def render_symbol(symbol: str) -> str:
    return EPSILON_DISPLAY if symbol == EPSILON else symbol


class CostPair(NamedTuple):
    """Accumulated (left, right) path costs; the attacker needs the larger one."""

    left: int
    right: int

    @property
    def total(self) -> int:
        return max(self.left, self.right)


@dataclass(frozen=True, eq=False)
class CorruptedAutomaton:
    """Plant with attack actions as (event, cost)-labelled edges.

    ``moves(x)`` maps each observed symbol (or the empty symbol for
    deletions) to ``{cost: targets}``.  Identity stays ``(empty, 0)`` are
    implicit and never materialised.
    """

    plant: PlantNfa
    model: AttackModel
    _moves: Mapping = field(repr=False, compare=False, default=None)

    def moves(self, state) -> Mapping:
        return self._moves.get(state, {})

    def targets(self, state, symbol: str, cost: int) -> frozenset:
        return self.moves(state).get(symbol, {}).get(cost, frozenset())


def build_corrupted_automaton(plant: PlantNfa, model: AttackModel) -> CorruptedAutomaton:
    model.validate_against(plant)
    moves: dict = {}

    def add(state, symbol, cost, targets):
        if not targets:
            return
        bucket = moves.setdefault(state, {}).setdefault(symbol, {})
        bucket[cost] = bucket.get(cost, frozenset()) | frozenset(targets)

    for state in plant.states:
        for event in plant.events_at(state):
            add(state, event, 0, plant.successors(state, event))
        for symbol, cost in model.deletions.items():
            add(state, EPSILON, cost, plant.successors(state, symbol))
        for symbol, cost in model.insertions.items():
            add(state, symbol, cost, frozenset({state}))
        for (original, observed), cost in model.substitutions.items():
            add(state, observed, cost, plant.successors(state, original))
    return CorruptedAutomaton(plant=plant, model=model, _moves=moves)


@dataclass(frozen=True, eq=False)
class CostedTwinVerifier:
    """Twin product of the corrupted automaton with per-side costs.

    States are ``(x, l1, y, l2)`` over plant states and N/F labels.
    Transitions are ``(src, ((e, c), (e, c')), side, dst)``: both sides
    observe the same symbol, each paying its own cost; unobservable events
    interleave at zero cost.
    """

    source: CorruptedAutomaton
    faults: frozenset
    states: frozenset
    initial: frozenset
    transitions: frozenset
    _out: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out: dict = {}
        for step in self.transitions:
            out.setdefault(step[0], []).append(step)
        for steps in out.values():
            steps.sort(key=_vstep_sort_key)
        object.__setattr__(self, "_out", out)

    def outgoing(self, state) -> Sequence:
        return self._out.get(state, ())


def _vstate_sort_key(q):
    x, l1, y, l2 = q
    return (sort_key(x), l1, sort_key(y), l2)


def _vstep_sort_key(step):
    _src, tau, side, dst = step
    (e, c), (_e2, c2) = tau
    return (e, c, c2, side, _vstate_sort_key(dst))


def build_costed_twin_verifier(
    corrupted: CorruptedAutomaton, faults: frozenset, budget: Optional[int] = None
) -> CostedTwinVerifier:
    """Accessible twin product; pure stay/stay pairs are not materialised.

    With a `budget`, edge pairs on which either side costs more than the
    budget are left out, since no attack within the budget can take them.
    """
    plant = corrupted.plant
    faults = frozenset(faults)
    if not faults <= plant.unobservable:
        raise ValidationError("fault events must be unobservable plant events")
    initial = frozenset(
        (x, NORMAL, y, NORMAL) for x in plant.initial for y in plant.initial
    )
    states = set(initial)
    transitions = set()
    queue = deque(sorted(initial, key=_vstate_sort_key))

    def emit(src, tau, side, dst):
        transitions.add((src, tau, side, dst))
        if dst not in states:
            states.add(dst)
            queue.append(dst)

    while queue:
        src = queue.popleft()
        x, l1, y, l2 = src
        left_moves = corrupted.moves(x)
        right_moves = corrupted.moves(y)
        symbols = set(left_moves) | set(right_moves)
        for symbol in sorted(symbols):
            if symbol == EPSILON or symbol in plant.observable:
                lefts = [(c, t) for c, t in left_moves.get(symbol, {}).items()]
                rights = [(c, t) for c, t in right_moves.get(symbol, {}).items()]
                if symbol == EPSILON:
                    lefts.append((0, frozenset({x})))
                    rights.append((0, frozenset({y})))
                for c_left, left_targets in sorted(lefts):
                    for c_right, right_targets in sorted(rights):
                        if symbol == EPSILON and c_left == 0 and c_right == 0:
                            continue
                        if budget is not None and max(c_left, c_right) > budget:
                            continue
                        side = _eps_side(symbol, c_left, c_right)
                        tau = ((symbol, c_left), (symbol, c_right))
                        for lt in left_targets:
                            for rt in right_targets:
                                emit(src, tau, side, (lt, l1, rt, l2))
                continue
            # unobservable event: zero cost, three interleaving forms
            fault = symbol in faults
            new_l1 = FAULTY if fault else l1
            new_l2 = FAULTY if fault else l2
            tau = ((symbol, 0), (symbol, 0))
            left_targets = left_moves.get(symbol, {}).get(0, frozenset())
            right_targets = right_moves.get(symbol, {}).get(0, frozenset())
            for lt in left_targets:
                emit(src, tau, "L", (lt, new_l1, y, l2))
            for rt in right_targets:
                emit(src, tau, "R", (x, l1, rt, new_l2))
            for lt in left_targets:
                for rt in right_targets:
                    emit(src, tau, "LR", (lt, new_l1, rt, new_l2))

    assert len(states) <= 4 * len(plant.states) ** 2, "twin verifier exceeded 4|X|^2 states"
    return CostedTwinVerifier(
        source=corrupted,
        faults=faults,
        states=frozenset(states),
        initial=initial,
        transitions=frozenset(transitions),
    )


def _eps_side(symbol: str, c_left: int, c_right: int) -> str:
    if symbol != EPSILON:
        return "LR"
    if c_left > 0 and c_right > 0:
        return "LR"
    return "L" if c_left > 0 else "R"


def step_costs(step) -> CostPair:
    (_e1, c1), (_e2, c2) = step[1]
    return CostPair(c1, c2)


def find_free_confusion_states(verifier: CostedTwinVerifier):
    """States on a cost-free cycle whose labels stay mismatched.

    Returns ``(states, cycles)`` where `cycles` holds one witness state
    sequence per strongly connected component that contains such a cycle.
    """
    mismatched, successors = _free_mismatched_graph(verifier)
    components = strongly_connected_components(mismatched, successors)
    anchored = frozenset()
    cycles = []
    for component in components:
        if len(component) > 1 or component[0] in successors(component[0]):
            anchored |= frozenset(component)
            cycles.append(tuple(cycle_within(component, successors)))
    cycles.sort(key=lambda nodes: _vstate_sort_key(nodes[0]))
    return anchored, cycles


def _free_mismatched_graph(verifier: CostedTwinVerifier):
    """Mismatched states in canonical order, and their cost-free successors among them."""
    mismatched = sorted(
        (q for q in verifier.states if is_mismatched(q)), key=_vstate_sort_key
    )
    members = frozenset(mismatched)

    def successors(q):
        return [
            step[3]
            for step in verifier.outgoing(q)
            if step[3] in members and step_costs(step) == (0, 0)
        ]

    return mismatched, successors


def free_confusion_cycle(verifier: CostedTwinVerifier, start) -> tuple:
    """Steps of a cost-free cycle from `start` back to it through mismatched states.

    `start` must be one of the states :func:`find_free_confusion_states`
    returns.
    """
    mismatched, successors = _free_mismatched_graph(verifier)
    component = next(
        c for c in strongly_connected_components(mismatched, successors) if start in c
    )
    nodes = cycle_within([start] + [q for q in component if q != start], successors)
    return tuple(
        next(s for s in verifier.outgoing(a) if s[3] == b and step_costs(s) == (0, 0))
        for a, b in zip(nodes, nodes[1:])
    )


def pareto_update(pairs, candidate):
    """Insert `candidate` into an antichain of cost pairs.

    Returns ``(updated, changed)``.  A dominated or duplicate candidate
    leaves the set untouched; a dominating candidate evicts everything it
    dominates; incomparable candidates accumulate.
    """
    pairs = frozenset(pairs)
    c1, c2 = candidate
    for (e1, e2) in pairs:
        if (e1 <= c1 and e2 < c2) or (e1 < c1 and e2 <= c2) or (e1 == c1 and e2 == c2):
            return pairs, False
    kept = {
        (e1, e2)
        for (e1, e2) in pairs
        if not ((c1 <= e1 and c2 < e2) or (c1 < e1 and c2 <= e2))
    }
    kept.add((c1, c2))
    return frozenset(kept), True


@dataclass(frozen=True)
class CminResult:
    """Outcome of the minimum-defeating-budget analysis."""

    value: Optional[int]
    ending_states: frozenset
    labels: Mapping
    verifier: CostedTwinVerifier = field(compare=False, repr=False, default=None)
    witness: Optional[tuple] = field(default=None, compare=False)

    @property
    def defeatable(self) -> bool:
        return self.value is not None


def propagate_cost_labels(verifier: CostedTwinVerifier, budget: Optional[int] = None):
    """Label-correcting propagation of Pareto cost-pair antichains.

    Initial states start at ``{(0, 0)}``; a state is re-enqueued whenever its
    antichain changes (max-of-sums does not admit a label-setting order).
    Termination: a lap around any cycle either repeats a pair (dropped as a
    duplicate) or is dominated by the pair recorded before the lap.  With a
    `budget`, pairs whose larger side exceeds it are dropped.

    Returns ``(labels, parents)`` where `parents` maps each inserted
    ``(state, pair)`` to the ``(state, pair, step)`` that produced it.
    """
    labels: dict = {q: frozenset() for q in verifier.states}
    parents: dict = {}
    queue = deque()
    for q in sorted(verifier.initial, key=_vstate_sort_key):
        labels[q] = frozenset({(0, 0)})
        queue.append((q, (0, 0)))

    # dedupe propagation edges: distinct events with equal costs act identically
    prop: dict = {}
    for q in verifier.states:
        seen = {}
        for step in verifier.outgoing(q):
            key = (tuple(step_costs(step)), step[3])
            seen.setdefault(key, step)
        prop[q] = [seen[key] for key in sorted(seen, key=lambda k: (k[0], _vstate_sort_key(k[1])))]

    model = verifier.source.model
    plant = verifier.source.plant
    costs = (
        list(model.deletions.values())
        + list(model.insertions.values())
        + list(model.substitutions.values())
    )
    c_max = max(costs, default=0)
    touch_cap = 4 * len(plant.states) ** 2 * (4 * len(plant.states) ** 2 * c_max + 1)
    touches = 0
    while queue:
        q, pair = queue.popleft()
        if pair not in labels[q]:
            continue  # evicted while waiting
        for step in prop[q]:
            delta = step_costs(step)
            dst = step[3]
            candidate = (pair[0] + delta.left, pair[1] + delta.right)
            if budget is not None and max(candidate) > budget:
                continue
            updated, changed = pareto_update(labels[dst], candidate)
            if changed:
                labels[dst] = updated
                parents[(dst, candidate)] = (q, pair, step)
                touches += 1
                assert touches <= touch_cap, "label-correcting search exceeded its touch bound"
                queue.append((dst, candidate))
    return labels, parents


def analyze_minimum_budget(
    plant: PlantNfa,
    model: AttackModel,
    faults: Optional[frozenset] = None,
    want_witness: bool = False,
    budget: Optional[int] = None,
) -> CminResult:
    """Pareto label-correcting search for the minimum defeating budget.

    The result is the smallest ``max(left, right)`` over all cost labels at
    states that can sustain mismatched fault labels for free; None when no
    such state exists.  With a `budget`, only attacks costing each side at
    most `budget` are explored, so the value is None unless the minimum is
    at most `budget`.
    """
    faults = frozenset(plant.faults if faults is None else faults)
    corrupted = build_corrupted_automaton(plant, model)
    verifier = build_costed_twin_verifier(corrupted, faults, budget=budget)
    ending, _cycles = find_free_confusion_states(verifier)
    if not ending:
        return CminResult(value=None, ending_states=frozenset(), labels={}, verifier=verifier)

    labels, parents = propagate_cost_labels(verifier, budget=budget)
    best = None
    best_key = None
    for q in sorted(ending, key=_vstate_sort_key):
        for pair in sorted(labels[q]):
            value = max(pair)
            if best is None or value < best:
                best = value
                best_key = (q, pair)
    witness = None
    if want_witness and best_key is not None:
        witness = _witness_path(parents, best_key)
    return CminResult(
        value=best,
        ending_states=ending,
        labels={q: labels[q] for q in verifier.states if labels[q]},
        verifier=verifier,
        witness=witness,
    )


def _witness_path(parents: dict, key) -> tuple:
    steps = []
    while key in parents:
        prev_q, prev_pair, step = parents[key]
        steps.append(step)
        key = (prev_q, prev_pair)
    steps.reverse()
    return tuple(steps)


def minimum_defeating_budget(
    plant: PlantNfa, model: AttackModel, faults: Optional[frozenset] = None
) -> Optional[int]:
    """Smallest total attack cost that keeps diagnosis confused forever; None if impossible."""
    return analyze_minimum_budget(plant, model, faults).value
