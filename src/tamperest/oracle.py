"""Brute-force reference implementations used as test ground truth.

Everything here recomputes results from first principles: estimation by
exhaustive enumeration of matching sequences, diagnosability by a
freshly-built twin search over pair states with plain DFS cycle detection,
and the minimum budget by per-state DFS for cost-free cycles and a scan of
plain BFS over budgets.  No construction code is shared with the production
modules (imports are limited to the plant type, the attack model and its
labels), so agreement between the two routes is meaningful evidence.  The
matching sequences come from `enumerate_matching`, an exhaustive search
over the attack rules that lives here for that reason, and
`project_original` reads the pre-attack word each one explains (the
reference product in :mod:`tamperest.reference` uses it too).

The ``brute_force_*`` functions refuse inputs larger than their
:class:`OracleBudget`; they, and `enumerate_matching`, are meant for
desk-scale instances only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .attacks import (
    AttackModel,
    Del,
    Ins,
    Label,
    Plain,
    Sub,
    check_budget,
    label_sort_key,
)
from .automata import PlantNfa, sort_key
from .errors import OracleBudgetError, ValidationError


@dataclass(frozen=True)
class OracleBudget:
    """Caps keeping the exhaustive searches tractable."""

    max_string_length: int = 8
    max_cost: int = 6
    max_states: int = 6
    max_expansions: int = 500_000


DEFAULT_BUDGET = OracleBudget()


def _guard(condition: bool, message: str):
    if not condition:
        raise OracleBudgetError(message)


@dataclass(frozen=True)
class CostedSequence:
    """A matching label sequence together with its recovery cost."""

    labels: tuple
    cost: int


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


def brute_force_estimate(
    plant: PlantNfa,
    model: AttackModel,
    received: Sequence[str],
    budget: int,
    limits: OracleBudget = DEFAULT_BUDGET,
) -> dict:
    """Per-state minimum recovery cost by full enumeration of explanations."""
    received = tuple(received)
    _guard(len(received) <= limits.max_string_length, "observation too long for the oracle")
    _guard(budget <= limits.max_cost, "budget too large for the oracle")
    _guard(len(plant.states) <= limits.max_states, "plant too large for the oracle")
    cheapest_projection: dict = {}
    for costed in enumerate_matching(received, model, budget):
        original = project_original(costed.labels)
        if costed.cost < cheapest_projection.get(original, costed.cost + 1):
            cheapest_projection[original] = costed.cost
    best: dict = {}
    for original, cost in cheapest_projection.items():
        for state in plant.reach(plant.initial, original):
            if cost < best.get(state, cost + 1):
                best[state] = cost
    return best


# -- twin search over the attack-augmented plant ------------------------------


def _augmented_observable_moves(plant, model, bound, node, symbol):
    """(state, spent) successors that emit `symbol`: plain, substituted, inserted."""
    state, spent = node
    out = set()
    for target in plant.successors(state, symbol):
        out.add((target, spent))
    for (original, observed), cost in model.substitutions.items():
        if observed == symbol and spent + cost <= bound:
            for target in plant.successors(state, original):
                out.add((target, spent + cost))
    ins_cost = model.insertions.get(symbol)
    if ins_cost is not None and spent + ins_cost <= bound:
        out.add((state, spent + ins_cost))
    return out


def _augmented_silent_moves(plant, model, bound, node, faults):
    """Silent successors: unobservable plant events and attacker deletions.

    Yields ``(successor, fault_raised)``.
    """
    state, spent = node
    for event in plant.unobservable:
        for target in plant.successors(state, event):
            yield (target, spent), event in faults
    for symbol, cost in model.deletions.items():
        if spent + cost <= bound:
            for target in plant.successors(state, symbol):
                yield (target, spent + cost), False


def brute_force_diagnosable(
    plant: PlantNfa,
    model: AttackModel,
    faults: Optional[frozenset] = None,
    budget: int = 0,
    limits: OracleBudget = DEFAULT_BUDGET,
) -> bool:
    """Twin search for a persistent faulty/normal confusion; True when none exists.

    Pairs of runs of the attack-augmented plant advance together on observed
    symbols and independently on silent moves, and each run may spend at most
    `budget` on attacks; the system is not diagnosable exactly when some
    reachable pair with differing fault flags lies on a cycle of such pairs.
    """
    faults = frozenset(plant.faults if faults is None else faults)
    _guard(len(plant.states) <= limits.max_states, "plant too large for the oracle")
    _guard(budget <= limits.max_cost, "budget too large for the oracle")

    def pair_successors(pair):
        (ln, lf), (rn, rf) = pair
        succ = []
        for node, raised in _augmented_silent_moves(plant, model, budget, ln, faults):
            succ.append(((node, lf or raised), (rn, rf)))
        for node, raised in _augmented_silent_moves(plant, model, budget, rn, faults):
            succ.append(((ln, lf), (node, rf or raised)))
        for lnode, lraised in _augmented_silent_moves(plant, model, budget, ln, faults):
            for rnode, rraised in _augmented_silent_moves(plant, model, budget, rn, faults):
                succ.append(((lnode, lf or lraised), (rnode, rf or rraised)))
        for symbol in plant.observable:
            lefts = _augmented_observable_moves(plant, model, budget, ln, symbol)
            rights = _augmented_observable_moves(plant, model, budget, rn, symbol)
            for lnode in lefts:
                for rnode in rights:
                    succ.append(((lnode, lf), (rnode, rf)))
        return succ

    start = [(((x, 0), False), ((y, 0), False)) for x in plant.initial for y in plant.initial]
    seen = set(start)
    stack = list(start)
    expansions = 0
    while stack:
        pair = stack.pop()
        expansions += 1
        _guard(expansions <= limits.max_expansions, "pair search exceeded the oracle cap")
        for nxt in pair_successors(pair):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)

    mismatched = {pair for pair in seen if pair[0][1] != pair[1][1]}
    return not _has_cycle(mismatched, pair_successors)


def _has_cycle(nodes, successors) -> bool:
    """Colored DFS over the induced subgraph; True when a back edge exists."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in nodes}
    for root in nodes:
        if color[root] != WHITE:
            continue
        stack = [(root, iter([n for n in successors(root) if n in color]))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter([n for n in successors(nxt) if n in color])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


# -- twin search over the corrupted automaton ---------------------------------


def _successors(plant, state, event) -> list:
    """Successors in canonical order, so a search does the same work under every hash seed."""
    return sorted(plant.successors(state, event), key=sort_key)


def _corrupted_moves(plant, model, state):
    """(observed, cost, target) edges per the corrupted-system semantics."""
    out = []
    for event in sorted(plant.events_at(state)):
        for target in _successors(plant, state, event):
            out.append((event, 0, target))
    for symbol, cost in model.deletions.items():
        for target in _successors(plant, state, symbol):
            out.append(("", cost, target))
    for symbol, cost in model.insertions.items():
        out.append((symbol, cost, state))
    for (original, observed), cost in model.substitutions.items():
        for target in _successors(plant, state, original):
            out.append((observed, cost, target))
    return out


def brute_force_minimum_budget(
    plant: PlantNfa,
    model: AttackModel,
    faults: Optional[frozenset] = None,
    limits: OracleBudget = DEFAULT_BUDGET,
) -> Optional[int]:
    """Minimum defeating budget by a scan over budgets.

    Builds the twin graph of the corrupted system and finds all states lying
    on a zero-cost mismatched cycle by per-state DFS.  Then, for ``C = 0, 1,
    2, ...``, a plain BFS over ``(pair, left, right)`` with ``left, right <=
    C`` looks for one of those states; the first ``C`` whose BFS finds one
    is the answer.  The scan ends: a reachable ending pair is reached along
    some path, and the BFS at that path's larger side cost finds it.
    """
    faults = frozenset(plant.faults if faults is None else faults)
    _guard(len(plant.states) <= limits.max_states, "plant too large for the oracle")

    moves = {state: _corrupted_moves(plant, model, state) for state in plant.states}

    def pair_edges(pair):
        """((cost_left, cost_right), successor) edges of the twin graph."""
        x, lf, y, rf = pair
        edges = []
        for symbol in sorted(plant.observable | {""}):
            lefts = [(c, t) for (s, c, t) in moves[x] if s == symbol]
            rights = [(c, t) for (s, c, t) in moves[y] if s == symbol]
            if symbol == "":
                lefts.append((0, x))
                rights.append((0, y))
            for lc, lt in lefts:
                for rc, rt in rights:
                    if symbol == "" and lc == 0 and rc == 0:
                        continue
                    edges.append(((lc, rc), (lt, lf, rt, rf)))
        for event in sorted(plant.unobservable):
            raised = event in faults
            lefts = _successors(plant, x, event)
            rights = _successors(plant, y, event)
            for lt in lefts:
                edges.append(((0, 0), (lt, lf or raised, y, rf)))
            for rt in rights:
                edges.append(((0, 0), (x, lf, rt, rf or raised)))
            for lt in lefts:
                for rt in rights:
                    edges.append(((0, 0), (lt, lf or raised, rt, rf or raised)))
        return edges

    initial = sorted(plant.initial, key=sort_key)
    start = [(x, False, y, False) for x in initial for y in initial]
    seen = set(start)
    stack = list(start)
    edge_map = {}
    expansions = 0
    while stack:
        pair = stack.pop()
        expansions += 1
        _guard(expansions <= limits.max_expansions, "pair search exceeded the oracle cap")
        edge_map[pair] = pair_edges(pair)
        for _costs, nxt in edge_map[pair]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)

    mismatched = {pair for pair in seen if pair[1] != pair[3]}

    def zero_successors(pair):
        return [
            nxt
            for (costs, nxt) in edge_map[pair]
            if costs == (0, 0) and nxt in mismatched
        ]

    ending = set()
    for anchor in mismatched:
        # DFS looking for a way back to the anchor through zero-cost edges
        visited = set()
        frontier = list(zero_successors(anchor))
        found = False
        while frontier:
            node = frontier.pop()
            if node == anchor:
                found = True
                break
            if node in visited:
                continue
            visited.add(node)
            frontier.extend(zero_successors(node))
        if found:
            ending.add(anchor)
    if not ending:
        return None

    def reaches_ending(bound):
        frontier = [(pair, 0, 0) for pair in start]
        visited = set(frontier)
        for pair, c_left, c_right in frontier:
            if pair in ending:
                return True
            for (lc, rc), nxt in edge_map[pair]:
                node = (nxt, c_left + lc, c_right + rc)
                if node[1] <= bound and node[2] <= bound and node not in visited:
                    visited.add(node)
                    frontier.append(node)
        return False

    bound = 0
    while not reaches_ending(bound):
        bound += 1
    return bound
