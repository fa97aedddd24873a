"""Minimum attack budget that defeats diagnosis forever.

The corrupted automaton keeps the plant's states but labels every edge with
an ``(event, cost)`` pair: original moves cost zero, attacker actions carry
their exact positive cost, and a deletion shows up as an empty observed
event.  A twin verifier over this automaton synchronises two runs on the
*observed* symbol while letting each side pay its own cost.  The attacker
wins forever from any *ending* state: a mismatched state on a cost-free
cycle whose label pair stays mismatched.  The cheapest way in, measured as
the larger of the two side costs, is the minimum defeating budget.

`analyze_minimum_budget` computes it without building the verifier.  Per
call, `build_corrupted_automaton` applies the attack rules once and interns
the result as the engine's move table: plant states in their canonical
numbering (`PlantNfa.order`), events numbered densely in sorted order, each
state's moves sorted by event and cost.  The search reads that table as it
stands, encodes a twin state as one int, generates successors on demand and
runs a bi-objective label-setting search (Martins, EJOR 1984; Sedeño-Noda &
Colebrook, EJOR 2019) over cost pairs ``(left, right)``, popping labels in
``(max, sum)`` order.  A label that dominates another never pops later, so
every label that survives the dominance test on pop is final, and the first
one at an ending state carries the answer.  No label is pushed where both
sides are faulty: ``FAULTY`` is absorbing, so such a state never leads to a
mismatched one.  Whether a popped state is ending is decided on demand:
`cycle_within`, a breadth-first search over the cost-free mismatched
subgraph, stops at its first return to the state (the early exit of nested
DFS; Courcoubetis et al., FMSD 1992), and only when it exhausts does one
Tarjan pass classify the region it saw, so that no later pop searches it
again.  Unobservable events move one side at a time: a joint move equals a
left move followed by a right move at zero cost, so leaving it out changes
neither reachability nor cost-free cycles.

The same search decides diagnosability at a budget C: given ``budget=C`` it
explores only attacks that cost each side at most C, so it finds a value
exactly when the minimum defeating budget is at most C.  It is therefore
the one checked entry for both questions.  It validates the attack model
(in `build_corrupted_automaton`) and the fault set (in `check_faults`),
then the standing assumptions of Sampath et al. (IEEE TAC 1995): every
reachable plant state is live and on no cycle of unobservable events.
Attack edges only follow plant transitions and deletions always cost, so
checking the plant suffices.  A witness is checked to observe the same
symbols on both sides.

Below the engine, `build_costed_twin_verifier` is the engine's own verifier
made explicit, for ``--dot`` and the tests: it exhausts `_LazyTwin.steps`
over the same table and states no move rule of its own.
`find_free_confusion_states` (one whole-graph SCC pass) and
`propagate_cost_labels` (FIFO label correcting) are independent reference
searches over it; the tests check the engine's ending test and
label-setting search against them.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .attacks import AttackModel
from .automata import EPSILON_DISPLAY, PlantNfa, dead_reachable_state, sort_key, unobservable_cycle
from .errors import PreconditionError, ValidationError
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


def side_run(steps: Sequence, side: str) -> tuple:
    """Symbols observed on one side (``"L"`` or ``"R"``) along twin-verifier steps."""
    return tuple(render_symbol(tau[0][0]) for (_src, tau, moved, _dst) in steps if side in moved)


def check_faults(plant: PlantNfa, faults: Optional[frozenset]) -> frozenset:
    """`faults`, or the plant's own when None; each must be an unobservable plant event."""
    faults = frozenset(plant.faults if faults is None else faults)
    unknown = faults - plant.unobservable
    if unknown:
        raise ValidationError(
            f"fault events must be unobservable plant events, got {sorted(unknown)}"
        )
    return faults


class CostPair(NamedTuple):
    """Accumulated (left, right) path costs; the attacker needs the larger one."""

    left: int
    right: int

    @property
    def total(self) -> int:
        return max(self.left, self.right)


@dataclass(frozen=True)
class CminResult:
    """Outcome of the minimum-defeating-budget analysis.

    With a witness requested and a value found, `witness` holds the steps
    of the cheapest attack from an initial pair into an ending state and
    `cycle` the steps of a cost-free mismatched cycle from that state back
    to it, both as ``(src, ((sym, c_left), (sym, c_right)), side, dst)``
    over ``(x, l1, y, l2)`` states.  `corrupted` is the corrupted automaton
    the search ran on, so ``--dot`` can export it without building it again.
    """

    value: Optional[int]
    witness: Optional[tuple] = field(default=None, compare=False)
    cycle: Optional[tuple] = field(default=None, compare=False)
    corrupted: Optional[CorruptedAutomaton] = field(default=None, compare=False, repr=False)

    @property
    def defeatable(self) -> bool:
        return self.value is not None


@dataclass(frozen=True, eq=False)
class CorruptedAutomaton:
    """Plant with attack actions as (event, cost)-labelled edges, interned once.

    Plant state ``x`` is ``plant.order[x]`` and event ``e`` is
    ``symbols[e]``: `EPSILON` (a deletion observes nothing) is event 0 and
    the plant events follow in sorted order.  Per state index,
    ``observed[x]`` maps each observable event to its ``(cost, targets)``
    moves in cost order, targets as sorted state indices: plant moves cost
    0, an insertion is a self-loop and a substitution follows the original
    symbol.  Event 0 starts at the zero-cost stay ``(0, (x,))`` and goes on
    with the deletions.  ``silent[x]`` holds ``(event, targets)`` per
    unobservable plant event, all at cost 0.  Every table is read-only.
    """

    plant: PlantNfa
    model: AttackModel
    symbols: tuple = field(repr=False)
    observed: tuple = field(repr=False)
    silent: tuple = field(repr=False)

    def targets(self, state, symbol: str, cost: int) -> frozenset:
        """Plant states one `symbol` edge of this `cost` away; `EPSILON` at 0 is the stay."""
        x = self.plant.index.get(state)
        if x is None or symbol not in self.symbols:
            return frozenset()
        e = self.symbols.index(symbol)
        moves = self.observed[x].get(e, ()) + tuple((0, t) for (s, t) in self.silent[x] if s == e)
        order = self.plant.order
        return frozenset(order[t] for (c, targets) in moves if c == cost for t in targets)


def build_corrupted_automaton(plant: PlantNfa, model: AttackModel) -> CorruptedAutomaton:
    """The one place that applies the attack rules and numbers and sorts the moves."""
    model.validate_against(plant)
    index = plant.index
    symbols = (EPSILON,) + tuple(sorted(plant.alphabet))
    event = {symbol: e for e, symbol in enumerate(symbols)}
    unobservable = {event[symbol] for symbol in plant.unobservable}
    observed, silent = [], []
    for x, state in enumerate(plant.order):
        edges = [(symbol, 0, plant.successors(state, symbol)) for symbol in symbols[1:]]
        edges += [(EPSILON, c, plant.successors(state, s)) for s, c in model.deletions.items()]
        edges += [(s, c, (state,)) for s, c in model.insertions.items()]
        edges += [
            (observed_as, c, plant.successors(state, original))
            for (original, observed_as), c in model.substitutions.items()
        ]
        moves: dict = {(0, 0): {x}}  # (event, cost) -> target indices
        for symbol, cost, targets in edges:
            if targets:
                moves.setdefault((event[symbol], cost), set()).update(index[t] for t in targets)
        by_event: dict = {}
        for (e, cost) in sorted(moves):
            by_event.setdefault(e, []).append((cost, tuple(sorted(moves[e, cost]))))
        observed.append(MappingProxyType(
            {e: tuple(by_cost) for e, by_cost in by_event.items() if e not in unobservable}
        ))
        silent.append(
            tuple((e, by_cost[0][1]) for e, by_cost in by_event.items() if e in unobservable)
        )
    return CorruptedAutomaton(plant, model, symbols, tuple(observed), tuple(silent))


def analyze_minimum_budget(
    plant: PlantNfa,
    model: AttackModel,
    faults: Optional[frozenset] = None,
    want_witness: bool = False,
    budget: Optional[int] = None,
) -> CminResult:
    """Label-setting search for the minimum defeating budget.

    The result is the smallest ``max(left, right)`` over all cost labels at
    states that can sustain mismatched fault labels for free; None when no
    such state exists.  With a `budget`, only attacks costing each side at
    most `budget` are explored, so the value is None unless the minimum is
    at most `budget`.

    Inputs, preconditions and witnesses are checked as the module docstring
    says; a plant outside the class raises :class:`PreconditionError`.
    """
    corrupted = build_corrupted_automaton(plant, model)
    faults = check_faults(plant, faults)
    dead = dead_reachable_state(plant)
    if dead is not None:
        raise PreconditionError(
            f"plant is not live: state {dead!r} has no outgoing transition",
            kind="liveness",
            witness=dead,
        )
    silent_cycle = unobservable_cycle(plant)
    if silent_cycle is not None:
        raise PreconditionError(
            "plant has a cycle of unobservable events",
            kind="unobservable-cycle",
            witness=silent_cycle,
        )
    twin = _LazyTwin(corrupted, faults, budget)
    label = twin.cheapest_ending_label()
    if label is None:
        return CminResult(value=None, corrupted=corrupted)
    code, left, right, _parent = twin.labels[label]
    if not want_witness:
        return CminResult(value=max(left, right), corrupted=corrupted)
    access, cycle = twin.access_steps(label), twin.cycle_steps(code)
    observed = [
        [e for e in side_run(access + cycle, side) if e in plant.observable] for side in "LR"
    ]
    if observed[0] != observed[1]:
        raise RuntimeError("verifier runs must agree on observations")
    return CminResult(value=max(left, right), witness=access, cycle=cycle, corrupted=corrupted)


#: Label bit of one side of an interned twin state; bit order is label order.
_LABELS = (FAULTY, NORMAL)
_FAULTY_BIT, _NORMAL_BIT = 0, 1


class _LazyTwin:
    """The costed twin verifier over the corrupted automaton's tables, explored on demand.

    A twin state ``(x, l1, y, l2)`` over plant state indices is the int
    ``(2x + b1) * width + 2y + b2``, where ``b`` is the index of the label
    in `_LABELS`; int order is therefore the canonical state order.  The
    only table added here flags the fault events.
    """

    def __init__(self, corrupted: CorruptedAutomaton, faults: frozenset, budget):
        plant = corrupted.plant
        self.states = plant.order
        self.symbols = corrupted.symbols
        self.observed = corrupted.observed
        self.silent = corrupted.silent
        self.faulty = tuple(symbol in faults for symbol in self.symbols)
        self.width = 2 * len(self.states)
        self.budget = float("inf") if budget is None else budget
        initial = [x for x, state in enumerate(self.states) if state in plant.initial]
        self.initial = [
            (2 * x + _NORMAL_BIT) * self.width + 2 * y + _NORMAL_BIT
            for x in initial
            for y in initial
        ]
        self.labels = []  # settled labels: (state, left, right, parent label or -1)
        self._free: dict = {}
        self._ending: dict = {}  # classified mismatched state -> whether it is ending

    def mismatched(self, code: int) -> bool:
        return (code // self.width ^ code) & 1 == 1

    def steps(self, code: int, budget):
        """Outgoing moves costing each side at most `budget`.

        Yields ``(event, side, c_left, c_right, dsts)``, one per event, side
        and cost pair.
        """
        width = self.width
        a, b = divmod(code, width)
        x, b1 = divmod(a, 2)
        y, b2 = divmod(b, 2)
        rights_by_event = self.observed[y]
        for e, lefts in self.observed[x].items():
            rights = rights_by_event.get(e)
            if rights is None:
                continue
            for c_left, left_targets in lefts:
                if c_left > budget:
                    break
                for c_right, right_targets in rights:
                    if c_right > budget:
                        break
                    if e == 0:
                        if not (c_left or c_right):
                            continue
                        side = "LR" if c_left and c_right else ("L" if c_left else "R")
                    else:
                        side = "LR"
                    yield e, side, c_left, c_right, [
                        (2 * lt + b1) * width + 2 * rt + b2
                        for lt in left_targets
                        for rt in right_targets
                    ]
        faulty = self.faulty
        for e, targets in self.silent[x]:
            label = _FAULTY_BIT if faulty[e] else b1
            yield e, "L", 0, 0, [(2 * lt + label) * width + b for lt in targets]
        for e, targets in self.silent[y]:
            label = _FAULTY_BIT if faulty[e] else b2
            yield e, "R", 0, 0, [a * width + 2 * rt + label for rt in targets]

    def successors(self, code: int):
        """:meth:`steps` within the budget, merged into ``(c_left, c_right): dsts`` items."""
        merged: dict = {}
        for _e, _side, c_left, c_right, dsts in self.steps(code, self.budget):
            merged.setdefault((c_left, c_right), []).extend(dsts)
        return merged.items()

    def free_successors(self, code: int) -> tuple:
        """Distinct mismatched states one cost-free step away, memoized."""
        free = self._free.get(code)
        if free is None:
            free = tuple(dict.fromkeys(
                dst
                for (_e, _side, _c_left, _c_right, dsts) in self.steps(code, 0)
                for dst in dsts
                if self.mismatched(dst)
            ))
            self._free[code] = free
        return free

    def is_ending(self, code: int) -> bool:
        """Mismatched and on a cost-free mismatched cycle.

        An unclassified state first gets `cycle_within` over the unclassified
        free successors: a classified state's region is complete, so it
        neither leads back nor joins a new component.  Only when that search
        exhausts does one Tarjan pass classify the region it saw, so each
        state is expanded at most twice.  A found cycle classifies nothing:
        `_ending` holds whole regions only.
        """
        if not self.mismatched(code):
            return False
        known = self._ending
        if code not in known:

            def fresh(q):
                return [dst for dst in self.free_successors(q) if dst not in known]

            if cycle_within(code, fresh) is not None:
                return True
            for component in strongly_connected_components([code], fresh):
                head = component[0]
                cyclic = len(component) > 1 or head in self._free[head]
                for q in component:
                    known[q] = cyclic
        return known[code]

    def cheapest_ending_label(self) -> Optional[int]:
        """Index in `labels` of the first settled label at an ending state.

        The heap holds ``(max, sum, state, left, right, parent)``; ties on
        the cost key go to the canonically first state.  A candidate that a
        label already pushed to its state dominates or equals is dropped: the
        pushed one pops first, and then it or a label dominating it settles.
        A candidate at a state where both sides are faulty is dropped too; no
        parent chain into an ending state passes through one, so witnesses
        do not change.
        """
        budget, width = self.budget, self.width
        pushed: dict = {code: [(0, 0)] for code in self.initial}  # state -> pushed (left, right)
        settled: dict = {}  # state -> settled (left, right)
        heap = [(0, 0, code, 0, 0, -1) for code in self.initial]
        while heap:
            _top, _sum, code, left, right, parent = heapq.heappop(heap)
            front = settled.setdefault(code, [])
            if any(l <= left and r <= right for (l, r) in front):
                continue
            front.append((left, right))
            label = len(self.labels)
            self.labels.append((code, left, right, parent))
            if self.is_ending(code):
                return label
            for (c_left, c_right), dsts in self.successors(code):
                new_left, new_right = left + c_left, right + c_right
                top = max(new_left, new_right)
                if top > budget:
                    continue
                total = new_left + new_right
                for dst in dsts:
                    if not (dst // width | dst) & 1:
                        continue  # both sides faulty: never mismatched again
                    known = pushed.setdefault(dst, [])
                    if any(l <= new_left and r <= new_right for (l, r) in known):
                        continue
                    known.append((new_left, new_right))
                    heapq.heappush(heap, (top, total, dst, new_left, new_right, label))
        return None

    def render(self, code: int) -> tuple:
        a, b = divmod(code, self.width)
        return (self.states[a >> 1], _LABELS[a & 1], self.states[b >> 1], _LABELS[b & 1])

    def step(self, src: int, dst: int, c_left: int, c_right: int) -> tuple:
        """The canonical-first step from `src` to `dst` with these costs."""
        e, side = min(
            (e, side)
            for (e, side, cl, cr, dsts) in self.steps(src, max(c_left, c_right))
            if cl == c_left and cr == c_right and dst in dsts
        )
        symbol = self.symbols[e]
        return (self.render(src), ((symbol, c_left), (symbol, c_right)), side, self.render(dst))

    def access_steps(self, label: int) -> tuple:
        """Steps from an initial pair to the settled `label`."""
        steps = []
        code, left, right, parent = self.labels[label]
        while parent >= 0:
            src, src_left, src_right, grand = self.labels[parent]
            steps.append(self.step(src, code, left - src_left, right - src_right))
            code, left, right, parent = src, src_left, src_right, grand
        steps.reverse()
        return tuple(steps)

    def cycle_steps(self, code: int) -> tuple:
        """Steps of a cost-free mismatched cycle from the ending state `code` back to it."""
        nodes = cycle_within(code, self.free_successors)
        return tuple(self.step(a, b, 0, 0) for a, b in zip(nodes, nodes[1:]))


def minimum_defeating_budget(
    plant: PlantNfa, model: AttackModel, faults: Optional[frozenset] = None
) -> Optional[int]:
    """Smallest total attack cost that keeps diagnosis confused forever; None if impossible."""
    return analyze_minimum_budget(plant, model, faults).value


# -- reference and DOT export: the explicit costed twin verifier --------------


@dataclass(frozen=True, eq=False)
class CostedTwinVerifier:
    """Twin product of the corrupted automaton with per-side costs.

    States are ``(x, l1, y, l2)`` over plant states and N/F labels.
    Transitions are ``(src, ((e, c), (e, c')), side, dst)``: both sides
    observe the same symbol, each paying its own cost; unobservable events
    interleave at zero cost.  `outgoing` returns a tuple.
    """

    source: CorruptedAutomaton
    faults: frozenset
    states: frozenset
    initial: frozenset
    transitions: frozenset
    _out: Mapping = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out: dict = {}
        for step in self.transitions:
            out.setdefault(step[0], []).append(step)
        sorted_out = {q: tuple(sorted(steps, key=_vstep_sort_key)) for q, steps in out.items()}
        object.__setattr__(self, "_out", MappingProxyType(sorted_out))

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
    """The engine's twin verifier, made explicit for ``--dot`` and the tests.

    Every move comes from `_LazyTwin.steps`, exhausted from the initial
    pairs, so the engine's rules are the only ones; pure stay/stay pairs are
    not materialised, and with a `budget` no side pays more than it.  The
    one edge added here is the joint ``"LR"`` unobservable move, which the
    engine leaves out because it equals an ``L`` move then an ``R`` move: it
    joins the left half of each ``L`` target with the right half of each
    ``R`` target.
    """
    faults = check_faults(corrupted.plant, faults)
    unobservable = corrupted.plant.unobservable
    twin = _LazyTwin(corrupted, faults, budget)
    width = twin.width
    queue = list(twin.initial)
    rendered = {code: twin.render(code) for code in queue}
    transitions = set()
    for code in queue:
        moves = list(twin.steps(code, twin.budget))
        halves: dict = {}  # silent event -> (left halves of L targets, right halves of R targets)
        for e, side, _c_left, _c_right, dsts in moves:
            if twin.symbols[e] in unobservable:
                lefts, rights = halves.setdefault(e, ([], []))
                if side == "L":
                    lefts.extend(dst // width for dst in dsts)
                else:
                    rights.extend(dst % width for dst in dsts)
        moves += [
            (e, "LR", 0, 0, [a * width + b for a in lefts for b in rights])
            for e, (lefts, rights) in halves.items()
        ]
        src = rendered[code]
        for e, side, c_left, c_right, dsts in moves:
            symbol = twin.symbols[e]
            tau = ((symbol, c_left), (symbol, c_right))
            for dst in dsts:
                if dst not in rendered:
                    rendered[dst] = twin.render(dst)
                    queue.append(dst)
                transitions.add((src, tau, side, rendered[dst]))
    return CostedTwinVerifier(
        source=corrupted,
        faults=faults,
        states=frozenset(rendered.values()),
        initial=frozenset(rendered[code] for code in twin.initial),
        transitions=frozenset(transitions),
    )


def step_costs(step) -> CostPair:
    (_e1, c1), (_e2, c2) = step[1]
    return CostPair(c1, c2)


def find_free_confusion_states(verifier: CostedTwinVerifier):
    """States on a cost-free cycle whose labels stay mismatched.

    Returns ``(states, cycles)`` where `cycles` holds one witness state
    sequence per strongly connected component that contains such a cycle.
    """
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

    components = strongly_connected_components(mismatched, successors)
    anchored = frozenset()
    cycles = []
    for component in components:
        if len(component) > 1 or component[0] in successors(component[0]):
            anchored |= frozenset(component)
            cycles.append(tuple(cycle_within(component[0], successors)))
    cycles.sort(key=lambda nodes: _vstate_sort_key(nodes[0]))
    return anchored, cycles


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


def propagate_cost_labels(verifier: CostedTwinVerifier, budget: Optional[int] = None):
    """Label-correcting propagation of Pareto cost-pair antichains (reference).

    The production search is the label-setting one of
    :func:`analyze_minimum_budget`; this FIFO version labels the whole
    verifier, and the tests check the engine against it.  Initial states
    start at ``{(0, 0)}``; a state is re-enqueued whenever its antichain
    changes.  Termination: a lap around any cycle either repeats a pair
    (dropped as a duplicate) or is dominated by the pair recorded before the
    lap.  With a `budget`, pairs whose larger side exceeds it are dropped.

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
                if touches > touch_cap:
                    raise RuntimeError("label-correcting search exceeded its touch bound")
                queue.append((dst, candidate))
    return labels, parents
