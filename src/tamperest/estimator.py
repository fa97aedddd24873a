"""Least-cost state estimation under a cost-bounded attacker.

The estimate for a received observation is the set of plant states
consistent with *some* explanation of that observation whose recovery cost
stays within the attacker budget, each state annotated with the cheapest
such cost.

The paper reads it off the plant's product with a costed matching DFA,
which only :mod:`tamperest.reference` builds.  Here one sweep,
`_stage_costs`, keeps a saturating cost per (plant state, stage) along the
DFA's stages, with the moves of `_moves`: deletions loop within a stage,
and the moves that explain a received symbol advance a stage.
`estimate_least_cost` keeps the last table; `estimation_graph` keeps every
table and reads the reduced product off them for ``estimate --dot``.

The sweep works on the plant's canonical state numbering: states are the
indices of `PlantNfa.order`, each label's plant move is read from
`PlantNfa.posts`, and ties go to the canonically first state because index
order is canonical order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from .attacks import AttackModel, Del, Ins, Plain, Sub, check_budget
from .automata import PlantNfa, sort_key
from .errors import ValidationError


@dataclass(frozen=True)
class Estimate:
    """Least-cost state estimate for one received observation.

    `pairs` maps each plant state to the cheapest recovery cost within the
    budget.  `over_budget` lists states reachable only by explanations whose
    cost exceeds the budget (their exact cost is unknown beyond that).
    Both maps are read-only.
    """

    received: tuple
    budget: int
    pairs: Mapping
    over_budget: frozenset
    witnesses: Optional[Mapping] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pairs", MappingProxyType(dict(self.pairs)))
        if self.witnesses is not None:
            object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))

    def cost(self, state) -> Optional[int]:
        return self.pairs.get(state)

    def sorted_pairs(self) -> list:
        return sorted(self.pairs.items(), key=lambda item: (item[1], sort_key(item[0])))


def _moves(plant: PlantNfa, model: AttackModel, received: tuple, budget: int) -> tuple:
    """The checked moves of one sweep: ``(loop, advance)``, each move ``(label, cost, post)``.

    `loop` holds the deletions, by symbol; ``advance[stage]`` the moves that
    explain ``received[stage]`` in `label_sort_key` order (untouched,
    inserted, substituted by original symbol), which witness ties follow.
    `post` is the label's row of `PlantNfa.posts`.  Each distinct received
    symbol is checked, and its moves built, once.
    """
    check_budget(budget)
    model.validate_against(plant)
    posts = plant.posts
    loop = tuple((Del(s), cost, posts[(s,)]) for s, cost in sorted(model.deletions.items()))
    by_symbol: dict = {}
    for symbol in dict.fromkeys(received):
        if symbol not in plant.observable:
            raise ValidationError(f"received symbol {symbol!r} is not observable")
        moves = [(Plain(symbol), 0, posts[(symbol,)])]
        if symbol in model.insertions:
            moves.append((Ins(symbol), model.insertions[symbol], posts[()]))
        moves += [
            (Sub(original, symbol), cost, posts[(original,)])
            for (original, observed), cost in sorted(model.substitutions.items())
            if observed == symbol
        ]
        by_symbol[symbol] = tuple(moves)
    return loop, [by_symbol[symbol] for symbol in received]


def _stage_costs(
    plant: PlantNfa, loop: tuple, advance: list, bound: int, parents=None
) -> Iterator[dict]:
    """Each stage's table ``{state index: cost saturated at bound}``, in stage order.

    The `advance` moves lead to the next stage, the `loop` (deletion) moves
    are relaxed to a fixed point within a stage (each deletion costs at
    least one unit, so the relaxation terminates), and then the table is
    yielded.  With `parents`, each improvement records ``parents[stage][x]
    = (label, prev_x, prev_stage)``.
    """
    record = parents is not None

    def relax_deletions(dist: dict, stage: int) -> dict:
        if not loop:
            return dist
        back = parents[stage] if record else None
        heap = [(cost, x) for x, cost in dist.items()]
        heapq.heapify(heap)
        while heap:
            cost, x = heapq.heappop(heap)
            if cost > dist.get(x, bound):
                continue
            for label, del_cost, post in loop:
                new_cost = min(cost + del_cost, bound)
                for target in post[x]:
                    if new_cost < dist.get(target, bound + 1):
                        dist[target] = new_cost
                        if record:
                            back[target] = (label, x, stage)
                        heapq.heappush(heap, (new_cost, target))
        return dist

    dist = {plant.index[state]: 0 for state in plant.unobservable_closure(plant.initial)}
    dist = relax_deletions(dist, 0)
    yield dist
    for stage, moves in enumerate(advance):
        ranked = sorted((cost, x) for x, cost in dist.items())
        back = parents[stage + 1] if record else None
        nxt: dict = {}
        for label, delta, post in moves:
            for cost, x in ranked:
                new_cost = min(cost + delta, bound)
                for target in post[x]:
                    if new_cost < nxt.get(target, bound + 1):
                        nxt[target] = new_cost
                        if record:
                            back[target] = (label, x, stage)
        dist = relax_deletions(nxt, stage + 1)
        yield dist


def _estimate(plant: PlantNfa, received: tuple, budget: int, dist: dict, parents) -> Estimate:
    """The estimate a last stage table gives; with `parents`, one witness per state."""
    pairs = {plant.order[x]: cost for x, cost in dist.items() if cost <= budget}
    over = frozenset(plant.order[x] for x, cost in dist.items() if cost > budget)
    witnesses = None
    if parents is not None:
        final = [plant.index[state] for state in pairs]
        witnesses = dict(zip(pairs, _reconstruct(parents, final, len(received))))
    return Estimate(
        received=received, budget=budget, pairs=pairs, over_budget=over, witnesses=witnesses
    )


def estimate_least_cost(
    plant: PlantNfa,
    model: AttackModel,
    received: Sequence[str],
    budget: int,
    witness: bool = False,
) -> Estimate:
    """Least-cost estimate: the last table of the stage sweep.

    With `witness` set, the sweep records one parent per improvement, and
    `_reconstruct` reads one cheapest label sequence per estimated state off
    them; without it, no parent is recorded.
    """
    received = tuple(received)
    loop, advance = _moves(plant, model, received, budget)
    # witness mode only: parents[stage][x] = (label, prev_x, prev_stage), over state indices
    parents = [{} for _ in range(len(received) + 1)] if witness else None
    for dist in _stage_costs(plant, loop, advance, budget + 1, parents):
        pass
    return _estimate(plant, received, budget, dist, parents)


def estimation_graph(
    plant: PlantNfa, model: AttackModel, received: Sequence[str], budget: int
) -> tuple:
    """``(estimate, states, transitions)`` from one sweep, with parents recorded.

    The estimate is `estimate_least_cost` with witnesses.  The reduced
    plant x costed matching DFA product is read off every table: a state
    ``(plant state, stage, cost)`` per entry, and a transition ``(src,
    label, dst)`` per move that lands on its target's entry, which are the
    cheapest copies and the moves between them that the reference
    `reduce_product` keeps.
    """
    received = tuple(received)
    loop, advance = _moves(plant, model, received, budget)
    bound, order = budget + 1, plant.order
    parents = [{} for _ in range(len(received) + 1)]
    tables = list(_stage_costs(plant, loop, advance, bound, parents))
    states, transitions = set(), set()
    for stage, (table, ahead) in enumerate(zip(tables, advance + [()])):
        states.update((order[x], stage, cost) for x, cost in table.items())
        moves = [(move, stage) for move in loop] + [(move, stage + 1) for move in ahead]
        for (label, delta, post), to in moves:
            for x, cost in table.items():
                new_cost = min(cost + delta, bound)
                transitions.update(
                    ((order[x], stage, cost), label, (order[y], to, new_cost))
                    for y in post[x]
                    if tables[to][y] == new_cost
                )
    estimate = _estimate(plant, received, budget, tables[-1], parents)
    return estimate, frozenset(states), frozenset(transitions)


def _reconstruct(parents: list, targets: list, stage: int) -> list:
    """The label tuple that leads to each of `targets` at `stage`, in order.

    Walks each target's parent chain (`parents[stage][x]`, as the sweep
    recorded it) up to an initial state.  Chains of different targets merge,
    so a first pass marks the nodes ``(stage, x)`` where a second chain
    joins one already walked; the second pass keeps the label tuple of each
    such node, and every later chain stops there and extends it.  The work
    is then bounded by the labels returned, however the chains merge, and no
    step recurses.
    """
    seen, shared = set(), set()
    for x in targets:
        node = (stage, x)
        while node not in seen:
            seen.add(node)
            step = parents[node[0]].get(node[1])
            if step is None:
                break
            node = step[2], step[1]
        else:
            shared.add(node)
    prefixes: dict = {}
    out = []
    for x in targets:
        node, chain = (stage, x), []
        while node not in prefixes:
            step = parents[node[0]].get(node[1])
            if step is None:
                break
            chain.append((node, step[0]))
            node = step[2], step[1]
        labels = prefixes.get(node, ())
        run = []
        for node, label in reversed(chain):
            run.append(label)
            if node in shared:
                labels = prefixes[node] = labels + tuple(run)
                run = []
        out.append(labels + tuple(run))
    return out
