"""Least-cost state estimation under a cost-bounded attacker.

The estimate for a received observation is the set of plant states
consistent with *some* explanation of that observation whose recovery cost
stays within the attacker budget, each state annotated with the cheapest
such cost.

Both routes read the attack labels from :mod:`tamperest.matching`:

* an explicit product of the plant with the costed matching DFA
  (`build_product`), reduced by cost dominance (`reduce_product`, both
  steps in `reduced_product`) and read off at the final stage
  (`ending_estimates`);
* a stage-by-stage sweep (`estimate_least_cost`) over the stage machine of
  `build_matching_automaton`: its advancing labels move to the next stage
  and its loop (deletion) labels are relaxed within a stage, on per-(state,
  stage) costs, so the product is never materialised.  Results are
  identical; the sweep is the production path.

The sweep works on the plant's canonical state numbering: states are the
indices of `PlantNfa.order`, each label's plant move is read from
`PlantNfa.posts`, and ties go to the canonically first state because index
order is canonical order.  The product route calls ``PlantNfa.reach``
itself, so it shares no table with the sweep it is compared against.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .attacks import AttackModel, Label, check_budget, label_cost, project_original
from .automata import PlantNfa, sort_key
from .errors import ConfigurationError, ValidationError
from .matching import CostedMatchingDfa, build_costed_matching_dfa, build_matching_automaton


@dataclass(frozen=True, eq=False)
class ProductAutomaton:
    """Synchronisation of the plant with a costed matching DFA.

    States are ``(plant_state, stage, cost)`` triples; the transition
    relation is nondeterministic in the plant component.
    """

    plant: PlantNfa
    dfa: CostedMatchingDfa
    states: frozenset
    initial: frozenset
    transitions: frozenset  # (src, label, dst) triples

    @property
    def final_stage(self) -> int:
        return self.dfa.final_stage

    @property
    def bound(self) -> int:
        return self.dfa.bound

    def successors(self, state: tuple, label: Label) -> frozenset:
        return frozenset(dst for (src, l, dst) in self.transitions if src == state and l == label)


def build_product(plant: PlantNfa, dfa: CostedMatchingDfa) -> ProductAutomaton:
    """Accessible synchronous product; plant components are closure-saturated.

    The initial plant components take the unobservable closure of the plant's
    initial states so that the zero-observation estimate coincides with
    ``reach(X0, e)`` for the empty observation.
    """
    dfa.model.validate_against(plant)
    for symbol in dfa.received:
        if symbol not in plant.observable:
            raise ConfigurationError(
                f"received symbol {symbol!r} is not observable in the plant"
            )
    initial = frozenset(
        (state, 0, 0) for state in plant.unobservable_closure(plant.initial)
    )
    states = set(initial)
    transitions = set()
    queue = deque(sorted(initial, key=lambda s: sort_key(s[0])))
    label_pool = dfa.labels()
    while queue:
        src = queue.popleft()
        plant_state, stage, cost = src
        for label in label_pool:
            nxt = dfa.step((stage, cost), label)
            if nxt is None:
                continue
            targets = plant.reach((plant_state,), project_original((label,)))
            for target in sorted(targets, key=sort_key):
                dst = (target, nxt[0], nxt[1])
                transitions.add((src, label, dst))
                if dst not in states:
                    states.add(dst)
                    queue.append(dst)
    size_cap = len(plant.states) * (dfa.final_stage + 1) * (dfa.bound + 1)
    if len(states) > size_cap:
        raise RuntimeError("product grew beyond |X|*(m+1)*(B+1) states")
    return ProductAutomaton(
        plant=plant,
        dfa=dfa,
        states=frozenset(states),
        initial=initial,
        transitions=frozenset(transitions),
    )


def reduce_product(product: ProductAutomaton) -> ProductAutomaton:
    """Keep only the cheapest copy of each (plant state, stage).

    What is kept stays accessible: a run into a cheapest copy that passes a
    dearer copy of some (state, stage) can take the cheapest copy instead,
    which reaches the same target at no higher (saturated) cost.
    """
    cheapest: dict = {}
    for (state, stage, cost) in product.states:
        key = (state, stage)
        if cost < cheapest.get(key, cost + 1):
            cheapest[key] = cost
    kept = frozenset(
        (state, stage, cost)
        for (state, stage, cost) in product.states
        if cheapest[(state, stage)] == cost
    )
    return ProductAutomaton(
        plant=product.plant,
        dfa=product.dfa,
        states=kept,
        initial=product.initial & kept,
        transitions=frozenset(
            (src, label, dst)
            for (src, label, dst) in product.transitions
            if src in kept and dst in kept
        ),
    )


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

    def states(self) -> frozenset:
        return frozenset(self.pairs)

    def cost(self, state) -> Optional[int]:
        return self.pairs.get(state)

    def sorted_pairs(self) -> list:
        return sorted(self.pairs.items(), key=lambda item: (item[1], sort_key(item[0])))


def ending_estimates(product: ProductAutomaton, budget: int) -> Estimate:
    """Per-state minimum costs at the final stage of a (reduced) product.

    Saturated entries (cost equal to the bound, i.e. beyond the budget) are
    reported separately in ``over_budget``.
    """
    if product.bound != budget + 1:
        raise ValidationError(
            f"product was built with bound {product.bound}, expected budget+1={budget + 1}"
        )
    final = product.final_stage
    best: dict = {}
    for (state, stage, cost) in product.states:
        if stage != final:
            continue
        if cost < best.get(state, cost + 1):
            best[state] = cost
    pairs = {state: cost for state, cost in best.items() if cost <= budget}
    over = frozenset(state for state, cost in best.items() if cost > budget)
    return Estimate(
        received=product.dfa.received,
        budget=budget,
        pairs=pairs,
        over_budget=over,
    )


def reduced_product(
    plant: PlantNfa, model: AttackModel, received: Sequence[str], budget: int
) -> ProductAutomaton:
    """Matching DFA saturated at ``budget + 1`` -> product -> reduction."""
    dfa = build_costed_matching_dfa(received, model, budget + 1, alphabet=plant.observable)
    return reduce_product(build_product(plant, dfa))


def estimate_via_product(
    plant: PlantNfa, model: AttackModel, received: Sequence[str], budget: int
) -> Estimate:
    """Reference pipeline: the reduced product, read off at the final stage."""
    return ending_estimates(reduced_product(plant, model, received, budget), budget)


def estimate_least_cost(
    plant: PlantNfa,
    model: AttackModel,
    received: Sequence[str],
    budget: int,
    witness: bool = False,
) -> Estimate:
    """Least-cost estimate by a direct stage sweep.

    Keeps one saturating cost per (plant state, stage): advancing labels move
    to the next stage, deletion labels are relaxed to a fixed point within a
    stage (each deletion costs at least one unit, so the relaxation
    terminates).  With `witness` set, each improvement records its label and
    predecessor in the dict of its stage, and `_reconstruct` reads one
    cheapest label sequence per estimated state off those dicts; without it,
    no parent is recorded.
    """
    check_budget(budget)
    model.validate_against(plant)
    matching = build_matching_automaton(received, model, alphabet=plant.observable)
    posts = plant.posts
    loop = [(d, label_cost(d, model), posts[(d.symbol,)]) for d in matching.loop_labels()]
    bound = budget + 1

    # witness mode only: parents[stage][x] = (label, prev_x, prev_stage), over state indices
    parents = [{} for _ in range(matching.final_stage + 1)] if witness else None

    def relax_deletions(dist: dict, stage: int) -> dict:
        if not loop:
            return dist
        back = parents[stage] if witness else None
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
                        if witness:
                            back[target] = (label, x, stage)
                        heapq.heappush(heap, (new_cost, target))
        return dist

    dist = {plant.index[state]: 0 for state in plant.unobservable_closure(plant.initial)}
    dist = relax_deletions(dist, 0)
    for stage in range(matching.final_stage):
        ranked = sorted((cost, x) for x, cost in dist.items())
        back = parents[stage + 1] if witness else None
        nxt: dict = {}
        for label in matching.advancing_labels(stage):
            delta = label_cost(label, model)
            post = posts[project_original((label,))]
            for cost, x in ranked:
                new_cost = min(cost + delta, bound)
                for target in post[x]:
                    if new_cost < nxt.get(target, bound + 1):
                        nxt[target] = new_cost
                        if witness:
                            back[target] = (label, x, stage)
        dist = relax_deletions(nxt, stage + 1)

    pairs = {plant.order[x]: cost for x, cost in dist.items() if cost <= budget}
    over = frozenset(plant.order[x] for x, cost in dist.items() if cost > budget)
    witnesses = None
    if witness:
        final = [plant.index[state] for state in pairs]
        witnesses = dict(zip(pairs, _reconstruct(parents, final, matching.final_stage)))
    return Estimate(
        received=matching.received,
        budget=budget,
        pairs=pairs,
        over_budget=over,
        witnesses=witnesses,
    )


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
