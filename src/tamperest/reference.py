"""Reference code only, for the tests: the paper's explicit estimation construction.

No production module imports it.  `build_matching_automaton` is the
paper's matching automaton as a stage machine: stage ``i`` means the first
``i`` received symbols have been explained, deletion labels self-loop at
every stage, and each other label advances one stage by explaining the
next received symbol, untouched, inserted or substituted.
`build_costed_matching_dfa` pairs it with a cost counter saturated at a
bound ``B`` (cost ``B`` means "at least B"; an attacker budget ``C`` uses
``B = C + 1``), `build_product` synchronises that with the plant,
`reduce_product` keeps the cheapest copy of each (plant state, stage), and
`ending_estimates` reads the final stage.  The tests check the production
sweep, `estimate_least_cost` and `estimation_graph`, against these; the
sweep builds its own move table from the attack model, and the product
calls ``PlantNfa.reach`` itself, so the two routes share no table; the
product reads each label's pre-attack symbol with the oracle's
`project_original`.
`matching_language` lists the stage machine's label sequences up to a
cost, which the tests compare with the oracle's `enumerate_matching`.

`enumerate_tampered` lists the words an attacker can make of an
observation within a budget, by exhaustive search; `label_cost`,
`total_cost` and `project_received` read a label's or a label sequence's
cost and a label sequence's received word.
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
    label_sort_key,
    render_label,
)
from .automata import PlantNfa, sort_key
from .dot import _q
from .errors import ConfigurationError, ValidationError
from .estimator import Estimate
from .oracle import project_original


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


def matching_language(machine: MatchingAutomaton, max_cost: int) -> list:
    """Label sequences `machine` accepts at its final stage with cost <= `max_cost`."""
    out = []
    model = machine.model

    def walk(stage: int, labels: tuple, spent: int):
        if stage == machine.final_stage:
            out.append((labels, spent))
        moves = [(label, stage) for label in machine.loop_labels()]
        moves += [(label, stage + 1) for label in machine.advancing_labels(stage)]
        for label, next_stage in moves:
            cost = label_cost(label, model)
            if spent + cost <= max_cost:
                walk(next_stage, labels + (label,), spent + cost)

    walk(0, (), 0)
    out.sort(key=lambda pair: (pair[1], len(pair[0]), [label_sort_key(l) for l in pair[0]]))
    return out


def build_costed_matching_dfa(
    received: Sequence[str], model: AttackModel, bound: int, alphabet: Optional[frozenset] = None
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
    return CostedMatchingDfa(skeleton.received, model, bound, frozenset(states), transitions)


def matching_dfa_to_dot(dfa: CostedMatchingDfa, name: str = "matching") -> str:
    """Stage/cost grid: stages appear as columns, accumulated costs as rows."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    by_stage: dict = {}
    for (stage, cost) in dfa.states:
        by_stage.setdefault(stage, []).append(cost)
    for stage in sorted(by_stage):
        members = " ".join(_q(f"({stage},{cost})") for cost in sorted(by_stage[stage]))
        lines.append(f"  {{ rank=same; {members} }}")
    for ((state, label), target) in sorted(
        dfa.transitions.items(),
        key=lambda kv: (kv[0][0], render_label(kv[0][1]), kv[1]),
    ):
        src = _q(f"({state[0]},{state[1]})")
        dst = _q(f"({target[0]},{target[1]})")
        lines.append(f"  {src} -> {dst} [label={_q(render_label(label))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
            raise ConfigurationError(f"received symbol {symbol!r} is not observable in the plant")
    initial = frozenset((state, 0, 0) for state in plant.unobservable_closure(plant.initial))
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
    return ProductAutomaton(plant, dfa, frozenset(states), initial, frozenset(transitions))


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
    transitions = frozenset(
        (src, label, dst) for (src, label, dst) in product.transitions if src in kept and dst in kept
    )
    return ProductAutomaton(product.plant, product.dfa, kept, product.initial & kept, transitions)


def ending_estimates(product: ProductAutomaton, budget: int) -> Estimate:
    """Per-state minimum costs at the final stage of a (reduced) product.

    Saturated entries (cost equal to the bound, i.e. beyond the budget) are
    reported separately in ``over_budget``.
    """
    bound = product.dfa.bound
    if bound != budget + 1:
        raise ValidationError(
            f"product was built with bound {bound}, expected budget+1={budget + 1}"
        )
    best: dict = {}
    for (state, stage, cost) in product.states:
        if stage == product.dfa.final_stage and cost < best.get(state, cost + 1):
            best[state] = cost
    pairs = {state: cost for state, cost in best.items() if cost <= budget}
    over = frozenset(state for state, cost in best.items() if cost > budget)
    return Estimate(received=product.dfa.received, budget=budget, pairs=pairs, over_budget=over)


def estimate_via_product(
    plant: PlantNfa, model: AttackModel, received: Sequence[str], budget: int
) -> Estimate:
    """The reduced product, read off at the final stage."""
    dfa = build_costed_matching_dfa(received, model, budget + 1, alphabet=plant.observable)
    return ending_estimates(reduce_product(build_product(plant, dfa)), budget)
