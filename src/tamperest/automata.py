"""Nondeterministic finite automata under partial observation.

A plant is an NFA whose alphabet is split into observable and unobservable
events; a subset of the unobservable events may be designated as faults.
This module provides the transition algebra (``step``), the natural
projection onto observable events, the reachability operator ``reach`` that
accounts for unobservable moves, the observer (subset construction), and the
two structural checks (liveness, absence of unobservable cycles) that the
diagnosability analyses rely on.

All objects are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .errors import ValidationError
from .scc import cycle_within, strongly_connected_components

State = Hashable
Symbol = str

#: Rendering of the empty symbol; never a legal event name.
EPSILON_DISPLAY = "ε"


def sort_key(value):
    """Total order for possibly mixed int/str identifiers."""
    return (value.__class__.__name__, value)


def check_symbol_name(name) -> str:
    if not isinstance(name, str) or not name:
        raise ValidationError(f"event names must be non-empty strings, got {name!r}")
    if name == EPSILON_DISPLAY:
        raise ValidationError(f"{EPSILON_DISPLAY!r} is reserved for the empty symbol")
    return name


@dataclass(frozen=True)
class PlantNfa:
    """NFA with an observable/unobservable alphabet split and fault events.

    Transitions form a partial relation: absence of an entry means the move
    is undefined (there is no implicit sink state).

    The plant owns the canonical numbering of its states: `order` lists
    them in `sort_key` order, `index` maps each back to its position, and
    `posts` tabulates ``reach`` over that numbering for the empty word and
    for each observable symbol.  The three read-only tables are built on
    first use, so constructing or loading a plant does not pay for them.
    """

    states: frozenset
    observable: frozenset
    unobservable: frozenset
    faults: frozenset
    transitions: frozenset
    initial: frozenset
    _succ: dict = field(init=False, repr=False, compare=False, hash=False)
    _uo_out: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        for name in self.observable | self.unobservable:
            check_symbol_name(name)
        if self.observable & self.unobservable:
            overlap = sorted(self.observable & self.unobservable)
            raise ValidationError(f"events marked both observable and unobservable: {overlap}")
        if not self.faults <= self.unobservable:
            raise ValidationError("fault events must be unobservable")
        if not self.initial:
            raise ValidationError("at least one initial state is required")
        if not self.initial <= self.states:
            raise ValidationError("initial states must be plant states")
        alphabet = self.observable | self.unobservable
        succ: dict = {}
        uo_out: dict = {}
        for triple in self.transitions:
            src, event, dst = triple
            if src not in self.states or dst not in self.states:
                raise ValidationError(f"transition {triple!r} references an unknown state")
            if event not in alphabet:
                raise ValidationError(f"transition {triple!r} uses an undeclared event")
            succ.setdefault((src, event), set()).add(dst)
            if event in self.unobservable:
                uo_out.setdefault(src, set()).add(dst)
        object.__setattr__(self, "_succ", {k: frozenset(v) for k, v in succ.items()})
        object.__setattr__(self, "_uo_out", {k: frozenset(v) for k, v in uo_out.items()})

    # -- basic queries ----------------------------------------------------

    @property
    def alphabet(self) -> frozenset:
        return self.observable | self.unobservable

    def successors(self, state, event) -> frozenset:
        """One-step successors of `state` under `event` (possibly empty)."""
        return self._succ.get((state, event), frozenset())

    @cached_property
    def order(self) -> tuple:
        """The states in canonical (`sort_key`) order."""
        return tuple(sorted(self.states, key=sort_key))

    @cached_property
    def index(self) -> Mapping:
        """State -> its position in `order`."""
        return MappingProxyType({state: x for x, state in enumerate(self.order)})

    @cached_property
    def posts(self) -> Mapping:
        """Word -> per state index, the sorted indices of ``reach((state,), word)``."""
        words = [()] + [(symbol,) for symbol in sorted(self.observable)]
        return MappingProxyType({
            word: tuple(
                tuple(sorted(self.index[target] for target in self.reach((state,), word)))
                for state in self.order
            )
            for word in words
        })

    def events_at(self, state) -> frozenset:
        return frozenset(e for (s, e) in self._succ if s == state)

    def _check_states(self, states: Iterable) -> frozenset:
        out = frozenset(states)
        unknown = out - self.states
        if unknown:
            raise ValidationError(f"unknown states: {sorted(unknown, key=sort_key)}")
        return out

    def _check_events(self, seq: Sequence[Symbol], allowed: frozenset, what: str):
        for event in seq:
            if event not in allowed:
                raise ValidationError(f"{event!r} is not {what}")

    # -- transition algebra -----------------------------------------------

    def step(self, states: Iterable, sequence: Sequence[Symbol]) -> frozenset:
        """Exact runs: states reachable from `states` by the event sequence.

        No unobservable closure is applied; the sequence must be executed
        literally, one transition per event.
        """
        current = self._check_states(states)
        self._check_events(sequence, self.alphabet, "a plant event")
        for event in sequence:
            current = frozenset(
                dst for src in current for dst in self.successors(src, event)
            )
            if not current:
                return current
        return current

    def project(self, sequence: Sequence[Symbol]) -> tuple:
        """Natural projection: erase unobservable events, keep order."""
        self._check_events(sequence, self.alphabet, "a plant event")
        return tuple(e for e in sequence if e in self.observable)

    def unobservable_closure(self, states: Iterable) -> frozenset:
        """States reachable via any number of unobservable moves."""
        closed = set(self._check_states(states))
        frontier = list(closed)
        while frontier:
            src = frontier.pop()
            for dst in self._uo_out.get(src, ()):
                if dst not in closed:
                    closed.add(dst)
                    frontier.append(dst)
        return frozenset(closed)

    def reach(self, states: Iterable, observation: Sequence[Symbol]) -> frozenset:
        """All states consistent with observing `observation` from `states`.

        Inserts unobservable closure before, between and after the observed
        symbols.  May return the empty set (observation infeasible); callers
        decide whether that is an error.
        """
        self._check_events(observation, self.observable, "an observable event")
        current = self.unobservable_closure(states)
        for symbol in observation:
            moved = frozenset(
                dst for src in current for dst in self.successors(src, symbol)
            )
            if not moved:
                return frozenset()
            current = self.unobservable_closure(moved)
        return current

    # -- structural checks --------------------------------------------------

    def reachable_states(self) -> frozenset:
        adjacency: dict = {}
        for (src, _event), targets in self._succ.items():
            adjacency.setdefault(src, set()).update(targets)
        seen = set(self.initial)
        frontier = list(seen)
        while frontier:
            state = frontier.pop()
            for target in adjacency.get(state, ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return frozenset(seen)


def unobservable_cycle(plant: PlantNfa) -> Optional[list]:
    """One reachable cycle of unobservable transitions, or None if there is none.

    The witness is a list of transitions ``(src, event, dst)`` that starts
    and ends at the same state; each step takes the first unobservable event
    from `src` to `dst` in name order.
    """
    def successors(state):
        return sorted(plant._uo_out.get(state, ()), key=plant.index.__getitem__)

    reachable = plant.reachable_states()
    roots = [state for state in plant.order if state in reachable]
    for component in strongly_connected_components(roots, successors):
        if len(component) > 1 or component[0] in successors(component[0]):
            nodes = cycle_within(component[0], successors)
            return [
                (src, min(e for e in plant.unobservable if dst in plant.successors(src, e)), dst)
                for src, dst in zip(nodes, nodes[1:])
            ]
    return None


def dead_reachable_state(plant: PlantNfa) -> Optional[State]:
    """A reachable state with no outgoing transition, or None if live."""
    outgoing = {src for (src, _e, _d) in plant.transitions}
    for state in sorted(plant.reachable_states(), key=sort_key):
        if state not in outgoing:
            return state
    return None


@dataclass(frozen=True, eq=False)
class ObserverDfa:
    """Deterministic observer over subsets of plant states.

    Only the accessible part is kept; every state is a non-empty frozenset
    of plant states, and the transition map is partial and read-only.
    """

    plant: PlantNfa
    initial: frozenset
    states: frozenset
    transitions: Mapping

    def __post_init__(self):
        object.__setattr__(self, "transitions", MappingProxyType(dict(self.transitions)))

    def step(self, subset: frozenset, symbol: Symbol) -> Optional[frozenset]:
        return self.transitions.get((subset, symbol))

    def run(self, observation: Sequence[Symbol]) -> Optional[frozenset]:
        """Observer state after `observation`, or None if undefined."""
        current = self.initial
        for symbol in observation:
            current = self.step(current, symbol)
            if current is None:
                return None
        return current


def build_observer(plant: PlantNfa) -> ObserverDfa:
    """Subset construction over the observable alphabet via ``reach``."""
    initial = plant.reach(plant.initial, ())
    states = {initial}
    transitions = {}
    queue = deque([initial])
    while queue:
        subset = queue.popleft()
        for symbol in sorted(plant.observable):
            target = plant.reach(subset, (symbol,))
            if not target:
                continue
            transitions[(subset, symbol)] = target
            if target not in states:
                states.add(target)
                queue.append(target)
    return ObserverDfa(
        plant=plant,
        initial=initial,
        states=frozenset(states),
        transitions=transitions,
    )


# -- JSON interchange -------------------------------------------------------

_PLANT_KEYS = {"states", "observable", "unobservable", "faults", "initial", "transitions"}
_TRANSITION_FIELDS = itemgetter("from", "event", "to")


def _typed(values) -> set:
    """``(type, value)`` pairs: like `sort_key`, they tell 1, 1.0 and true apart."""
    values = list(values)
    return set(zip(map(type, values), values))


def plant_from_dict(data: dict) -> PlantNfa:
    if not isinstance(data, dict):
        raise ValidationError("plant description must be a JSON object")
    missing = _PLANT_KEYS - data.keys()
    if missing:
        raise ValidationError(f"plant description is missing keys: {sorted(missing)}")
    for key in ("states", "observable", "unobservable", "faults", "initial", "transitions"):
        if not isinstance(data[key], list):
            raise ValidationError(f"plant key {key!r} must be a list")
    try:  # one pass in C; the scan below only names the bad entry
        transitions = list(map(_TRANSITION_FIELDS, data["transitions"]))
    except (KeyError, TypeError):
        bad = next(
            entry for entry in data["transitions"]
            if not isinstance(entry, dict) or {"from", "event", "to"} - entry.keys()
        )
        raise ValidationError(f"bad transition entry: {bad!r}") from None
    try:
        sets = {key: frozenset(data[key]) for key in _PLANT_KEYS - {"transitions"}}
        sets["transitions"] = frozenset(transitions)
    except TypeError:
        raise ValidationError(
            "plant states and events must be strings or numbers, not lists or objects"
        ) from None
    if len(sets["states"]) != len(data["states"]):
        raise ValidationError("plant states must be distinct (1, 1.0 and true are the same state)")
    named = _typed(data["initial"])
    named |= _typed(map(itemgetter(0), transitions)) | _typed(map(itemgetter(2), transitions))
    renamed = [value for _kind, value in named - _typed(sets["states"]) if value in sets["states"]]
    if renamed:
        name = json.dumps(min(renamed, key=sort_key))
        raise ValidationError(
            f"{name} names no declared state (1, 1.0 and true are different names)"
        )
    if len(sets["transitions"]) != len(transitions):
        raise ValidationError("plant transitions must not repeat")
    plant = PlantNfa(**sets)
    for key in ("initial", "observable", "unobservable", "faults"):
        if len(sets[key]) != len(data[key]):
            raise ValidationError(f"plant {key!r} entries must not repeat")
    return plant


def plant_to_dict(plant: PlantNfa) -> dict:
    return {
        "states": sorted(plant.states, key=sort_key),
        "observable": sorted(plant.observable),
        "unobservable": sorted(plant.unobservable),
        "faults": sorted(plant.faults),
        "initial": sorted(plant.initial, key=sort_key),
        "transitions": [
            {"from": src, "event": event, "to": dst}
            for (src, event, dst) in sorted(
                plant.transitions, key=lambda t: (sort_key(t[0]), t[1], sort_key(t[2]))
            )
        ],
    }


def read_json(path):
    """The JSON document in the file at `path`.

    Text that is not UTF-8, nests too deeply to parse, or holds ``NaN``,
    ``Infinity`` or ``-Infinity`` (which `json` reads but JSON lacks) is a
    `ValidationError`; malformed JSON raises `json.JSONDecodeError`.
    """

    def refuse(constant):
        raise ValidationError(f"not a JSON value: {constant} in {path}")

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_constant=refuse)
        except UnicodeDecodeError:
            raise ValidationError(f"not UTF-8 text: {path}") from None
        except RecursionError:
            raise ValidationError(f"JSON nested too deeply: {path}") from None


def load_plant(path) -> PlantNfa:
    return plant_from_dict(read_json(path))
