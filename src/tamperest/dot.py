"""Graphviz DOT rendering for the automata the CLI exports.

`product_to_dot` draws the reduced estimation product as
:func:`tamperest.estimator.estimation_graph` reads it off the sweep; the
reference costed matching DFA has its own renderer in
:mod:`tamperest.reference`.  Output is deterministic: nodes and edges are
emitted in canonical sorted order, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

from .attacks import render_label
from .automata import ObserverDfa, PlantNfa, sort_key
from .cmin import CostedTwinVerifier, render_symbol


def _q(text) -> str:
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _subset_label(subset) -> str:
    return "{" + ",".join(str(s) for s in sorted(subset, key=sort_key)) + "}"


def plant_to_dot(plant: PlantNfa, name: str = "plant") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    for idx, state in enumerate(sorted(plant.initial, key=sort_key)):
        lines.append(f"  __start{idx} [shape=point, style=invis];")
        lines.append(f"  __start{idx} -> {_q(state)};")
    for state in sorted(plant.states, key=sort_key):
        lines.append(f"  {_q(state)};")
    for (src, event, dst) in sorted(
        plant.transitions, key=lambda t: (sort_key(t[0]), t[1], sort_key(t[2]))
    ):
        attrs = [f"label={_q(event)}"]
        if event in plant.faults:
            attrs.append("color=red")
            attrs.append("style=dashed")
        elif event in plant.unobservable:
            attrs.append("style=dashed")
        lines.append(f"  {_q(src)} -> {_q(dst)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def observer_to_dot(observer: ObserverDfa, name: str = "observer") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    lines.append("  __start [shape=point, style=invis];")
    lines.append(f"  __start -> {_q(_subset_label(observer.initial))};")
    for subset in sorted(observer.states, key=_subset_label):
        lines.append(f"  {_q(_subset_label(subset))};")
    for (subset, symbol), target in sorted(
        observer.transitions.items(), key=lambda kv: (_subset_label(kv[0][0]), kv[0][1])
    ):
        lines.append(
            f"  {_q(_subset_label(subset))} -> {_q(_subset_label(target))} "
            f"[label={_q(symbol)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def product_to_dot(states, transitions, name: str = "product") -> str:
    """Plant x costed matching DFA: ``(state, stage, cost)`` nodes ranked by stage."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]

    def node(state):
        plant_state, stage, cost = state
        return _q(f"({plant_state},{stage},{cost})")

    by_stage: dict = {}
    for state in states:
        by_stage.setdefault(state[1], []).append(state)
    for stage in sorted(by_stage):
        members = " ".join(
            node(s) for s in sorted(by_stage[stage], key=lambda s: (sort_key(s[0]), s[2]))
        )
        lines.append(f"  {{ rank=same; {members} }}")
    for (src, label, dst) in sorted(
        transitions,
        key=lambda t: (sort_key(t[0][0]), t[0][1], t[0][2], render_label(t[1]),
                       sort_key(t[2][0]), t[2][1], t[2][2]),
    ):
        lines.append(f"  {node(src)} -> {node(dst)} [label={_q(render_label(label))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _costed_twin_state_label(state) -> str:
    x, l1, y, l2 = state
    return f"{x},{l1} | {y},{l2}"


def costed_twin_verifier_to_dot(verifier: CostedTwinVerifier, name: str = "twin") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    for state in sorted(verifier.states, key=_costed_twin_state_label):
        attrs = ""
        if state[1] != state[3]:
            attrs = " [style=filled, fillcolor=lightyellow]"
        lines.append(f"  {_q(_costed_twin_state_label(state))}{attrs};")
    for (src, tau, side, dst) in sorted(
        verifier.transitions,
        key=lambda t: (_costed_twin_state_label(t[0]), t[1], t[2],
                       _costed_twin_state_label(t[3])),
    ):
        (e, c1), (_e, c2) = tau
        label = f"(({render_symbol(e)},{c1}),({render_symbol(e)},{c2}))"
        if side != "LR":
            label += f" [{side}]"
        lines.append(
            f"  {_q(_costed_twin_state_label(src))} -> {_q(_costed_twin_state_label(dst))} "
            f"[label={_q(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
