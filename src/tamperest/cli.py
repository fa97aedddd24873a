"""Command-line front end.

Subcommands: ``observer``, ``estimate``, ``diagnose``, ``cmin``,
``export-dot``.  Exit codes: 0 success, 2 input/validation error (a
malformed option included), 3 structural-precondition violation
(``diagnose`` or ``cmin`` on a plant with a reachable dead state or cycle
of unobservable events).  ``diagnose --budget C`` is non-diagnosable
exactly when ``cmin <= C``; witnesses show a deleted symbol as ``ε``.

Output is canonical: identical inputs produce byte-identical output.  JSON
goes through `_dumps`, which renders exactly what ``json.dumps(value,
ensure_ascii=False, sort_keys=True, indent=2)`` would, but joins the
indentation by hand around C-encoded leaves (with ``indent`` set, the
standard library falls back to its pure-Python encoder) and renders a
container of scalars once however often the payload repeats it.  ``estimate
--witness`` shares one dict and one rendering per distinct attack label, so
a witness costs about what its distinct labels cost.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from json.encoder import encode_basestring

from . import dot
from .attacks import AttackModel, label_to_dict, load_model, render_label
from .automata import build_observer, load_plant, sort_key
from .cmin import (
    analyze_minimum_budget,
    build_costed_twin_verifier,
    side_run,
    verify_diagnosability,
)
from .errors import ConfigurationError, PreconditionError, ValidationError
from .estimator import estimate_least_cost, estimation_graph

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


_CONTAINERS = (dict, list, tuple)


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)``, byte for byte.

    `pad` is the newline and indentation that close `value`; each item sits
    two spaces deeper.  Dict keys must be strings, as in every payload the
    CLI builds.  Str leaves go through the C `encode_basestring`, exact ints
    through `int.__repr__` and other scalars through `json.dumps`.  The text
    of a container whose values are all scalars is kept per ``(pad, id)``,
    so an object the payload repeats is rendered once per depth.
    """
    memo = defaultdict(dict)  # pad -> {id(container of scalars): its text}

    def render(value, pad: str) -> str:
        if isinstance(value, str):
            return encode_basestring(value)
        if type(value) is int:
            return int.__repr__(value)
        if not isinstance(value, _CONTAINERS):
            return json.dumps(value)
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = pad + "  "
        known = memo[inner]
        if isinstance(value, dict):
            values = value.values()
            parts = [
                encode_basestring(k) + ": " + (known.get(id(v)) or render(v, inner))
                for k, v in sorted(value.items())
            ]
            text = "{" + inner + ("," + inner).join(parts) + pad + "}"
        else:
            values = value
            parts = [known.get(id(v)) or render(v, inner) for v in value]
            text = "[" + inner + ("," + inner).join(parts) + pad + "]"
        if not any(isinstance(v, _CONTAINERS) for v in values):
            memo[pad][id(value)] = text
        return text

    return render(value, pad)


def _emit(payload: dict):
    sys.stdout.write(_dumps(payload) + "\n")


def _fail(code: int, message: str, **details) -> int:
    body = {"error": message}
    body.update(details)
    sys.stderr.write(json.dumps(body, ensure_ascii=False, sort_keys=True) + "\n")
    return code


def _load_inputs(args):
    """Plant, attack model and ``--faults``; the analyses validate them."""
    plant = load_plant(args.plant)
    model = AttackModel.empty() if getattr(args, "attacks", None) is None else load_model(args.attacks)
    faults = frozenset(args.faults) if getattr(args, "faults", None) else None
    return plant, model, faults


def _parse_observation(text: str) -> tuple:
    return tuple(text.split())


def _write_dot(path, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _cmd_observer(args) -> int:
    plant, _model, _faults = _load_inputs(args)
    observer = build_observer(plant)
    if args.format == "dot":
        sys.stdout.write(dot.observer_to_dot(observer))
        return EXIT_OK

    def label(subset):
        return sorted(subset, key=sort_key)

    entries = sorted(
        observer.transitions.items(),
        key=lambda kv: (str(label(kv[0][0])), kv[0][1]),
    )
    if args.format == "text":
        sys.stdout.write("initial: {%s}\n" % ",".join(str(s) for s in label(observer.initial)))
        for (subset, symbol), target in entries:
            sys.stdout.write(
                "{%s} --%s--> {%s}\n"
                % (
                    ",".join(str(s) for s in label(subset)),
                    symbol,
                    ",".join(str(s) for s in label(target)),
                )
            )
        return EXIT_OK
    _emit(
        {
            "initial": label(observer.initial),
            "states": sorted((label(s) for s in observer.states), key=str),
            "transitions": [
                {"from": label(subset), "event": symbol, "to": label(target)}
                for (subset, symbol), target in entries
            ],
        }
    )
    return EXIT_OK


def _cmd_estimate(args) -> int:
    plant, model, _faults = _load_inputs(args)
    observation = _parse_observation(args.obs)
    if args.dot:
        estimate, states, transitions = estimation_graph(plant, model, observation, args.budget)
    else:
        estimate = estimate_least_cost(plant, model, observation, args.budget, witness=args.witness)
    entries = []
    # id(label) -> its dict and its rendering, one of each per distinct label
    dicts: dict = {}
    texts: dict = {}
    distinct: dict = {}
    for state, cost in estimate.sorted_pairs():
        entry = {"state": state, "cost": cost}
        if args.witness:
            labels = estimate.witnesses[state]
            keys = list(map(id, labels))
            for key, label in zip(keys, labels):
                if key not in dicts:
                    if label not in distinct:
                        distinct[label] = (label_to_dict(label), render_label(label))
                    dicts[key], texts[key] = distinct[label]
            entry["witness"] = list(map(dicts.__getitem__, keys))
            entry["explanation"] = " ".join(map(texts.__getitem__, keys)) if keys else "ε"
        entries.append(entry)
    payload = {
        "received": list(observation),
        "budget": args.budget,
        "estimates": entries,
        "over_budget": [{"state": s} for s in sorted(estimate.over_budget, key=sort_key)],
    }
    if args.dot:
        _write_dot(args.dot, dot.product_to_dot(states, transitions))
    _emit(payload)
    return EXIT_OK


def _witness_payload(access, cycle) -> dict:
    """Both runs of an attack into confusion plus its cost-free cycle, and the cycle alone."""
    left, right = side_run(cycle, "L"), side_run(cycle, "R")
    return {
        "left_run": [*side_run(access, "L"), *left],
        "right_run": [*side_run(access, "R"), *right],
        "cycle": {"left": list(left), "right": list(right)},
    }


def _write_verifier_dot(path, corrupted, faults, name: str, budget=None):
    """Export the costed twin verifier over the corrupted automaton the analysis built."""
    verifier = build_costed_twin_verifier(corrupted, faults, budget=budget)
    _write_dot(path, dot.costed_twin_verifier_to_dot(verifier, name=name))


def _cmd_diagnose(args) -> int:
    plant, model, faults = _load_inputs(args)
    result = verify_diagnosability(
        plant, model, faults=faults, budget=args.budget, want_witness=args.witness
    )
    payload = {"budget": args.budget, "diagnosable": result.diagnosable}
    if args.witness and result.witness is not None:
        payload["witness"] = _witness_payload(result.witness.access, result.witness.cycle)
    if args.dot:
        _write_verifier_dot(args.dot, result.corrupted, faults, "verifier", budget=args.budget)
    _emit(payload)
    return EXIT_OK


def _cmd_cmin(args) -> int:
    plant, model, faults = _load_inputs(args)
    result = analyze_minimum_budget(plant, model, faults=faults, want_witness=args.witness)
    if result.value is None:
        payload = {"cmin": None, "reason": "no cost-free confusion cycle"}
    else:
        payload = {"cmin": result.value}
        if args.witness:
            payload["witness"] = _witness_payload(result.witness, result.cycle)
    if args.dot:
        _write_verifier_dot(args.dot, result.corrupted, faults, "twin")
    _emit(payload)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    plant, _model, _faults = _load_inputs(args)
    if args.target == "observer":
        sys.stdout.write(dot.observer_to_dot(build_observer(plant)))
    else:
        sys.stdout.write(dot.plant_to_dot(plant))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise `ValidationError`, so `main` reports them like any input error."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tamperest",
        description=(
            "State estimation and fault-diagnosis analysis for partially "
            "observed automata whose sensor readings a cost-bounded attacker "
            "may delete, insert, or substitute."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, attacks=False, faults=False):
        p.add_argument("--plant", required=True, help="plant description (JSON)")
        if attacks:
            p.add_argument(
                "--attacks", help="attack cost table (JSON); omit for the empty model"
            )
        if faults:
            p.add_argument(
                "--faults",
                nargs="+",
                help="fault events (default: the plant's own fault set)",
            )

    p = sub.add_parser("observer", help="build the observer of a plant")
    common(p)
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.set_defaults(func=_cmd_observer)

    p = sub.add_parser("estimate", help="least-cost state estimate for an observation")
    common(p, attacks=True)
    p.add_argument("--obs", required=True, help="received observation, symbols separated by spaces")
    p.add_argument("--budget", type=int, required=True, help="attacker budget")
    p.add_argument("--witness", action="store_true", help="include one cheapest explanation per state")
    p.add_argument("--dot", help="write the reduced product automaton to this DOT file")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("diagnose", help="check tamper-tolerant diagnosability at a budget")
    common(p, attacks=True, faults=True)
    p.add_argument("--budget", type=int, required=True, help="attacker budget")
    p.add_argument("--witness", action="store_true", help="include a counterexample run pair")
    p.add_argument("--dot", help="write the costed twin verifier to this DOT file")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("cmin", help="minimum attack budget that defeats diagnosis forever")
    common(p, attacks=True, faults=True)
    p.add_argument("--witness", action="store_true", help="include the cheapest defeating attack")
    p.add_argument("--dot", help="write the costed twin verifier to this DOT file")
    p.set_defaults(func=_cmd_cmin)

    p = sub.add_parser("export-dot", help="export a plant or its observer as DOT")
    common(p)
    p.add_argument("--target", choices=("plant", "observer"), default="plant")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except json.JSONDecodeError as exc:
        return _fail(
            EXIT_INPUT,
            f"malformed JSON: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        )
    except FileNotFoundError as exc:
        return _fail(EXIT_INPUT, f"file not found: {exc.filename}")
    except OSError as exc:
        return _fail(EXIT_INPUT, f"cannot open {exc.filename}: {exc.strerror}")
    except (ValidationError, ConfigurationError) as exc:
        return _fail(EXIT_INPUT, str(exc))
    except PreconditionError as exc:
        witness = exc.witness
        if isinstance(witness, list):  # cycle: one entry per step
            witness = [repr(w) for w in witness]
        else:
            witness = repr(witness)
        return _fail(EXIT_PRECONDITION, str(exc), kind=exc.kind, witness=witness)


if __name__ == "__main__":
    raise SystemExit(main())
