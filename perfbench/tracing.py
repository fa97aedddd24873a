"""Spans and counters around the calls into each ``tamperest`` layer.

The traced client process replaces public functions in the namespaces that
call them (``tamperest.cli.estimate_least_cost``,
``tamperest.cmin.build_costed_twin_verifier``, ``PlantNfa.reach``, ...) with
timing wrappers.  Nothing in the package changes, and the untraced process
never imports this module.

Coarse calls become spans (name, start, end, parent span, query id), kept in
memory and written out when the run ends.  Hot calls (``reach``,
``unobservable_closure``, ``events_at``, ``validate_against``) run thousands
of times per query, so they only add to per-name call counts and times.
Every wrapped call, span or not, charges its duration to its caller, which
gives each layer its self time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import tamperest.cli
import tamperest.cmin
import tamperest.diagnoser
from tamperest.attacks import AttackModel
from tamperest.automata import PlantNfa


class Tracer:
    """Span recorder for one process; `query` tags the spans of the current query."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, query)
        self.time = defaultdict(float)  # inclusive seconds per name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)  # sizes and other work counts
        self.query = None
        self._stack = []  # [name, start, child seconds, span index or None]
        self._patched = []

    def wrap(self, fn, name: str, span: bool = True, measure=None):
        """`fn` timed as `name`; `measure(tracer, args, result)` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open_span_index()
            index = None
            if span:
                index = len(self.spans)
                self.spans.append(None)
            frame = [name, time.perf_counter(), 0.0, index]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                self.time[name] += duration
                self.self_time[name] += duration - frame[2]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][2] += duration
                if span:
                    self.spans[index] = (name, frame[1], end, parent, self.query)
            if measure is not None:
                measure(self, args, result)
            return result

        return traced

    def _open_span_index(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return -1

    def patch(self, owner, attribute: str, name: str, span: bool = True, measure=None):
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, span, measure))

    def unpatch(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, query in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "query": query}
                    )
                    + "\n"
                )


def _sizes(prefix):
    def measure(tracer, _args, result):
        tracer.counts[prefix + ".states"] += len(result.states)
        tracer.counts[prefix + ".transitions"] += len(result.transitions)

    return measure


def _estimate_counts(tracer, _args, result):
    tracer.counts["estimator.symbols"] += len(result.received)
    tracer.counts["estimator.pairs"] += len(result.pairs)
    tracer.counts["estimator.over_budget"] += len(result.over_budget)
    if result.witnesses:
        tracer.counts["estimator.witness_labels"] += sum(len(w) for w in result.witnesses.values())


def _diagnose_counts(tracer, _args, result):
    if result.witness is not None:
        tracer.counts["diagnoser.witness_steps"] += len(result.witness.access) + len(
            result.witness.cycle
        )


def _free_confusion_counts(tracer, _args, result):
    tracer.counts["cmin.ending_states"] += len(result[0])


def _pareto_counts(tracer, args, result):
    labels, parents = result
    tracer.counts["cmin.labels_inserted"] += len(parents) + len(args[0].initial)
    tracer.counts["cmin.labels_final"] += sum(len(pairs) for pairs in labels.values())


def _scc_counts(tracer, args, result):
    tracer.counts["scc.nodes"] += len(args[0])
    tracer.counts["scc.components"] += len(result)


def install(tracer: Tracer):
    """Wrap every traced layer boundary; `tracer.unpatch()` undoes it."""
    cli, cmin, diagnoser = tamperest.cli, tamperest.cmin, tamperest.diagnoser
    tracer.patch(cli, "load_plant", "automata.load_plant")
    tracer.patch(cli, "load_model", "attacks.load_model")
    tracer.patch(cli, "estimate_least_cost", "estimator.estimate", measure=_estimate_counts)
    tracer.patch(cli, "verify_diagnosability", "diagnoser.verify", measure=_diagnose_counts)
    tracer.patch(cli, "analyze_minimum_budget", "cmin.analyze")
    tracer.patch(PlantNfa, "reach", "automata.reach", span=False)
    tracer.patch(PlantNfa, "unobservable_closure", "automata.closure", span=False)
    tracer.patch(PlantNfa, "events_at", "automata.events_at", span=False)
    tracer.patch(AttackModel, "validate_against", "attacks.validate", span=False)
    tracer.patch(
        diagnoser, "build_costed_plant", "diagnoser.costed_plant", measure=_sizes("diagnoser.costed_plant")
    )
    tracer.patch(
        diagnoser, "build_twin_verifier", "diagnoser.verifier", measure=_sizes("diagnoser.verifier")
    )
    tracer.patch(diagnoser, "find_confused_cycle", "diagnoser.cycle")
    tracer.patch(cmin, "build_corrupted_automaton", "cmin.corrupted")
    tracer.patch(
        cmin, "build_costed_twin_verifier", "cmin.verifier", measure=_sizes("cmin.verifier")
    )
    tracer.patch(
        cmin, "find_free_confusion_states", "cmin.free_confusion", measure=_free_confusion_counts
    )
    tracer.patch(cmin, "propagate_cost_labels", "cmin.pareto", measure=_pareto_counts)
    for module in (diagnoser, cmin):
        tracer.patch(module, "strongly_connected_components", "scc.scc", measure=_scc_counts)
        tracer.patch(module, "cycle_within", "scc.cycle_within")


def _t(name):
    return lambda tr: tr.time[name]


def _self(name):
    return lambda tr: tr.self_time[name]


def _n(name):
    return lambda tr: tr.calls[name]


def _c(name):
    return lambda tr: tr.counts[name]


#: Per-layer metrics as (name, unit, how to read the run's total from a
#: tracer).  ``_s`` times include the wrapped calls made inside.
LAYER_METRICS = (
    ("cli.main_s", "s", _t("cli.main")),
    ("cli.self_s", "s", _self("cli.main")),
    ("cli.stdout_bytes", "bytes", _c("cli.stdout_bytes")),
    ("automata.load_plant_s", "s", _t("automata.load_plant")),
    ("automata.reach.calls", "count", _n("automata.reach")),
    ("automata.reach_s", "s", _t("automata.reach")),
    ("automata.closure.calls", "count", _n("automata.closure")),
    ("automata.closure_s", "s", _t("automata.closure")),
    ("automata.events_at.calls", "count", _n("automata.events_at")),
    ("automata.events_at_s", "s", _t("automata.events_at")),
    ("attacks.load_model_s", "s", _t("attacks.load_model")),
    ("attacks.validate.calls", "count", _n("attacks.validate")),
    ("attacks.validate_s", "s", _t("attacks.validate")),
    ("estimator.estimate_s", "s", _t("estimator.estimate")),
    ("estimator.self_s", "s", _self("estimator.estimate")),
    ("estimator.symbols", "count", _c("estimator.symbols")),
    ("estimator.pairs", "count", _c("estimator.pairs")),
    ("estimator.over_budget", "count", _c("estimator.over_budget")),
    ("estimator.witness_labels", "count", _c("estimator.witness_labels")),
    ("diagnoser.costed_plant_s", "s", _t("diagnoser.costed_plant")),
    ("diagnoser.costed_plant.states", "count", _c("diagnoser.costed_plant.states")),
    ("diagnoser.costed_plant.transitions", "count", _c("diagnoser.costed_plant.transitions")),
    ("diagnoser.verifier_s", "s", _t("diagnoser.verifier")),
    ("diagnoser.verifier.states", "count", _c("diagnoser.verifier.states")),
    ("diagnoser.verifier.transitions", "count", _c("diagnoser.verifier.transitions")),
    ("diagnoser.cycle_s", "s", _t("diagnoser.cycle")),
    ("diagnoser.witness_steps", "count", _c("diagnoser.witness_steps")),
    ("cmin.corrupted_s", "s", _t("cmin.corrupted")),
    ("cmin.verifier_s", "s", _t("cmin.verifier")),
    ("cmin.verifier.states", "count", _c("cmin.verifier.states")),
    ("cmin.verifier.transitions", "count", _c("cmin.verifier.transitions")),
    ("cmin.free_confusion_s", "s", _t("cmin.free_confusion")),
    ("cmin.ending_states", "count", _c("cmin.ending_states")),
    ("cmin.pareto_s", "s", _t("cmin.pareto")),
    ("cmin.labels_inserted", "count", _c("cmin.labels_inserted")),
    ("cmin.labels_final", "count", _c("cmin.labels_final")),
    ("cmin.self_s", "s", _self("cmin.analyze")),
    ("scc.calls", "count", _n("scc.scc")),
    ("scc.scc_s", "s", _t("scc.scc")),
    ("scc.nodes", "count", _c("scc.nodes")),
    ("scc.components", "count", _c("scc.components")),
    ("scc.cycle_within_s", "s", _t("scc.cycle_within")),
)


def layer_metrics(tracer: Tracer, queries: int) -> dict:
    """Per-query means of every layer metric, plus ``cmin.label_ratio``."""
    out = {name: (read(tracer) / queries, unit) for name, unit, read in LAYER_METRICS}
    inserted = tracer.counts["cmin.labels_inserted"]
    ratio = tracer.counts["cmin.labels_final"] / inserted if inserted else 0.0
    out["cmin.label_ratio"] = (ratio, "ratio")
    return out
