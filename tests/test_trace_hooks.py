"""The traced benchmark run wraps names in `tamperest` modules; they must all exist and fire."""

import contextlib
import io
from pathlib import Path

from tamperest import fixtures
from tamperest.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_trace_hooks_install(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.unpatch()


def test_traced_commands_record_their_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    def inputs(name):
        return ["--plant", str(fixtures.plant_path(name)), "--attacks", str(fixtures.costs_path(name))]

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            obs = ["--obs", "β α α", "--budget", "2", "--witness"]
            assert main(["estimate", *inputs("estimation"), *obs]) == 0
            assert main(["cmin", *inputs("defeatable")]) == 0
    finally:
        tracer.unpatch()
    spans = {span[0] for span in tracer.spans}
    assert {"estimator.estimate", "cmin.analyze"} <= spans
    assert tracer.calls["automata.reach"] > 0


def test_traced_cmin_witness_records_the_corrupted_automaton_and_cycle_search(monkeypatch):
    """The witness cycle and the ending test both run `scc.cycle_within`, so its metric is not 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    argv = [
        "cmin",
        "--plant", str(fixtures.plant_path("defeatable")),
        "--attacks", str(fixtures.costs_path("defeatable")),
        "--witness",
    ]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    finally:
        tracer.unpatch()
    assert "cmin.corrupted" in {span[0] for span in tracer.spans}
    assert tracer.calls["scc.cycle_within"] > 0
