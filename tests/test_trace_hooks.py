"""The traced benchmark run wraps names in `tamperest` modules; they must all exist."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_trace_hooks_install(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.unpatch()
