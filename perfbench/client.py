"""Workload process: set-up, the timed closed loop, and an optional trace.

``run.py`` starts it as ``python3 client.py WORKDIR SECONDS TRACE`` with the
instance directory as working directory, so the process holds nothing but
the package, the instance files and its own loop.  One client, one thread:
each query starts when the previous one has returned.  Every query goes
through ``tamperest.cli.main(argv)`` with stdout captured, so its time
includes JSON loading and rendering as a command-line user sees them.

It writes ``WORKDIR/results.json`` and, after the round in which each query
first ran, its stdout to ``WORKDIR/out/<id>.txt``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tamperest.cli  # noqa: E402
from tamperest.attacks import load_model  # noqa: E402
from tamperest.automata import load_plant  # noqa: E402

import workloads  # noqa: E402


def setup_time(files) -> float:
    """Seconds to load and validate every (plant, attack table) pair once."""
    start = time.perf_counter()
    for plant_file, model_file in files:
        load_model(model_file).validate_against(load_plant(plant_file))
    return time.perf_counter() - start


def calibration_time() -> float:
    """Seconds for a fixed search over 40 000 pairs of ints, apart from the package.

    It does the set, dict and tuple work of a twin-product search, so its
    median over a run shows how fast the machine ran during that run.
    """
    start = time.perf_counter()
    n = 200
    parent = {(0, 0): None}
    frontier = [(0, 0)]
    while frontier:
        i, j = frontier.pop()
        for successor in (((i * 7 + 1) % n, (j + 3) % n), ((i + 1) % n, (j * 5 + 2) % n)):
            if successor not in parent:
                parent[successor] = (i, j)
                frontier.append(successor)
    return time.perf_counter() - start


def run_query(main, argv) -> tuple:
    """``(exit code, seconds, stdout, error)``; error is None unless the call raised."""
    buffer = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    except Exception as exc:  # a crash is a failed query; the loop goes on
        code, error = None, repr(exc)
    return code, time.perf_counter() - start, buffer.getvalue(), error


def timed_loop(rounds, cycle, seconds, main, out_dir, tracer=None, after=None) -> tuple:
    """Run whole cycles of rounds until `seconds` have passed and DIGEST_ROUNDS are done.

    After every round, outside the loop's time, each stdout is hashed, the
    first stdout of each query is written to `out_dir`, and `after()` runs.
    """
    executions = []
    seen = set()
    start = time.perf_counter()
    aside = 0.0
    r = 0
    while (
        r % cycle
        or r < workloads.DIGEST_ROUNDS
        or time.perf_counter() - start - aside < seconds
    ):
        outputs = []
        for query in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.query = query["id"]
            code, latency, stdout, error = run_query(main, query["argv"])
            if tracer is not None:
                tracer.counts["cli.stdout_bytes"] += len(stdout.encode("utf-8"))
            outputs.append(stdout)
            executions.append(
                {
                    "id": query["id"],
                    "pass": r // len(rounds),
                    "code": code,
                    "latency": latency,
                    "error": error,
                }
            )
        mark = time.perf_counter()
        for execution, stdout in zip(executions[-len(outputs):], outputs):
            execution["digest"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            if execution["id"] not in seen:
                seen.add(execution["id"])
                (out_dir / f"{execution['id']}.txt").write_text(stdout, encoding="utf-8")
        if after is not None:
            after()
        aside += time.perf_counter() - mark
        r += 1
    return executions, time.perf_counter() - start - aside


def main(argv) -> int:
    workdir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    rounds, cycle = manifest["rounds"], manifest["cycle"]
    out_dir = workdir / "out"
    out_dir.mkdir()
    results = {}

    if trace:
        import tracing

        def round_0_s(call) -> float:
            return sum(run_query(call, q["argv"])[1] for q in rounds[0])

        # tracing overhead: round 0 traced against round 0 untraced, both warm
        round_0_s(tamperest.cli.main)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced_main = tracer.wrap(tamperest.cli.main, "cli.main")
        executions, loop_s = timed_loop(rounds, cycle, seconds, traced_main, out_dir, tracer)
        tracer.unpatch()
        layers = tracing.layer_metrics(tracer, len(executions))
        traced = sum(e["latency"] for e in executions[: len(rounds[0])])
        layers["trace.overhead"] = (traced / round_0_s(tamperest.cli.main) - 1.0, "ratio")
        results["layers"] = layers
        tracer.write_spans(Path(manifest["spans"]))
    else:
        # set-up is timed once after every round, so that its median spans the
        # whole run rather than a few seconds of it
        files = sorted({(q["plant"], q["attacks"]) for rnd in rounds for q in rnd})
        setup, calibration = [], []

        def after_round():
            setup.append(setup_time(files))
            calibration.append(calibration_time())

        executions, loop_s = timed_loop(
            rounds, cycle, seconds, tamperest.cli.main, out_dir, after=after_round
        )
        results["setup_s"] = statistics.median(setup)
        results["calibration_s"] = statistics.median(calibration)

    results["executions"] = executions
    results["loop_s"] = loop_s
    results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (workdir / "results.json").write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
