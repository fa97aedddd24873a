"""Seeded known-answer benchmark for ``tamperest estimate``, ``cmin`` and ``diagnose``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                    # every workload, untraced and traced

Run from the repository root; the package is imported from ``src/``.  For
one workload the program writes the seeded instance files, starts one
workload process (``client.py``) that times whole rounds of queries for at
least ``--seconds``, checks every output against its known answer, and prints
the metrics by name and unit.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or the per-layer metrics with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(latencies) -> tuple:
    """``(value, percentile)``: the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n


def run_digest(queries_by_id, executions) -> str:
    """Hash of every non-witness stdout of the first DIGEST_ROUNDS rounds, in order."""
    h = hashlib.sha256()
    for e in executions:
        query = queries_by_id[e["id"]]
        if e["pass"] == 0 and query["round"] < workloads.DIGEST_ROUNDS and "--witness" not in query["argv"]:
            h.update(f"{e['id']} {e['digest']}\n".encode("ascii"))
    return h.hexdigest()


def reference_digest(workload: str, seed: int):
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return table.get(f"{workload}/{seed}")


def judge_outputs(workdir, queries_by_id, executions) -> dict:
    """Failure (or None) for every distinct query that ran."""
    from tamperest.attacks import load_model
    from tamperest.automata import load_plant
    from tamperest.cmin import minimum_defeating_budget

    inst = workdir / "inst"
    verdicts = {}
    for e in executions:
        qid = e["id"]
        if qid in verdicts:
            continue
        query = queries_by_id[qid]
        if e["error"] is not None:
            verdicts[qid] = ("exception", e["error"])
            continue
        stdout = (workdir / "out" / f"{qid}.txt").read_text(encoding="utf-8")
        plant = json.loads((inst / query["plant"]).read_text(encoding="utf-8"))
        model = json.loads((inst / query["attacks"]).read_text(encoding="utf-8"))
        cmin = None
        if query["command"] == "diagnose" and query["expect"]["family"] == "random":
            # the reference is the program's own cmin: diagnose(C) must agree with cmin <= C
            cmin = minimum_defeating_budget(
                load_plant(inst / query["plant"]), load_model(inst / query["attacks"])
            )
        verdicts[qid] = check.judge(query, e["code"], stdout, plant, model, cmin)
    # a repeated query must print the same bytes every time
    first = {}
    for e in executions:
        if first.setdefault(e["id"], e["digest"]) != e["digest"] and verdicts[e["id"]] is None:
            verdicts[e["id"]] = ("nondeterministic", "stdout changed between executions")
    return verdicts


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate, run the workload process, check; returns the report."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{seed}-{'trace' if trace else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inst").mkdir(parents=True)
    try:
        rounds = workloads.build(workload, seed, workdir / "inst")
        if trace:
            SPANS.mkdir(exist_ok=True)
        manifest = {
            "rounds": rounds,
            "cycle": workloads.CYCLES[workload],
            "spans": str(SPANS / f"{workload}-{seed}.jsonl"),
        }
        (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        # a fixed hash seed keeps set and dict layouts, and so the work done, equal across runs
        subprocess.run(
            [sys.executable, str(HERE / "client.py"), str(workdir), str(seconds), str(int(trace))],
            cwd=workdir / "inst",
            env=dict(os.environ, PYTHONHASHSEED="0"),
            stdout=subprocess.DEVNULL,
            # the loop overruns --seconds by at most a cycle plus set-up times
            timeout=2 * seconds + 60,
            check=True,
        )
        results = json.loads((workdir / "results.json").read_text(encoding="utf-8"))
        queries_by_id = {q["id"]: q for rnd in rounds for q in rnd}
        executions = results["executions"]
        verdicts = judge_outputs(workdir, queries_by_id, executions)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [verdicts[e["id"]] for e in executions if verdicts[e["id"]] is not None]
    report = {
        "workload": workload,
        "seed": seed,
        "attempted": len(executions),
        "failed": len(failures),
        "kinds": sorted({kind for kind, _ in failures}),
        "examples": sorted({f"{qid}: {v[0]}: {v[1]}" for qid, v in verdicts.items() if v})[:5],
        "digest": run_digest(queries_by_id, executions),
        "reference_digest": reference_digest(workload, seed),
    }
    if trace:
        report["metrics"] = results["layers"]
        return report
    latencies = [e["latency"] for e in executions]
    tail_value, percentile = tail(latencies)
    report["tail_percentile"] = percentile
    report["calibration_s"] = results["calibration_s"]
    report["metrics"] = {
        "queries_per_s": (len(executions) / results["loop_s"], "1/s"),
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.tail": (tail_value, "s"),
        "setup_s": (results["setup_s"], "s"),
        "peak_rss_mb": (results["peak_rss_mb"], "MB"),
    }
    return report


def print_report(report: dict):
    w = report["workload"]
    for name, (value, unit) in report["metrics"].items():
        print(f"{w}  {name:36s} {value:14.6f} {unit}")
    share = report["failed"] / report["attempted"]
    print(f"{w}  {'failed_share':36s} {share:14.6f} share  ({report['failed']}/{report['attempted']})")
    if "tail_percentile" in report:
        print(
            f"{w}  latency_s.tail is p{report['tail_percentile']:.1f} "
            f"of {report['attempted']} samples"
        )
    if "calibration_s" in report:
        print(
            f"{w}  machine speed: calibration loop median {report['calibration_s']:.6f} s "
            "(not a metric)"
        )
    for example in report["examples"]:
        print(f"{w}  failure {example}")
    reference = report["reference_digest"]
    status = (
        "no reference for this seed"
        if reference is None
        else "matches the reference" if reference == report["digest"] else "DIFFERS from the reference"
    )
    print(f"{w}  digest {report['digest']} ({status})")


def is_correct(report: dict) -> bool:
    """Every failure is the known budget-semantics disagreement (see check.py)."""
    return set(report["kinds"]) <= {check.BUDGET_SEMANTICS}


def result_line(reports, prefix: bool) -> str:
    metrics = {}
    for report in reports:
        for name, (value, unit) in report["metrics"].items():
            key = f"{report['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": all(is_correct(r) for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 for one workload; both for all of them")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tamperest" / "__init__.py").is_file():
        print(f"perfbench: no tamperest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload is not None:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(report)
        print(result_line([report], prefix=False))
        return 0
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    reports = []
    for trace in traces:
        for workload in workloads.WORKLOADS:
            report = run_workload(workload, args.seed, args.seconds, trace)
            print_report(report)
            reports.append(report)
    print(result_line(reports, prefix=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
