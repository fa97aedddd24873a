"""The three benchmark workloads: seeded rounds of CLI queries with known answers.

A workload is a sequence of rounds.  Every round has the same composition
(instance families, sizes, budgets, share of ``--witness`` queries), so a
run that executes whole rounds measures the same mix whatever the seed; the
seed only changes the random structure of the instances.

Each query is a dict with ``id``, ``round``, ``argv`` (a ``tamperest``
command line whose file names are relative to the instance directory),
``plant`` and ``attacks`` (those file names) and ``expect`` (what
:mod:`check` needs to judge the output).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import generate

WORKLOADS = ("estimate-stream", "cmin-scale", "diagnose-budgets")

#: Rounds written per run.  The timed loop starts again at round 0 if a run
#: gets through all of them.
ROUNDS = 24

#: The timed loop always completes this many rounds; their non-witness
#: outputs form the run's digest.
DIGEST_ROUNDS = 2

#: Rounds after which a workload's mix repeats (the witness slot of
#: estimate-stream alternates).  The timed loop stops only at the end of a
#: cycle, so every run measures the same mix, however many rounds it gets
#: through; a short cycle keeps the number of queries a run makes from
#: jumping between runs.
CYCLES = {"estimate-stream": 2, "cmin-scale": 1, "diagnose-budgets": 1}

ESTIMATE_STATES = 200
#: The middle size comes three times a round: the median falls among those
#: queries and rests on three times as many instances as any other size.
CMIN_SIZES = (15, 22, 29, 29, 29, 36, 43)
DIAGNOSE_MAX_BUDGET = 3
#: (k, c) of the sig-chain plants in diagnose-budgets; k*c is 1, 2, 2, 4.
DIAGNOSE_CHAINS = ((1, 1), (1, 2), (2, 1), (2, 2))
#: Plant size per diagnose budget, so that every query does similar work.
DIAGNOSE_CHAIN_SIZES = {0: 25, 1: 17, 2: 13, 3: 10}
DIAGNOSE_RANDOM_SIZES = {0: 20, 1: 14}


class _Writer:
    """Writes instance files into one directory and names them."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def instance(self, plant: dict, model: dict) -> tuple:
        name = f"i{self.count:04d}"
        self.count += 1
        plant_file, model_file = f"{name}.plant.json", f"{name}.attacks.json"
        (self.directory / plant_file).write_text(json.dumps(plant), encoding="utf-8")
        (self.directory / model_file).write_text(json.dumps(model), encoding="utf-8")
        return plant_file, model_file


def _query(qid, round_no, command, files, extra, expect) -> dict:
    plant_file, model_file = files
    return {
        "id": qid,
        "round": round_no,
        "command": command,
        "argv": [command, "--plant", plant_file, "--attacks", model_file] + extra,
        "plant": plant_file,
        "attacks": model_file,
        "expect": expect,
    }


def _estimate_round(rng, r, writer) -> list:
    """Four 200-state estimates: with/without deletions x budget 3/4, one with --witness.

    The witness goes on the deletion query at budget 3 in even rounds and on
    the one without deletions at budget 4 in odd rounds.

    Deletion relaxation makes a symbol about 2.5 times as dear, so words for
    models with deletions are 100-110 symbols long and the others 190-200,
    the two ends of the 100-200 range.  Queries without deletions still take
    about a fifth less time, but without --witness they are only 3 of the 8
    queries of a cycle, so the median falls inside the dearer queries and
    not in the gap between the two kinds.
    """
    queries = []
    for slot in range(4):
        budget = 3 + slot % 2
        deletions = 2 if slot < 2 else 0
        plant = generate.random_plant(rng, ESTIMATE_STATES)
        model = generate.random_model(rng, deletions=deletions)
        length = (100 if deletions else 190) + rng.randint(0, 10)
        observation, true_state = generate.random_run(rng, plant, length)
        received, spend = generate.tamper(rng, observation, model, budget)
        extra = ["--obs", " ".join(received), "--budget", str(budget)]
        if slot == 3 * (r % 2):
            extra.append("--witness")
        expect = {"true_state": true_state, "spend": spend, "received": list(received)}
        files = writer.instance(plant, model)
        queries.append(_query(f"r{r}s{slot}", r, "estimate", files, extra, expect))
    return queries


def _cmin_round(rng, r, writer) -> list:
    """Seven plants, one per entry of CMIN_SIZES, sig-chain at odd slots and random at even ones.

    Latency rises with size, so the median falls among the 29-state plants:
    two random plants (one with deletions in its attack table) and one
    sig-chain plant.
    """
    queries = []
    for slot, size in enumerate(CMIN_SIZES):
        deletions = 2 * (1 - slot // 2 % 2)
        if slot % 2:
            k, c = rng.randint(1, 3), rng.randint(1, 2)
            plant, model = generate.sig_chain(rng, size - k, k, c, deletions=deletions)
            expect = {"family": "chain", "cmin": k * c}
        else:
            plant = generate.random_plant(rng, size)
            model = generate.random_model(rng, deletions=deletions)
            expect = {"family": "random"}
        files = writer.instance(plant, model)
        queries.append(_query(f"r{r}s{slot}", r, "cmin", files, [], expect))
    return queries


def _diagnose_round(rng, r, writer) -> list:
    """Sig-chain plants at budgets {0, k*c-1, k*c} (at most 3) and random plants at budget 0 and 1.

    Each query gets its own plant, sized by its budget so that every query
    does about the same work: the layered verifier is bounded by
    (2 n (B+2))^2 states, and n (B+2) is 50-52 for every budget.
    """
    queries = []
    for slot, (k, c) in enumerate(DIAGNOSE_CHAINS):
        deletions = 2 * (slot % 2)
        budgets = sorted(b for b in {0, k * c - 1, k * c} if b <= DIAGNOSE_MAX_BUDGET)
        for budget in budgets:
            size = DIAGNOSE_CHAIN_SIZES[budget]
            plant, model = generate.sig_chain(rng, size - k, k, c, deletions=deletions)
            files = writer.instance(plant, model)
            # the witness goes on the largest budget, non-diagnosable when k*c <= 3
            extra = ["--budget", str(budget)] + (["--witness"] if budget == budgets[-1] else [])
            expect = {"family": "chain", "cmin": k * c, "budget": budget}
            queries.append(_query(f"r{r}s{slot}c{budget}", r, "diagnose", files, extra, expect))
    for slot, budget in enumerate((0, 0, 1, 1)):
        plant = generate.random_plant(rng, DIAGNOSE_RANDOM_SIZES[budget])
        model = generate.random_model(rng, deletions=2 * (slot % 2))
        files = writer.instance(plant, model)
        expect = {"family": "random", "budget": budget}
        extra = ["--budget", str(budget)]
        queries.append(_query(f"r{r}x{slot}b{budget}", r, "diagnose", files, extra, expect))
    return queries


_ROUND_BUILDERS = {
    "estimate-stream": _estimate_round,
    "cmin-scale": _cmin_round,
    "diagnose-budgets": _diagnose_round,
}


def build(workload: str, seed: int, directory: Path, rounds: int = ROUNDS) -> list:
    """Write the instance files of `workload` for `seed` into `directory`; return its rounds."""
    writer = _Writer(directory)
    builder = _ROUND_BUILDERS[workload]
    return [
        builder(random.Random(f"{workload}/{seed}/{r}"), r, writer) for r in range(rounds)
    ]
