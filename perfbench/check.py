"""Known-answer checks of one query's output.

`judge` returns None for a correct output, or ``(kind, detail)``.  Every
kind counts as a failed query.  ``budget-semantics`` marks the one known
defect: ``diagnose --budget C`` lets the attacker spend ``C + 1``, so it
reports non-diagnosable when the minimum defeating budget is exactly
``C + 1``.  Any other kind means the program produced a wrong answer.
"""

from __future__ import annotations

import json

BUDGET_SEMANTICS = "budget-semantics"


def _label_cost(label: dict, model: dict):
    kind = label.get("type")
    if kind == "plain":
        return 0
    if kind == "del":
        return model["deletions"].get(label["symbol"])
    if kind == "ins":
        return model["insertions"].get(label["symbol"])
    if kind == "sub":
        for entry in model["substitutions"]:
            if (entry["from"], entry["to"]) == (label["from"], label["to"]):
                return entry["cost"]
    return None


def _received_symbol(label: dict):
    if label["type"] in ("plain", "ins"):
        return label["symbol"]
    if label["type"] == "sub":
        return label["to"]
    return None


def _check_estimate(query, data, model):
    expect = query["expect"]
    if data["received"] != expect["received"]:
        return "answer", "received word echoed wrongly"
    costs = {entry["state"]: entry["cost"] for entry in data["estimates"]}
    true_state = expect["true_state"]
    if true_state not in costs:
        return "answer", f"true state {true_state} missing from the estimate"
    if costs[true_state] > expect["spend"]:
        return "answer", f"true state at cost {costs[true_state]} > spend {expect['spend']}"
    if "--witness" not in query["argv"]:
        return None
    for entry in data["estimates"]:
        labels = entry["witness"]
        label_costs = [_label_cost(label, model) for label in labels]
        if None in label_costs or sum(label_costs) != entry["cost"]:
            return "witness", f"witness of state {entry['state']} does not cost {entry['cost']}"
        received = [s for s in map(_received_symbol, labels) if s is not None]
        if received != expect["received"]:
            return "witness", f"witness of state {entry['state']} does not project onto the word"
    return None


def _check_cmin(query, data):
    expect = query["expect"]
    if expect["family"] == "chain":
        if data["cmin"] != expect["cmin"]:
            return "answer", f"cmin {data['cmin']} != k*c = {expect['cmin']}"
        return None
    value = data["cmin"]
    if value is None:
        return None if "reason" in data else ("answer", "null cmin without a reason")
    if not isinstance(value, int) or value < 0:
        return "answer", f"cmin {value!r} is not a budget"
    return None


def _check_diagnose_witness(witness, plant):
    observable, faults = set(plant["observable"]), set(plant["faults"])
    left, right = witness["left_run"], witness["right_run"]
    if [e for e in left if e in observable] != [e for e in right if e in observable]:
        return "witness", "runs have different observable projections"
    if any(e in faults for e in left) == any(e in faults for e in right):
        return "witness", "not exactly one run is faulty"
    return None


def _check_diagnose(query, data, plant, cmin):
    budget = query["expect"]["budget"]
    if data["budget"] != budget or not isinstance(data["diagnosable"], bool):
        return "answer", "malformed verdict"
    failure = None
    expected = cmin is None or budget < cmin
    if data["diagnosable"] != expected:
        if not data["diagnosable"] and cmin == budget + 1:
            failure = BUDGET_SEMANTICS, f"non-diagnosable at budget {budget} but cmin = {cmin}"
        else:
            return "answer", f"diagnosable={data['diagnosable']} at budget {budget}, cmin = {cmin}"
    if "--witness" in query["argv"]:
        if data["diagnosable"]:
            if "witness" in data:
                return "witness", "witness for a diagnosable verdict"
        elif "witness" not in data:
            return "witness", "non-diagnosable verdict without a witness"
        else:
            failure = _check_diagnose_witness(data["witness"], plant) or failure
    return failure


def judge(query, code, stdout, plant, model, cmin=None):
    """Check one output.  `cmin` is the reference minimum budget for a random-family diagnose."""
    if code != 0:
        return "exit-code", f"exit code {code}"
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return "output", f"stdout is not JSON: {exc.msg}"
    try:
        if query["command"] == "estimate":
            return _check_estimate(query, data, model)
        if query["command"] == "cmin":
            return _check_cmin(query, data)
        if query["expect"]["family"] == "chain":
            cmin = query["expect"]["cmin"]
        return _check_diagnose(query, data, plant, cmin)
    except (KeyError, TypeError) as exc:
        return "output", f"missing or mistyped field: {exc!r}"
