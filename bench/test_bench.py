"""Tests of the benchmark itself:  python3 -m pytest bench -q

The gate must reject planted wrong outputs, seeds must change inputs but
not metric names, and every metric must be printed with the unit that
BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from checks import FAILED, INCOMPLETE, OK, Gate  # noqa: E402
from run import tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Item, classify, group_file, poly_text  # noqa: E402

from polyakit import classgroup, cubicfield  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _edit(text, **changes):
    d = json.loads(text)
    d.update(changes)
    return json.dumps(d)


# ---------------------------------------------------------------------------
# planted wrong outputs


def test_survey_gate_rejects_planted_errors():
    wl, gate = WORKLOADS["survey-b12"], Gate("survey", ROOT)
    item = Item("0,4,-1", (0, 4, -1))  # h = 2, in the frozen witness set
    code, text = wl.run_item(item)
    assert gate.check(item, code, text).status == OK
    planted = [
        _edit(text, invariant_factors=[3]),
        _edit(text, h=4, invariant_factors=[4]),  # consistent, but not the frozen value
        _edit(text, disc_K=-284),
        _edit(text, index=2),
        _edit(text, status="error", error="budget"),
        _edit(text, status="undetermined at bound 200"),
        _edit(text, a0=-2),
    ]
    for bad in planted:
        assert gate.check(item, code, bad).status == FAILED, bad
    assert gate.check(item, 3, text).status == FAILED
    assert gate.check(item, None, "RuntimeError()").status == FAILED


def test_survey_gate_checks_skips():
    wl, gate = WORKLOADS["survey-b12"], Gate("survey", ROOT)
    for t, kind in (((0, 0, -8), "reducible"), ((0, -3, 1), "galois")):
        assert classify(*t) == kind
        item = Item("", t)
        code, text = wl.run_item(item)
        assert gate.check(item, code, text).status == OK
        other = "galois" if kind == "reducible" else "reducible"
        assert gate.check(item, code, _edit(text, skip_reason=other)).status == FAILED


def test_witness_gate_rejects_planted_errors():
    wl, gate = WORKLOADS["witnesses"], Gate("witnesses", ROOT)
    item = Item("0,0,-2", (0, 0, -2))  # x^3 - 2, class number 1
    code, text = wl.run_item(item)
    rep = json.loads(text)
    assert code == 0 and rep["certified_trivial"] and len(rep["principal_witnesses"]) >= 2
    assert gate.check(item, code, text).status == OK

    w = rep["principal_witnesses"]
    swapped = [dict(w[0], generator=w[1]["generator"])] + w[1:]
    assert gate.check(item, code, _edit(text, principal_witnesses=swapped)).status == FAILED
    missing = gate.check(item, code, _edit(text, principal_witnesses=w[1:]))
    assert missing.status == INCOMPLETE and str(w[0]["q"]) in missing.reason
    assert gate.check(item, code, _edit(text, status="undetermined at bound 200")).status == FAILED
    assert gate.check(item, 2, "").status == FAILED


def test_group_gate_rejects_planted_errors():
    wl, gate = WORKLOADS["groups"], Gate("groups", ROOT)
    relabel = {4: [2, 0, 3, 1], 5: [2, 0, 4, 1, 3]}
    for name in ("S4", "S5", "A5", "F20", "D4"):
        item = Item(name, (name, group_file(name, relabel[4 if name in ("S4", "D4") else 5])))
        code, text = wl.run_item(item)
        assert gate.check(item, code, text).status == OK, text
        rep = json.loads(text)
        for key in ("condition_2B", "frobenius", "two_transitive"):
            assert gate.check(item, code, _edit(text, **{key: not rep[key]})).status == FAILED
        assert gate.check(item, code, _edit(text, size_T=rep["size_T"] + 1)).status == FAILED
        wrong_ab = rep["abelianization"] + [2]
        assert gate.check(item, code, _edit(text, abelianization=wrong_ab)).status == FAILED


# ---------------------------------------------------------------------------
# inputs and metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_deterministically(name):
    wl = WORKLOADS[name]
    one, again, two = wl.rounds(1)[:2], wl.rounds(1)[:2], wl.rounds(2)[:2]
    assert one == again
    assert one != two
    assert len(one[0]) == len(two[0])


def test_poly_text_round_trips_and_avoids_leading_minus():
    for t in ((-3, 4, 5), (0, -1, -1), (1, 0, 12), (-12, -12, -12)):
        text = poly_text(*t)
        assert text.startswith("x^3")
        assert cubicfield.parse_cubic(text) == cubicfield.CubicPoly(*t)


def test_tail_percentile_keeps_ten_items_beyond():
    assert tail_percentile(list(range(1000)))[0] == 99
    assert tail_percentile(list(range(100)))[0] == 90
    assert tail_percentile(list(range(40)))[0] == 75


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    return proc


def _metrics(*args):
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_every_metric_printed_with_its_unit_for_any_seed():
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    common = ("--workload", "survey-b12", "--seconds", "0.5", "--trace", "0")
    assert _metrics(*common, "--seed", "1") == want
    assert _metrics(*common, "--seed", "2") == want


def test_traced_run_prints_every_per_layer_metric():
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _metrics("--workload", "survey-b12", "--seed", "3", "--seconds", "0.5",
                    "--trace", "1") == want


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for d in SPEC["paths"]:
        shutil.copytree(ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "survey-b12", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_binding_and_restores():
    original = cubicfield.factor_prime
    tracer = Tracer()
    tracer.install()
    try:
        assert classgroup.factor_prime is cubicfield.factor_prime is not original
        order = cubicfield.maximal_order(cubicfield.CubicPoly(0, 4, -1))
        token = tracer.begin_item(0)
        classgroup.class_group(order)
        tracer.end_item(token)
    finally:
        tracer.uninstall()
    assert classgroup.factor_prime is cubicfield.factor_prime is original
    totals = tracer.layer_totals()
    assert totals["classgroup.class_group"][0] == 1
    assert totals["cubicfield.factor_prime"][0] > 0
    item_total = sum(end - start for _, parent, _, _, start, end in tracer.spans if parent is None)
    assert 0 <= sum(s for _, s in totals.values()) <= item_total + 1e-9
    metrics = tracer.per_layer_metrics()
    assert metrics["classgroup.class_group.certified_trivial_frac"][0] == 0.0
    assert metrics["cubicfield.MaximalOrder.norm_omega.calls"][0] > 0
