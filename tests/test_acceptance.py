"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every tolerance and bound is pinned here; nothing is deferred to
runtime calibration.  Criterion 7 re-runs the full coefficient survey,
which takes a few minutes on one core.
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import groupcorpus
from polyakit import (
    IntegralIdeal,
    abelianization,
    check_condition_2B,
    class_group,
    compose,
    compute_T,
    coset_action,
    cycle_structure,
    factor_prime,
    family_group,
    ideal_product,
    is_frobenius,
    maximal_order,
    ostrowski_check,
    parse_cubic,
    pi_ideal,
    point_stabilizer,
)
from polyakit.cli import _census_rows, main, survey_field
from polyakit.cubicfield import primes_up_to
from polyakit.permgroup import generated_subgroup

from fieldref import scalar_ideal
from groupcorpus import action_image, normal_core, pi_class

DATA = Path(__file__).parent / "data"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_lemma_table():
    t0 = time.monotonic()
    results = {}
    for n in range(3, 9):
        for fam in "SA":
            g = family_group(f"{fam}{n}")
            h = point_stabilizer(g, n - 1)
            results[(fam, n)] = check_condition_2B(g, h).holds
    expected = {
        ("S", n): (n != 4) for n in range(3, 9)
    } | {
        ("A", n): (n not in (3, 5)) for n in range(3, 9)
    }
    elapsed = time.monotonic() - t0
    ok = results == expected and elapsed < 60
    report(1, ok, f"S/A tables n=3..8 exact match, {elapsed:.1f}s (< 60s)")


def test_criterion_02_frobenius_lemma():
    frobenius_cases = [
        ("S3", family_group("S3")),
        ("A4", family_group("A4")),
        ("F20", family_group("F20")),
        ("C7:C3", groupcorpus.c7_c3()),
    ]
    ok = True
    details = []
    for name, g in frobenius_cases:
        h = point_stabilizer(g, g.degree - 1)
        act = coset_action(g, h)
        frob = is_frobenius(g, act)
        T = compute_T(g, h, act)
        t_shape = T == {x for x in h.elements if x != h.identity}
        holds = check_condition_2B(g, h, act).holds
        ok = ok and frob and t_shape and holds
        details.append(f"{name}:{frob and t_shape and holds}")
    for name, g in (("D4", family_group("D4")), ("C4", family_group("C4"))):
        h = point_stabilizer(g, g.degree - 1)
        act = coset_action(g, h)
        neg = not is_frobenius(g, act)
        ok = ok and neg
        details.append(f"{name}:not-frobenius={neg}")
    report(2, ok, ", ".join(details))


def test_criterion_03_representative_independence():
    rng = random.Random(283)
    pairs = [
        (name, g, h)
        for name, g, h in groupcorpus.corpus_with_degree8()
        if g.degree <= 7
    ]
    prepared = []
    for name, g, h in pairs:
        act = coset_action(g, h)
        ab = abelianization(h)
        prepared.append((name, act, ab, sorted(g.elements), sorted(h.elements)))
    samples = 10000
    failures = 0
    for _ in range(samples):
        name, act, ab, gels, hels = prepared[rng.randrange(len(prepared))]
        g = gels[rng.randrange(len(gels))]
        reps = [compose(hels[rng.randrange(len(hels))], s) for s in act.representatives]
        fs = sorted({f for f, _ in cycle_structure(g, act)})
        f = fs[rng.randrange(len(fs))]
        if pi_class(g, f, act, ab) != pi_class(g, f, act, ab, reps=reps):
            failures += 1
    report(3, failures == 0, f"{samples} perturbed-representative samples, {failures} failures")


def test_criterion_04_t_t0_and_core_lemmas():
    checked = 0
    failures = []
    for name, g, h in groupcorpus.corpus():
        if g.order > 360 or len(g.orbit(0)) != g.degree:
            continue
        act = coset_action(g, h)
        T = compute_T(g, h, act)
        image, hom = action_image(act)
        h0 = generated_subgroup(image.degree, {hom[x] for x in h.elements})
        if h0.order < image.order:
            T0 = compute_T(image, h0)
            for x in h.elements:
                if (x in T) != (hom[x] in T0):
                    failures.append((name, x))
            checked += 1
        if T:
            core = normal_core(g, h)
            span = generated_subgroup(g.degree, T)
            if not core.elements <= span.elements:
                failures.append((name, "core"))
    report(4, checked > 10 and not failures,
           f"{checked} transitive pairs |G|<=360, failures={failures!r}")


def test_criterion_05_pi_product_identity():
    t0 = time.monotonic()
    bad = []
    for s in ("x^3-2", "x^3-x-1", "x^3-x^2-2x-8"):
        order = maximal_order(parse_cubic(s))
        for p in primes_up_to(500):
            if order.disc_K % p == 0:
                continue
            acc = IntegralIdeal.unit()
            for f in sorted({q.f for q in factor_prime(order, p)}):
                acc = ideal_product(order, acc, pi_ideal(order, p**f))
            if acc != scalar_ideal(p):
                bad.append((s, p))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30
    report(5, ok, f"3 fields, unramified p<=500, exact HNF equality, {elapsed:.1f}s (< 30s)")


def test_criterion_06_main_theorem_h1(capsys):
    ok = True
    details = []
    for poly in ("x^3-2", "x^3-x-1"):
        code = main(["field-analyze", poly, "--prime-bound", "50"])
        out = capsys.readouterr().out
        rep = json.loads(out)
        good = (
            code == 0
            and rep["class_invariants"] == []
            and rep["equalities"]["cl_eq_po"]
            and rep["equalities"]["po_eq_po_nr"]
            and rep["equalities"]["po_nr_eq_po_nr1"]
            and rep["equalities"]["all_equal"]
        )
        ok = ok and good
        details.append(f"{poly}: h=1, equalities={good}")
    with capsys.disabled():
        report(6, ok, "; ".join(details))


# sha256 of `polyakit survey --coeff-bound 12` stdout (prime bound 200)
SURVEY_B12_SHA256 = "be19fc87693e18ea9428bc2eae5ba151247c8f1de03c0b2772babdfdc2b83f69"


def test_criterion_07_survey_nontrivial_witnesses():
    frozen = json.loads((DATA / "survey_witnesses.json").read_text())
    bound = frozen["coeff_bound"]
    counts = {"verified": 0, "undetermined": 0, "skipped": 0, "error": 0}
    nontrivial = {}
    # the records come in CLI order, so they hash as `survey` stdout does
    digest = hashlib.sha256()
    for a2 in range(-bound, bound + 1):
        for a1 in range(-bound, bound + 1):
            for a0 in range(-bound, bound + 1):
                rec = survey_field((a2, a1, a0), frozen["prime_bound"])
                digest.update((json.dumps(rec) + "\n").encode())
                counts[rec["status"]] += 1
                if rec.get("h", 1) > 1:
                    nontrivial[(a2, a1, a0)] = rec
    ok = len(nontrivial) > 0
    bad_fields = [
        k
        for k, r in nontrivial.items()
        if r["status"] != "verified" or r["nr1_full_at"] is None or r["nr1_full_at"] > 200
    ]
    ok = ok and not bad_fields and counts == {
        k: frozen["summary"][k] for k in ("verified", "undetermined", "skipped", "error")
    }
    ok = ok and len(nontrivial) == frozen["summary"]["nontrivial"]
    max_full = max(r["nr1_full_at"] for r in nontrivial.values())
    ok = ok and max_full == frozen["summary"]["max_nr1_full_at"]
    same_bytes = digest.hexdigest() == SURVEY_B12_SHA256
    ok = ok and same_bytes
    for w in frozen["witnesses"]:
        rec = nontrivial.get((w["a2"], w["a1"], w["a0"]))
        ok = ok and rec is not None
        for key in ("disc_K", "index", "h", "invariant_factors", "nr1_full_at"):
            ok = ok and rec[key] == w[key]
    report(
        7,
        ok,
        f"survey |a_i|<={bound}: {len(nontrivial)} nontrivial fields, all reach "
        f"Po_nr1 = Cl by p<={max_full}, {len(frozen['witnesses'])} frozen witnesses match, "
        f"survey stdout sha256 matches={same_bytes}, bad={bad_fields[:3]!r}",
    )


def test_criterion_08_ostrowski_galois():
    order = maximal_order(parse_cubic("x^3-3x-1"))
    records = list(ostrowski_check(order, 500))
    ok = bool(records) and all(r["principal"] for r in records)
    report(8, ok, f"cyclic cubic: {len(records)} split products p<=500 all principal")


def test_criterion_09_chebotarev_census():
    t0 = time.monotonic()
    rows = _census_rows(parse_cubic("x^3-2"), 10000)
    elapsed = time.monotonic() - t0
    expected = {"1+1+1": Fraction(1, 6), "1+2": Fraction(1, 2), "3": Fraction(1, 3)}
    ok = {r["splitting_type"] for r in rows} == set(expected)
    deviations = {}
    for r in rows:
        dev = abs(Fraction(r["frequency"]) - expected[r["splitting_type"]])
        deviations[r["splitting_type"]] = float(dev)
        ok = ok and dev < Fraction(5, 100)
        ok = ok and Fraction(r["predicted_density"]) == expected[r["splitting_type"]]
    ok = ok and elapsed < 10
    report(9, ok, f"census 10^4: deviations {deviations}, {elapsed:.1f}s (< 10s)")


def test_criterion_10_class_group_stability():
    fixtures = ("x^3-2", "x^3-x-1", "x^3-x^2-2x-8", "x^3-3x-1", "x^3+4x-1")
    ok = True
    details = []
    for s in fixtures:
        order = maximal_order(parse_cubic(s))
        a = class_group(order, budget=4, verify_stability=False)
        b = class_group(order, budget=8, verify_stability=False)
        same = a.snf.invariant_factors == b.snf.invariant_factors
        ok = ok and same
        details.append(f"{s}:{list(a.snf.invariant_factors)}")
    report(10, ok, "budget 4 vs 8 invariant factors: " + ", ".join(details))
