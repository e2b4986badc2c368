"""Correctness gate, run on every item outside the timed region.

Each check returns a ``Verdict``.  ``FAILED`` is an output that is wrong
or missing: an exception, a non-zero exit, an ``error`` or
``undetermined`` status, or any value that disagrees with an oracle.
``INCOMPLETE`` is the one gap the program documents as possible: a
``--witnesses`` report on a field with trivial class group that leaves
out a generator for some Pi_q (the CLI lists generators "where the
bounded search finds one").  Both count against ``ok_frac``; only
``FAILED`` counts in the result's ``failed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from polyakit import cubicfield, permgroup

from workloads import classify, cubic_disc, group_report, mirror

OK, INCOMPLETE, FAILED = "ok", "incomplete", "failed"

# group-side expectations from the paper's lemma table and Frobenius lemma
LEMMA_HOLDS = {f"S{n}": n != 4 for n in range(3, 9)} | {
    f"A{n}": n not in (3, 5) for n in range(3, 9)
}
FROBENIUS = {"S3": True, "A4": True, "F20": True, "D4": False, "C4": False}


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""


def _fail(reason: str) -> Verdict:
    return Verdict(FAILED, reason)


# survey fields that do not depend on which of f(x), -f(-x) was given
FIELD_INVARIANTS = ("disc_K", "index", "h", "invariant_factors", "nr1_full_at")


def load_frozen(root: Path) -> dict:
    """The frozen survey witnesses, keyed by triple (read, never written)."""
    data = json.loads((root / "tests" / "data" / "survey_witnesses.json").read_text())
    return {(w["a2"], w["a1"], w["a0"]): w for w in data["witnesses"]}


def round_two_disc(t) -> int:
    from sympy import Poly, symbols
    from sympy.polys.numberfields.basis import round_two

    x = symbols("x")
    a2, a1, a0 = t
    return int(round_two(Poly(x**3 + a2 * x**2 + a1 * x + a0, x))[1])


def check_survey(t, code, text, frozen: dict) -> Verdict:
    if code != 0:
        return _fail(f"exit {code}: {text[-200:]}")
    rec = json.loads(text)
    if (rec["a2"], rec["a1"], rec["a0"]) != tuple(t):
        return _fail("record is for another triple")
    kind = classify(*t)
    if kind != "field":
        if rec.get("status") != "skipped" or rec.get("skip_reason") != kind:
            return _fail(f"expected skip {kind}, got {rec.get('status')}")
        return Verdict(OK)
    if rec.get("status") != "verified":
        return _fail(f"status {rec.get('status')}: {rec.get('error', '')}")
    h = 1
    for d in rec["invariant_factors"]:
        h *= d
    if rec["h"] != h:
        return _fail(f"h={rec['h']} but invariant factors {rec['invariant_factors']}")
    if rec["disc_poly"] != cubic_disc(*t):
        return _fail("disc_poly wrong")
    if rec["disc_poly"] != rec["disc_K"] * rec["index"] ** 2:
        return _fail("disc_poly != disc_K * index^2")
    if rec["disc_K"] != round_two_disc(t):
        return _fail("disc_K disagrees with sympy round_two")
    want = frozen.get(tuple(t))
    if want is None and mirror(t) in frozen:
        want = {k: frozen[mirror(t)][k] for k in FIELD_INVARIANTS}
    if want is not None:
        diff = [k for k, v in want.items() if rec.get(k) != v]
        if diff:
            return _fail(f"frozen witness fields differ: {diff}")
    return Verdict(OK)


def check_witnesses(t, code, text) -> Verdict:
    if code != 0:
        return _fail(f"exit {code}")
    rep = json.loads(text)
    if rep.get("kind") != "polya" or rep.get("coefficients") != list(t):
        return _fail("not a polya report for this cubic")
    if not rep["status"] == "verified":
        return _fail(f"status {rep['status']}")
    if rep["disc_poly"] != cubic_disc(*t) or rep["disc_poly"] != rep["disc_K"] * rep["index"] ** 2:
        return _fail("discriminants inconsistent")
    order = cubicfield.maximal_order(cubicfield.CubicPoly(*t))
    found = set()
    for w in rep["principal_witnesses"]:
        q, gen = w["q"], tuple(w["generator"])
        if not cubicfield.ideal_equal(
            cubicfield.element_ideal(order, gen), cubicfield.pi_ideal(order, q)
        ):
            return _fail(f"generator {gen} does not generate Pi_{q}")
        found.add(q)
    if rep["certified_trivial"]:
        if rep["class_invariants"]:
            return _fail("certified_trivial with nontrivial invariants")
        # the queries --witnesses makes: Pi_{p^f} for p <= 50, f a residue degree
        missing = [
            p**f
            for p in cubicfield.primes_up_to(50)
            for f in sorted({P.f for P in cubicfield.factor_prime(order, p)})
            if p**f not in found and not cubicfield.pi_ideal(order, p**f).is_unit_ideal()
        ]
        if missing:
            return Verdict(INCOMPLETE, f"no witness for principal Pi_q, q in {missing}")
    return Verdict(OK)


class GroupReference:
    """Reports of the unrelabelled family groups, built by polyakit's own
    ``family_group`` and computed on demand."""

    def __init__(self):
        self._cache: dict[str, tuple[dict, int]] = {}

    def get(self, name: str) -> tuple[dict, int]:
        if name not in self._cache:
            report, H = group_report(name, permgroup.family_group(name))
            self._cache[name] = (report, H.order // permgroup.derived_subgroup(H).order)
        return self._cache[name]


def check_group(name, code, text, ref: GroupReference) -> Verdict:
    if code != 0:
        return _fail(f"exit {code}")
    rep = json.loads(text)
    want, abel_order = ref.get(name)
    got = {k: v for k, v in rep.items() if k != "abelianization"}
    if got != want:
        return _fail(f"report differs from the unrelabelled group's: {got} != {want}")
    if name in LEMMA_HOLDS and rep["condition_2B"] != LEMMA_HOLDS[name]:
        return _fail("condition_2B contradicts the lemma table")
    if name in FROBENIUS and rep["frobenius"] != FROBENIUS[name]:
        return _fail("frobenius contradicts the Frobenius lemma")
    h_ab = 1
    for d in rep["abelianization"]:
        h_ab *= d
    if h_ab != abel_order:
        return _fail(f"|H/H'| = {h_ab} but |H|/|H'| = {abel_order}")
    return Verdict(OK)


class Gate:
    """Runs the workload's check on one item output."""

    def __init__(self, kind: str, root: Path):
        self.kind = kind
        self.frozen = load_frozen(root) if kind == "survey" else {}
        self.groups = GroupReference()

    def check(self, item, code, text) -> Verdict:
        if code is None:
            return _fail(f"raised: {text}")
        try:
            if self.kind == "survey":
                return check_survey(item.data, code, text, self.frozen)
            if self.kind == "witnesses":
                return check_witnesses(item.data, code, text)
            return check_group(item.data[0], code, text, self.groups)
        except (ValueError, KeyError, TypeError) as exc:
            return _fail(f"unreadable output: {exc!r}")

