"""Seeded inputs and one-item runners for the benchmark workloads.

Each field workload has a pinned panel: its input population, sorted by
a cost proxy computed here from the inputs alone (skipped or not, then
|disc|), is cut into equal strata and dealt into rounds of one item per
stratum, with a fixed shuffle.  Any whole number of rounds is then a
proportionally stratified sample, and every run covers the same fields,
so runs compare like with like.  The run seed shuffles each round and,
in the surveys, picks each triple's presentation: f(x) or -f(-x), which
define the same field at the same survey cost.  ``witnesses`` keeps the
given presentation, because the principality search walks a basis that
depends on it.  The group workload is pinned to
its 25 groups; the seed relabels their points and orders each round.
The timed loop in ``run.py`` always finishes the round it is in.

``run_item`` is the only code inside the timed region: it calls the
public polyakit API and returns ``(exit_code, output_text)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

from polyakit import artin, cli, permgroup

PRIME_BOUND = 200  # the survey's and field-analyze's default
GROUP_NAMES = [f"{f}{n}" for f in "SADC" for n in range(3, 9)] + ["F20"]


@dataclass(frozen=True)
class Item:
    key: str
    data: tuple


# ---------------------------------------------------------------------------
# cubic inputs, classified without polyakit


def cubic_disc(a2: int, a1: int, a0: int) -> int:
    return 18 * a2 * a1 * a0 - 4 * a2**3 * a0 + a2 * a2 * a1 * a1 - 4 * a1**3 - 27 * a0 * a0


_DIVISORS = {n: [d for d in range(1, n + 1) if n % d == 0] for n in range(1, 25)}


def classify(a2: int, a1: int, a0: int) -> str:
    """'reducible', 'galois' or 'field' for x^3 + a2 x^2 + a1 x + a0 with
    |a0| <= 24: reducible iff there is an integer root (it divides a0),
    Galois iff irreducible with square discriminant."""
    if a0 == 0:
        return "reducible"
    for d in _DIVISORS[abs(a0)]:
        for r in (d, -d):
            if ((r + a2) * r + a1) * r + a0 == 0:
                return "reducible"
    disc = cubic_disc(a2, a1, a0)
    if disc > 0 and math.isqrt(disc) ** 2 == disc:
        return "galois"
    return "field"


def poly_text(a2: int, a1: int, a0: int) -> str:
    """x^3+... form.  A bare triple with a leading minus ("-3,4,5") is
    read by argparse as an option, so the CLI is given this form."""
    out = "x^3"
    for c, power in ((a2, "x^2"), (a1, "x"), (a0, "")):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 and power else str(abs(c))
        out += ("+" if c > 0 else "-") + mag + power
    return out


def box_triples(inner: int, outer: int) -> list[tuple[int, int, int]]:
    """Triples with inner < max|a_i| <= outer (inner = -1: the whole box)."""
    r = range(-outer, outer + 1)
    return [
        (a2, a1, a0)
        for a2 in r
        for a1 in r
        for a0 in r
        if max(abs(a2), abs(a1), abs(a0)) > inner
    ]


def _disc_cost(t):
    return (classify(*t) != "field", abs(cubic_disc(*t)))


def pinned_panel(name: str, population, strata: int):
    """Rounds of one triple per cost stratum, in a fixed order."""
    rng = random.Random(f"{name}:panel")
    ordered = sorted(population, key=_disc_cost)
    n = len(ordered)
    groups = [ordered[i * n // strata:(i + 1) * n // strata] for i in range(strata)]
    for g in groups:
        rng.shuffle(g)
    return [[g[r] for g in groups] for r in range(min(len(g) for g in groups))]


def mirror(t):
    """-f(-x): the same field, with a2 and a0 negated."""
    return (-t[0], t[1], -t[2])


def seeded_panel(name: str, panel, seed: int, mirrored: bool) -> list[list[Item]]:
    rng = random.Random(f"{name}:{seed}")
    rounds = []
    for rnd in panel:
        items = [mirror(t) if mirrored and rng.random() < 0.5 else t for t in rnd]
        rng.shuffle(items)
        rounds.append([Item(",".join(map(str, t)), t) for t in items])
    return rounds


# ---------------------------------------------------------------------------
# workloads


class SurveyWorkload:
    """One ``cli.survey_field(t, 200)`` call per triple, as ``survey`` makes.

    ``round_s`` is the reference seconds one round takes (see run.py)."""

    kind = "survey"
    mirrored = True

    def __init__(self, name: str, inner: int, outer: int, strata: int, round_s: float):
        self.name, self.inner, self.outer = name, inner, outer
        self.strata, self.round_s = strata, round_s

    def population(self):
        return box_triples(self.inner, self.outer)

    def rounds(self, seed: int) -> list[list[Item]]:
        panel = pinned_panel(self.name, self.population(), self.strata)
        return seeded_panel(self.name, panel, seed, self.mirrored)

    def run_item(self, item: Item) -> tuple[int, str]:
        return 0, json.dumps(cli.survey_field(item.data, PRIME_BOUND))


class WitnessWorkload(SurveyWorkload):
    """``field-analyze <poly> --witnesses`` through ``cli.main`` on
    non-Galois irreducible triples of the |a_i| <= 12 box."""

    kind = "witnesses"
    mirrored = False

    def __init__(self, strata: int, round_s: float):
        super().__init__("witnesses", -1, 12, strata, round_s)

    def population(self):
        return [t for t in super().population() if classify(*t) == "field"]

    def run_item(self, item: Item) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["field-analyze", poly_text(*item.data), "--witnesses"])
        return code, out.getvalue()


def family_generators(name: str) -> tuple[int, list[tuple[int, ...]]]:
    """Degree and 0-indexed generator images of a family token."""
    if name == "F20":
        return 5, [tuple((i + 1) % 5 for i in range(5)), tuple((2 * i) % 5 for i in range(5))]
    letter, n = name[0], int(name[1:])

    def cycle(points):
        img = list(range(n))
        for a, b in zip(points, points[1:] + points[:1]):
            img[a] = b
        return tuple(img)

    rot = cycle(list(range(n)))
    if letter == "S":
        return n, [cycle([0, 1]), rot]
    if letter == "A":
        gens = [cycle([0, 1, 2])]
        if n > 3:
            gens.append(cycle(list(range(n)) if n % 2 else list(range(1, n))))
        return n, gens
    if letter == "D":
        return n, [rot, tuple((n - i) % n for i in range(n))]
    return n, [rot]


def cycle_notation(images: tuple[int, ...]) -> str:
    seen, parts = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x + 1)
            x = images[x]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def group_file(name: str, relabel: list[int]) -> str:
    """Generator file of the family group conjugated by the point map
    i -> relabel[i]."""
    degree, gens = family_generators(name)
    lines = [f"degree={degree}"]
    for g in gens:
        img = [0] * degree
        for i in range(degree):
            img[relabel[i]] = relabel[g[i]]
        lines.append(cycle_notation(tuple(img)))
    return "\n".join(lines) + "\n"


def group_report(name: str, G) -> tuple[dict, object]:
    """The report ``group-check`` prints for G, and G's stabilizer H of
    its last point."""
    H = permgroup.point_stabilizer(G, G.degree - 1)
    action = permgroup.coset_action(G, H)
    cond = permgroup.check_condition_2B(G, H, action)
    report = {
        "group": name,
        "order_G": G.order,
        "order_H": H.order,
        "size_T": len(cond.T),
        "condition_2B": cond.holds,
        "frobenius": permgroup.is_frobenius(G, action),
        "two_transitive": permgroup.is_2transitive(G, action),
    }
    return report, H


class GroupWorkload:
    """Parse a relabelled generator file, make the calls ``group-check``
    makes for its report, and abelianize the point stabilizer H."""

    kind = "groups"
    name = "groups"
    round_s = 1.9

    def rounds(self, seed: int, count: int = 200) -> list[list[Item]]:
        rng = random.Random(f"{self.name}:{seed}")
        rounds = []
        for _ in range(count):
            rnd = []
            for name in GROUP_NAMES:
                degree = family_generators(name)[0]
                relabel = list(range(degree))
                rng.shuffle(relabel)
                rnd.append(Item(name, (name, group_file(name, relabel))))
            rng.shuffle(rnd)
            rounds.append(rnd)
        return rounds

    def run_item(self, item: Item) -> tuple[int, str]:
        name, text = item.data
        report, H = group_report(name, permgroup.parse_group_file(text))
        report["abelianization"] = list(artin.abelianization(H).group.invariant_factors)
        return 0, json.dumps(report)


WORKLOADS = {
    w.name: w
    for w in (
        SurveyWorkload("survey-b12", -1, 12, strata=50, round_s=0.65),
        SurveyWorkload("survey-wide", 12, 24, strata=20, round_s=2.0),
        WitnessWorkload(strata=30, round_s=3.9),
        GroupWorkload(),
    )
}
