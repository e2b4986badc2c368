"""Batch front-end: group criterion checks, field analysis, coefficient
surveys, and splitting censuses, with machine-readable output.

Each subcommand accepts only the options it reads:

- group-check: --family, --n, --format, --max-closure
- field-analyze: --witnesses, --prime-bound, --max-enum, --budget
- survey: --coeff-bound, --only-nontrivial, --prime-bound, --budget, --workers
- census: --prime-bound, --format

Exit codes: 0 success, 2 malformed input (an option the subcommand does
not take included), 3 budget exceeded, 4 class group inconclusive at
budget.  Reports go to stdout (UTF-8), diagnostics to stderr.
Identical inputs and budgets produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction

from . import classgroup, cubicfield, permgroup
from .artin import chebotarev_densities
from .cubicfield import (
    ClassGroupInconclusiveError,
    CubicPoly,
    ReduciblePolynomialError,
    SearchBudgetExceededError,
)
from .permgroup import GroupTooLargeError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INCONCLUSIVE = 4


class _ParseFailure(Exception):
    pass


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _emit_report(report: dict) -> None:
    """Print a report as the line json.dumps(report) would be, writing a
    value that is an iterator (the Galois sweep's records) a slice of
    items at a time as it is walked, so its list is never held."""
    write = sys.stdout.write
    lead = "{"
    for key, value in report.items():
        write(f"{lead}{json.dumps(key)}: ")
        lead = ", "
        if not isinstance(value, Iterator):
            write(json.dumps(value))
            continue
        write("[")
        sep = ""
        while items := list(itertools.islice(value, 4096)):
            write(sep + json.dumps(items)[1:-1])
            sep = ", "
        write("]")
    write("}\n")


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _emit_rows(rows: list[dict], fmt: str, columns: tuple[str, ...]) -> None:
    """Print rows as JSON lines, or as CSV under a `columns` header, with
    an empty cell for a column a row lacks."""
    if fmt == "json":
        for row in rows:
            _emit(json.dumps(row))
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# group-check

_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _expand_group_specs(args) -> list[tuple[str, str]]:
    """Resolve CLI group selectors to (name, kind) pairs, kind in
    {family, file}.  A range's upper end is checked against the degree
    cap and the closure ceiling before any name is listed."""
    specs: list[tuple[str, str]] = []
    if args.n is not None and args.family in (None, "F20"):
        raise _ParseFailure("--n needs --family S, A, D or C")
    if args.family == "F20":
        specs.append(("F20", "family"))
    elif args.family:
        if not args.n:
            raise _ParseFailure("--family needs --n RANGE (e.g. --n 3..8)")
        m = _RANGE_RE.match(args.n)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
        elif args.n.isdigit():
            lo = hi = int(args.n)
        else:
            raise _ParseFailure(f"bad range {args.n!r}")
        if lo > hi:
            raise _ParseFailure(f"empty range {args.n!r}")
        tokens = permgroup.family_tokens(args.family, range(lo, hi + 1), args.max_closure)
        specs += [(token, "family") for token in tokens]
    for token in args.groups:
        specs.append((token, "family" if permgroup.family_tokens(token) else "file"))
    if not specs:
        raise _ParseFailure("no groups given: pass tokens, files, or --family/--n")
    return specs


def _load_group(name: str, kind: str, ceiling: int) -> permgroup.PermGroup:
    if kind == "family":
        return permgroup.family_group(name, ceiling=ceiling)
    try:
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
        return permgroup.parse_group_file(text, ceiling=ceiling)
    except OSError as exc:
        raise _ParseFailure(f"cannot read group file {name!r}: {exc}") from exc
    except ValueError as exc:
        raise _ParseFailure(f"bad group file {name!r}: {exc}") from exc


_GROUP_COLUMNS = (
    "group", "order_G", "order_H", "size_T",
    "condition_2B", "frobenius", "two_transitive", "error",
)


def _group_report(name: str, group: permgroup.PermGroup) -> dict:
    if group.degree < 2:
        raise ValueError("group must move at least 2 points")
    stab = permgroup.point_stabilizer(group, group.degree - 1)
    if stab.order == group.order:
        raise ValueError("the stabilized point is fixed by the whole group")
    action = permgroup.coset_action(group, stab)
    report = permgroup.check_condition_2B(group, stab, action)
    return {
        "group": name,
        "order_G": group.order,
        "order_H": stab.order,
        "size_T": len(report.T),
        "condition_2B": report.holds,
        "frobenius": permgroup.is_frobenius(group, action),
        "two_transitive": permgroup.is_2transitive(group, action),
    }


def _cmd_group_check(args) -> int:
    specs = _expand_group_specs(args)
    rows = []
    for name, kind in specs:
        try:
            group = _load_group(name, kind, args.max_closure)
            rows.append(_group_report(name, group))
        except GroupTooLargeError as exc:
            _diag(f"budget exceeded for {name}: {exc}")
            return EXIT_BUDGET
        except ValueError as exc:  # a group that parsed but does not suit the check
            rows.append({"group": name, "error": str(exc)})
    _emit_rows(rows, args.format, _GROUP_COLUMNS)
    return EXIT_OK


# ---------------------------------------------------------------------------
# field-analyze


def _parse_field(text: str) -> CubicPoly:
    try:
        return cubicfield.parse_cubic(text)
    except (ValueError, ReduciblePolynomialError) as exc:
        raise _ParseFailure(f"bad cubic {text!r}: {exc}") from exc


def _cmd_field_analyze(args) -> int:
    poly = _parse_field(args.poly)
    if poly.is_galois():
        _check_sweep_bound(args.prime_bound)
        report = classgroup.ostrowski_report(cubicfield.maximal_order(poly), args.prime_bound)
    else:
        order = cubicfield.maximal_order(poly)
        report = classgroup.verify_main_theorem(
            order, prime_bound=args.prime_bound, budget=args.budget
        )
        if args.witnesses:
            report["principal_witnesses"] = _collect_witnesses(order, args)
    _emit_report(report)
    return EXIT_OK


def _collect_witnesses(order, args) -> list[dict]:
    """A generator of each split-product ideal Pi_{p^f} with
    p <= min(prime_bound, 50) that the bounded principality search finds
    one for.  Every such ideal is searched, whatever its class; an ideal
    whose search region holds more than max_enum points is left out, as
    is one the search finds no generator of."""
    out = []
    for p, f, ideal in cubicfield.split_products(order, min(args.prime_bound, 50)):
        try:
            gen = cubicfield.is_principal(order, ideal, max_candidates=args.max_enum)
        except SearchBudgetExceededError:
            gen = None
        if gen is not None:
            out.append({"q": p**f, "generator": list(gen)})
    return out


# ---------------------------------------------------------------------------
# survey


def survey_field(triple: tuple[int, int, int], prime_bound: int, budget=None) -> dict:
    """Process one coefficient triple into a survey record.  Never
    raises: failures become error records so a sweep can continue."""
    a2, a1, a0 = triple
    rec: dict = {"a2": a2, "a1": a1, "a0": a0}
    try:
        poly = CubicPoly(a2, a1, a0)
    except ReduciblePolynomialError:
        rec.update(status="skipped", skip_reason="reducible")
        return rec
    rec["poly"] = str(poly)
    rec["disc_poly"] = poly.discriminant()
    if poly.is_galois():
        rec.update(status="skipped", skip_reason="galois")
        return rec
    try:
        order = cubicfield.maximal_order(poly)
        report = classgroup.verify_main_theorem(
            order, prime_bound=prime_bound, budget=budget
        )
    except ClassGroupInconclusiveError as exc:
        rec.update(status="error", error=f"inconclusive: {exc}")
        return rec
    except SearchBudgetExceededError as exc:
        rec.update(status="error", error=f"budget: {exc}")
        return rec
    rec.update(
        disc_K=order.disc_K,
        index=order.index,
        h=math.prod(report["class_invariants"]),
        invariant_factors=report["class_invariants"],
        certified_trivial=report["certified_trivial"],
        nr1_full_at=report["variants"]["nr1"]["full_at"],
        prime_bound=prime_bound,
        status="verified" if report["equalities"]["all_equal"] else "undetermined",
    )
    return rec


def survey_box(
    coeff_bound: int,
    prime_bound: int = cubicfield.DEFAULT_PRIME_BOUND,
    budget=None,
    workers: int = 1,
):
    """Survey every coefficient triple with |a_i| <= coeff_bound, in
    lexicographic input order (polynomials are all distinct, so the
    documented polynomial-level dedup has nothing to merge).  The
    triples are generated as they are surveyed, never listed."""
    triples = itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=3)
    if workers > 1:
        import multiprocessing as mp
        from functools import partial

        with mp.Pool(workers) as pool:
            yield from pool.imap(
                partial(survey_field, prime_bound=prime_bound, budget=budget),
                triples,
                chunksize=64,
            )
    else:
        for t in triples:
            yield survey_field(t, prime_bound, budget)


def _cmd_survey(args) -> int:
    counts = {"verified": 0, "undetermined": 0, "skipped": 0, "error": 0}
    for rec in survey_box(args.coeff_bound, args.prime_bound, args.budget, args.workers):
        counts[rec["status"]] += 1
        if rec["status"] == "error":
            _diag(f"error at ({rec['a2']},{rec['a1']},{rec['a0']}): {rec.get('error')}")
        if args.only_nontrivial and rec.get("h", 1) == 1:
            continue
        _emit(json.dumps(rec))
    _diag(
        "survey summary: "
        + " ".join(f"{k}={v}" for k, v in counts.items())
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# census


_CENSUS_COLUMNS = (
    "splitting_type", "count", "frequency", "predicted_density", "abs_deviation",
)


def _census_rows(poly: CubicPoly, prime_bound: int) -> list[dict]:
    order = cubicfield.maximal_order(poly)
    counts = Counter(t for _, t in cubicfield.splitting_types(order, prime_bound))
    group = permgroup.family_group("C3" if poly.is_galois() else "S3")
    stab = permgroup.point_stabilizer(group, 2)
    action = permgroup.coset_action(group, stab)
    predicted = {t.label: d for t, d in chebotarev_densities(group, action).items()}
    rows = []
    for t, count in sorted(counts.items()):
        freq = Fraction(count, counts.total())
        pred = predicted.get(t.label, Fraction(0))
        rows.append(
            {
                "splitting_type": t.label,
                "count": count,
                "frequency": str(freq),
                "predicted_density": str(pred),
                "abs_deviation": str(abs(freq - pred)),
            }
        )
    return rows


def _cmd_census(args) -> int:
    _check_sweep_bound(args.prime_bound)
    rows = _census_rows(_parse_field(args.poly), args.prime_bound)
    _emit_rows(rows, args.format, _CENSUS_COLUMNS)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyakit",
        description="Group-criterion checks and exact cubic-field verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    prime_bound = dict(type=int, default=cubicfield.DEFAULT_PRIME_BOUND)
    output_format = dict(choices=("json", "csv"), default="json")
    budget = dict(type=int, default=None, help="relation-harvest radius for the class group")

    g = sub.add_parser("group-check", help="evaluate the generation criterion")
    g.add_argument("groups", nargs="*", default=[],
                   help="family tokens (S5, A6, D4, C7, F20) or generator files")
    g.add_argument("--family", choices=("S", "A", "D", "C", "F20"))
    g.add_argument("--n", help="range like 3..8 (with --family S, A, D or C)")
    g.add_argument("--format", **output_format)
    g.add_argument("--max-closure", type=int, default=permgroup.DEFAULT_CLOSURE_CEILING)
    g.set_defaults(run=_cmd_group_check)

    f = sub.add_parser("field-analyze", help="verify the theorem on one cubic field")
    f.add_argument("poly", help="e.g. \"x^3-2\" or \"0,4,-1\"")
    f.add_argument("--witnesses", action="store_true",
                   help="include principal-ideal generator witnesses")
    f.add_argument("--prime-bound", **prime_bound)
    f.add_argument("--max-enum", type=int, default=cubicfield.DEFAULT_MAX_ENUM)
    f.add_argument("--budget", **budget)
    f.set_defaults(run=_cmd_field_analyze)

    s = sub.add_parser("survey", help="sweep a coefficient box")
    s.add_argument("--coeff-bound", type=int, required=True)
    s.add_argument("--only-nontrivial", action="store_true",
                   help="print only fields with nontrivial class group")
    s.add_argument("--prime-bound", **prime_bound)
    s.add_argument("--budget", **budget)
    s.add_argument("--workers", type=int, default=1, help=f"1..{MAX_WORKERS} processes")
    s.set_defaults(run=_cmd_survey)

    c = sub.add_parser("census", help="splitting statistics vs predicted densities")
    c.add_argument("poly")
    c.add_argument("--prime-bound", **prime_bound)
    c.add_argument("--format", **output_format)
    c.set_defaults(run=_cmd_census)
    return parser


# A coefficient triple with a negative leading entry, which argparse
# would read as an option; same shape as parse_cubic's triple form.
_NEGATIVE_TRIPLE = re.compile(r"-\d+\s*,\s*[-+]?\d+\s*,\s*[-+]?\d+")


def _triple_after_dashes(argv: list[str]) -> list[str]:
    """`field-analyze -3,2,1` and `census -3,2,1` as if written with
    `-- -3,2,1`: the triple moves behind a "--" after the options."""
    if argv[:1] not in (["field-analyze"], ["census"]) or "--" in argv:
        return argv
    triples = [a for a in argv if _NEGATIVE_TRIPLE.fullmatch(a)]
    if not triples:
        return argv
    return [a for a in argv if a not in triples] + ["--", *triples]


# The least value of each integer option that has one; a smaller value
# exits 2.
_LOWER_BOUNDS = {
    "prime_bound": 2, "workers": 1, "budget": 1, "max_closure": 1, "coeff_bound": 0, "max_enum": 1,
}
# The most worker processes a survey starts.
MAX_WORKERS = 64
# The largest --budget: a harvest pass at radius r searches a box of
# (2r+1)^3 elements, and a nontrivial class group is re-derived at 2r.
MAX_BUDGET = 64
# The largest --max-closure: the most elements a group may have (S10 and
# A10 fit).
MAX_CLOSURE = 4 * 10**6
# The largest --max-enum: the most lattice points is_principal may scan
# for one ideal.
MAX_ENUM = 4 * 10**6
# The most each integer option that has a ceiling may be; a larger value
# exits 2 before any computation starts.
_UPPER_BOUNDS = {
    "workers": MAX_WORKERS, "budget": MAX_BUDGET, "max_closure": MAX_CLOSURE, "max_enum": MAX_ENUM,
}
# The largest --prime-bound of census and of a Galois field-analyze, which
# walk every prime up to it: the sieve holds one byte per integer up to
# the bound, so a larger one exits 2 before any sieve runs.
MAX_SWEEP_PRIME_BOUND = 10**7


def _check_sweep_bound(prime_bound: int) -> None:
    if prime_bound > MAX_SWEEP_PRIME_BOUND:
        raise _ParseFailure(f"bad configuration: prime_bound must be <= {MAX_SWEEP_PRIME_BOUND}")


# The parser every main call reads its arguments with, built by the first
# one: parse_args keeps no state between calls, and building the parser
# costs about a millisecond.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser.parse_args(_triple_after_dashes(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the parse-error code
        return EXIT_PARSE if exc.code else EXIT_OK
    for name, low in _LOWER_BOUNDS.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            _diag(f"bad configuration: {name} must be >= {low}")
            return EXIT_PARSE
    for name, high in _UPPER_BOUNDS.items():
        value = getattr(args, name, None)
        if value is not None and value > high:
            _diag(f"bad configuration: {name} must be <= {high}")
            return EXIT_PARSE
    try:
        return args.run(args)
    except _ParseFailure as exc:
        _diag(str(exc))
        return EXIT_PARSE
    except (GroupTooLargeError, SearchBudgetExceededError) as exc:
        _diag(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except ClassGroupInconclusiveError as exc:
        _diag(f"class group inconclusive: {exc}")
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
