"""Batch front-end: group criterion checks, field analysis, coefficient
surveys, and splitting censuses, with machine-readable output.

Exit codes: 0 success, 2 malformed input, 3 budget exceeded,
4 class group inconclusive at budget.  Reports go to stdout (UTF-8),
diagnostics to stderr.  Identical inputs and budgets produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import classgroup, cubicfield, permgroup
from .artin import chebotarev_densities
from .cubicfield import (
    ClassGroupInconclusiveError,
    CubicPoly,
    ExpressionBudgetExceededError,
    ReduciblePolynomialError,
    SearchBudgetExceededError,
)
from .permgroup import GroupTooLargeError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INCONCLUSIVE = 4


@dataclass
class RunConfig:
    """Validated knobs shared by the subcommands."""

    command: str
    prime_bound: int = 200
    format: str = "json"
    workers: int = 1
    max_closure: int = permgroup.DEFAULT_CLOSURE_CEILING
    max_enum: int = 400000
    budget: Optional[int] = None

    def __post_init__(self):
        if self.prime_bound < 2:
            raise ValueError("prime_bound must be >= 2")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class _ParseFailure(Exception):
    pass


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _diag(msg: str) -> None:
    sys.stderr.write(msg + "\n")


# ---------------------------------------------------------------------------
# group-check

_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _expand_group_specs(args) -> list[tuple[str, str]]:
    """Resolve CLI group selectors to (name, kind) pairs, kind in
    {family, file}."""
    specs: list[tuple[str, str]] = []
    if args.family:
        if args.family == "F20":
            specs.append(("F20", "family"))
        else:
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
            for n in range(lo, hi + 1):
                specs.append((f"{args.family}{n}", "family"))
    for token in args.groups:
        if token == "F20" or re.match(r"^[SADC]\d+$", token):
            specs.append((token, "family"))
        else:
            specs.append((token, "file"))
    if not specs:
        raise _ParseFailure("no groups given: pass tokens, files, or --family/--n")
    return specs


def _load_group(name: str, kind: str, config: RunConfig) -> permgroup.PermGroup:
    if kind == "family":
        return permgroup.family_group(name)
    try:
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _ParseFailure(f"cannot read group file {name!r}: {exc}") from exc
    return permgroup.parse_group_file(text, ceiling=config.max_closure)


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


def _cmd_group_check(args, config: RunConfig) -> int:
    specs = _expand_group_specs(args)
    rows = []
    for name, kind in specs:
        try:
            group = _load_group(name, kind, config)
            rows.append(_group_report(name, group))
        except GroupTooLargeError as exc:
            _diag(f"budget exceeded for {name}: {exc}")
            return EXIT_BUDGET
        except (_ParseFailure, ValueError) as exc:
            if isinstance(exc, _ParseFailure):
                raise
            rows.append({"group": name, "error": str(exc)})
    if config.format == "json":
        for row in rows:
            _emit(json.dumps(row))
    else:
        cols = [
            "group", "order_G", "order_H", "size_T",
            "condition_2B", "frobenius", "two_transitive", "error",
        ]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in cols})
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# field-analyze


def _parse_field(text: str) -> CubicPoly:
    try:
        return cubicfield.parse_cubic(text)
    except (ValueError, ReduciblePolynomialError) as exc:
        raise _ParseFailure(f"bad cubic {text!r}: {exc}") from exc


def _cmd_field_analyze(args, config: RunConfig) -> int:
    poly = _parse_field(args.poly)
    order = cubicfield.maximal_order(poly)
    if poly.is_galois():
        report = classgroup.ostrowski_report(
            order, config.prime_bound, max_candidates=config.max_enum
        )
        _emit(json.dumps(report.to_json_dict()))
        return EXIT_OK
    report = classgroup.verify_main_theorem(
        order, prime_bound=config.prime_bound, budget=config.budget
    )
    if args.witnesses:
        report.principal_witnesses = _collect_witnesses(order, report, config)
    _emit(json.dumps(report.to_json_dict()))
    return EXIT_OK


def _collect_witnesses(order, report, config: RunConfig) -> list[dict]:
    """Generators for the split-product ideals whose class is trivial,
    where the bounded search finds one."""
    out = []
    for p in cubicfield.primes_up_to(min(config.prime_bound, 50)):
        for f in sorted({q.f for q in cubicfield.factor_prime(order, p)}):
            ideal = cubicfield.pi_ideal(order, p**f)
            try:
                gen = cubicfield.is_principal(order, ideal, max_candidates=config.max_enum)
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
    except (SearchBudgetExceededError, ExpressionBudgetExceededError) as exc:
        rec.update(status="error", error=f"budget: {exc}")
        return rec
    rec.update(
        disc_K=order.disc_K,
        index=order.index,
        h=1 if not report.class_invariants else _prod(report.class_invariants),
        invariant_factors=report.class_invariants,
        certified_trivial=report.certified_trivial,
        nr1_full_at=report.variants["nr1"]["full_at"],
        prime_bound=prime_bound,
        status="verified" if report.equalities["all_equal"] else "undetermined",
    )
    return rec


def _prod(xs) -> int:
    n = 1
    for x in xs:
        n *= x
    return n


def survey_box(coeff_bound: int, prime_bound: int = 200, budget=None, workers: int = 1):
    """Survey every coefficient triple with |a_i| <= coeff_bound, in
    lexicographic input order (polynomials are all distinct, so the
    documented polynomial-level dedup has nothing to merge)."""
    triples = [
        (a2, a1, a0)
        for a2 in range(-coeff_bound, coeff_bound + 1)
        for a1 in range(-coeff_bound, coeff_bound + 1)
        for a0 in range(-coeff_bound, coeff_bound + 1)
    ]
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


def _cmd_survey(args, config: RunConfig) -> int:
    counts = {"verified": 0, "undetermined": 0, "skipped": 0, "error": 0}
    for rec in survey_box(
        args.coeff_bound, config.prime_bound, config.budget, config.workers
    ):
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


def _census_rows(poly: CubicPoly, prime_bound: int) -> list[dict]:
    order = cubicfield.maximal_order(poly)
    tallies = cubicfield.splitting_census(order, prime_bound)
    group = (
        permgroup.cyclic_group(3) if poly.is_galois() else permgroup.symmetric_group(3)
    )
    stab = permgroup.point_stabilizer(group, 2)
    action = permgroup.coset_action(group, stab)
    predicted = {t.label: d for t, d in chebotarev_densities(group, action).items()}
    rows = []
    for t, (count, freq) in tallies.items():
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


def _cmd_census(args, config: RunConfig) -> int:
    poly = _parse_field(args.poly)
    rows = _census_rows(poly, config.prime_bound)
    if config.format == "json":
        for row in rows:
            _emit(json.dumps(row))
    else:
        cols = ["splitting_type", "count", "frequency", "predicted_density", "abs_deviation"]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyakit",
        description="Group-criterion checks and exact cubic-field verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--prime-bound", type=int, default=cubicfield.DEFAULT_PRIME_BOUND)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--max-closure", type=int, default=permgroup.DEFAULT_CLOSURE_CEILING)
        p.add_argument("--max-enum", type=int, default=400000)
        p.add_argument("--budget", type=int, default=None,
                       help="relation-harvest radius for the class group")

    g = sub.add_parser("group-check", help="evaluate the generation criterion")
    g.add_argument("groups", nargs="*", default=[],
                   help="family tokens (S5, A6, D4, C7, F20) or generator files")
    g.add_argument("--family", choices=("S", "A", "D", "C", "F20"))
    g.add_argument("--n", help="range like 3..8 (with --family)")
    common(g)

    f = sub.add_parser("field-analyze", help="verify the theorem on one cubic field")
    f.add_argument("poly", help="e.g. \"x^3-2\" or \"0,4,-1\"")
    f.add_argument("--witnesses", action="store_true",
                   help="include principal-ideal generator witnesses")
    common(f)

    s = sub.add_parser("survey", help="sweep a coefficient box")
    s.add_argument("--coeff-bound", type=int, required=True)
    s.add_argument("--only-nontrivial", action="store_true",
                   help="print only fields with nontrivial class group")
    common(s)

    c = sub.add_parser("census", help="splitting statistics vs predicted densities")
    c.add_argument("poly")
    common(c)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the parse-error code
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        config = RunConfig(
            command=args.command,
            prime_bound=args.prime_bound,
            format=args.format,
            workers=args.workers,
            max_closure=args.max_closure,
            max_enum=args.max_enum,
            budget=args.budget,
        )
    except ValueError as exc:
        _diag(f"bad configuration: {exc}")
        return EXIT_PARSE
    try:
        if args.command == "group-check":
            return _cmd_group_check(args, config)
        if args.command == "field-analyze":
            return _cmd_field_analyze(args, config)
        if args.command == "survey":
            return _cmd_survey(args, config)
        return _cmd_census(args, config)
    except _ParseFailure as exc:
        _diag(str(exc))
        return EXIT_PARSE
    except (GroupTooLargeError, SearchBudgetExceededError, ExpressionBudgetExceededError) as exc:
        _diag(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except ClassGroupInconclusiveError as exc:
        _diag(f"class group inconclusive: {exc}")
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
