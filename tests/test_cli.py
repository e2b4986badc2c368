"""CLI behaviour: exit codes, output formats, determinism, round trips."""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import groupcorpus
import groupref
from polyakit import classgroup, cli, cubicfield, permgroup
from polyakit.cli import build_parser, main, survey_box, survey_field
from polyakit.cubicfield import CubicPoly, parse_cubic
from polyakit.permgroup import GroupTooLargeError, parse_group_file

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_check_family_range(capsys):
    code, out, _ = run_cli(capsys, "group-check", "--family", "S", "--n", "3..5")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["group"] for r in rows] == ["S3", "S4", "S5"]
    assert [r["condition_2B"] for r in rows] == [True, False, True]
    assert rows[0]["frobenius"] is True
    assert all(r["two_transitive"] for r in rows)


def test_group_check_tokens_and_file(capsys):
    code, out, _ = run_cli(capsys, "group-check", "C4", str(FIXTURES / "c7_c3.grp"))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {
        "group": "C4",
        "order_G": 4,
        "order_H": 1,
        "size_T": 0,
        "condition_2B": False,
        "frobenius": False,
        "two_transitive": False,
    }
    assert rows[1]["order_G"] == 21
    assert rows[1]["frobenius"] is True
    assert rows[1]["condition_2B"] is True


@given(groupcorpus.group_files)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_group_check_on_fuzzed_files_exits_cleanly(capsys, tmp_path, text):
    """Exit 2 exactly when parse_group_file rejects the text, 3 when the
    group is too large, and 0 (a report or error row) otherwise."""
    try:
        parse_group_file(text, ceiling=groupcorpus.FUZZ_CEILING)
        expected = 0
    except GroupTooLargeError:
        expected = 3
    except ValueError:
        expected = 2
    path = tmp_path / "fuzzed.grp"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        capsys, "group-check", "--max-closure", str(groupcorpus.FUZZ_CEILING), str(path)
    )
    assert code == expected, text
    assert "Traceback" not in err
    if expected:
        assert out == ""


def test_group_check_malformed_body_exits_2(capsys, tmp_path):
    path = tmp_path / "open_cycle.grp"
    path.write_text("degree=4\n(1 2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "group-check", str(path))
    assert code == 2
    assert out == ""
    assert "bad cycle notation" in err


def test_group_check_huge_degree_exits_3_at_once(capsys, tmp_path):
    path = tmp_path / "huge.grp"
    path.write_text("degree=1000000000\n(1 2)\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group-check", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "budget" in err.lower()


def test_group_check_degree_line_alone_exits_3_at_once(capsys, tmp_path):
    """A degree within the default closure ceiling but above the degree
    cap: no identity tuple of a million entries is built."""
    path = tmp_path / "degree_only.grp"
    path.write_text("degree=1000000\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group-check", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "degree cap" in err


def test_group_check_csv(capsys):
    code, out, _ = run_cli(capsys, "group-check", "--format", "csv", "D4", "F20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("group,order_G")
    assert lines[1].startswith("D4,8,")
    assert lines[2].startswith("F20,20,")


def test_group_check_parse_errors(capsys):
    code, _, err = run_cli(capsys, "group-check", "/nonexistent/file.grp")
    assert code == 2
    assert "cannot read" in err
    code2, _, _ = run_cli(capsys, "group-check")
    assert code2 == 2


def test_group_check_budget_exit(capsys):
    # the closure ceiling applies to generator files and family tokens alike
    code, _, err = run_cli(
        capsys, "group-check", str(FIXTURES / "c7_c3.grp"), "--max-closure", "5"
    )
    assert code == 3
    assert "budget" in err.lower() or "too large" in err.lower()


def test_group_check_family_ceiling(capsys):
    code, out, err = run_cli(capsys, "group-check", "S4", "--max-closure", "10")
    assert code == 3
    assert out == ""
    assert "budget" in err.lower()
    code, out, _ = run_cli(capsys, "group-check", "S4", "--max-closure", "24")
    assert code == 0
    assert json.loads(out) == {
        "group": "S4",
        "order_G": 24,
        "order_H": 6,
        "size_T": 2,
        "condition_2B": False,
        "frobenius": False,
        "two_transitive": True,
    }


def test_group_check_never_lists_G(monkeypatch):
    """A report reads G and H off their stabilizer chains: neither is
    listed, and of H only T is."""
    stabilizers = []
    stabilizer = permgroup.point_stabilizer

    def kept(group, point):
        stabilizers.append(stabilizer(group, point))
        return stabilizers[-1]

    monkeypatch.setattr(permgroup, "point_stabilizer", kept)
    G = permgroup.family_group("S8")
    report = cli._group_report("S8", G)
    assert (report["order_G"], report["order_H"]) == (40320, 5040)
    assert G._elements is None
    [H] = stabilizers
    assert H._elements is None


@pytest.mark.parametrize("token", ["S10", "A10"])
def test_group_check_past_the_ceiling_exits_3_at_once(capsys, token):
    """|S10| and |A10| exceed the 10^6 ceiling; the stabilizer chain
    knows it before listing a single element."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group-check", token)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "closure exceeds ceiling 1000000" in err


def test_group_check_family_degree_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group-check", "C300000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "degree cap" in err
    code, out, err = run_cli(capsys, "group-check", "C1001")
    assert (code, out) == (3, "")
    code, out, _ = run_cli(capsys, "group-check", "C1000")
    assert code == 0
    assert json.loads(out) == {
        "group": "C1000",
        "order_G": 1000,
        "order_H": 1,
        "size_T": 0,
        "condition_2B": False,
        "frobenius": False,
        "two_transitive": False,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["S4", "--n", "3..5"],
        ["--family", "F20", "--n", "abc"],
        ["--family", "F20", "--n", "3..5"],
        ["C7", "--n", "3"],
    ],
)
def test_group_check_n_without_a_ranged_family_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "group-check", *argv)
    assert (code, out) == (2, "")
    assert "--n needs --family S, A, D or C" in err


@pytest.mark.parametrize("token", [" S4", "S4 "])
def test_group_check_token_with_spaces_is_a_file_path(capsys, token):
    code, out, err = run_cli(capsys, "group-check", token)
    assert (code, out) == (2, "")
    assert f"cannot read group file {token!r}" in err


def test_group_check_range_past_the_degree_cap_exits_3_at_once(capsys):
    """The range's top is refused before C3..C1000 are built."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group-check", "--family", "C", "--n", "3..1001")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert "degree 1001 exceeds the degree cap" in err


def test_group_check_huge_range_stays_bounded_under_an_address_limit():
    """Refused before any name of the range is listed, so it fits a
    1.5 GB address space, where listing 10^8 names does not."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "polyakit.cli", "group-check", "--family", "C", "--n",
         "3..100000000"],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60,
    )
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "degree 100000000 exceeds the degree cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_group_check_refuses_to_list_a_huge_stabilizer_under_an_address_limit(tmp_path):
    """S9 x C2 on 1000 points: |G| = 725760 is under the default ceiling,
    but listing its H = S9 would build 3.6 * 10^8 tuple entries, about
    3 GB.  Refused before any element of H is built, so it fits a 1.5 GB
    address space."""
    path = tmp_path / "s9xc2.txt"
    path.write_text("degree=1000\n(1 2)\n(1 2 3 4 5 6 7 8 9)\n(999 1000)\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "polyakit.cli", "group-check", str(path)],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60,
    )
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "listing 362880 elements of degree 1000 exceeds 40000000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_group_check_answers_S10_and_A10_with_closed_form_rows_under_the_listing_cap(capsys):
    """At the largest --max-closure, S10 and A10 still answer, with the
    rows of their closed forms (size_T 133,496 and 66,752): their H (S9,
    A9) stays under the cap at 3.6 * 10^6 and 1.8 * 10^6 tuple entries.
    For a transitive G, |H| * degree = |G|, so no family token the
    closure ceiling admits reaches permgroup.MAX_LISTED_ENTRIES."""
    assert cli.MAX_CLOSURE < permgroup.MAX_LISTED_ENTRIES
    code, out, _ = run_cli(capsys, "group-check", "S10", "A10", "--max-closure", "4000000")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"group": t, **groupref.family_row(t)} for t in ("S10", "A10")]
    assert [r["size_T"] for r in rows] == [133496, 66752]


@pytest.mark.parametrize("family, top", [("S", 9), ("A", 9), ("D", 300), ("C", 300)])
def test_group_check_family_rows_match_their_closed_forms(capsys, family, top):
    """Every row of `--family F --n 3..top` is the closed form's, so the
    family table is proved at these degrees, past sympy's reach."""
    code, out, _ = run_cli(capsys, "group-check", "--family", family, "--n", f"3..{top}")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    tokens = [f"{family}{n}" for n in range(3, top + 1)]
    assert rows == [{"group": t, **groupref.family_row(t)} for t in tokens]


def test_survey_box_streams_its_triples():
    """The first record of a box with 8*10^18 triples comes at once."""
    start = time.perf_counter()
    rec = next(survey_box(10**6))
    assert time.perf_counter() - start < 2.0
    assert (rec["a2"], rec["a1"], rec["a0"]) == (-(10**6),) * 3


def test_group_check_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "group-check", "--family", "A", "--n", "3..6")
    code2, out2, _ = run_cli(capsys, "group-check", "--family", "A", "--n", "3..6")
    assert code1 == code2 == 0
    assert out1 == out2


def test_field_analyze_h1(capsys):
    code, out, _ = run_cli(capsys, "field-analyze", "x^3-2", "--prime-bound", "50")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "polya"
    assert rep["class_invariants"] == []
    assert rep["equalities"]["all_equal"] is True
    assert rep["disc_K"] == -108


def test_field_analyze_huge_minkowski_bound_exits_3(capsys):
    """A Minkowski bound of 1.47e6 puts far more rational primes below it
    than classgroup.MAX_FACTOR_BASE_PRIMES: exit 3 before any is factored."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "field-analyze", "x^3-1000003")
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == ""
    assert "budget" in err.lower() and "Minkowski" in err


@pytest.mark.parametrize("draw", range(1, 6))
def test_field_analyze_huge_discriminant_exits_3(capsys, draw):
    """x^3 + a*x + b with a ~ 10^20 and b ~ 10^30: disc(f) keeps a
    cofactor of two or more primes above 10^5 after trial division, which
    maximal_order refuses as a budget instead of factoring it."""
    import random

    rng = random.Random(3)
    for _ in range(draw):
        a, b = rng.randint(10**20, 10**21), rng.randint(10**30, 10**31)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "field-analyze", f"x^3+{a}x+{b}")
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == ""
    assert "budget" in err and "not a prime power" in err


def test_field_analyze_galois_runs_ostrowski(capsys):
    code, out, _ = run_cli(capsys, "field-analyze", "x^3-3x-1", "--prime-bound", "60")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "ostrowski"
    assert rep["galois"] is True
    assert rep["all_principal"] is True


@pytest.mark.parametrize("poly", ["x^3-2", "x^3-21x^2+19x+16"])
def test_huge_prime_bound_stops_with_the_subgroup(capsys, poly):
    """Each Polya subgroup fills (or Cl is trivial) at a small prime, so a
    prime bound of 10^9 costs nothing beyond that prime."""
    _, ref, _ = run_cli(capsys, "field-analyze", poly, "--prime-bound", "200")
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "field-analyze", poly, "--prime-bound", "1000000000")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    expected = json.loads(ref)
    expected["prime_bound"] = 1000000000
    assert json.loads(out) == expected


def test_unexpressible_class_is_a_search_budget(capsys, monkeypatch):
    from polyakit import classgroup as cg

    monkeypatch.setattr(cg, "EXPRESSION_MAX_SHELL", 0)
    rec = survey_field((0, 8, -6), 200)
    assert rec["status"] == "error"
    assert rec["error"].startswith("budget: could not express")
    code, out, err = run_cli(capsys, "field-analyze", "x^3+8x-6")
    assert code == 3
    assert out == ""
    assert "budget exceeded: could not express" in err


def test_field_analyze_witnesses(capsys):
    code, out, _ = run_cli(
        capsys, "field-analyze", "x^3-2", "--prime-bound", "50", "--witnesses"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["principal_witnesses"]
    qs = {w["q"] for w in rep["principal_witnesses"]}
    assert 2 in qs


def test_field_analyze_parse_error(capsys):
    code, _, err = run_cli(capsys, "field-analyze", "x^2-1")
    assert code == 2
    code2, _, _ = run_cli(capsys, "field-analyze", "x^3-1")
    assert code2 == 2  # reducible


def test_field_analyze_round_trip(capsys):
    _, out1, _ = run_cli(capsys, "field-analyze", "0,4,-1", "--prime-bound", "200")
    # the printed report is the library's dict, and it is plain JSON data
    report = classgroup.verify_main_theorem(
        cubicfield.maximal_order(parse_cubic("0,4,-1")), prime_bound=200
    )
    assert json.loads(json.dumps(report)) == report == json.loads(out1)
    _, out2, _ = run_cli(capsys, "field-analyze", "x^3+4x-1", "--prime-bound", "200")
    assert out1 == out2  # triple form and polynomial form agree byte-for-byte


def test_census_csv(capsys):
    code, out, _ = run_cli(
        capsys, "census", "x^3-2", "--prime-bound", "500", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "splitting_type,count,frequency,predicted_density,abs_deviation"
    types = [line.split(",")[0] for line in lines[1:]]
    assert types == ["1+1+1", "1+2", "3"]


def test_census_galois_two_rows(capsys):
    code, out, _ = run_cli(
        capsys, "census", "x^3-3x-1", "--prime-bound", "500", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    types = [line.split(",")[0] for line in lines[1:]]
    assert types == ["1+1+1", "3"]


def test_census_json_exact_fractions(capsys):
    code, out, _ = run_cli(capsys, "census", "x^3-2", "--prime-bound", "100")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    for row in rows:
        assert "/" in row["predicted_density"] or row["predicted_density"] == "0"


def test_census_small_bound_reporting_only(capsys):
    code, out, _ = run_cli(capsys, "census", "x^3-2", "--prime-bound", "10")
    assert code == 0
    assert out.strip()


def test_survey_empty_box_is_all_skips(capsys):
    # coeff bound 0 gives the single polynomial x^3 (reducible): skipped
    code, out, err = run_cli(capsys, "survey", "--coeff-bound", "0")
    assert code == 0
    assert out.strip() != ""
    rec = json.loads(out.splitlines()[0])
    assert rec["status"] == "skipped"
    assert "survey summary" in err


def test_survey_small_box(capsys):
    code, out, err = run_cli(
        capsys, "survey", "--coeff-bound", "1", "--prime-bound", "60"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 27
    statuses = {r["status"] for r in rows}
    assert statuses <= {"skipped", "verified", "undetermined"}
    # x^3 - x - 1 must be in the box and verified
    target = [r for r in rows if (r["a2"], r["a1"], r["a0"]) == (0, -1, -1)]
    assert target and target[0]["status"] == "verified"
    assert target[0]["h"] == 1
    # the galois cubic x^3 - 3x - 1 is outside this box, but x^3+x^2-x-... pick a known skip
    galois_or_reducible = [r for r in rows if r["status"] == "skipped"]
    assert galois_or_reducible


def test_survey_field_galois_skip():
    rec = survey_field((0, -3, -1), 50)
    assert rec["status"] == "skipped"
    assert rec["skip_reason"] == "galois"


def test_survey_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "survey", "--coeff-bound", "1", "--prime-bound", "60")
    _, out2, _ = run_cli(capsys, "survey", "--coeff-bound", "1", "--prime-bound", "60")
    assert out1 == out2


def test_survey_only_nontrivial_filter(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--coeff-bound", "2", "--prime-bound", "60", "--only-nontrivial"
    )
    assert code == 0
    # every cubic with |coeffs| <= 2 has class number 1: nothing printed
    assert out == ""


def test_group_check_file_agrees_with_family(capsys):
    code, out, _ = run_cli(capsys, "group-check", str(FIXTURES / "d4.grp"), "D4")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    file_row = {k: v for k, v in rows[0].items() if k != "group"}
    family_row = {k: v for k, v in rows[1].items() if k != "group"}
    assert file_row == family_row


def test_survey_negative_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "survey", "--coeff-bound", "-3")
    assert (code, out) == (2, "")
    assert "bad configuration: coeff_bound must be >= 0" in err
    assert "survey summary" not in err


def test_survey_workers_pool_matches_sequential(capsys):
    _, out1, _ = run_cli(capsys, "survey", "--coeff-bound", "1", "--prime-bound", "60")
    _, out2, _ = run_cli(
        capsys, "survey", "--coeff-bound", "1", "--prime-bound", "60", "--workers", "2"
    )
    assert out1 == out2


def test_inconclusive_class_group_exits_4(capsys, monkeypatch):
    from polyakit import ClassGroupInconclusiveError
    from polyakit import classgroup as cg

    def boom(order, budget=None, verify_stability=True):
        raise ClassGroupInconclusiveError("forced for the exit-code test")

    monkeypatch.setattr(cg, "class_group", boom)
    code, _, err = run_cli(capsys, "field-analyze", "x^3+4x-1")
    assert code == 4
    assert "inconclusive" in err


def test_bad_prime_bound(capsys):
    code, _, err = run_cli(capsys, "field-analyze", "x^3-2", "--prime-bound", "1")
    assert code == 2
    assert "configuration" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_1_exits_2_at_once(capsys, budget):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "field-analyze", "x^3-12x-5", "--budget", budget)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--coeff-bound", "0", "--workers", "0"],
        ["census", "x^3-2", "--prime-bound", "1"],
    ],
)
def test_option_below_its_least_value_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "bad configuration" in err


def test_workers_above_the_cap_exits_2_before_any_pool(capsys, monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = run_cli(
        capsys, "survey", "--coeff-bound", "0", "--workers", str(cli.MAX_WORKERS + 1)
    )
    assert (code, out) == (2, "")
    assert f"bad configuration: workers must be <= {cli.MAX_WORKERS}" in err


@pytest.mark.parametrize(
    "argv, name, cap",
    [
        (["group-check", "S3", "--max-closure"], "max_closure", cli.MAX_CLOSURE),
        (["field-analyze", "x^3-2", "--budget"], "budget", cli.MAX_BUDGET),
        (["survey", "--coeff-bound", "0", "--budget"], "budget", cli.MAX_BUDGET),
        (["field-analyze", "x^3-2", "--witnesses", "--max-enum"], "max_enum", cli.MAX_ENUM),
    ],
)
def test_knob_above_its_cap_exits_2_before_any_computation(capsys, monkeypatch, argv, name, cap):
    def no_computation(*args, **kwargs):
        raise AssertionError("a computation was started")

    monkeypatch.setattr(permgroup, "family_group", no_computation)
    monkeypatch.setattr(cubicfield, "maximal_order", no_computation)
    # the only value past the cap this test runs
    code, out, err = run_cli(capsys, *argv, str(cap + 1))
    assert (code, out) == (2, "")
    assert f"bad configuration: {name} must be <= {cap}" in err


@pytest.mark.parametrize("ceiling", ["0", "-1"])
def test_max_closure_below_1_exits_2_not_3(capsys, ceiling):
    code, out, err = run_cli(capsys, "group-check", "S3", "--max-closure", ceiling)
    assert (code, out) == (2, "")
    assert "bad configuration: max_closure must be >= 1" in err
    assert "budget" not in err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_max_enum_below_1_exits_2_before_any_search(capsys, monkeypatch, limit):
    def no_computation(*args, **kwargs):
        raise AssertionError("a computation was started")

    monkeypatch.setattr(cubicfield, "maximal_order", no_computation)
    code, out, err = run_cli(
        capsys, "field-analyze", "x^3-x-1", "--witnesses", "--max-enum", limit
    )
    assert (code, out) == (2, "")
    assert "bad configuration: max_enum must be >= 1" in err


def test_census_prime_bound_above_the_cap_exits_2_before_any_sieve(capsys, monkeypatch):
    """census, and field-analyze on a Galois cubic, whose sweep walks
    every prime up to the bound.  census checks the bound before the
    cubic, so a reducible one (x^3-x) is refused for its bound."""

    def no_sieve(*args, **kwargs):
        raise AssertionError("a sieve was started")

    for name in ("primes_up_to", "iter_primes_up_to", "splitting_types", "maximal_order"):
        monkeypatch.setattr(cubicfield, name, no_sieve)
    monkeypatch.setattr(classgroup, "ostrowski_report", no_sieve)
    bound = str(cli.MAX_SWEEP_PRIME_BOUND + 1)  # the only value past the cap this test runs
    for argv in (["census", "x^3-2"], ["census", "x^3-x"], ["field-analyze", "x^3-3x-1"]):
        code, out, err = run_cli(capsys, *argv, "--prime-bound", bound)
        assert (code, out) == (2, ""), argv
        assert err == f"bad configuration: prime_bound must be <= {cli.MAX_SWEEP_PRIME_BOUND}\n"


def test_galois_sweep_over_the_cap_exits_2_under_an_address_limit():
    """Refused before the order is built or any prime is sieved, so it
    fits a 1 GiB address space, where the sieve to 10^10 does not."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "polyakit.cli", "field-analyze", "x^3-3x-1", "--prime-bound",
         "10000000000"],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60,
    )
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"bad configuration: prime_bound must be <= {cli.MAX_SWEEP_PRIME_BOUND}\n"


def test_unknown_flag_exits_2(capsys):
    code = main(["field-analyze", "x^3-2", "--frobnicate"])
    assert code == 2


def test_main_builds_its_parser_once_and_carries_nothing_over(capsys, monkeypatch):
    """Consecutive main calls, across subcommands, options left at their
    defaults and a rejected flag, print what calls on a fresh parser print."""
    runs = [
        ["group-check", "S4", "--format", "csv"],
        ["field-analyze", "x^3-2", "--witnesses", "--prime-bound", "30"],
        ["field-analyze", "x^3-2", "--frobnicate"],
        ["field-analyze", "x^3-2"],
        ["census", "x^3-2", "--prime-bound", "40", "--format", "csv"],
        ["group-check", "--family", "S", "--n", "3..4"],
        ["survey", "--coeff-bound", "1", "--only-nontrivial"],
        ["census", "x^3-2", "--prime-bound", "40"],
    ]

    def fresh(argv):
        monkeypatch.setattr(cli, "_parser", None)
        return main(argv), capsys.readouterr()

    want = [fresh(argv) for argv in runs]
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    monkeypatch.setattr(cli, "_parser", None)
    got = [(main(argv), capsys.readouterr()) for argv in runs]
    assert got == want
    assert len(builds) == 1


# The options each subcommand accepts, -h aside: exactly those it reads.
SUBCOMMAND_OPTIONS = {
    "group-check": {"--family", "--n", "--format", "--max-closure"},
    "field-analyze": {"--witnesses", "--prime-bound", "--max-enum", "--budget"},
    "survey": {"--coeff-bound", "--only-nontrivial", "--prime-bound", "--budget", "--workers"},
    "census": {"--prime-bound", "--format"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    declared = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert declared == SUBCOMMAND_OPTIONS


# An option that the subcommand never read is an argparse error, as any
# unknown flag is.
_VALID_ARGV = {
    "group-check": ["S3"],
    "field-analyze": ["x^3-2"],
    "survey": ["--coeff-bound", "0"],
    "census": ["x^3-2"],
}
_OPTION_VALUES = {
    "--prime-bound": "50",
    "--format": "csv",
    "--workers": "2",
    "--max-closure": "10",
    "--max-enum": "10",
    "--budget": "3",
}


@pytest.mark.parametrize(
    "command, option",
    [
        ("group-check", "--prime-bound"),
        ("group-check", "--workers"),
        ("group-check", "--max-enum"),
        ("group-check", "--budget"),
        ("field-analyze", "--format"),
        ("field-analyze", "--workers"),
        ("field-analyze", "--max-closure"),
        ("survey", "--format"),
        ("survey", "--max-closure"),
        ("survey", "--max-enum"),
        ("census", "--workers"),
        ("census", "--max-closure"),
        ("census", "--max-enum"),
        ("census", "--budget"),
    ],
)
def test_option_the_subcommand_never_read_exits_2(capsys, command, option):
    argv = [command, *_VALID_ARGV[command], option, _OPTION_VALUES[option]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {option}" in err


_CUBIC_ALPHABET = "x^0123456789+-*, "
_cubic_term = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", "0", "1", "2", "12", "*"]),
    st.sampled_from(["", "x", "x^0", "x^2", "x^3", "x^4", "*x"]),
).map("".join)
_cubic_texts = st.one_of(
    st.text(_CUBIC_ALPHABET, max_size=20),
    st.lists(_cubic_term, max_size=5).map("".join),
    st.lists(st.from_regex(r"[-+]?[0-9]{1,3}", fullmatch=True), min_size=3, max_size=3).map(
        ",".join
    ),
)


@given(_cubic_texts)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_parse_cubic_fuzz_gives_a_cubic_or_field_analyze_exits_2(capsys, text):
    """Every draw over the polynomial alphabet parses to a CubicPoly or
    raises ValueError (ReduciblePolynomialError is one); field-analyze on
    every rejected draw exits 2 without a traceback."""
    try:
        poly = parse_cubic(text)
    except ValueError:  # ReduciblePolynomialError is a ValueError
        poly = None
    if poly is not None:
        assert isinstance(poly, CubicPoly)
        return
    code, out, err = run_cli(capsys, "field-analyze", text)
    assert code == 2, text
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, reference",
    [
        (["field-analyze", "-3,2,1"], ["field-analyze", "--", "-3,2,1"]),
        (["census", "-3,2,1"], ["census", "--", "-3,2,1"]),
        (
            ["field-analyze", "-3,2,1", "--witnesses"],
            ["field-analyze", "--witnesses", "--", "-3,2,1"],
        ),
    ],
)
def test_negative_leading_triple_is_the_poly(capsys, argv, reference):
    # argparse alone reads -3,2,1 as an unknown option and exits 2
    code, out, _ = run_cli(capsys, *argv)
    ref_code, ref_out, _ = run_cli(capsys, *reference)
    assert code == ref_code == 0
    assert out == ref_out


# The runs whose stdout must hash the same across refactors: the five
# fixture fields, an index-10 field (enlargement and index-prime paths),
# a --witnesses report, a field that expresses the class of a prime
# outside the factor base (x^3+8x-6), a field whose 3862-row relation
# matrix (disc_K 602645, Cl = (2, 2)) takes hnf_rows through its mod-det
# path on the way to class_generators (x^3-21x^2+19x+16), the Galois
# sweep on two cyclic fields, one of index 2, to 10^5 and 2*10^4 (their
# hashes recorded before the sweep read the splitting law), a small
# survey, group-check on every family and both fixture files, census,
# the one field-side user of permutations, and one CSV run of each
# command that writes CSV.  Group files are named
# relative to the fixtures directory, since group-check prints the name.
GOLDEN_RUNS = (
    ("field-analyze", "x^3-2"),
    ("field-analyze", "x^3-x-1"),
    ("field-analyze", "x^3-x^2-2x-8"),
    ("field-analyze", "x^3-3x-1"),
    ("field-analyze", "x^3-3x-1", "--max-enum", "1"),
    ("field-analyze", "x^3+4x-1"),
    ("field-analyze", "x^3-12x^2-5x-4"),
    ("field-analyze", "x^3+4x-1", "--witnesses"),
    ("field-analyze", "x^3+8x-6"),
    ("field-analyze", "x^3-21x^2+19x+16"),
    ("field-analyze", "x^3+8x-6", "--witnesses"),
    ("field-analyze", "x^3-12x-5", "--witnesses"),
    ("field-analyze", "x^3-3x-1", "--prime-bound", "100000"),
    ("field-analyze", "x^3-x^2-30x+64", "--prime-bound", "20000"),
    ("survey", "--coeff-bound", "3"),
    ("group-check", "--family", "S", "--n", "3..8"),
    ("group-check", "--family", "A", "--n", "3..8"),
    ("group-check", "--family", "D", "--n", "3..8"),
    ("group-check", "--family", "C", "--n", "3..8"),
    ("group-check", "--family", "S", "--n", "3..9"),
    ("group-check", "--family", "A", "--n", "3..9"),
    ("group-check", "F20", "c7_c3.grp", "d4.grp"),
    ("census", "x^3-2"),
    ("census", "x^3-3x-1"),
    ("group-check", "--format", "csv", "--family", "D", "--n", "3..8", "F20", "c7_c3.grp"),
    ("census", "x^3-2", "--prime-bound", "500", "--format", "csv"),
    ("census", "x^3-x^2-2x-8", "--prime-bound", "2000"),
    ("census", "x^3-12x^2-5x-4", "--prime-bound", "2000"),
)


def test_outputs_match_golden_hashes(capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    golden = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())
    got = {}
    for argv in GOLDEN_RUNS:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        got[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    assert got == golden
