"""CLI behaviour: exit codes, output formats, determinism, round trips."""

import hashlib
import json
from pathlib import Path

from polyakit.cli import main, survey_field

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
    # the closure ceiling applies to generator files
    code, _, err = run_cli(
        capsys, "group-check", str(FIXTURES / "c7_c3.grp"), "--max-closure", "5"
    )
    assert code == 3
    assert "budget" in err.lower() or "too large" in err.lower()


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


def test_field_analyze_galois_runs_ostrowski(capsys):
    code, out, _ = run_cli(capsys, "field-analyze", "x^3-3x-1", "--prime-bound", "60")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "ostrowski"
    assert rep["galois"] is True
    assert rep["all_principal"] is True


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
    rep1 = json.loads(out1)
    from polyakit import PolyaReport

    back = PolyaReport.from_json_dict(rep1)
    assert back.to_json_dict() == rep1
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


def test_survey_negative_bound_is_empty_stream(capsys):
    code, out, err = run_cli(capsys, "survey", "--coeff-bound", "-1")
    assert code == 0
    assert out == ""
    assert "survey summary" in err


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


def test_unknown_flag_exits_2(capsys):
    code = main(["field-analyze", "x^3-2", "--frobnicate"])
    assert code == 2


# The runs whose stdout must hash the same across refactors: the five
# fixture fields, an index-10 field (enlargement and index-prime paths),
# a --witnesses report, a field that expresses the class of a prime
# outside the factor base (x^3+8x-6) and a small survey.
GOLDEN_RUNS = (
    ("field-analyze", "x^3-2"),
    ("field-analyze", "x^3-x-1"),
    ("field-analyze", "x^3-x^2-2x-8"),
    ("field-analyze", "x^3-3x-1"),
    ("field-analyze", "x^3+4x-1"),
    ("field-analyze", "x^3-12x^2-5x-4"),
    ("field-analyze", "x^3+4x-1", "--witnesses"),
    ("field-analyze", "x^3+8x-6"),
    ("survey", "--coeff-bound", "3"),
)


def test_outputs_match_golden_hashes(capsys):
    golden = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())
    got = {}
    for argv in GOLDEN_RUNS:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        got[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    assert got == golden
