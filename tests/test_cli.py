import json
import subprocess
import sys

import pytest

from symbreak.cli import main
from symbreak.report import dumps, load_schema, validate_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--output", "json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_k5_alpha1(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "spectrum",
                         "--k", "5", "--alpha", "1")
    assert code == 0
    assert rep["status"] == "pass"
    groups = rep["results"]["per_alpha"][0]["value_groups"]
    assert sorted(g["multiplicity"] for g in groups) == [1, 1, 4, 4, 5, 10]
    assert len(groups) == 6


def test_spectrum_k4_alpha0_degenerate(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "spectrum",
                         "--k", "4", "--alpha", "0")
    assert code == 0
    clusters = rep["results"]["per_alpha"][0]["match"]["clusters"]
    assert sum(c["multiplicity"] for c in clusters) == 16


def test_spectrum_alpha_grid(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "spectrum",
                         "--k", "4", "--alpha-grid", "0", "2", "5")
    assert code == 0
    assert [p["alpha"] for p in rep["results"]["per_alpha"]] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_spectrum_domain_error_exit2(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path), "spectrum", "--k", "3", "--alpha", "1"])
    assert code == 2


@pytest.mark.parametrize("argv, names", [
    (["verify", "--k", "3"], "--k 3"),
    (["critical", "--k", "3"], "--k 3"),
    (["verify", "--mc-trials", "0"], "--mc-trials"),
    (["verify", "--fd-points", "0"], "--fd-points"),
    (["verify", "--mc-samples", "1"], "--mc-samples"),
    (["spectrum", "--k", "5", "--alpha", "nan"], "--alpha"),
    (["spectrum", "--k", "5", "--alpha", "inf"], "--alpha"),
    (["spectrum", "--k", "5", "--alpha=-inf"], "--alpha"),
    (["spectrum", "--k", "5", "--alpha-grid", "0", "nan", "3"], "--alpha-grid"),
    (["spectrum", "--k", "5", "--alpha-grid", "0", "1", "inf"], "--alpha-grid"),
    (["spectrum", "--k", "5", "--alpha", "1e308"], "overflows"),
    (["--tol", "critical_residual=nan", "critical", "--k", "5"], "critical_residual"),
    (["--tol", "critical_residual=inf", "critical", "--k", "5"], "critical_residual"),
    (["critical", "--k", "1" + "0" * 310], "--k"),
    (["spectrum", "--k", "5", "--alpha-grid", "0", "1", "2.7"], "--alpha-grid"),
])
def test_bad_arguments_exit2_with_one_line(argv, names, capsys, tmp_path):
    # rejected before any command runs: no Monte-Carlo stage, no traceback
    assert main(["--cache-dir", str(tmp_path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and names in captured.err


def test_alpha_grid_points_capacity_exit3(capsys, tmp_path):
    # refused before the grid is built
    assert main(["--cache-dir", str(tmp_path), "spectrum", "--k", "5",
                 "--alpha-grid", "0", "1", "1e9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--alpha-grid" in captured.err


def test_spectrum_schema_valid(capsys, tmp_path):
    _, rep = run_json(capsys, "--cache-dir", str(tmp_path), "spectrum",
                      "--k", "5", "--alpha", "0.5")
    assert validate_report(rep) == []
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(rep, load_schema())


# ---------------------------------------------------------------------------
# critical
# ---------------------------------------------------------------------------

def test_critical_k5(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical", "--k", "5")
    assert code == 0
    values = rep["results"]["values"]
    assert values[0] == 0.0
    assert values[1] == pytest.approx(2.2094612037138237, abs=1e-12)
    assert values[2] == pytest.approx(3.158727282587906, abs=1e-12)


def test_critical_k4(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical", "--k", "4")
    assert code == 0
    assert rep["results"]["values"][1] == pytest.approx(2.254, abs=1e-3)


def test_critical_huge_k_asymptote(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical",
                         "--k", "1000000")
    assert code == 0
    assert max(rep["results"]["asymptote_distance"]) <= 1e-4


def test_critical_tolerance_override_can_fail(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path),
                         "--tol", "critical_residual=1e-30",
                         "critical", "--k", "1000000")
    assert code == 1
    assert rep["status"] == "fail"


def test_unknown_tolerance_rejected(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path), "--tol", "nope=1", "critical", "--k", "5"])
    assert code == 2


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_k5_and_cache_determinism(capsys, tmp_path):
    code1, out1 = run_cli(capsys, "--cache-dir", str(tmp_path),
                          "invariants", "--k", "5", "--output", "json")
    assert code1 == 0
    assert (tmp_path / "lattice_k5.txt").exists()
    code2, out2 = run_cli(capsys, "--cache-dir", str(tmp_path),
                          "invariants", "--k", "5", "--output", "json")
    assert code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["results"]["reference_comparison"]["ok"]
    assert rep["results"]["lattice"]["classes"] == 19
    assert rep["results"]["lattice"]["total_subgroups"] == 156
    names = {c["name"]: c["passed"] for c in rep["checks"]}
    assert names["involution"] and names["reference_expansions"]


def test_invariants_k4(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "invariants", "--k", "4")
    assert code == 0
    assert rep["results"]["lattice"]["classes"] == 11
    assert all(inv["nonzero"] for inv in rep["results"]["invariants"])


@pytest.mark.slow
def test_invariants_k6_consistency_suite(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "invariants", "--k", "6")
    assert code == 0
    assert rep["results"]["lattice"]["classes"] == 56
    assert rep["results"]["lattice"]["total_subgroups"] == 1455
    names = {c["name"]: c["passed"] for c in rep["checks"]}
    assert names["involution"] and names["leading_coefficients"]
    assert "reference_comparison" not in rep["results"]  # no golden beyond k=5


def test_invariants_capacity_exit3(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "invariants", "--k", "7")
    assert code == 3
    assert rep["status"] == "capacity"
    assert "capacity_notice" in rep["results"]


def test_invariants_domain_exit2(capsys, tmp_path):
    assert main(["--cache-dir", str(tmp_path), "invariants", "--k", "3"]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_FAST = ["verify", "--k", "4", "--mc-trials", "25", "--mc-samples", "20000",
               "--fd-points", "5", "--seed", "20240901"]


def test_verify_fast_passes(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST)
    assert code == 0, [c for c in rep["checks"] if not c["passed"]]
    assert rep["status"] == "pass"
    assert "PCG64" in rep["rng"]
    hard = {c["name"] for c in rep["checks"] if c["hard"]}
    assert "spectrum_negative_control" in hard
    soft = {c["name"] for c in rep["checks"] if not c["hard"]}
    assert "published_formula_gap_reported" in soft


def test_verify_deterministic(capsys, tmp_path):
    _, out1 = run_cli(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST,
                      "--output", "json")
    _, out2 = run_cli(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST,
                      "--output", "json")
    assert out1 == out2


def test_verify_perturbation_fails(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST,
                         "--perturb-hessian", "1e-3")
    assert code == 1
    failing = {c["name"] for c in rep["checks"] if not c["passed"] and c["hard"]}
    assert "spectrum_match_sweep" in failing


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_text_and_json_carry_identical_numbers(capsys, tmp_path):
    _, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical", "--k", "5")
    _, text = run_cli(capsys, "--cache-dir", str(tmp_path), "critical", "--k", "5")
    from symbreak.report import format_float

    for value in rep["results"]["values"][1:]:
        assert format_float(value) in text
    for value in rep["results"]["asymptote_distance"]:
        assert format_float(value) in text


def test_json_floats_have_17_significant_digits():
    blob = dumps({"x": 2.2094612037138237, "n": 3})
    assert "2.2094612037138237" in blob
    assert '"n": 3' in blob


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "symbreak.cli", "critical", "--k", "5",
         "--cache-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "status:  pass" in proc.stdout
