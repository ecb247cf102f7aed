import contextlib
import importlib
import io
import json
import subprocess
import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_admissible
import symbreak
from symbreak import cli, landscape, symrep, verify
from symbreak.errors import ConsistencyError
from symbreak.burnside import serialize_lattice
from symbreak.closed_forms import critical_set
from symbreak.cli import main
from symbreak.landscape import (
    finite_diff_gradient,
    gradient_exact,
    identity_teacher,
    kernel_f,
    kernel_mc,
)
from symbreak.report import (
    DEFAULT_TOLERANCES,
    dumps,
    format_float,
    load_schema,
    validate_report,
)


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


def test_alpha_grid_ends_at_stop(capsys, tmp_path):
    # start + (stop - start) * 2/2 rounds to 0.9999999999999999 here
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "spectrum",
                         "--k", "4", "--alpha-grid", "-1e-3", "1", "3")
    assert code == 0
    assert rep["config"]["alphas"] == [-1e-3, 0.49949999999999994, 1.0]
    assert [p["alpha"] for p in rep["results"]["per_alpha"]] == rep["config"]["alphas"]


@pytest.mark.parametrize("alpha", ["1e6", "1e10"])
def test_spectrum_large_alpha_passes_within_eigensolver_floor(alpha, capsys, tmp_path):
    # eigenvalues near 8.5e5 (8.5e9) agree to a few ulps, which exceeds the
    # absolute 1e-10 tolerance but not the k^2 eps scale floor
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "spectrum",
                         "--k", "4", "--alpha", alpha)
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["config"]["tolerance"] == 1e-10
    if alpha == "1e10":
        assert rep["results"]["per_alpha"][0]["match"]["max_deviation"] > 1e-10


def test_spectrum_domain_error_exit2(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path), "spectrum", "--k", "3", "--alpha", "1"])
    assert code == 2


def test_spectrum_dense_cap_exit3(capsys, tmp_path):
    # the dense eigensolve stops at k = 64: a capacity limit, not a usage error
    code = main(["--cache-dir", str(tmp_path), "spectrum", "--k", "65", "--alpha", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "capacity: dense eigenanalysis capped at k = 64\n"


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
    (["invariants", "--k", "4", "--cache-dir", "/dev/null/x"], "--cache-dir"),
    (["verify", "--cache-dir", "/dev/null/x"], "--cache-dir"),
    (["--tol", "critical_residual=abc", "critical", "--k", "5"], "critical_residual"),
    # 2k^2 in alpha_triv is inf from k ~ 9.5e153 on: the message names the
    # width, not a nan leak value
    *(pytest.param(["critical", "--k", str(10**e)],
                   f"error: k={10**e} overflows the W radicand", id=f"critical-k1e{e}")
      for e in (154, 155)),
    (["verify", "--seed", "-1"], "--seed"),
    (["verify", "--perturb-hessian", "nan"], "--perturb-hessian"),
    (["verify", "--perturb-hessian=inf"], "--perturb-hessian"),
    (["verify", "--perturb-hessian=-inf"], "--perturb-hessian"),
    (["--tol", "mc_pass_fraction=1.5", "verify"], "mc_pass_fraction"),
    # negative values that argparse alone reads as unknown options
    (["spectrum", "--k", "5", "--alpha", "-inf"], "--alpha"),
    (["verify", "--perturb-hessian", "-nan"], "--perturb-hessian"),
    # finite, but the coupling's square 2(k - 1) p^2 is not, at k = 5 or at k = 64
    (["verify", "--perturb-hessian", "1e308"], "--perturb-hessian"),
    (["verify", "--k", "64", "--perturb-hessian", "2e153"],
     "--perturb-hessian must keep 2(k - 1) p^2 finite at k=64"),
])
def test_bad_arguments_exit2_with_one_line(argv, names, capsys, tmp_path):
    # rejected before any command runs: no Monte-Carlo stage, no traceback
    assert main(["--cache-dir", str(tmp_path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and names in captured.err


def test_negative_leak_values_in_any_float_form(capsys, monkeypatch, tmp_path):
    # argparse alone reads -1e-3 and -1. as unknown options
    spectrum = ["--cache-dir", str(tmp_path), "spectrum", "--k", "4", "--output", "json"]
    assert main([*spectrum, "--alpha=-1e-3"]) == 0
    want = capsys.readouterr().out
    assert main([*spectrum, "--alpha", "-1e-3"]) == 0
    assert capsys.readouterr().out == want
    # main() with no argv parses sys.argv, as the console script does
    monkeypatch.setattr(sys, "argv", ["symbreak", *spectrum, "--alpha", "-1e-3"])
    assert main() == 0
    assert capsys.readouterr().out == want
    assert main([*spectrum, "--alpha", "-1."]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["alphas"] == [-1.0]
    assert main([*spectrum, "--alpha-grid", "-1e-3", "1", "3"]) == 0
    alphas = json.loads(capsys.readouterr().out)["config"]["alphas"]
    assert len(alphas) == 3 and alphas[0] == -1e-3


@pytest.mark.parametrize("argv, names", [
    (["verify", "--perturb", "-1e-3"], "unrecognized arguments: --perturb -1e-3"),
    (["verify", "--perturb=-1e-3"], "unrecognized arguments: --perturb=-1e-3"),
    (["critical", "--k", "5", "--out", "json"], "unrecognized arguments: --out json"),
    (["spectrum", "--k", "4", "--alph", "1"], "--alpha --alpha-grid is required"),
])
def test_abbreviated_flags_exit2(argv, names, capsys, tmp_path):
    # flags are accepted only in full, so a prefix that takes a negative
    # value is refused in both spellings instead of running one of them
    assert main(["--cache-dir", str(tmp_path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert names in captured.err


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


@pytest.mark.parametrize("exponent", [17, 18, 30, 100, 153])
def test_critical_ordering_holds_where_values_round_to_two(exponent, capsys, tmp_path):
    # both nonzero critical values print as 2.0; the chain is judged on
    # their distances from 2, which stay apart
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical",
                         "--k", str(10**exponent))
    assert code == 0
    assert rep["results"]["values"] == [0.0, 2.0, 2.0]
    assert max(rep["results"]["scaled_residuals"]) <= 1e-15


def test_critical_radicand_overflow_exit2(capsys, tmp_path):
    assert main(["--cache-dir", str(tmp_path), "critical", "--k", str(10**300)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows the W radicand" in captured.err


def test_critical_tolerance_override_can_fail(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path),
                         "--tol", "critical_residual=1e-30",
                         "critical", "--k", "1000000")
    assert code == 1
    assert rep["status"] == "fail"


def test_unknown_tolerance_rejected(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path), "--tol", "nope=1", "critical", "--k", "5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown tolerance 'nope';")


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


def _truncated(blob: bytes) -> bytes:
    return blob[:len(blob) // 2]


def _flipped_byte(blob: bytes) -> bytes:
    out = bytearray(blob)
    out[len(out) // 2] ^= 0x01
    return bytes(out)


def _non_ascii(blob: bytes) -> bytes:
    out = bytearray(blob)
    out[len(out) // 2] ^= 0x80
    return bytes(out)


def _edit_body(blob: bytes, old: str, new: str) -> bytes:
    """Replace the first `old` of the body and restore a valid checksum."""
    body = blob.decode("ascii").rsplit("checksum ", 1)[0]
    assert old in body
    body = body.replace(old, new, 1)
    return (body + f"checksum {zlib.crc32(body.encode('ascii'))}\n").encode("ascii")


def _header_without_equals(blob: bytes) -> bytes:
    return _edit_body(blob, " k=5\n", " k5\n")


def _non_numeric_order(blob: bytes) -> bytes:
    return _edit_body(blob, "\n0|1|", "\n0|x|")


def _header_names_other_width(blob: bytes) -> bytes:
    return _edit_body(blob, " k=5\n", " k=6\n")


def _leq_row_dropped(blob: bytes) -> bytes:
    return _edit_body(blob, "\n4 13\n", "\n")


def _generator_repeats_a_point(blob: bytes) -> bytes:
    return _edit_body(blob, "generators=(4 5)|D1", "generators=(4 5 4)|D1")


# the Weyl orders, the conjugate counts and the containment order are derived
# from these fields, so values that cannot be right are refused on reading
def _normalizer_order_zero(blob: bytes) -> bytes:
    return _edit_body(blob, "|2|12|generators=", "|2|0|generators=")


def _normalizer_order_not_a_multiple(blob: bytes) -> bytes:
    return _edit_body(blob, "|2|12|generators=", "|2|7|generators=")


def _n_value_zero(blob: bytes) -> bytes:
    return _edit_body(blob, "\n0 0 1\n", "\n0 0 0\n")


def _class_index_out_of_place(blob: bytes) -> bytes:
    return _edit_body(blob, "\n1|2|12|", "\n7|2|12|")


# the reports key expansions by label, so labels must be distinct and name
# the class order
def _label_duplicated(blob: bytes) -> bytes:
    return _edit_body(blob, "generators=(4 5)|D1\n", "generators=(4 5)|Z2\n")


def _label_names_wrong_order(blob: bytes) -> bytes:
    return _edit_body(blob, "generators=(1 2 3 4 5)|Z5\n", "generators=(1 2 3 4 5)|D5'\n")


# the generators of one class closing to a conjugate of another's
# representative: order, label and |N(H)| still agree
def _class_generates_a_conjugate(blob: bytes) -> bytes:
    return _edit_body(blob, "generators=(2 3)(4 5)|Z2\n", "generators=(4 5)|Z2\n")


def _header_names_other_version(blob: bytes) -> bytes:
    return _edit_body(blob, "burnside-lattice v1 k=5\n", "burnside-lattice v10 k=5\n")


# containment rows the writer never writes: the leq and n rows are edited
# together, so that they still name the same pairs
def _add_pair(blob: bytes, li: int, hi: int) -> bytes:
    blob = _edit_body(blob, "\nn:\n", f"\n{li} {hi}\nn:\n")
    return _edit_body(blob, "\nn:\n", f"\nn:\n{li} {hi} 1\n")


def _pair_names_no_class(blob: bytes) -> bytes:
    return _add_pair(blob, 99, 0)


def _order_does_not_divide(blob: bytes) -> bytes:
    return _add_pair(blob, 3, 2)      # |Z3| = 3 does not divide |Z2| = 2


def _orders_equal(blob: bytes) -> bytes:
    return _add_pair(blob, 1, 2)      # D1 and Z2, both of order 2


def _diagonal_dropped(blob: bytes) -> bytes:
    return _edit_body(_edit_body(blob, "\n5 5\n", "\n"), "\n5 5 1\n", "\n")


@pytest.mark.parametrize("corrupt", [_truncated, _flipped_byte, _non_ascii,
                                     _header_without_equals, _non_numeric_order,
                                     _header_names_other_width, _leq_row_dropped,
                                     _generator_repeats_a_point, _normalizer_order_zero,
                                     _normalizer_order_not_a_multiple, _n_value_zero,
                                     _class_index_out_of_place, _label_duplicated,
                                     _label_names_wrong_order, _class_generates_a_conjugate,
                                     _header_names_other_version,
                                     _pair_names_no_class, _order_does_not_divide,
                                     _orders_equal, _diagonal_dropped])
def test_corrupted_cache_is_rebuilt(corrupt, capsys, tmp_path):
    cold_code, cold = run_cli(capsys, "--cache-dir", str(tmp_path),
                              "invariants", "--k", "5", "--output", "json")
    assert cold_code == 0
    path = tmp_path / "lattice_k5.txt"
    good = path.read_bytes()
    path.write_bytes(corrupt(good))
    assert main(["--cache-dir", str(tmp_path), "invariants", "--k", "5",
                 "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("cache: rebuilt lattice_k5.txt (")
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["lattice_k5.txt"]


def _lattice_path_is_a_directory(tmp_path, monkeypatch):
    (tmp_path / "lattice_k4.txt").mkdir()


def _replace_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)


@pytest.mark.parametrize("break_cache", [_lattice_path_is_a_directory, _replace_fails])
def test_unusable_cache_file_exits2_with_one_line(break_cache, capsys, tmp_path, monkeypatch):
    break_cache(tmp_path, monkeypatch)
    assert main(["--cache-dir", str(tmp_path), "invariants", "--k", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--cache-dir" in captured.err
    assert not list(tmp_path.glob("*.tmp"))


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


@pytest.mark.parametrize("k, degenerating", [
    (7, [["5/1/1", "5/2", "6/1"], ["6/1"], ["7"]]),
    (8, [["6/1/1", "6/2", "7/1"], ["7/1"], ["8"]]),
])
def test_invariants_above_cap_pinned(k, degenerating, capsys, tmp_path):
    # the exact report's entries, without the ring part, behind the notice
    notice = ("exact Burnside-ring computation is declared up to k=6; "
              "use 'critical' for the width-independent spectral conclusions")
    values = critical_set(k).values
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "invariants", "--k", str(k))
    assert code == 3
    assert (rep["status"], rep["exit_code"], rep["checks"]) == ("capacity", 3, [])
    assert rep["results"] == {
        "capacity_notice": notice,
        "invariants": [{"critical_value": v, "degenerating": d}
                       for v, d in zip(values, degenerating)],
    }
    code, text = run_cli(capsys, "--cache-dir", str(tmp_path), "invariants", "--k", str(k))
    assert code == 3
    lines = ["command: invariants", "status:  capacity",
             f"config:  {{k: {k}, cache_dir: {tmp_path}}}", "results:",
             f"  capacity_notice: {notice}", "  invariants:"]
    for v, d in zip(values, degenerating):
        lines += ["    -", f"      critical_value: {format_float(v)}",
                  f"      degenerating: [{', '.join(d)}]"]
    assert text == "\n".join([*lines, "checks:"]) + "\n"
    assert not list(tmp_path.iterdir())     # no lattice was built or read


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


def test_verify_stdout_independent_of_worker_count(capsys, tmp_path, monkeypatch):
    _, default = run_cli(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST,
                         "--output", "json")
    threads = set()
    real = landscape.kernel_mc

    def recording_kernel_mc(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(landscape, "kernel_mc", recording_kernel_mc)
    for workers in (1, 3):
        threads.clear()
        monkeypatch.setattr(verify, "mc_workers", lambda: workers)
        _, out = run_cli(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST,
                         "--output", "json")
        assert out == default, workers
        # serial in the calling thread; pooled on worker threads only
        if workers == 1:
            assert threads == {threading.current_thread().name}
        else:
            assert threads and threading.current_thread().name not in threads


def test_run_verify_matches_serial_trial_loop(lattice4, lattice5):
    config = verify.VerifyConfig(ks=(4,), mc_trials=60, mc_samples=5000, fd_points=5,
                                 lattice_provider={4: lattice4, 5: lattice5}.get)
    checks, _ = verify.run_verify(config)
    detail = {c["name"]: c["detail"] for c in checks}

    # the serial trial loop the pool replaces, then the gradient check's
    # draws, which see the generator state the trials leave behind
    rng = np.random.default_rng(config.seed)
    hits = 0
    for _ in range(config.mc_trials):
        w = rng.standard_normal(4)
        v = rng.standard_normal(4)
        if np.linalg.norm(w) < 1e-3 or np.linalg.norm(v) < 1e-3:
            hits += 1
            continue
        alpha = float(rng.uniform(-0.5, 2.5))
        est, se = kernel_mc(w, v, alpha, config.mc_samples, int(rng.integers(2**31)))
        if abs(est - kernel_f(w, v, alpha)) <= 3.0 * se:
            hits += 1
    teacher = identity_teacher(4)
    worst_rel = 0.0
    for _ in range(config.fd_points):
        point = random_admissible(rng, 4)
        alpha = float(rng.uniform(-1.0, 3.0))
        g = gradient_exact(point, teacher, alpha)
        fd = finite_diff_gradient(point, teacher, alpha, 1e-5)
        scale = max(1.0, float(np.abs(fd).max()))
        worst_rel = max(worst_rel, float(np.abs(g - fd).max()) / scale)

    assert detail["mc_kernel_3sigma"]["pass_fraction"] == hits / config.mc_trials
    assert detail["gradient_exact_vs_fd"]["worst_relative_error"] == worst_rel


def test_verify_perturbation_fails(capsys, tmp_path):
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST,
                         "--perturb-hessian", "1e-3")
    assert code == 1
    failing = {c["name"] for c in rep["checks"] if not c["passed"] and c["hard"]}
    assert "spectrum_match_sweep" in failing


@pytest.mark.parametrize("exc, code", [
    (IndexError("row 9"), 4),
    (ConsistencyError("row orthogonality fails"), 1),
], ids=["IndexError", "ConsistencyError"])
def test_verify_orthogonality_exit_codes(exc, code, capsys, tmp_path, monkeypatch):
    # a defect inside the orthogonality check is an internal error (4); only
    # a violated relation is a failed check (1)
    def broken(self):
        raise exc

    monkeypatch.setattr(symrep.CharacterTable, "check_orthogonality", broken)
    assert main(["--cache-dir", str(tmp_path), *VERIFY_FAST, "--output", "json"]) == code
    captured = capsys.readouterr()
    if code == 4:
        assert captured.out == ""
        assert captured.err == "internal error: IndexError: row 9\n"
    else:
        rep = json.loads(captured.out)
        assert {c["name"] for c in rep["checks"] if not c["passed"]} == {"character_orthogonality"}


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


@pytest.mark.parametrize("output", ["json", "text"])
def test_unformattable_report_exits2_with_one_line(output, capsys, tmp_path, monkeypatch):
    real = cli.cmd_critical

    def nan_critical(args, tol):
        report, code = real(args, tol)
        report["results"]["values"][1] = float("nan")
        return report, code

    monkeypatch.setattr(cli, "cmd_critical", nan_critical)
    code = main(["--cache-dir", str(tmp_path), "critical", "--k", "5", "--output", output])
    assert code not in (0, 1)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "non-finite" in captured.err


@pytest.mark.parametrize("exc, line", [
    (KeyError("values"), "internal error: KeyError: 'values'\n"),
    (ValueError("two\nlines"), "internal error: ValueError: two lines\n"),
], ids=["KeyError", "ValueError"])
def test_internal_error_exits4_with_one_line(exc, line, capsys, tmp_path, monkeypatch):
    # a defect is neither a usage error (2) nor a failed check (1)
    def broken(args, tol):
        raise exc

    monkeypatch.setattr(cli, "cmd_critical", broken)
    assert main(["--cache-dir", str(tmp_path), "critical", "--k", "5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


# ---------------------------------------------------------------------------
# fuzzing the whole command line
# ---------------------------------------------------------------------------

_HUGE_K = 10 ** 399 + 7    # 400 digits, above the largest float
_LEAKS = st.one_of(
    st.floats(-5, 5).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308"]),
    st.floats().map(repr),
)
_BAD_WIDTHS = st.one_of(st.integers(-3, 3), st.just(_HUGE_K))
_TOL = st.builds(
    "{}={}".format,
    st.one_of(st.sampled_from(sorted(DEFAULT_TOLERANCES)), st.text(max_size=8)),
    st.one_of(st.floats(1e-14, 1e3).map(repr), _LEAKS, st.text(max_size=8)),
)


@st.composite
def _argv(draw, cache_dir):
    command = draw(st.sampled_from(["critical", "spectrum", "invariants", "verify"]))
    if command == "critical":
        width = draw(st.one_of(st.integers(4, 70), st.integers(71, 10 ** 30), _BAD_WIDTHS))
        args = [f"--k={width}"]
    elif command == "spectrum":
        width = draw(st.one_of(st.integers(4, 8), _BAD_WIDTHS))
        args = [f"--k={width}", f"--alpha={draw(_LEAKS)}"]
    elif command == "invariants":
        width = draw(st.one_of(st.sampled_from([4, 5]), st.integers(7, 10 ** 30), _BAD_WIDTHS))
        args = [f"--k={width}"]
    else:  # only arguments that validation rejects: verify itself is ~15 s
        args = [draw(st.sampled_from(["--k=3", f"--k={_HUGE_K}", "--mc-trials=0",
                                      "--mc-samples=1", "--fd-points=0", "--seed=-1",
                                      "--perturb-hessian=nan", "--perturb-hessian=inf"]))]
    tol = [f"--tol={pair}" for pair in draw(st.lists(_TOL, max_size=1))]
    return ["--cache-dir", str(cache_dir), *tol, command, *args, "--output=json"]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_codes_and_reports(data, tmp_path_factory):
    argv = data.draw(_argv(tmp_path_factory.getbasetemp() / "fuzz-cache"), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if out.getvalue():
        # a report, which a capacity limit (exit 3) also emits
        report = json.loads(out.getvalue())
        assert validate_report(report) == []
        assert report["exit_code"] == code and code != 2
    else:
        # refused: exit 2 or 3, with the reason in one line
        assert code in (2, 3)
        assert err.getvalue().count("\n") == 1


def test_json_floats_have_17_significant_digits():
    blob = dumps({"x": 2.2094612037138237, "n": 3})
    assert "2.2094612037138237" in blob
    assert '"n": 3' in blob


_NUMPY_FREE_INVARIANTS = """
import contextlib, io, sys
import symbreak.cli
assert "numpy" not in sys.modules, "import symbreak.cli"
for k in (4, 5, 6, 7, 8):
    for output in ("json", "text"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = symbreak.cli.main(["invariants", "--k", str(k), "--cache-dir", sys.argv[1],
                                      "--output", output])
        assert code == (0 if k <= 6 else 3), (k, output, code)
        assert "numpy" not in sys.modules, (k, output)
from symbreak import BurnsideElement, build_lattice, critical_set
assert critical_set(5).values[1] > 2.0 and "numpy" not in sys.modules
import symbreak
assert symbreak.hessian.hessian_at_minimum is symbreak.hessian_at_minimum
"""


def test_warm_invariants_never_import_numpy(tmp_path, request):
    # a fresh interpreter: the exact layer (cache read, ring products,
    # degrees, critical set, golden, report) runs without numpy
    for k in (4, 5, 6):
        lattice = request.getfixturevalue(f"lattice{k}")
        (tmp_path / f"lattice_k{k}.txt").write_bytes(serialize_lattice(lattice))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_INVARIANTS, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""    # every width read its warm cache


_NUMPY_FREE_CRITICAL = """
import contextlib, io, sys
import symbreak.cli
for k in ("5", "64"):
    for output in ("json", "text"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = symbreak.cli.main(["critical", "--k", k, "--output", output])
        assert code == 0, (k, output, code)
        assert "root_scan" in out.getvalue(), (k, output)
assert "numpy" not in sys.modules
"""


def test_critical_never_imports_numpy():
    # a fresh interpreter: the root scan at k <= 64 is pure Python
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CRITICAL],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_DENSE_CAP_BEFORE_WORK = """
import contextlib, io, sys
import symbreak.cli
for argv in (["spectrum", "--k", "65", "--alpha", "1"],
             ["verify", "--k", "65", "--cache-dir", sys.argv[1]],
             ["verify", "--k", "4", "--k", "1000"]):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = symbreak.cli.main(argv)
    assert code == 3, (argv, code)
    assert err.getvalue() == "capacity: dense eigenanalysis capped at k = 64\\n", argv
    assert "numpy" not in sys.modules, argv
"""


def test_dense_cap_refused_before_any_work(tmp_path):
    # a fresh interpreter: widths above the dense cap exit 3 from argument
    # checking, before verify's Monte-Carlo or any numpy import
    proc = subprocess.run([sys.executable, "-c", _DENSE_CAP_BEFORE_WORK, str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_every_export_resolves_in_its_submodule():
    # each public name loads lazily from the submodule _EXPORTS names, and is
    # defined there, so deleting a definition cannot leave an export dangling
    for name in symbreak.__all__:
        assert name not in vars(symbreak), name
        obj = getattr(symbreak, name)
        module = importlib.import_module(f"symbreak.{symbreak._EXPORTS[name]}")
        assert obj is getattr(module, name)
        assert obj.__module__ == module.__name__, name


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "symbreak.cli", "critical", "--k", "5",
         "--cache-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "status:  pass" in proc.stdout
