import contextlib
import hashlib
import importlib
import inspect
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import zlib
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_by_label, random_admissible
import symbreak
from symbreak import cli, degrees, landscape, symrep, verify
from symbreak.errors import ConsistencyError
from symbreak.burnside import _derived_rows, load_lattice, serialize_lattice
from symbreak.closed_forms import critical_set
from symbreak.cli import main
from symbreak.landscape import (
    finite_diff_gradient,
    gradient_exact,
    identity_teacher,
    kernel_f,
    kernel_mc,
)
from symbreak.report import TOLERANCES, check, dumps, format_float

# the shipped schema, which the package does not read at run time: the tests hold reports to it
REPORT_SCHEMA = json.loads(
    resources.files("symbreak").joinpath("data/report_schema.json").read_text())


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
    # there is no --tol: it is refused in every position and spelling, where
    # argparse reads a top-level value as the command
    (["--tol", "critical_residual=nan", "critical", "--k", "5"], "critical_residual"),
    (["critical", "--k", "5", "--tol", "critical_residual=inf"], "critical_residual"),
    (["critical", "--k", "1" + "0" * 310], "--k"),
    (["spectrum", "--k", "5", "--alpha-grid", "0", "1", "2.7"], "--alpha-grid"),
    (["invariants", "--k", "4", "--cache-dir", "/dev/null/x"], "--cache-dir"),
    (["verify", "--cache-dir", "/dev/null/x"], "--cache-dir"),
    (["--tol=critical_residual=abc", "critical", "--k", "5"], "critical_residual"),
    # 2k^2 in alpha_triv is inf from k ~ 9.5e153 on: the message names the
    # width, not a nan leak value
    *(pytest.param(["critical", "--k", str(10**e)],
                   f"error: k={10**e} overflows the W radicand", id=f"critical-k1e{e}")
      for e in (154, 155)),
    (["verify", "--seed", "-1"], "--seed"),
    (["verify", "--perturb-hessian", "nan"], "--perturb-hessian"),
    (["verify", "--perturb-hessian=inf"], "--perturb-hessian"),
    (["verify", "--perturb-hessian=-inf"], "--perturb-hessian"),
    (["verify", "--tol", "mc_pass_fraction=1.5"], "mc_pass_fraction"),
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


@pytest.mark.parametrize("grid", [("-1e308", "1e308", "2"), ("-8e307", "8e307", "4")])
def test_alpha_grid_beyond_the_float_range_exit2(grid, capsys, tmp_path):
    # stop - start, or a step of the grid, overflows: the grid would hold a
    # nan or inf point that the user never gave
    assert main(["--cache-dir", str(tmp_path), "spectrum", "--k", "4", "--alpha-grid", *grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --alpha-grid {float(grid[0])!r} to {float(grid[1])!r} "
                            "has points beyond the float range\n")


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
    jsonschema.validate(rep, REPORT_SCHEMA)


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


def test_critical_ordering_chain_reads_the_values(capsys, tmp_path, monkeypatch):
    # the check judges the values critical_set returns: a chain out of order
    # fails it, and the report with it
    real = cli.critical_set
    monkeypatch.setattr(cli, "critical_set",
                        lambda k: real(k)._replace(values=(0.0, 3.0, 2.5)))
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical", "--k", "5")
    (record,) = [c for c in rep["checks"] if c["name"] == "ordering_chain"]
    assert code == 1 and not record["passed"]
    assert rep["results"]["ordering_chain"] == [0.0, 3.0, 2.5]


@pytest.mark.parametrize("exponent", [17, 18, 30, 100, 153])
def test_critical_ordering_holds_where_values_round_to_two(exponent, capsys, tmp_path):
    # both nonzero critical values print as 2.0; the chain is judged on
    # their distances from 2, which stay apart
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical",
                         "--k", str(10**exponent))
    assert code == 0
    assert rep["results"]["values"] == [0.0, 2.0, 2.0]
    assert max(rep["results"]["scaled_residuals"]) <= 1e-15


def test_root_scan_width_does_not_follow_the_dense_cap(capsys, tmp_path, monkeypatch):
    # critical scans roots up to k = 64 whatever width the dense oracle takes
    monkeypatch.setattr(cli, "MAX_DENSE_K", 128)
    for k, scanned in ((64, True), (65, False)):
        code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical", "--k", str(k))
        assert code == 0
        assert ("root_scan" in rep["results"]) == scanned


def test_critical_radicand_overflow_exit2(capsys, tmp_path):
    assert main(["--cache-dir", str(tmp_path), "critical", "--k", str(10**300)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows the W radicand" in captured.err


def test_critical_tolerance_override_can_fail(capsys, tmp_path, monkeypatch):
    # the gates are fixed; a tighter one in the table reaches the exit-1 path
    monkeypatch.setitem(TOLERANCES, "critical_residual", 1e-30)
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "critical", "--k", "1000000")
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["config"]["tolerance"] == 1e-30


def test_unknown_tolerance_rejected(capsys, tmp_path):
    # no run can move a gate: --tol is an unrecognized argument
    assert main(["--cache-dir", str(tmp_path), "critical", "--k", "5", "--tol", "nope=1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "symbreak: error: unrecognized arguments: --tol nope=1\n"
    assert main(["--cache-dir", str(tmp_path), "--tol", "critical_residual=1",
                 "critical", "--k", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


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


def _body(blob: bytes) -> str:
    return blob.decode("ascii").rsplit("checksum ", 1)[0]


def _with_checksum(body: str) -> bytes:
    return (body + f"checksum {zlib.crc32(body.encode('ascii'))}\n").encode("ascii")


def _edit_body(blob: bytes, old: str, new: str) -> bytes:
    """Replace the first `old` of the body and restore a valid checksum."""
    body = _body(blob)
    assert old in body
    return _with_checksum(body.replace(old, new, 1))


def _keep_lines(blob: bytes, keep) -> bytes:
    """Keep the body lines for which keep(line) holds; restore the checksum."""
    lines = _body(blob).splitlines(keepends=True)
    kept = [line for line in lines if keep(line)]
    assert len(kept) < len(lines)
    return _with_checksum("".join(kept))


def _header_without_equals(blob: bytes) -> bytes:
    return _edit_body(blob, " k=5\n", " k5\n")


def _non_numeric_order(blob: bytes) -> bytes:
    return _edit_body(blob, "\n120|\n", "\nx|\n")


def _header_names_other_width(blob: bytes) -> bytes:
    return _edit_body(blob, " k=5\n", " k=6\n")


def _generator_repeats_a_point(blob: bytes) -> bytes:
    return _edit_body(blob, "\n12|01243\n", "\n12|01143\n")


# a generator is the string of its 0-based images, one digit per point
def _generator_too_short(blob: bytes) -> bytes:
    return _edit_body(blob, "\n12|01243\n", "\n12|0124\n")


def _generator_not_a_digit(blob: bytes) -> bytes:
    return _edit_body(blob, "\n12|01243\n", "\n12|0124x\n")


# the Weyl orders, the conjugate counts and the containment order are derived
# from these fields, so values that cannot be right are refused on reading
def _normalizer_order_zero(blob: bytes) -> bytes:
    return _edit_body(blob, "\n12|01243\n", "\n0|01243\n")


def _normalizer_order_not_a_multiple(blob: bytes) -> bytes:
    return _edit_body(blob, "\n12|01243\n", "\n7|01243\n")


# a cyclic class's |N(H)| is fixed by its own derived row, n(H,H) =
# z c(H)/|N(H)| = 1: for D1, z = 12 and c = 1, so 6 gives 2 and 24 gives 1/2
def _cyclic_normalizer_order_halved(blob: bytes) -> bytes:
    return _edit_body(blob, "\n12|01243\n", "\n6|01243\n")


def _cyclic_normalizer_order_doubled(blob: bytes) -> bytes:
    return _edit_body(blob, "\n12|01243\n", "\n24|01243\n")


def _n_value_zero(blob: bytes) -> bytes:
    return _edit_body(blob, "\n4 11 1\n", "\n4 11 0\n")


# the ring's unit is the full class and the free orbit the trivial one, so
# a file without either is refused
def _no_class_lines(blob: bytes) -> bytes:
    return _keep_lines(blob, lambda line: not line[0].isdigit())


def _full_class_dropped(blob: bytes) -> bytes:
    return _keep_lines(blob, lambda line: not re.fullmatch(r"120\|\d.*\n", line))


# the generators of one class closing to a conjugate of another's
# representative: the order and |N(H)| still agree
def _class_generates_a_conjugate(blob: bytes) -> bytes:
    return _edit_body(blob, "\n8|02143\n", "\n8|01243\n")


# the builder's class order (burnside.class_key) is read back:
# D1 (a transposition) and Z2 (a double transposition) share the order 2
def _class_lines_swapped(blob: bytes) -> bytes:
    lines = _body(blob).split("\n")
    d1, z2 = lines.index("12|01243"), lines.index("8|02143")
    lines[d1], lines[z2] = lines[z2], lines[d1]
    return _with_checksum("\n".join(lines))


# the class order is strict, and a repeated class ties with itself
def _class_line_repeated(blob: bytes) -> bytes:
    return _edit_body(blob, "\n8|02143\n", "\n12|01243\n")


# a repeated class whose stated |N(H)| (24, a multiple of 2 dividing 120)
# puts its line in strictly increasing order between D1 and Z3: the reader
# derives the other key fields, which still tie with D1's
def _class_line_repeated_with_other_normalizer(blob: bytes) -> bytes:
    return _edit_body(blob, "\n8|02143\n", "\n24|01243\n")


def _header_names_other_version(blob: bytes) -> bytes:
    return _edit_body(blob, "burnside-lattice v3 k=5\n", "burnside-lattice v30 k=5\n")


# containment rows the writer never writes, ahead of its first row (4 11)
def _add_pair(blob: bytes, li: int, hi: int, n: int = 1) -> bytes:
    return _edit_body(blob, "\nn:\n", f"\nn:\n{li} {hi} {n}\n")


def _pair_names_no_class(blob: bytes) -> bytes:
    return _add_pair(blob, 99, 0)


def _order_does_not_divide(blob: bytes) -> bytes:
    return _add_pair(blob, 4, 3)      # |D2| = 4 does not divide |Z3| = 3


def _orders_equal(blob: bytes) -> bytes:
    return _add_pair(blob, 4, 5)      # D2 and V4, both of order 4


def _diagonal_row_added(blob: bytes) -> bytes:
    return _add_pair(blob, 5, 5)      # n(H,H) = 1 is derived, never written


# the rows _derived_rows gives, stated with their true values: the trivial
# class's n(Z1, D1) = 120/|N(D1)|, a row of the cyclic D1, and n(D2, S5) = 1
def _trivial_row_stated(blob: bytes) -> bytes:
    return _add_pair(blob, 0, 1, 10)


def _cyclic_row_stated(blob: bytes) -> bytes:
    return _add_pair(blob, 1, 4, 3)


def _full_group_row_stated(blob: bytes) -> bytes:
    return _edit_body(blob, "\n4 16 1\n", "\n4 16 1\n4 18 1\n")


# edits of trivial-class rows that a file stating them used to pass: each
# is now a stated derived row
def _trivial_row_lowered(blob: bytes) -> bytes:
    return _add_pair(blob, 0, 1, 9)


def _trivial_row_doubled(blob: bytes) -> bytes:
    return _add_pair(blob, 0, 1, 20)


def _trivial_row_into_v4_doubled(blob: bytes) -> bytes:
    return _add_pair(blob, 0, 5, 10)


# a stated row raised by 1 that the reader cannot tell from a true one:
# the exact solve fails on it, and the failure rebuilds the file
def _stated_row_raised(blob: bytes) -> bytes:
    return _edit_body(blob, "\n4 11 1\n", "\n4 11 2\n")


# the writer writes each pair once, in strictly increasing (L, H) order
def _pair_repeated(blob: bytes) -> bytes:
    return _edit_body(blob, "\n4 11 1\n", "\n4 11 1\n4 11 1\n")


def _pair_repeated_with_other_value(blob: bytes) -> bytes:
    return _edit_body(blob, "\n4 11 1\n", "\n4 11 1\n4 11 2\n")


def _pairs_swapped(blob: bytes) -> bytes:
    return _edit_body(blob, "\n4 11 1\n4 13 2\n", "\n4 13 2\n4 11 1\n")


def _generator_fields(blob: bytes) -> list[str]:
    """The generators field of each class line of a v3 file."""
    lines = _body(blob).split("\n")
    return [line.split("|")[1] for line in lines[1:lines.index("n:")]]


# the k = 4 generators in the 1-based cycle notation of the v1 and v2 files
_K4_CYCLE_GENERATORS = ["", "(3 4)", "(1 2)(3 4)", "(2 3 4)", "(3 4),(1 2)",
                        "(1 2)(3 4),(1 3)(2 4)", "(1 2)(3 4),(1 3 2 4)", "(3 4),(2 3)",
                        "(3 4),(1 2),(1 3)(2 4)", "(2 3 4),(1 2)(3 4)", "(3 4),(2 3),(1 2)"]


def _v1_bytes(lattice, generators: list[str]) -> bytes:
    """The burnside-lattice v1 text of a lattice: per class its index, order,
    |N(H)|, generators and label, then a leq: row and an n: row for every
    pair of the n table, n(H,H) = 1 included."""
    lines = [f"burnside-lattice v1 k={lattice.k}"]
    for c, gens in zip(lattice.classes, generators, strict=True):
        lines.append(f"{c.index}|{c.order}|{c.normalizer_order}|generators={gens}|{c.label}")
    pairs = sorted(lattice.n_table)
    lines += ["leq:", *(f"{li} {hi}" for li, hi in pairs)]
    lines += ["n:", *(f"{li} {hi} {lattice.n_table[li, hi]}" for li, hi in pairs)]
    return _with_checksum("\n".join(lines) + "\n")


def _v2_bytes(lattice, generators: list[str]) -> bytes:
    """The burnside-lattice v2 text of a lattice: per class |N(H)| and its
    generators, then one row per proper containment L < H."""
    lines = [f"burnside-lattice v2 k={lattice.k}"]
    lines += [f"{c.normalizer_order}|{gens}"
              for c, gens in zip(lattice.classes, generators, strict=True)]
    lines += ["n:", *(f"{li} {hi} {n}" for (li, hi), n in sorted(lattice.n_table.items())
                      if li != hi)]
    return _with_checksum("\n".join(lines) + "\n")


# a class without its n(H,H) = 1 row: a v3 file holds no such row and the
# reader supplies every one, and a v1 file that drops one is refused by its
# version like every v1 file
def _diagonal_dropped(blob: bytes) -> bytes:
    v1 = _v1_bytes(load_lattice(blob), _generator_fields(blob))
    return _edit_body(_edit_body(v1, "\n5 5\n", "\n"), "\n5 5 1\n", "\n")


@pytest.mark.parametrize("corrupt", [_truncated, _flipped_byte, _non_ascii,
                                     _header_without_equals, _non_numeric_order,
                                     _header_names_other_width,
                                     _generator_repeats_a_point, _generator_too_short,
                                     _generator_not_a_digit, _normalizer_order_zero,
                                     _normalizer_order_not_a_multiple,
                                     _cyclic_normalizer_order_halved,
                                     _cyclic_normalizer_order_doubled, _n_value_zero,
                                     _class_generates_a_conjugate, _class_lines_swapped,
                                     _class_line_repeated,
                                     _class_line_repeated_with_other_normalizer,
                                     _header_names_other_version,
                                     _pair_names_no_class, _order_does_not_divide,
                                     _orders_equal, _diagonal_dropped, _diagonal_row_added,
                                     _no_class_lines, _full_class_dropped, _pair_repeated,
                                     _pair_repeated_with_other_value, _pairs_swapped,
                                     _trivial_row_stated, _cyclic_row_stated,
                                     _full_group_row_stated, _trivial_row_lowered,
                                     _trivial_row_doubled, _trivial_row_into_v4_doubled,
                                     _stated_row_raised])
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


@pytest.mark.slow
def test_conjugate_class_lines_swapped_k6_is_rebuilt(capsys, tmp_path):
    # V4 and V4' tie on (order, cycle types, |N(H)|); V4 moves 4 points and
    # V4' moves 6, so the class order still tells the two lines apart
    cold_code, cold = run_cli(capsys, "--cache-dir", str(tmp_path),
                              "invariants", "--k", "6", "--output", "json")
    assert cold_code == 0
    path = tmp_path / "lattice_k6.txt"
    good = path.read_bytes()
    lines = _body(good).split("\n")
    v4, v4_prime = lines.index("48|013254,014523"), lines.index("48|013254,102354")
    lines[v4], lines[v4_prime] = lines[v4_prime], lines[v4]
    path.write_bytes(_with_checksum("\n".join(lines)))
    assert main(["--cache-dir", str(tmp_path), "invariants", "--k", "6",
                 "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("cache: rebuilt lattice_k6.txt (")
    assert path.read_bytes() == good


def _assert_earlier_version_rebuilt(capsys, tmp_path, version, digest: str) -> None:
    cold_code, cold = run_cli(capsys, "--cache-dir", str(tmp_path),
                              "invariants", "--k", "4", "--output", "json")
    assert cold_code == 0
    path = tmp_path / "lattice_k4.txt"
    good = path.read_bytes()
    earlier = version(load_lattice(good), _K4_CYCLE_GENERATORS)
    # the bytes the earlier writer wrote for k = 4
    assert hashlib.sha256(earlier).hexdigest() == digest
    path.write_bytes(earlier)
    assert main(["--cache-dir", str(tmp_path), "invariants", "--k", "4",
                 "--output", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == cold
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "cache: rebuilt lattice_k4.txt (unsupported lattice cache version")
    assert path.read_bytes() == good


def test_v1_cache_is_rebuilt(capsys, tmp_path):
    _assert_earlier_version_rebuilt(
        capsys, tmp_path, _v1_bytes,
        "e70202459551ae7095727ed09c09485304bd00c808b44893b767cf2a107596a3")


def test_v2_cache_is_rebuilt(capsys, tmp_path):
    # the digest the v2 format's serialized-lattice test pinned at k = 4
    _assert_earlier_version_rebuilt(
        capsys, tmp_path, _v2_bytes,
        "5f4ee4197bdc80c85a21327fefecbed01c2ea641e3fe2a60330eb3768586925d")


def test_failed_solve_rebuilds_a_lattice_read_from_the_cache_once(capsys, tmp_path, monkeypatch):
    def fail(lattice, marks):
        raise ConsistencyError("non-integer coefficient at class Z1: 1/2")

    monkeypatch.setattr(degrees, "solve_from_marks", fail)
    argv = ["--cache-dir", str(tmp_path), "invariants", "--k", "4"]
    # on a lattice just built, a failed solve is an engine defect
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-integer coefficient at class Z1: 1/2\n"
    # on one read from the file it blames the file: one rebuild, one retry
    good = (tmp_path / "lattice_k4.txt").read_bytes()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cache: rebuilt lattice_k4.txt (non-integer coefficient at class Z1: 1/2)\n"
                            "error: non-integer coefficient at class Z1: 1/2\n")
    assert (tmp_path / "lattice_k4.txt").read_bytes() == good


def test_two_concurrent_cold_runs_share_one_cache(tmp_path):
    # each writer renames its own per-process temp file into place, so two
    # cold runs racing on one directory both print the reference report and
    # leave one whole file
    want = (Path(__file__).resolve().parent.parent / "perfbench" / "reference"
            / "invariants_k_5.json").read_bytes()
    src = str(Path(symbreak.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "symbreak.cli", "--cache-dir", "cache",
            "invariants", "--k", "5", "--output", "json"]
    for _ in range(3):
        procs = [subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE) for _ in range(2)]
        try:
            results = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert [proc.returncode for proc in procs] == [0, 0], results
        assert results == [(want, b""), (want, b"")]
        cache = tmp_path / "cache"
        assert [p.name for p in cache.iterdir()] == ["lattice_k5.txt"]
        assert load_lattice((cache / "lattice_k5.txt").read_bytes()).k == 5
        (cache / "lattice_k5.txt").unlink()


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


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the kernel-trial pool forks its workers")


@needs_fork
def test_verify_stdout_independent_of_worker_count(capsys, tmp_path, monkeypatch):
    _, default = run_cli(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST,
                         "--output", "json")
    pid_log = tmp_path / "kernel_mc_pids.txt"
    real = landscape.kernel_mc

    def recording_kernel_mc(*args, **kwargs):
        # forked workers inherit this patch and append their own pid
        with open(pid_log, "a") as log:
            log.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(landscape, "kernel_mc", recording_kernel_mc)
    for workers in (1, 3):
        pid_log.write_text("")
        monkeypatch.setattr(verify, "mc_workers", lambda: workers)
        _, out = run_cli(capsys, "--cache-dir", str(tmp_path), *VERIFY_FAST,
                         "--output", "json")
        assert out == default, workers
        pids = {int(pid) for pid in pid_log.read_text().split()}
        # serial in the calling process; pooled on worker processes only
        if workers == 1:
            assert pids == {os.getpid()}
        else:
            assert pids and os.getpid() not in pids


@needs_fork
def test_verify_worker_failure_exits4_and_joins_workers(capsys, tmp_path, monkeypatch):
    parent = os.getpid()
    real = landscape.kernel_mc

    def kernel_mc_failing_in_workers(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("kernel worker fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(landscape, "kernel_mc", kernel_mc_failing_in_workers)
    monkeypatch.setattr(verify, "mc_workers", lambda: 2)
    assert main(["--cache-dir", str(tmp_path), *VERIFY_FAST, "--output", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: kernel worker fault\n"
    assert multiprocessing.active_children() == []


def _hit_none_or_multiple_of_3(trial) -> bool:
    return trial is None or trial % 3 == 0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_count_hits_exact_at_chunk_edges(workers):
    chunk = verify.MC_TRIAL_CHUNK
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * workers * chunk + 3):
        # passing None trials on both edges of every chunk
        trials = [None if i % chunk in (0, chunk - 1) else i for i in range(n)]
        want = sum(map(_hit_none_or_multiple_of_3, trials))
        assert verify._count_hits(_hit_none_or_multiple_of_3, iter(trials), workers) == want, n
    assert multiprocessing.active_children() == []


@needs_fork
def test_count_hits_starts_no_more_workers_than_chunks(monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    chunk = verify.MC_TRIAL_CHUNK
    for n, pool_size in ((1, None), (chunk, None), (chunk + 1, 2), (10 * chunk, 3)):
        sizes.clear()
        assert verify._count_hits(_hit_none_or_multiple_of_3, iter(range(n)), 3) \
            == sum(map(_hit_none_or_multiple_of_3, range(n)))
        assert sizes == ([] if pool_size is None else [pool_size]), n


def test_run_verify_matches_serial_trial_loop(lattice4, lattice5):
    seed, mc_trials, mc_samples, fd_points = 20240901, 60, 5000, 5
    _, checks = verify.run_verify({4: lattice4, 5: lattice5}.get, ks=[4], seed=seed,
                                  mc_trials=mc_trials, mc_samples=mc_samples,
                                  fd_points=fd_points, perturb_hessian=None)
    detail = {c["name"]: c["detail"] for c in checks}

    # the serial trial loop the pool replaces, then the gradient check's
    # draws, which see the generator state the trials leave behind
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(mc_trials):
        w = rng.standard_normal(4)
        v = rng.standard_normal(4)
        if np.linalg.norm(w) < 1e-3 or np.linalg.norm(v) < 1e-3:
            hits += 1
            continue
        alpha = float(rng.uniform(-0.5, 2.5))
        est, se = kernel_mc(w, v, alpha, mc_samples, int(rng.integers(2**31)))
        if abs(est - kernel_f(w, v, alpha)) <= 3.0 * se:
            hits += 1
    teacher = identity_teacher(4)
    worst_rel = 0.0
    for _ in range(fd_points):
        point = random_admissible(rng, 4)
        alpha = float(rng.uniform(-1.0, 3.0))
        g = gradient_exact(point, teacher, alpha)
        fd = finite_diff_gradient(point, teacher, alpha, 1e-5)
        scale = max(1.0, float(np.abs(fd).max()))
        worst_rel = max(worst_rel, float(np.abs(g - fd).max()) / scale)

    assert detail["mc_kernel_3sigma"]["pass_fraction"] == hits / mc_trials
    assert detail["gradient_exact_vs_fd"]["worst_relative_error"] == worst_rel


def test_verify_critical_set_ordering_reads_the_values(lattice4, lattice5, monkeypatch):
    # ordering_ok is judged on the values critical_set returns at k = 4..16
    def critical_check():
        _, checks = verify.run_verify({4: lattice4, 5: lattice5}.get, ks=[4], seed=1,
                                      mc_trials=2, mc_samples=100, fd_points=1,
                                      perturb_hessian=None)
        (record,) = [c for c in checks if c["name"] == "critical_set"]
        return record

    record = critical_check()
    assert record["passed"] and record["detail"]["ordering_ok"] is True
    real = verify.critical_set
    monkeypatch.setattr(verify, "critical_set", lambda k: real(k)._replace(
        values=(0.0, *reversed(real(k).values[1:]))) if k == 11 else real(k))
    record = critical_check()
    assert not record["passed"] and record["detail"]["ordering_ok"] is False


def test_isotypic_gate_reads_the_table(lattice4, lattice5, monkeypatch):
    # a residual is a maximum of absolute values, never negative, so a
    # negative gate fails the check whatever the rounding
    def isotypic_check():
        _, checks = verify.run_verify({4: lattice4, 5: lattice5}.get, ks=[4], seed=1,
                                      mc_trials=2, mc_samples=100, fd_points=1,
                                      perturb_hessian=None)
        (record,) = [c for c in checks if c["name"] == "isotypic_eigen_equations"]
        return record

    assert isotypic_check()["passed"]
    monkeypatch.setitem(TOLERANCES, "isotypic_residual", -1.0)
    record = isotypic_check()
    assert not record["passed"]
    assert 0.0 <= record["detail"]["max_residual"] <= 1e-10


def _raised_row(lattice, key):
    """The lattice with the stated row n(L, H) at key raised by 1."""
    return lattice._replace(n_table={**lattice.n_table, key: lattice.n_table[key] + 1})


def test_mark_homomorphism_passes_on_clean_lattices(lattice4, lattice5):
    assert verify.mark_homomorphism_failure([lattice4, lattice5]) is None


def test_mark_homomorphism_negative_control(lattice4, lattice5):
    # n(V4, A4) = 1 raised to 2 leaves every exact solve exact, so multiply
    # and the invariants pass it; the orbit-counted products do not
    v4, a4 = class_by_label(lattice5, "V4").index, class_by_label(lattice5, "A4").index
    corrupt = _raised_row(lattice5, (v4, a4))
    assert verify.mark_homomorphism_failure([lattice4, corrupt]) is not None
    _, checks = verify.run_verify({4: lattice4, 5: corrupt}.get, ks=[4], seed=1, mc_trials=2,
                                  mc_samples=100, fd_points=1, perturb_hessian=None)
    (record,) = [c for c in checks if c["name"] == "burnside_mark_homomorphism"]
    assert not record["passed"]
    assert record["detail"]["first_failure"] == verify.mark_homomorphism_failure([corrupt])


@pytest.mark.parametrize("fixture, stated", [("lattice4", 3), ("lattice5", 16)])
def test_mark_homomorphism_fails_on_every_stated_row_raised(fixture, stated, request):
    # the rows a cache file states, which _derived_rows does not give
    lattice = request.getfixturevalue(fixture)
    derived = _derived_rows(lattice.classes)
    rows = [key for key in lattice.n_table if key not in derived]
    assert len(rows) == stated
    for key in rows:
        assert verify.mark_homomorphism_failure([_raised_row(lattice, key)]) is not None, key


@pytest.mark.parametrize("widths, ks", [([], [4, 5]), (["--k", "6"], [6]),
                                        (["--k", "5", "--k", "4"], [5, 4])])
def test_verify_config_is_what_run_verify_takes(widths, ks, capsys, tmp_path, monkeypatch):
    # the printed config is the keyword arguments run_verify ran with
    params = inspect.signature(verify.run_verify).parameters
    seen = {}

    def recording(lattice_for, **kwargs):
        seen.update(kwargs)
        return {}, []

    monkeypatch.setattr(verify, "run_verify", recording)
    code, rep = run_json(capsys, "--cache-dir", str(tmp_path), "verify", *widths)
    assert code == 0
    assert list(rep["config"]) == [n for n, p in params.items() if p.kind is p.KEYWORD_ONLY]
    assert rep["config"] == seen and seen["ks"] == ks


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


# one command per report shape: every command, a capacity notice (exit 3) and
# failed checks (exit 1)
REPORT_SHAPES = {
    "critical-k5": (["critical", "--k", "5"], 0),
    "critical-k64": (["critical", "--k", "64"], 0),
    "spectrum-k5": (["spectrum", "--k", "5", "--alpha", "1"], 0),
    "invariants-k4": (["invariants", "--k", "4"], 0),
    "invariants-k5": (["invariants", "--k", "5"], 0),
    "invariants-k6": (["invariants", "--k", "6"], 0),
    "invariants-k7": (["invariants", "--k", "7"], 3),
    "verify-perturbed": (["verify", "--mc-trials", "2", "--mc-samples", "100",
                          "--fd-points", "1", "--perturb-hessian", "1e-3"], 1),
}

_CHECK_LINE = re.compile(r"^  \[(PASS|FAIL)\] \((hard|info)\) (.+)$", re.MULTILINE)


@pytest.mark.parametrize("argv, code", REPORT_SHAPES.values(), ids=REPORT_SHAPES)
def test_every_report_shape_fits_the_schema_and_its_text(argv, code, capsys, tmp_path,
                                                         lattice4, lattice5, lattice6):
    for lattice in (lattice4, lattice5, lattice6):
        (tmp_path / f"lattice_k{lattice.k}.txt").write_bytes(serialize_lattice(lattice))
    got, rep = run_json(capsys, "--cache-dir", str(tmp_path), *argv)
    assert got == rep["exit_code"] == code
    jsonschema.validate(rep, REPORT_SCHEMA)
    # the text report lists the same checks, one line each, in the same order
    got, text = run_cli(capsys, "--cache-dir", str(tmp_path), *argv)
    assert got == code
    assert _CHECK_LINE.findall(text) == [
        ("PASS" if c["passed"] else "FAIL", "hard" if c["hard"] else "info", c["name"])
        for c in rep["checks"]
    ]


def test_check_record_passed_is_a_python_bool():
    record = check("x", np.bool_(False))
    assert record["passed"] is False
    assert record == {"name": "x", "passed": False, "hard": True, "detail": None}


@pytest.mark.parametrize("output", ["json", "text"])
def test_unformattable_report_exits2_with_one_line(output, capsys, tmp_path, monkeypatch):
    real = cli.cmd_critical

    def nan_critical(args):
        report, code = real(args)
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
    def broken(args):
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
    return ["--cache-dir", str(cache_dir), command, *args, "--output=json"]


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
        jsonschema.validate(report, REPORT_SCHEMA)
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
        lean = [m for m in ("dataclasses", "inspect", "fractions") if m in sys.modules]
        assert not lean, (k, output, lean)
assert "symbreak.subgroups" not in sys.modules
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
lean = [m for m in ("dataclasses", "inspect", "fractions") if m in sys.modules]
assert not lean, lean
"""


def test_critical_never_imports_numpy():
    # a fresh interpreter: the root scan at k <= 64 is pure Python
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CRITICAL],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_EVERY_SUBMODULE = """
import importlib, pkgutil, sys
import symbreak
names = sorted(m.name for m in pkgutil.iter_modules(symbreak.__path__))
assert {"cli", "verify", "spectrum", "golden"} <= set(names), names
for name in names:
    importlib.import_module("symbreak." + name)
assert "dataclasses" not in sys.modules
assert "fractions" not in sys.modules and "decimal" not in sys.modules
"""


def test_no_submodule_imports_dataclasses():
    # a fresh interpreter: dataclasses pulls in inspect, ast, dis and
    # tokenize, and builds each class from generated source at import;
    # fractions, which loads decimal, is imported inside the functions
    # that need it
    proc = subprocess.run([sys.executable, "-c", _EVERY_SUBMODULE],
                          capture_output=True, text=True, timeout=60)
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
