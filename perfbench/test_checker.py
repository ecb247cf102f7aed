"""Tests of the benchmark's output checker and metric table.

    python3 -m pytest perfbench/test_checker.py

They show that `pass_frac` can fall below 1: a failing command and a
corrupted output are both counted as failed operations.
"""

import json
import re
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

INVARIANTS_K5 = ["invariants", "--k", "5"]
SPECTRUM_GRID = ["spectrum", "--k", "8", "--alpha-grid", "0", "3.5", "11"]


def test_perturbed_hessian_verify_is_a_failed_operation(tmp_path):
    runner = run.Runner(run.child_env(), deadline=time.monotonic() + 170,
                        speed_probe=run.SPEED_PROBES["oracles"])
    cmd = run.Command(("verify", "--perturb-hessian", "1e-3"), lattices=(4, 5))
    res = runner.run(cmd, tmp_path, traced=False, timed=False)
    assert res.exit_code == 1
    assert "exit code 1" in res.reasons
    assert "hard check 'spectrum_match_sweep' failed" in res.reasons


def test_recorded_invariants_passes_and_one_edited_digit_fails():
    recorded = checker.reference_path(INVARIANTS_K5).read_bytes()
    assert checker.check(INVARIANTS_K5, 0, recorded) == []

    digit = re.compile(rb"\d").search(recorded, recorded.index(b'"results"'))
    pos = digit.start()
    edited = recorded[:pos] + str((int(recorded[pos:pos + 1]) + 1) % 10).encode() + recorded[pos + 1:]
    assert checker.check(INVARIANTS_K5, 0, edited) == [
        "differs from invariants_k_5.json byte for byte"]


def test_spectrum_masks_only_eigensolver_floats():
    report = json.loads(checker.reference_path(SPECTRUM_GRID).read_bytes())
    report["results"]["per_alpha"][3]["match"]["clusters"][0]["value"] += 1e-14
    assert checker.check(SPECTRUM_GRID, 0, json.dumps(report).encode()) == []

    report["results"]["per_alpha"][3]["entries"][0]["value"] += 1e-14
    assert checker.check(SPECTRUM_GRID, 0, json.dumps(report).encode()) == [
        "differs from spectrum_k_8_alpha-grid_0_3.5_11.json outside the masked fields"]


def test_every_declared_layer_metric_has_a_source():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        name = metric["name"]
        span, _, kind = name.rpartition("_")
        assert (name in run.DERIVED or name == "trace.overhead_s"
                or (span in tracer.SPANS and kind in ("s", "calls"))), name
