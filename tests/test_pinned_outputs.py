"""CLI stdout stays byte-identical to the recorded benchmark references.

perfbench/reference/ holds the stdout the benchmark's output checker
compares against; it is read here and never written.  The invariants
commands run twice in one cache directory: cold (build_lattice, then the
cache write) and warm (load_lattice).
"""

from pathlib import Path

import pytest

from symbreak.cli import main

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def _stdout(capsys, *argv) -> bytes:
    assert main([*argv, "--cache-dir", "cache", "--output", "json"]) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("k", [5, 64])
def test_critical_matches_reference(k, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = (REFERENCE_DIR / f"critical_k_{k}.json").read_bytes()
    assert _stdout(capsys, "critical", "--k", str(k)) == want


@pytest.mark.parametrize("k", [4, 5, 6])
def test_invariants_cold_and_warm_match_reference(k, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = (REFERENCE_DIR / f"invariants_k_{k}.json").read_bytes()
    assert _stdout(capsys, "invariants", "--k", str(k)) == want
    assert (tmp_path / "cache" / f"lattice_k{k}.txt").exists()
    assert _stdout(capsys, "invariants", "--k", str(k)) == want
