"""Output checker for the benchmark's symbreak commands.

A command fails when any of these holds:

- its exit code is not 0;
- its JSON report says it failed, or any hard check in it failed;
- its stdout differs from the reference recorded in perfbench/reference/.

`invariants` and `critical` must match their reference byte for byte.
`spectrum` and `verify` must match exactly on every field except those
in MASKED: eigensolver-derived floats (which move in the last digits with
the BLAS build and thread count) and, for `verify`, the seed and every
value drawn from it (Monte-Carlo estimates and random probe points).  The
report's own hard checks bound those floats.  Because `verify`'s seed
fields are masked, its reference (recorded with the default seed) applies
to every seed.
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# path patterns per command; list items that carry a "name" (the checks) are
# addressed by that name, other list items by "*"
MASKED = {
    "spectrum": (
        "results.per_alpha.*.match.max_deviation",
        "results.per_alpha.*.match.clusters.*.value",
        "results.per_alpha.*.match.clusters.*.deviation",
        "checks.spectrum_match.detail.max_deviation",
    ),
    "verify": (
        "config.seed",
        "results.published_formula_gap.*.gradient_gap",
        "results.published_formula_gap.*.hessian_fd_gap",
        "checks.mc_kernel_3sigma.detail.pass_fraction",
        "checks.loss_mc_oracle.detail.mc",
        "checks.loss_mc_oracle.detail.stderr",
        "checks.gradient_exact_vs_fd.detail.worst_relative_error",
        "checks.alpha1_gradient_agreement.detail.max_abs_difference",
        "checks.alpha1_hessian_fd.detail.max_abs_difference",
        "checks.published_formula_gap_reported.detail.*.gradient_gap",
        "checks.published_formula_gap_reported.detail.*.hessian_fd_gap",
        "checks.spectrum_match_sweep.detail.max_deviation",
        "checks.spectrum_negative_control.detail.max_deviation",
        "checks.isotypic_eigen_equations.detail.max_residual",
    ),
}

# flags that do not change what a command computes: where it writes, how it
# prints, and verify's seed (masked above)
_IGNORED_FLAGS = {"--cache-dir", "--output", "--seed"}


def reference_name(argv: list[str]) -> str:
    """File stem of the reference for a command line, e.g. `invariants_k_5`."""
    kept = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg in _IGNORED_FLAGS:
            skip = True
        else:
            kept.append(arg.lstrip("-"))
    return "_".join(kept)


def reference_path(argv: list[str]) -> Path:
    return REFERENCE_DIR / f"{reference_name(argv)}.json"


def _masked(node, patterns: tuple[str, ...], path: str = ""):
    if any(fnmatch.fnmatchcase(path, p) for p in patterns):
        return "<masked>"
    if isinstance(node, dict):
        return {k: _masked(v, patterns, f"{path}.{k}" if path else k)
                for k, v in node.items()}
    if isinstance(node, list):
        return [
            _masked(v, patterns, f"{path}.{v['name'] if isinstance(v, dict) and 'name' in v else '*'}")
            for v in node
        ]
    return node


def check(argv: list[str], exit_code: int, stdout: bytes) -> list[str]:
    """Reasons the command failed; an empty list means it passed."""
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return reasons + ["stdout is not a JSON report"]
    if report.get("status") != "pass" or report.get("exit_code") != 0:
        reasons.append(f"report status {report.get('status')!r}")
    for chk in report.get("checks", []):
        if chk.get("hard", True) and not chk.get("passed"):
            reasons.append(f"hard check {chk.get('name')!r} failed")

    ref_path = reference_path(argv)
    if not ref_path.is_file():
        return reasons + [f"no reference {ref_path.name}"]
    expected = ref_path.read_bytes()
    command = report.get("command")
    if command in MASKED:
        patterns = MASKED[command]
        if _masked(report, patterns) != _masked(json.loads(expected), patterns):
            reasons.append(f"differs from {ref_path.name} outside the masked fields")
    elif stdout != expected:
        reasons.append(f"differs from {ref_path.name} byte for byte")
    return reasons
