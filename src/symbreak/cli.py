"""Command-line surface.

Subcommands: spectrum, critical, invariants, verify.  Every command renders
the same payload as text or JSON (--output json), validated against the
shipped schema; numeric payloads are identical in both formats.  Exit codes:
0 pass, 1 check failure, 2 usage or domain error, 3 declared capacity limit.

Monte-Carlo streams use numpy's PCG64 (default_rng) with the configured
seed; the algorithm name is part of the report so numbers are reproducible
across platforms.  Subgroup lattices are cached under --cache-dir (or
$SYMBREAK_CACHE_DIR, default ~/.cache/symbreak) in a versioned, checksummed
text format.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from pathlib import Path

from . import burnside as bb
from . import spectrum as sp
from .degrees import MAX_EXACT_K, bifurcation_report, invariants_payload
from .errors import CapacityError, ConsistencyError, DomainError
from .report import dumps, format_float, resolve_tolerances, validate_report
from .verify import VerifyConfig, run_verify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

RNG_DESCRIPTION = "numpy PCG64 via numpy.random.default_rng(seed)"

MAX_ALPHA_GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# lattice cache
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    env = os.environ.get("SYMBREAK_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "symbreak"


def get_lattice(k: int, cache_dir: Path) -> bb.SubgroupLattice:
    """Load lattice_k<k>.txt, or build it and write it atomically.

    A cache file that fails load_lattice's checks (checksum, truncation,
    version) is rebuilt and rewritten, with one line on stderr."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"lattice_k{k}.txt"
    reason = None
    if path.exists():
        try:
            return bb.load_lattice(path.read_bytes())
        except ConsistencyError as exc:
            reason = str(exc)
    lattice = bb.build_lattice(k)
    # a per-process temp file plus os.replace: a concurrent reader sees the
    # old file or the whole new one, never a partial write
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(bb.serialize_lattice(lattice))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if reason is not None:
        print(f"cache: rebuilt {path.name} ({reason})", file=sys.stderr)
    return lattice


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_text(report: dict, stream) -> None:
    def fmt(v):
        if isinstance(v, float):
            return format_float(v)
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(fmt(x) for x in v) + "]"
        if isinstance(v, dict):
            return "{" + ", ".join(f"{k}: {fmt(x)}" for k, x in v.items()) + "}"
        return str(v)

    print(f"command: {report['command']}", file=stream)
    print(f"status:  {report['status']}", file=stream)
    if "rng" in report:
        print(f"rng:     {report['rng']}", file=stream)
    print("config:  " + fmt(report["config"]), file=stream)

    def walk(node, indent: int):
        pad = "  " * indent
        if isinstance(node, dict):
            for key, val in node.items():
                if isinstance(val, (dict, list)) and val and not _is_flat(val):
                    print(f"{pad}{key}:", file=stream)
                    walk(val, indent + 1)
                else:
                    print(f"{pad}{key}: {fmt(val)}", file=stream)
        elif isinstance(node, list):
            for val in node:
                if isinstance(val, (dict, list)) and val and not _is_flat(val):
                    print(f"{pad}-", file=stream)
                    walk(val, indent + 1)
                else:
                    print(f"{pad}- {fmt(val)}", file=stream)

    def _is_flat(val) -> bool:
        if isinstance(val, dict):
            return all(not isinstance(v, (dict, list)) for v in val.values())
        return all(not isinstance(v, (dict, list)) for v in val)

    print("results:", file=stream)
    walk(report["results"], 1)
    print("checks:", file=stream)
    for chk in report["checks"]:
        mark = "PASS" if chk["passed"] else "FAIL"
        kind = "hard" if chk.get("hard", True) else "info"
        print(f"  [{mark}] ({kind}) {chk['name']}", file=stream)
        if not chk["passed"] and chk.get("detail") is not None:
            print(f"         {fmt(chk['detail'])}", file=stream)


def emit(report: dict, output: str, stream=None) -> None:
    """Write the report whole, or nothing if it fails its own checks."""
    stream = stream or sys.stdout
    problems = validate_report(report)
    if problems:
        raise ConsistencyError(f"report fails its own schema: {problems}")
    if output == "json":
        stream.write(dumps(report))
    else:
        text = io.StringIO()
        _render_text(report, text)
        stream.write(text.getvalue())


def _finish(report: dict, checks: list[dict], capacity: bool = False) -> int:
    hard_fail = any(not c["passed"] for c in checks if c.get("hard", True))
    if capacity:
        report["status"] = "capacity"
        report["exit_code"] = EXIT_CAPACITY
    elif hard_fail:
        report["status"] = "fail"
        report["exit_code"] = EXIT_FAIL
    else:
        report["status"] = "pass"
        report["exit_code"] = EXIT_PASS
    report["checks"] = checks
    return report["exit_code"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args, tol: dict[str, float]) -> tuple[dict, int]:
    alphas = _alpha_list(args)
    per_alpha = []
    all_ok = True
    worst = 0.0
    for alpha in alphas:
        entries = sp.analytic_spectrum(args.k, alpha)
        match = sp.numerical_spectrum_match(args.k, alpha, tolerance=tol["spectrum_match"])
        all_ok &= match.ok
        worst = max(worst, match.max_deviation)
        per_alpha.append({
            "alpha": alpha,
            "entries": [
                {"family": e.formula_id, "value": e.value,
                 "multiplicity": e.multiplicity, "label": list(e.label)}
                for e in entries
            ],
            "value_groups": [
                {"value": v, "multiplicity": m}
                for v, m in sp.merged_view(entries, tol=1e-12)
            ],
            "match": {
                "ok": match.ok,
                "max_deviation": match.max_deviation,
                "multiplicities_agree": match.multiplicities_agree,
                "clusters": [
                    {"value": c.numeric_value, "multiplicity": c.numeric_multiplicity,
                     "deviation": c.deviation, "dominant_label": c.dominant_label}
                    for c in match.clusters
                ],
            },
        })
    report = {
        "command": "spectrum",
        "config": {"k": args.k, "alphas": alphas,
                   "tolerance": tol["spectrum_match"]},
        "results": {"per_alpha": per_alpha},
    }
    checks = [{"name": "spectrum_match", "passed": all_ok, "hard": True,
               "detail": {"max_deviation": worst}}]
    return report, _finish(report, checks)


def cmd_critical(args, tol: dict[str, float]) -> tuple[dict, int]:
    crit = sp.critical_set(args.k)     # raises ConsistencyError on a violated ordering
    # closed-form roots are exact to machine precision relative to the
    # eigenvalue scale ~ k/2; the absolute residual criterion applies at
    # moderate widths while huge-k probes are judged on the scaled residual
    scale = max(1.0, args.k / 2.0)
    results = {
        "values": list(crit.values),
        "labels": [[",".join(map(str, eta)) for eta in group] for group in crit.labels],
        "residuals": list(crit.residuals),
        "scaled_residuals": [r / scale for r in crit.residuals],
        "ordering_chain": list(crit.values),
        "degenerate_at_zero": [",".join(map(str, eta)) for eta in crit.labels[0]],
        "trivial_family_also_zero_at_origin": crit.trivial_zero_at_origin,
        "asymptote_distance": [abs(v - 2.0) for v in crit.values[1:]],
        "subcritical_regime": crit.subcritical_regime,
    }
    if args.k <= 64:
        scan = sp.root_scan(args.k)
        results["root_scan"] = {fam: roots for fam, roots in scan.items()}
    report = {
        "command": "critical",
        "config": {"k": args.k, "tolerance": tol["critical_residual"]},
        "results": results,
    }
    checks = [
        {"name": "root_residuals", "hard": True,
         "passed": max(crit.residuals) / scale <= tol["critical_residual"],
         "detail": {"max_residual": max(crit.residuals),
                    "max_scaled_residual": max(crit.residuals) / scale}},
        {"name": "ordering_chain", "passed": True, "hard": True, "detail": None},
    ]
    return report, _finish(report, checks)


def cmd_invariants(args, tol: dict[str, float], cache_dir: Path) -> tuple[dict, int]:
    if args.k > MAX_EXACT_K:
        report = {
            "command": "invariants",
            "config": {"k": args.k},
            "results": {
                "capacity_notice": (
                    f"exact Burnside-ring computation is declared up to k={MAX_EXACT_K}; "
                    "use 'critical' for the width-independent spectral conclusions"
                ),
                "spectral_summary": bifurcation_report(args.k),
            },
        }
        return report, _finish(report, [], capacity=True)

    results, checks = invariants_payload(args.k, get_lattice(args.k, cache_dir))
    report = {
        "command": "invariants",
        "config": {"k": args.k, "cache_dir": str(cache_dir)},
        "results": results,
    }
    return report, _finish(report, checks)


def cmd_verify(args, tol_overrides: dict[str, float], cache_dir: Path) -> tuple[dict, int]:
    config = VerifyConfig(
        ks=tuple(args.k) if args.k else (4, 5),
        seed=args.seed,
        mc_trials=args.mc_trials,
        mc_samples=args.mc_samples,
        fd_points=args.fd_points,
        tolerances=tol_overrides,
        perturb_hessian=args.perturb_hessian,
        lattice_provider=lambda k: get_lattice(k, cache_dir),
    )
    checks, results = run_verify(config)
    report = {
        "command": "verify",
        "rng": RNG_DESCRIPTION,
        "config": {
            "ks": list(config.ks), "seed": config.seed,
            "mc_trials": config.mc_trials, "mc_samples": config.mc_samples,
            "fd_points": config.fd_points,
            "perturb_hessian": config.perturb_hessian,
        },
        "results": results,
    }
    return report, _finish(report, checks)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def validate_args(args) -> None:
    """Reject out-of-domain arguments before any command starts work."""
    for k in (args.k or []) if args.command == "verify" else [args.k]:
        if not 4 <= k <= sys.float_info.max:
            raise DomainError(f"{args.command} requires 4 <= k <= {sys.float_info.max!r}, "
                              f"got --k {k}")
    if args.command == "spectrum":
        flag, values = (("--alpha", [args.alpha]) if args.alpha_grid is None
                        else ("--alpha-grid", args.alpha_grid))
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"{flag} values must be finite, got {values}")
        if args.alpha_grid is not None:
            points = args.alpha_grid[2]
            if points != int(points) or points < 2:
                raise DomainError(f"--alpha-grid POINTS must be an integer >= 2, got {points}")
            if points > MAX_ALPHA_GRID_POINTS:
                raise CapacityError(
                    f"--alpha-grid POINTS is capped at {MAX_ALPHA_GRID_POINTS}, got {points:g}")
    if args.command == "verify":
        for flag, value, least in (("--mc-trials", args.mc_trials, 1),
                                   ("--mc-samples", args.mc_samples, 2),
                                   ("--fd-points", args.fd_points, 1)):
            if value < least:
                raise DomainError(f"{flag} must be >= {least}, got {value}")


def _alpha_list(args) -> list[float]:
    if args.alpha_grid is None:
        return [args.alpha]
    start, stop, points = args.alpha_grid
    n = int(points)
    return [start + (stop - start) * i / (n - 1) for i in range(n)]


def _parse_tol(pairs: list[str] | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise DomainError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, _, value = pair.partition("=")
        out[name.strip()] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    # shared flags are accepted both before and after the subcommand; the
    # SUPPRESS default keeps an unset subcommand-level flag from shadowing a
    # value given at the top level
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--output", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    shared.add_argument("--cache-dir", type=Path, default=argparse.SUPPRESS,
                        help="lattice cache directory (default $SYMBREAK_CACHE_DIR "
                             "or ~/.cache/symbreak)")
    shared.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        default=argparse.SUPPRESS,
                        help="override a named tolerance (repeatable)")

    parser = argparse.ArgumentParser(
        prog="symbreak",
        parents=[shared],
        description=(
            "Analytic Hessian spectrum, critical leaky parameters, and exact "
            "equivariant bifurcation invariants of the shallow leaky-ReLU "
            "teacher-student landscape, with built-in numerical oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", parents=[shared],
                            help="analytic vs numerical Hessian spectrum")
    p_spec.add_argument("--k", type=int, required=True)
    group = p_spec.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--alpha-grid", nargs=3, type=float, default=None,
                       metavar=("START", "STOP", "POINTS"))

    p_crit = sub.add_parser("critical", parents=[shared],
                            help="critical leaky-parameter set")
    p_crit.add_argument("--k", type=int, required=True)

    p_inv = sub.add_parser("invariants", parents=[shared],
                           help="basic degrees and bifurcation invariants")
    p_inv.add_argument("--k", type=int, required=True)

    p_ver = sub.add_parser("verify", parents=[shared], help="full oracle suite")
    p_ver.add_argument("--k", type=int, action="append",
                       help="widths for the spectral sweeps (repeatable; default 4 and 5)")
    p_ver.add_argument("--seed", type=int, default=20240901)
    p_ver.add_argument("--mc-trials", type=int, default=1000)
    p_ver.add_argument("--mc-samples", type=int, default=100_000)
    p_ver.add_argument("--fd-points", type=int, default=100)
    p_ver.add_argument("--perturb-hessian", type=float, default=None,
                       help="inject a symmetric off-diagonal perturbation into the "
                            "spectral sweep (negative-control fixture; makes it fail)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.output = getattr(args, "output", "text")
    args.tol = getattr(args, "tol", None)
    cache_dir = getattr(args, "cache_dir", None) or default_cache_dir()
    try:
        validate_args(args)
        tol = resolve_tolerances(_parse_tol(args.tol))
        if args.command == "spectrum":
            report, code = cmd_spectrum(args, tol)
        elif args.command == "critical":
            report, code = cmd_critical(args, tol)
        elif args.command == "invariants":
            report, code = cmd_invariants(args, tol, cache_dir)
        elif args.command == "verify":
            report, code = cmd_verify(args, _parse_tol(args.tol), cache_dir)
        else:  # pragma: no cover
            parser.error(f"unknown command {args.command}")
            return EXIT_USAGE
        emit(report, args.output)
    except (DomainError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        # inconsistent input data, or a report that fails its own checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    return code


if __name__ == "__main__":
    sys.exit(main())
