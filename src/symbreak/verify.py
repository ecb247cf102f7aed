"""End-to-end verification pipeline: every analytic object against an
independent numerical or combinatorial oracle.

Hard checks gate the exit status; the published-gradient-vs-exact comparison
away from alpha = 1 is informational by design (the two families coincide
only there) and is reported as a table, never as a failure.
"""

from __future__ import annotations

import collections
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import burnside as bb
from . import landscape as ls
from . import hessian as hs
from . import spectrum as sp
from . import symrep as sr
from .closed_forms import abc_terms, critical_set, root_scan
from .degrees import invariants_payload
from .errors import ConsistencyError
from .report import resolve_tolerances


# points at which the published Hessian is checked by finite differences
HESSIAN_FD_POINTS = 5


@dataclass
class VerifyConfig:
    # callable k -> SubgroupLattice, injected by the CLI to reuse its cache
    lattice_provider: Callable[[int], bb.SubgroupLattice]
    ks: tuple[int, ...] = (4, 5)
    seed: int = 20240901
    mc_trials: int = 1000
    mc_samples: int = 100_000
    fd_points: int = 100
    tolerances: dict[str, float] = field(default_factory=dict)
    perturb_hessian: float | None = None


def _check(name: str, passed: bool, hard: bool = True, detail=None) -> dict:
    return {"name": name, "passed": bool(passed), "hard": hard, "detail": detail}


def _random_admissible(rng: np.random.Generator, k: int) -> np.ndarray:
    while True:
        point = np.eye(k) + 0.4 * rng.standard_normal((k, k))
        if np.linalg.norm(point, axis=1).min() > 0.2:
            return point


def mc_workers() -> int:
    """CPUs available to this process: its affinity mask where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kernel_trials(rng: np.random.Generator, n: int):
    """The n kernel trials (w, v, alpha, seed), drawn from rng in order.  A
    trial with a near-zero vector draws nothing more and yields None, a pass."""
    for _ in range(n):
        w = rng.standard_normal(4)
        v = rng.standard_normal(4)
        if np.linalg.norm(w) < 1e-3 or np.linalg.norm(v) < 1e-3:
            yield None
            continue
        yield w, v, float(rng.uniform(-0.5, 2.5)), int(rng.integers(2**31))


def _count_hits(hit, trials, workers: int) -> int:
    """Number of trials for which hit(trial) holds.

    With more than one worker the trials run on a thread pool (numpy's
    normal fills and products release the GIL).  Trials are drawn as they
    are submitted, at most 2 * workers ahead of the oldest unfinished one,
    so the draw order is the serial one and no trial count queues at once.
    Each result depends only on its own trial, so the count does not depend
    on the number of workers."""
    if workers <= 1:
        return sum(map(hit, trials))
    from concurrent.futures import ThreadPoolExecutor  # lazy: the CLI imports this module

    hits = 0
    pending = collections.deque()
    with ThreadPoolExecutor(workers) as pool:
        for trial in trials:
            if len(pending) == 2 * workers:
                hits += pending.popleft().result()
            pending.append(pool.submit(hit, trial))
        hits += sum(future.result() for future in pending)
    return hits


def run_verify(config: VerifyConfig) -> tuple[list[dict], dict]:
    tol = resolve_tolerances(config.tolerances)
    rng = np.random.default_rng(config.seed)
    checks: list[dict] = []
    results: dict = {}

    # -- Monte Carlo vs closed-form kernel ---------------------------------
    def kernel_hit(trial) -> bool:
        if trial is None:
            return True
        w, v, alpha, seed = trial
        est, se = ls.kernel_mc(w, v, alpha, config.mc_samples, seed)
        return abs(est - ls.kernel_f(w, v, alpha)) <= tol["mc_sigma"] * se

    hits = _count_hits(kernel_hit, _kernel_trials(rng, config.mc_trials), mc_workers())
    frac = hits / config.mc_trials
    checks.append(_check(
        "mc_kernel_3sigma", frac >= tol["mc_pass_fraction"],
        detail={"pass_fraction": frac, "trials": config.mc_trials,
                "samples": config.mc_samples},
    ))

    # -- loss against direct Monte Carlo of the defining risk ---------------
    teacher = ls.identity_teacher(4)
    scaled = teacher.copy()
    scaled[0, 0] = 2.0
    closed = ls.loss(scaled, teacher, 1.0)
    est, se = ls.loss_mc(scaled, teacher, 1.0, 1_000_000, config.seed)
    checks.append(_check(
        "loss_mc_oracle", abs(est - closed) <= tol["mc_sigma"] * se,
        detail={"closed_form": closed, "mc": est, "stderr": se},
    ))

    # -- exact gradient vs central differences ------------------------------
    worst_rel = 0.0
    for _ in range(config.fd_points):
        point = _random_admissible(rng, 4)
        alpha = float(rng.uniform(-1.0, 3.0))
        g = ls.gradient_exact(point, teacher, alpha)
        fd = ls.finite_diff_gradient(point, teacher, alpha, 1e-5)
        scale = max(1.0, float(np.abs(fd).max()))
        worst_rel = max(worst_rel, float(np.abs(g - fd).max()) / scale)
    checks.append(_check(
        "gradient_exact_vs_fd", worst_rel <= tol["gradient_fd_rel"],
        detail={"worst_relative_error": worst_rel, "points": config.fd_points},
    ))

    # -- the two gradients coincide at alpha = 1 ----------------------------
    worst = 0.0
    for _ in range(20):
        point = _random_admissible(rng, 4)
        worst = max(worst, float(np.abs(
            ls.gradient_published(point, teacher, 1.0) - ls.gradient_exact(point, teacher, 1.0)
        ).max()))
    checks.append(_check(
        "alpha1_gradient_agreement", worst <= tol["alpha1_gradient_agreement"],
        detail={"max_abs_difference": worst},
    ))

    # -- published Hessian vs finite differences at alpha = 1 ---------------
    worst = 0.0
    for _ in range(HESSIAN_FD_POINTS):
        point = _random_admissible(rng, 4)
        dense = hs.assemble_dense(hs.hessian_published(point, teacher, 1.0))
        fd = hs.finite_diff_hessian(point, teacher, 1.0, 1e-4)
        worst = max(worst, float(np.abs(dense - fd).max()))
    checks.append(_check(
        "alpha1_hessian_fd", worst <= tol["alpha1_hessian_fd"],
        detail={"max_abs_difference": worst, "points": HESSIAN_FD_POINTS},
    ))

    # -- teacher is a critical point for every alpha ------------------------
    worst = max(
        float(np.abs(ls.gradient_exact(teacher, teacher, a)).max())
        for a in np.linspace(-1.0, 4.0, 21)
    )
    checks.append(_check(
        "critical_point_gradient", worst <= tol["critical_point_gradient"],
        detail={"max_abs_gradient": worst},
    ))

    # -- informational: general-alpha gap of the published formulas ---------
    gap_rows = []
    probe = _random_admissible(np.random.default_rng(config.seed + 1), 4)
    for a in (0.0, 0.5, 1.0, 1.5, 2.5):
        g_gap = float(np.abs(
            ls.gradient_published(probe, teacher, a) - ls.gradient_exact(probe, teacher, a)
        ).max())
        h_gap = float(np.abs(
            hs.assemble_dense(hs.hessian_published(probe, teacher, a))
            - hs.finite_diff_hessian(probe, teacher, a, 1e-4)
        ).max())
        gap_rows.append({"alpha": a, "gradient_gap": g_gap, "hessian_fd_gap": h_gap})
    results["published_formula_gap"] = gap_rows
    checks.append(_check("published_formula_gap_reported", True, hard=False,
                         detail=gap_rows))

    # -- analytic spectrum vs dense eigensolve ------------------------------
    worst_dev = 0.0
    mism = None
    for k in config.ks:
        for a in np.linspace(0.0, 3.5, 11):
            rep = sp.numerical_spectrum_match(
                k, float(a), tolerance=tol["spectrum_match"],
                perturbation=config.perturb_hessian,
            )
            worst_dev = max(worst_dev, rep.max_deviation)
            if not rep.ok and mism is None:
                mism = {"k": k, "alpha": float(a), "message": rep.message}
    checks.append(_check(
        "spectrum_match_sweep", mism is None,
        detail={"max_deviation": worst_dev, "ks": list(config.ks),
                "first_mismatch": mism},
    ))

    # -- negative control: an injected perturbation must be detected --------
    control = sp.numerical_spectrum_match(5, 1.0, tolerance=tol["spectrum_match"],
                                          perturbation=1e-3)
    checks.append(_check(
        "spectrum_negative_control", not control.ok,
        detail={"perturbation": 1e-3, "detected": not control.ok,
                "max_deviation": control.max_deviation},
    ))

    # -- critical set residuals, ordering, nonnegativity --------------------
    # critical_set raises ConsistencyError on a violated ordering
    worst_res = 0.0
    subcritical_ok = True
    for k in range(4, 17):
        crit = critical_set(k)
        worst_res = max(worst_res, max(crit.residuals))
        subcritical_ok &= crit.subcritical_regime
    scan = {k: root_scan(k) for k in config.ks if k <= 16}
    no_negative_roots = all(
        all(r >= 0.0 for r in roots)
        for fam in scan.values() for roots in fam.values()
    )
    nonzero_root_counts_ok = all(
        sum(1 for r in roots if r > 0.0) <= 1
        for fam in scan.values() for roots in fam.values()
    )
    checks.append(_check(
        "critical_set", worst_res <= tol["critical_residual"]
        and subcritical_ok and no_negative_roots and nonzero_root_counts_ok,
        detail={"max_residual": worst_res, "ordering_ok": True,
                "subcritical_ok": subcritical_ok,
                "no_negative_roots": no_negative_roots},
    ))

    # -- isotypic eigen-equations on the explicit basis ---------------------
    worst = 0.0
    for k in config.ks:
        if k > 12:
            continue  # basis-level residuals are a small-width structural check
        basis = sp.isotypic_basis(k)
        for a in (0.5, 1.0, 2.5):
            _, b, c = abc_terms(a)
            for mat in basis.wedge:
                worst = max(worst, float(np.abs(
                    hs.block_operator_apply(mat, a) - (b - c) * mat).max()))
            for mat in basis.s0:
                worst = max(worst, float(np.abs(
                    hs.block_operator_apply(mat, a) - (b + c) * mat).max()))
            block = sp.w_block_matrix(k, a)
            for (K, S, D) in basis.ksd:
                triple = [K, S, D]
                for row, mat in enumerate(triple):
                    want = sum(block[row, col] * triple[col] for col in range(3))
                    worst = max(worst, float(np.abs(
                        hs.block_operator_apply(mat, a) - want).max()))
    checks.append(_check(
        "isotypic_eigen_equations", worst <= 1e-10,
        detail={"max_residual": worst},
    ))

    # -- Burnside: recursion products vs mark vectors ------------------------
    mark_ok = True
    worst_pair = None
    lattices = {k: config.lattice_provider(k) for k in (4, 5)}
    for k, lattice in lattices.items():
        n = len(lattice.classes)
        for hi in range(n):
            for ki in range(hi, n):
                x = bb.BurnsideElement.generator(lattice, hi)
                y = bb.BurnsideElement.generator(lattice, ki)
                prod = (x * y).mark_vector()
                direct = [mh * mk for mh, mk in zip(x.mark_vector(), y.mark_vector())]
                if prod != direct:
                    mark_ok = False
                    worst_pair = (k, lattice.classes[hi].label, lattice.classes[ki].label)
    checks.append(_check(
        "burnside_mark_homomorphism", mark_ok,
        detail={"first_failure": worst_pair},
    ))

    # -- character machinery -------------------------------------------------
    ortho_ok = True
    for k in (4, 5, 6):
        table = sr.character_table(k)
        try:
            table.check_orthogonality()
        except ConsistencyError:
            ortho_ok = False
        cent_ok = all(
            sum(row[ci] ** 2 for row in table.values)
            == math.factorial(k) // table.class_sizes[ci]
            for ci in range(len(table.cycle_types))
        )
        ortho_ok &= cent_ok
    checks.append(_check("character_orthogonality", ortho_ok))

    closed_ok = True
    for k in range(4, 9):
        for shape in ("top", "standard", "two-row", "hook"):
            eta = sr.closed_form_partition(shape, k)
            for ct in sr.sorted_cycle_types(k):
                if sr.closed_form_character(shape, ct) != sr.frobenius_character(eta, ct):
                    closed_ok = False
    checks.append(_check("closed_form_characters_vs_frobenius", closed_ok))

    decomp_ok = all(
        sr.decompose_diag_square(k) == {
            (k,): 2, (k - 1, 1): 3, (k - 2, 2): 1, (k - 2, 1, 1): 1}
        for k in range(4, 11)
    )
    checks.append(_check("isotypic_decomposition_law", decomp_ok))

    # -- width-5 reference objects: the golden block of the invariants report -
    k5_results, k5_checks = invariants_payload(5, lambda k: lattices[k])
    results["k5_reference"] = k5_results["reference_comparison"]
    checks += [{**c, "name": f"k5_{c['name']}"}
               for c in k5_checks if c["name"].startswith("reference_")]

    return checks, results
