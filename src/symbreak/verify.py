"""End-to-end verification pipeline: every analytic object against an
independent numerical or combinatorial oracle.

Hard checks gate the exit status; the published-gradient-vs-exact comparison
away from alpha = 1 is informational by design (the two families coincide
only there) and is reported as a table, never as a failure.
"""

from __future__ import annotations

import collections
import functools
import itertools
import multiprocessing
import os
from collections.abc import Callable, Iterable

import numpy as np

from . import burnside as bb
from . import landscape as ls
from . import hessian as hs
from . import spectrum as sp
from . import subgroups
from . import symrep as sr
from .closed_forms import FAMILY_COMPONENTS, abc_terms, components, critical_set, root_scan
from .degrees import invariants_payload
from .errors import ConsistencyError
from .report import TOLERANCES, check


# points at which the published Hessian is checked by finite differences
HESSIAN_FD_POINTS = 5

# kernel trials per task handed to a Monte-Carlo worker process
MC_TRIAL_CHUNK = 8


def _random_admissible(rng: np.random.Generator, k: int) -> np.ndarray:
    while True:
        point = np.eye(k) + 0.4 * rng.standard_normal((k, k))
        if np.linalg.norm(point, axis=1).min() > 0.2:
            return point


def mc_workers() -> int:
    """CPUs available to this process: its affinity mask where the platform
    has one, else the CPU count.  `verify` forks at most one kernel-trial
    worker process per CPU, and runs serially on one."""
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


def _kernel_hit(trial, n_samples: int, sigma: float) -> bool:
    """Whether the Monte-Carlo kernel estimate of one trial lies within sigma
    standard errors of the closed form."""
    if trial is None:
        return True
    w, v, alpha, seed = trial
    est, se = ls.kernel_mc(w, v, alpha, n_samples, seed)
    return abs(est - ls.kernel_f(w, v, alpha)) <= sigma * se


def _chunk_hits(hit, chunk: list) -> int:
    return sum(map(hit, chunk))


def _count_hits(hit, trials, workers: int) -> int:
    """Number of trials for which hit(trial) holds.

    With more than one worker, and where the platform can fork, the trials
    run in chunks of MC_TRIAL_CHUNK on a pool of forked worker processes, no
    more workers than chunks (the per-trial ufuncs hold the GIL, so threads
    do not scale; a forked worker starts with numpy and this package loaded,
    where a spawned one would import them again).  hit must pickle: a
    module-level function, or a partial of one.  Trials are drawn in the
    parent as their chunk is submitted, at most 2 * workers chunks ahead of
    the oldest unfinished one, so the draw order is the serial one and no
    trial count queues at once.  Each result depends only on its own trial,
    so the count does not depend on the number of workers.  Every worker is
    joined before this returns or raises."""
    if "fork" not in multiprocessing.get_all_start_methods():
        workers = 1
    chunks = iter(lambda: list(itertools.islice(trials, MC_TRIAL_CHUNK)), [])
    ahead = list(itertools.islice(chunks, 2 * workers))
    workers = min(workers, len(ahead))
    if workers <= 1:
        return sum(_chunk_hits(hit, chunk) for chunk in itertools.chain(ahead, chunks))
    from concurrent.futures import ProcessPoolExecutor  # lazy: the CLI imports this module

    hits = 0
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        pending = collections.deque(pool.submit(_chunk_hits, hit, chunk) for chunk in ahead)
        for chunk in chunks:
            hits += pending.popleft().result()
            pending.append(pool.submit(_chunk_hits, hit, chunk))
        hits += sum(future.result() for future in pending)
    finally:
        pool.shutdown(cancel_futures=True)
    return hits


def mark_homomorphism_failure(lattices: Iterable[bb.SubgroupLattice]) -> tuple[int, str, str] | None:
    """The first (k, H, K) whose orbit-counted product (H)(K)
    (subgroups.orbit_count_product, which reads only the representatives)
    does not have the pointwise product of the generators' marks as its
    marks, else None.  multiply solves its product back from those marks,
    so only this oracle sees a wrong n(L, H) row.  The sample is every pair
    at k = 4 and every (H, H) with |H| >= 4 above."""
    for lattice in lattices:
        n = len(lattice.classes)
        if lattice.k <= 4:
            pairs = [(h, q) for h in range(n) for q in range(h, n)]
        else:
            pairs = [(h, h) for h in range(n) if lattice.classes[h].order >= 4]
        for h, q in pairs:
            x = bb.BurnsideElement.generator(lattice, h).mark_vector()
            y = bb.BurnsideElement.generator(lattice, q).mark_vector()
            counted = bb.BurnsideElement(lattice, subgroups.orbit_count_product(lattice, h, q))
            if counted.mark_vector() != [a * b for a, b in zip(x, y)]:
                return lattice.k, lattice.classes[h].label, lattice.classes[q].label
    return None


def run_verify(lattice_for: Callable[[int], bb.SubgroupLattice], *, ks: list[int], seed: int,
               mc_trials: int, mc_samples: int, fd_points: int,
               perturb_hessian: float | None) -> tuple[dict, list[dict]]:
    """Every oracle check, and the results they report.  lattice_for(k)
    gives the subgroup lattice at width k; the CLI passes its cache."""
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    results: dict = {}

    # -- Monte Carlo vs closed-form kernel ---------------------------------
    hit = functools.partial(_kernel_hit, n_samples=mc_samples, sigma=TOLERANCES["mc_sigma"])
    hits = _count_hits(hit, _kernel_trials(rng, mc_trials), mc_workers())
    frac = hits / mc_trials
    checks.append(check(
        "mc_kernel_3sigma", frac >= TOLERANCES["mc_pass_fraction"],
        detail={"pass_fraction": frac, "trials": mc_trials,
                "samples": mc_samples},
    ))

    # -- loss against direct Monte Carlo of the defining risk ---------------
    teacher = ls.identity_teacher(4)
    scaled = teacher.copy()
    scaled[0, 0] = 2.0
    closed = ls.loss(scaled, teacher, 1.0)
    est, se = ls.loss_mc(scaled, teacher, 1.0, 1_000_000, seed)
    checks.append(check(
        "loss_mc_oracle", abs(est - closed) <= TOLERANCES["mc_sigma"] * se,
        detail={"closed_form": closed, "mc": est, "stderr": se},
    ))

    # -- exact gradient vs central differences ------------------------------
    worst_rel = 0.0
    for _ in range(fd_points):
        point = _random_admissible(rng, 4)
        alpha = float(rng.uniform(-1.0, 3.0))
        g = ls.gradient_exact(point, teacher, alpha)
        fd = ls.finite_diff_gradient(point, teacher, alpha, 1e-5)
        scale = max(1.0, float(np.abs(fd).max()))
        worst_rel = max(worst_rel, float(np.abs(g - fd).max()) / scale)
    checks.append(check(
        "gradient_exact_vs_fd", worst_rel <= TOLERANCES["gradient_fd_rel"],
        detail={"worst_relative_error": worst_rel, "points": fd_points},
    ))

    # -- the two gradients coincide at alpha = 1 ----------------------------
    # passes by construction: both run landscape._gradient at one weight
    # pair, exact_weights(1.0) == published_weights(1.0) == (1.0, 1.0), and
    # the identity teacher's row norms are exactly 1.0, so the difference is 0
    worst = 0.0
    for _ in range(20):
        point = _random_admissible(rng, 4)
        worst = max(worst, float(np.abs(
            ls.gradient_published(point, teacher, 1.0) - ls.gradient_exact(point, teacher, 1.0)
        ).max()))
    checks.append(check(
        "alpha1_gradient_agreement", worst <= TOLERANCES["alpha1_gradient_agreement"],
        detail={"max_abs_difference": worst},
    ))

    # -- published Hessian vs finite differences at alpha = 1 ---------------
    worst = 0.0
    for _ in range(HESSIAN_FD_POINTS):
        point = _random_admissible(rng, 4)
        dense = hs.assemble_dense(hs.hessian_published(point, teacher, 1.0))
        fd = hs.finite_diff_hessian(point, teacher, 1.0, 1e-4)
        worst = max(worst, float(np.abs(dense - fd).max()))
    checks.append(check(
        "alpha1_hessian_fd", worst <= TOLERANCES["alpha1_hessian_fd"],
        detail={"max_abs_difference": worst, "points": HESSIAN_FD_POINTS},
    ))

    # -- teacher is a critical point for every alpha ------------------------
    worst = max(
        float(np.abs(ls.gradient_exact(teacher, teacher, a)).max())
        for a in np.linspace(-1.0, 4.0, 21)
    )
    checks.append(check(
        "critical_point_gradient", worst <= TOLERANCES["critical_point_gradient"],
        detail={"max_abs_gradient": worst},
    ))

    # -- informational: general-alpha gap of the published formulas ---------
    gap_rows = []
    probe = _random_admissible(np.random.default_rng(seed + 1), 4)
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
    checks.append(check("published_formula_gap_reported", True, hard=False,
                         detail=gap_rows))

    # -- analytic spectrum vs dense eigensolve ------------------------------
    worst_dev = 0.0
    mism = None
    for k in ks:
        for a in np.linspace(0.0, 3.5, 11):
            rep = sp.numerical_spectrum_match(k, float(a), perturbation=perturb_hessian)
            worst_dev = max(worst_dev, rep.max_deviation)
            if not rep.ok and mism is None:
                mism = {"k": k, "alpha": float(a), "message": rep.message}
    checks.append(check(
        "spectrum_match_sweep", mism is None,
        detail={"max_deviation": worst_dev, "ks": ks,
                "first_mismatch": mism},
    ))

    # -- negative control: an injected perturbation must be detected --------
    control = sp.numerical_spectrum_match(5, 1.0, perturbation=1e-3)
    checks.append(check(
        "spectrum_negative_control", not control.ok,
        detail={"perturbation": 1e-3, "detected": not control.ok,
                "max_deviation": control.max_deviation},
    ))

    # -- critical set residuals, ordering, nonnegativity --------------------
    worst_res = 0.0
    ordering_ok = subcritical_ok = True
    for k in range(4, 17):
        crit = critical_set(k)
        worst_res = max(worst_res, max(crit.residuals))
        ordering_ok &= crit.ordered
        subcritical_ok &= crit.subcritical_regime
    scan = {k: root_scan(k) for k in ks if k <= 16}
    no_negative_roots = all(
        all(r >= 0.0 for r in roots)
        for fam in scan.values() for roots in fam.values()
    )
    nonzero_root_counts_ok = all(
        sum(1 for r in roots if r > 0.0) <= 1
        for fam in scan.values() for roots in fam.values()
    )
    checks.append(check(
        "critical_set", worst_res <= TOLERANCES["critical_residual"]
        and ordering_ok and subcritical_ok and no_negative_roots and nonzero_root_counts_ok,
        detail={"max_residual": worst_res, "ordering_ok": ordering_ok,
                "subcritical_ok": subcritical_ok,
                "no_negative_roots": no_negative_roots},
    ))

    # -- isotypic eigen-equations on the explicit basis ---------------------
    worst = 0.0
    for k in ks:
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
    checks.append(check(
        "isotypic_eigen_equations", worst <= TOLERANCES["isotypic_residual"],
        detail={"max_residual": worst},
    ))

    # -- Burnside: orbit-counted products vs mark vectors --------------------
    lattices = {k: lattice_for(k) for k in (4, 5)}
    worst_pair = mark_homomorphism_failure(lattices.values())
    checks.append(check(
        "burnside_mark_homomorphism", worst_pair is None,
        detail={"first_failure": worst_pair},
    ))

    # -- character machinery -------------------------------------------------
    ortho_ok = True
    for k in (4, 5, 6):
        try:
            sr.character_table(k).check_orthogonality()
        except ConsistencyError:
            ortho_ok = False
    checks.append(check("character_orthogonality", ortho_ok))

    closed_ok = True
    for k in range(4, 9):
        for eta, _ in components(k):
            for ct in sr.sorted_cycle_types(k):
                if sr.closed_form_character(eta, ct) != sr.frobenius_character(eta, ct):
                    closed_ok = False
    checks.append(check("closed_form_characters_vs_frobenius", closed_ok))

    # the characters against the family table: each family is one copy of its component
    decomp_ok = all(
        sr.decompose_diag_square(k)
        == collections.Counter(components(k)[c][0] for c in FAMILY_COMPONENTS)
        for k in range(4, 11)
    )
    checks.append(check("isotypic_decomposition_law", decomp_ok))

    # -- width-5 reference objects: the golden block of the invariants report -
    k5_results, k5_checks = invariants_payload(5, lambda k: lattices[k])
    results["k5_reference"] = k5_results["reference_comparison"]
    checks += [{**c, "name": f"k5_{c['name']}"}
               for c in k5_checks if c["name"].startswith("reference_")]

    return results, checks
