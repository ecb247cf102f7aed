"""Analytic spectrum of the Hessian at the global minimum, the explicit
isotypic eigenbasis, the critical set of leaky parameters, and the matcher
against dense numerical eigensolves.

With a = 1/2 - alpha/4, b = alpha/4, c = alpha/2pi (closed_forms.abc_terms)
the block operator has exactly seven eigenvalue families:

    wedge          b - c                            mult (k-1)(k-2)/2
    sym0           b + c                            mult k(k-3)/2
    W_bminus_c     b - c                            mult k-1
    W_plus/minus   (ak + 2b +- sqrt(a^2k^2 + 4c(c-2a))) / 2      mult k-1
    span_IJ_+-     (2b + k(a+c) +- sqrt(k^2(a-c)^2
                                  + 4c(2a-c)(k-1))) / 2          mult 1

labeled by the isotypic components: wedge by the hook partition (k-2,1,1),
sym0 by the two-row partition (k-2,2), the three W families by the standard
partition (k-1,1), the span{I, J} pair by the trivial partition (k).  The
wedge family and W_bminus_c share the value b - c, which is why displays
often merge them into one line of multiplicity k(k-1)/2.

The seven formulas, the (a, b, c) coefficients, the critical set, the root
scan and the dense cap MAX_DENSE_K live in closed_forms, which needs no
numpy; import them from there.

numerical_spectrum_match checks the table against a dense eigensolve of the
Hessian and labels each eigenvalue cluster by closed-form isotypic
projections, with no basis.  The cyclic neuron shift g(i, a) = (i+1, a+1)
mod k commutes with the Hessian, so the eigensolve is one eigh call on k
Hermitian k x k blocks, built from slabs read straight from the Hessian
blocks, one block row at a time, after the dense assembly's asymmetry guard
on that row and its block column; neither the k^2 x k^2 matrix nor the k^4
block array is formed, so the oracle's memory is O(k^3).  The coupling,
added to the deviation, bounds by Weyl's inequality what the split leaves
out (numerical_spectrum_match gives the argument).
The split uses no analytic basis, so the oracle stays a dense eigensolve of
the Hessian's own entries.

Write an eigenvector as a k x k matrix U = Diag(d) + A + S, A antisymmetric
and S symmetric with zero diagonal, let rho = A 1 and sigma = S 1, and let
a bar be the mean over the k rows.  The squared norms of its projections
are

    (k)        k dbar^2 + k sigmabar^2/(k-1)                  span{I, J}
    (k-1,1)    |d - dbar|^2 + 2|rho|^2/k + 2|sigma - sigmabar|^2/(k-2)
    (k-2,2)    |S|^2 - k sigmabar^2/(k-1) - 2|sigma - sigmabar|^2/(k-2)
    (k-2,1,1)  |A|^2 - 2|rho|^2/k

(the standard line sums the D, K and S copies).  The projectors are real,
so the score of a complex column, its real part's plus its imaginary
part's, is the Hermitian form x^H P x: each square above becomes a squared
modulus, and <U, U^T> its real part.  The matcher never forms U.  A block-w
eigenvector y (a k-vector) stands for U[t, t+d] = y[d] e^(-2 pi i w t/k)/sqrt(k),
and the projectors commute with the shift, so its scores are read from y
in O(k).  With e_d = e^(2 pi i w d/k), y0 = y[0], R = sum_d y[d],
C = sum_d e_d y[d], X = Re sum_d conj(y[d]) y[-d] conj(e_d) = <U, U^T> and
sigma = (R + C)/2 - y0:

    (k-2,1,1)  (|y|^2 - X)/2 - |R - C|^2/(2k)
    (k-2,2)    (|y|^2 + X)/2 - |y0|^2 - T - S
    (k-1,1)    D + |R - C|^2/(2k) + S
    (k)        M + T

with T = 0, D = |y0|^2, S = 2|sigma|^2/(k-2), M = 0 for w != 0, where every
mean over the rows vanishes, and T = |sigma|^2/(k-1), D = S = 0,
M = |y0|^2 for w = 0, where d and sigma are constant.  A cluster's label
is its top summed score; scores within 1e-9 * multiplicity of the top tie,
and a tie goes to the first label in FORMULA_IDS order: hook, two-row,
standard, trivial.  isotypic_basis stays the explicit basis for verify and
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .closed_forms import FORMULA_IDS, MAX_DENSE_K, abc_terms, family_values_at
from .closed_forms import root_scan  # noqa: F401  perfbench/tracer.py finds the span here
from .errors import CapacityError, ConsistencyError, DomainError
from .hessian import check_block_pair, minimum_blocks

if TYPE_CHECKING:
    from .symrep import Partition


# ---------------------------------------------------------------------------
# analytic spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int          # eigenspace dimension = dim of one irreducible copy
    label: Partition           # isotypic component
    formula_id: str


def analytic_spectrum(k: int, alpha: float) -> list[SpectrumEntry]:
    """All seven eigenvalue families; multiplicities sum to k^2."""
    values = family_values_at(k, alpha)
    hook, two_row, std, triv = (k - 2, 1, 1), (k - 2, 2), (k - 1, 1), (k,)
    shapes = [((k - 1) * (k - 2) // 2, hook), (k * (k - 3) // 2, two_row),
              (k - 1, std), (k - 1, std), (k - 1, std), (1, triv), (1, triv)]
    entries = [SpectrumEntry(v, m, lab, fid)
               for v, (m, lab), fid in zip(values, shapes, FORMULA_IDS)]
    if sum(e.multiplicity for e in entries) != k * k:
        raise ConsistencyError("multiplicity accounting broken")
    return entries


def merged_view(entries: list[SpectrumEntry], tol: float = 0.0) -> list[tuple[float, int]]:
    """Value-grouped (value, multiplicity) pairs, ascending; coincident
    families (the two b-c lines, or everything colliding at alpha = 0) are
    merged, matching how the spectrum is displayed and how a numerical
    eigensolver sees it."""
    groups: list[tuple[float, int]] = []
    for e in sorted(entries, key=lambda e: e.value):
        if groups and abs(groups[-1][0] - e.value) <= tol:
            groups[-1] = (groups[-1][0], groups[-1][1] + e.multiplicity)
        else:
            groups.append((e.value, e.multiplicity))
    return groups


# ---------------------------------------------------------------------------
# isotypic basis
# ---------------------------------------------------------------------------

@dataclass
class IsotypicBasis:
    """Matrix bases of the six isotypic families under the diagonal action.

    span_ij + ksd triples + s0 + wedge form a basis of all k x k matrices
    (2 + 3(k-1) + k(k-3)/2 + (k-1)(k-2)/2 = k^2).
    """

    k: int
    span_ij: list[np.ndarray]                 # [I, J]
    ksd: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    s0: list[np.ndarray]
    wedge: list[np.ndarray]


def isotypic_basis(k: int) -> IsotypicBasis:
    if k < 4:
        raise DomainError("k >= 4 required")
    eye = np.eye(k)
    ones = np.ones(k)
    J = np.outer(ones, ones)
    r = [np.array([1.0 if t == i else (-1.0 if t == k - 1 else 0.0) for t in range(k)])
         for i in range(k - 1)]  # r_i = e_i - e_k

    ksd = []
    for ri in r:
        K = np.outer(ri, ones) - np.outer(ones, ri)
        S = np.outer(ri, ones) + np.outer(ones, ri)
        D = np.diag(ri) - S / k
        ksd.append((K, S, D))

    wedge = []
    for i in range(k - 1):
        for j in range(i + 1, k - 1):
            wedge.append(np.outer(r[i], r[j]) - np.outer(r[j], r[i]))

    # S0: symmetric, zero diagonal, zero row sums.  On the k(k-1)/2 entries
    # above the diagonal the row-sum map is the incidence matrix of the
    # complete graph K_k, of rank k, and S0 is its kernel: the rows of vt
    # past the k-th, mirrored and scaled to unit Frobenius norm.
    rows, cols = np.triu_indices(k, 1)
    edges = np.arange(len(rows))
    incidence = np.zeros((k, len(rows)))
    incidence[rows, edges] = incidence[cols, edges] = 1.0
    _, sing, vt = np.linalg.svd(incidence)
    rank = int((sing > 1e-8).sum())
    if rank != k:
        raise ConsistencyError(f"S0 construction found a row-sum map of rank {rank}, want {k}")
    s0 = np.zeros((len(rows) - k, k, k))
    s0[:, rows, cols] = s0[:, cols, rows] = vt[k:] / np.sqrt(2.0)

    return IsotypicBasis(
        k=k,
        span_ij=[eye, J],
        ksd=ksd,
        s0=list(s0),
        wedge=wedge,
    )


def w_block_matrix(k: int, alpha: float) -> np.ndarray:
    """Action of the block operator on one ordered triple (K_i, S_i, D_i),
    rows = images:  L(K) = (b-c+ak/2) K + (ak/2) S, etc."""
    a, b, c = abc_terms(alpha)
    return np.array([
        [b - c + a * k / 2.0, a * k / 2.0, 0.0],
        [a * k / 2.0, b + c + a * k / 2.0 - 4.0 * c / k, -4.0 * c],
        [0.0, -2.0 * c * (k - 2) / (k * k), b - c + 4.0 * c / k],
    ])


# ---------------------------------------------------------------------------
# numerical match
# ---------------------------------------------------------------------------

CLUSTER_GAP_FACTOR = 1e-8
LABEL_TIE_FACTOR = 1e-9


@dataclass
class ClusterMatch:
    numeric_value: float
    numeric_multiplicity: int
    deviation: float | None        # None when the cluster has no analytic partner
    dominant_label: str


@dataclass
class SpectrumMatchReport:
    ok: bool
    max_deviation: float
    multiplicities_agree: bool
    coupling: float                # distance to the shift-invariant split, 0.0 for a clean assembly
    clusters: list[ClusterMatch] = field(default_factory=list)
    message: str = ""


def _cluster(values: np.ndarray, gap: float) -> list[tuple[float, int]]:
    groups: list[list[float]] = [[float(values[0])]]
    for v in values[1:]:
        if float(v) - groups[-1][-1] <= gap:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return [(sum(g) / len(g), len(g)) for g in groups]


def _frequency_scores(vecs: np.ndarray) -> np.ndarray:
    """Squared projections of block eigenvectors onto the four isotypic
    components, shape (4, k*m), rows hook, two-row, standard, trivial:
    column j of block w is vecs[w, :, j] (vecs has shape (k, k, m)), at
    flat index w*m + j.  The per-frequency forms of the module docstring,
    O(k) per column, scored one frequency w at a time on the (k, m) slice
    vecs[w], so the temporaries are O(k m).
    """
    k, _, m = vecs.shape
    steps = np.arange(k)
    scores = np.empty((4, k, m))
    for w, y in enumerate(vecs):
        e = np.exp(2j * math.pi * (steps * w % k) / k)             # e[d] = e^(2 pi i w d/k)
        shifted = y * e[:, None]                                   # e_d y[d]
        y0 = y[0]
        rows, cols = y.sum(axis=0), shifted.sum(axis=0)
        total = np.einsum("dj,dj->j", y.conj(), y).real                   # |y|^2
        cross = np.einsum("dj,dj->j", shifted.conj(), y[-steps % k]).real   # X
        diag_sq = np.abs(y0) ** 2
        sigma_sq = np.abs(0.5 * (rows + cols) - y0) ** 2
        std_anti = np.abs(rows - cols) ** 2 / (2 * k)
        mean = w == 0                                # d and sigma are constant
        triv_off = np.where(mean, sigma_sq / (k - 1), 0.0)
        std_off = np.where(mean, 0.0, 2.0 * sigma_sq / (k - 2))
        std_diag = np.where(mean, 0.0, diag_sq)
        scores[:, w] = (
            0.5 * (total - cross) - std_anti,
            0.5 * (total + cross) - diag_sq - triv_off - std_off,
            std_diag + std_anti + std_off,
            diag_sq - std_diag + triv_off,
        )
    return scores.reshape(4, -1)


def numerical_spectrum_match(
    k: int,
    alpha: float,
    tolerance: float = 1e-10,
    perturbation: float | None = None,
) -> SpectrumMatchReport:
    """Dense eigensolve of the minimum Hessian against the analytic table,
    for 4 <= k <= MAX_DENSE_K (wider raises CapacityError, narrower
    DomainError, and a non-finite alpha DomainError, all before the
    Hessian is built).

    The eigensolve is split by the cyclic neuron shift
    g(i, a) = (i+1, a+1) mod k.  g relabels the neurons and fixes the
    identity teacher, so it commutes with the Hessian H, and it acts freely
    on the k^2 coordinates (i, a) = (t, t+d) for every k, odd or even:
    orbit d, position t.  In that order the block (t, t+s) of the raw
    Hessian H is the slab

        x_{t,s}[d, d'] = B[t, t+s][t+d, t+s+d'],

    gathered straight from block row t of the blocks B at the minimum.
    Each position t builds block row t and block column t with
    hessian.minimum_blocks, the closed form hessian_at_minimum reads, runs
    the asymmetry guard on that pair (hessian.check_block_pair, the core
    of hessian.check_symmetry, from the diagonal block on, so every pair
    of blocks is compared once and a bad entry raises ConsistencyError
    before the eigensolve), gathers slab t, adds its part of the coupling
    and drops both.  No k^4 array is allocated: the temporaries are a few
    k^3 arrays, and the eigensolve's complex (k, k, k) stack is the peak.
    H is block-circulant in t: x_{t,s} = x_{0,s}.  The representative slabs
    h_s = x_{0,s}, symmetrized once as h_s <- (h_s + h_{-s}^T)/2 and
    transformed over s, B_w = sum_s h_s e^(-2 pi i w s/k), are k Hermitian
    blocks, and one stacked eigh call solves them all: the eigenvalues of
    B_w are those of the block-circulant matrix M built from the
    symmetrized h_s, with eigenvectors
    x[(t, t+d)] = y[d] e^(-2 pi i w t/k)/sqrt(k).  What the split leaves
    out is measured on the raw slabs, one position t at a time:

        coupling = sqrt(sum_{t,s} |x_{t,s} - x_{0,s}|_F^2).

    (H + H^T)/2, the dense assembly, differs from M by the blocks
    ((x_{t,s} - x_{0,s}) + (x_{t+s,-s} - x_{0,-s})^T)/2, so its distance
    to M in the 2-norm is at most the coupling, and by Weyl's inequality
    so is that of every eigenvalue.  A matched deviation passes only
    when deviation + coupling <= max(tolerance, k^2 eps scale), the second
    term being the eigensolver's backward error at large leak values (it
    stays below 8e-11 for k <= 64, |alpha| <= 3.5).  The coupling is 0
    exactly for the blocks of hessian_at_minimum; blocks that break the
    shift symmetry fail on it instead of being hidden by the split.  The
    oracle stays independent of the analytic side: the split is a unitary
    similarity checked on the Hessian's own entries, and it reads no
    isotypic basis.

    Eigenvalues are clustered with gap threshold 1e-8 * scale so analytic
    coincidences (all of them at alpha = 0) do not trip multiplicity checks.
    An optional finite symmetric perturbation p of H[0, 1] and H[1, 0]
    (x_{0,0}[0, 1] and x_{0,0}[1, 0], before the coupling is measured)
    supports negative-control runs; its coupling is sqrt(2(k - 1) p^2), so
    a p for which 2(k - 1) p^2 is not a finite float raises DomainError
    before the Hessian is built.  Mismatches produce a failing report,
    never an exception.

    Each block eigenvector y stands for the complex eigenvector
    x[(t, t+d)] = y[d] e^(-2 pi i w t/k)/sqrt(k) of H.  Its squared
    projections onto the four isotypic components are read from y alone
    by _frequency_scores, with the per-frequency forms of the module
    docstring.  The projectors P are real, so a complex column scores as
    the Hermitian form x^H P x, its real part's score plus its imaginary
    part's.  They commute with the shift, so x is never formed.  The
    scores of all k^2 block eigenvectors are one (4, k^2) array, computed
    one frequency at a time in O(k^3), and a cluster's scores are the sums
    over its columns.
    The dominant label is the top score.  Labels within 1e-9 * multiplicity
    of the top score count as tied, and a tie goes to the first in
    FORMULA_IDS order: hook, two-row, standard, trivial.  So the k = 4
    b - c cluster (3 hook + 3 standard dimensions) is (2,1,1), and the
    k = 6, alpha = 0 zero cluster (10 hook + 10 standard) is (4,1,1).
    """
    if k > MAX_DENSE_K:
        raise CapacityError(f"dense eigenanalysis capped at k = {MAX_DENSE_K}")
    if k < 4:
        raise DomainError("k >= 4 required")
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if perturbation is not None and not math.isfinite(2.0 * perturbation * perturbation * (k - 1)):
        raise DomainError(f"perturbation must keep 2(k - 1) p^2 finite at k={k}, "
                          f"got {perturbation!r}")
    steps = np.arange(k)
    sd = (steps[:, None] + steps) % k                           # sd[s, d'] = s + d'
    coupling_sq = 0.0
    for t in range(k):                              # block row t and block column t, then dropped
        row = minimum_blocks(k, alpha, t, steps)    # [j, a, b]: B[t, j][a, b]
        check_block_pair(row[t:], minimum_blocks(k, alpha, steps[t:], t))
        r = (steps + t) % k                         # [s, d, d']: x_{t,s}[d, d']
        slab = row.take((r[:, None, None] * k + r[:, None]) * k + r[sd][:, None, :])
        del row
        if t == 0:
            h = slab
            if perturbation is not None:            # H[0, 1] and H[1, 0]
                h[0, 0, 1] += perturbation
                h[0, 1, 0] += perturbation
        else:
            slab -= h
            coupling_sq += float(np.vdot(slab, slab))
    coupling = math.sqrt(coupling_sq)
    h = 0.5 * (h + h[-steps % k].transpose(0, 2, 1))
    roots = np.exp(-2j * math.pi * (np.outer(steps, steps) % k) / k)   # e^(-2 pi i w s/k)
    block_vals, block_vecs = np.linalg.eigh(np.tensordot(roots, h, axes=1))
    scores = _frequency_scores(block_vecs)
    labels = (f"({k - 2},1,1)", f"({k - 2},2)", f"({k - 1},1)", f"({k})")
    order = np.argsort(block_vals, axis=None, kind="stable")   # flat index w*k + j
    evals = block_vals.ravel()[order]
    scale = max(1.0, float(np.abs(evals).max()))
    gap = CLUSTER_GAP_FACTOR * scale
    numeric = _cluster(evals, gap)
    analytic = merged_view(analytic_spectrum(k, alpha), tol=gap)

    clusters: list[ClusterMatch] = []
    shape_ok = len(numeric) == len(analytic)
    max_dev = 0.0
    mults_ok = shape_ok
    col = 0
    for idx, (nv, nm) in enumerate(numeric):
        matched = idx < len(analytic)
        av, am = analytic[idx] if matched else (None, -1)
        dev = abs(nv - av) if matched else None
        if matched:
            max_dev = max(max_dev, dev)
        if nm != am:
            mults_ok = False
        summed = scores[:, order[col:col + nm]].sum(axis=1)
        col += nm
        dominant = labels[int(np.argmax(summed >= summed.max() - LABEL_TIE_FACTOR * nm))]
        clusters.append(ClusterMatch(
            numeric_value=nv, numeric_multiplicity=nm,
            deviation=dev, dominant_label=dominant,
        ))
    floor = k * k * float(np.finfo(float).eps) * scale
    ok = shape_ok and mults_ok and max_dev + coupling <= max(tolerance, floor)
    msg = "" if ok else (
        f"cluster shape {[m for _, m in numeric]} vs analytic {[m for _, m in analytic]}, "
        f"max matched deviation {max_dev:.3e} plus shift coupling {coupling:.3e} "
        f"at tolerance {tolerance:.1e} (eigensolver floor {floor:.1e})"
    )
    return SpectrumMatchReport(
        ok=ok, max_deviation=max_dev, multiplicities_agree=mults_ok, coupling=coupling,
        clusters=clusters, message=msg,
    )


# ---------------------------------------------------------------------------
# exact check of the printed k = 5 display
# ---------------------------------------------------------------------------

# Each line of the printed k = 5 display as (general side, printed side),
# pi denominators cleared.  A general side is the general table's line at
# width k in A = 4a = 2 - alpha, B = 4b = alpha and C = 2 pi c = alpha; a
# printed side reads alpha and pi.  At k = 5 both are integer polynomials of
# degree <= 2 in alpha and in pi.
K5_DISPLAY_IDENTITIES = {
    # 4 pi (b -+ c) against 4 pi (alpha/4 -+ alpha/2pi)
    "bminusc": (lambda k, A, B, C, pi: pi * B - 2 * C,
                lambda al, pi: pi * al - 2 * al),
    "bplusc": (lambda k, A, B, C, pi: pi * B + 2 * C,
               lambda al, pi: pi * al + 2 * al),
    # W family: 4 (ak + 2b) against 10 - 3 alpha
    "W_linear": (lambda k, A, B, C, pi: k * A + 2 * B,
                 lambda al, pi: 10 - 3 * al),
    # 16 pi^2 (a^2 k^2 + 4c^2 - 8ca) against rho1^2
    "W_radicand": (lambda k, A, B, C, pi: k * k * (pi * A) ** 2 + 16 * C * C
                   - 16 * C * pi * A,
                   lambda al, pi: 25 * pi * pi * (al - 2) ** 2 + 16 * pi * al * (al - 2)
                   + 16 * al * al),
    # span family: 4 pi (2b + k(a + c)) against pi (10 - 3 alpha) + 10 alpha
    "span_linear": (lambda k, A, B, C, pi: 2 * pi * B + k * (pi * A + 2 * C),
                    lambda al, pi: pi * (10 - 3 * al) + 10 * al),
    # 16 pi^2 (k^2 (a - c)^2 + 4c (2a - c)(k - 1)) against rho2^2
    "span_radicand": (lambda k, A, B, C, pi: k * k * (pi * A - 2 * C) ** 2
                      + 8 * (k - 1) * C * (2 * pi * A - 2 * C),
                      lambda al, pi: 25 * pi * pi * (al - 2) ** 2 + 36 * pi * al * (al - 2)
                      + 36 * al * al),
}


def spectrum_symbolic_check_k5() -> dict[str, bool]:
    """Exact check at k = 5 of the general eigenvalue table against the
    printed closed-form display

        alpha/4 -+ alpha/2pi,
        (pi(10 - 3 alpha) +- rho1) / 8pi,
        (pi(10 - 3 alpha) + 10 alpha +- rho2) / 8pi,

    rho1^2 = 25 pi^2 (alpha-2)^2 + 16 pi alpha (alpha-2) + 16 alpha^2 and
    rho2^2 with 36 in place of 16, plus the printed multiplicities.

    Each entry of K5_DISPLAY_IDENTITIES is compared in Python integers at
    every (alpha, pi) in {0, 1, 2}^2.  The difference of its two sides has
    degree at most 2 in alpha and in pi, and such a polynomial that vanishes
    on a grid of 3 points per variable is zero: at each grid pi it is a
    quadratic in alpha with 3 roots, so each of its alpha-coefficients, a
    quadratic in pi, has 3 roots too.  So the grid decides each identity.
    """
    k, grid = 5, range(3)
    checks = {
        name: all(general(k, 2 - al, al, al, pi) == printed(al, pi)
                  for al in grid for pi in grid)
        for name, (general, printed) in K5_DISPLAY_IDENTITIES.items()
    }
    mults = sorted(m for _, m in merged_view(analytic_spectrum(k, 1.0)))
    checks["multiplicities"] = mults == [1, 1, 4, 4, 5, 10]
    return checks
