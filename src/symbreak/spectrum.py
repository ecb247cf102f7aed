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
numpy; this module re-exports them (spectrum.root_scan is
closed_forms.root_scan).  family_values evaluates the formulas on an array
of leak values; no command calls it, and it stays as the array form that
the tests hold bit-identical to family_values_at.

numerical_spectrum_match checks the table against a dense eigh of the
assembled Hessian and labels each eigenvalue cluster by closed-form isotypic
projections, with no basis.  Write an eigenvector as a k x k matrix
U = Diag(d) + A + S, A antisymmetric and S symmetric with zero diagonal, let
rho = A 1 and sigma = S 1, and let a bar be the mean over the k rows.  The
squared norms of its projections are

    (k)        k dbar^2 + k sigmabar^2/(k-1)                  span{I, J}
    (k-1,1)    |d - dbar|^2 + 2|rho|^2/k + 2|sigma - sigmabar|^2/(k-2)
    (k-2,2)    |S|^2 - k sigmabar^2/(k-1) - 2|sigma - sigmabar|^2/(k-2)
    (k-2,1,1)  |A|^2 - 2|rho|^2/k

(the standard line sums the D, K and S copies).  A cluster's label is its
top summed score; scores within 1e-9 * multiplicity of the top tie, and a
tie goes to the first label in FORMULA_IDS order: hook, two-row, standard,
trivial.  isotypic_basis stays the explicit basis for verify and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .closed_forms import (  # noqa: F401
    FORMULA_IDS,
    MAX_DENSE_K,
    _asymptote_distances,
    abc_terms,
    critical_alpha_standard,
    critical_alpha_trivial,
    critical_set,
    family_terms,
    family_values_at,
    root_scan,
)
from .errors import CapacityError, ConsistencyError, DomainError
from .hessian import assemble_dense, hessian_at_minimum

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


def family_values(k: int, alphas) -> np.ndarray:
    """The seven eigenvalue families at every leak value, shape (7, n), rows
    in FORMULA_IDS order: closed_forms.family_terms on an array.  Every
    entry is bit-identical to family_values_at on the same float, because
    the formulas write each square as a product."""
    alphas = np.asarray(alphas, dtype=float)

    def root(r: np.ndarray, name: str) -> np.ndarray:
        finite = np.isfinite(r)
        if not finite.all():
            alpha = float(alphas[np.argmin(finite)])
            raise DomainError(f"alpha={alpha!r} at k={k} overflows the {name} radicand")
        if (r < 0.0).any():
            raise ConsistencyError(
                f"negative discriminant {float(r[r < 0.0][0])!r} in the {name} family")
        return np.sqrt(r)

    with np.errstate(all="ignore"):
        return np.stack(family_terms(k, alphas, root))


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
    (2 + 3(k-1) + k(k-3)/2 + (k-1)(k-2)/2 = k^2).  p_perp and u_w are the
    featured invariant constructions: p_perp = I - J/k spans the trivial
    copy inside the symmetric square and lies in span{I, J}; u_w for w in
    the r_i basis equals -k D_i, exhibiting the symmetric-square copy of the
    standard component.
    """

    k: int
    span_ij: list[np.ndarray]                 # [I, J]
    ksd: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    s0: list[np.ndarray]
    wedge: list[np.ndarray]
    p_perp: np.ndarray
    u_w: list[np.ndarray]

    def families(self) -> dict[str, list[np.ndarray]]:
        return {
            "span_IJ": self.span_ij,
            "K": [t[0] for t in self.ksd],
            "S": [t[1] for t in self.ksd],
            "D": [t[2] for t in self.ksd],
            "S0": self.s0,
            "wedge": self.wedge,
        }

    def all_matrices(self) -> list[np.ndarray]:
        out = list(self.span_ij)
        for kk, ss, dd in self.ksd:
            out.extend([kk, ss, dd])
        out.extend(self.s0)
        out.extend(self.wedge)
        return out


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

    u_w = [np.outer(w, ones) + np.outer(ones, w) - k * np.diag(w) for w in r]

    wedge = []
    for i in range(k - 1):
        for j in range(i + 1, k - 1):
            wedge.append(np.outer(r[i], r[j]) - np.outer(r[j], r[i]))

    # S0: symmetric, zero diagonal, orthogonal (Frobenius) to the zero-diagonal
    # parts of P_perp and of every D_i -- equivalently row sums vanish.
    # Orthonormalize the symmetric off-diagonal units against those targets
    # in one shot (projection + SVD instead of an elementwise sweep).
    offdiag_targets = [J - eye]
    offdiag_targets += [np.diag(np.diag(D)) - D for (_, _, D) in ksd]  # -offdiag(D_i)
    q_rows = []
    for tgt in offdiag_targets:
        v = tgt.flatten()
        for q in q_rows:
            v = v - (v @ q) * q
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            q_rows.append(v / nrm)
    q_mat = np.stack(q_rows)
    cands = []
    for i in range(k):
        for j in range(i + 1, k):
            cand = np.zeros((k, k))
            cand[i, j] = cand[j, i] = 1.0
            cands.append(cand.flatten())
    cand_mat = np.stack(cands)
    cand_mat -= (cand_mat @ q_mat.T) @ q_mat
    _, sing, vt = np.linalg.svd(cand_mat, full_matrices=False)
    want = k * (k - 3) // 2
    rank = int((sing > 1e-8).sum())
    if rank != want:
        raise ConsistencyError(f"S0 construction found rank {rank}, want {want}")
    s0 = [vt[r].reshape(k, k) for r in range(want)]

    return IsotypicBasis(
        k=k,
        span_ij=[eye, J],
        ksd=ksd,
        s0=s0,
        wedge=wedge,
        p_perp=eye - J / k,
        u_w=u_w,
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
    analytic_value: float | None   # None when the cluster has no analytic partner
    numeric_value: float
    analytic_multiplicity: int     # -1 when unmatched
    numeric_multiplicity: int
    deviation: float | None
    dominant_label: str


@dataclass
class SpectrumMatchReport:
    k: int
    alpha: float
    ok: bool
    max_deviation: float
    multiplicities_agree: bool
    tolerance: float
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


def _isotypic_scores(vecs: np.ndarray, k: int) -> dict[str, float]:
    """Squared Frobenius norm of the orthogonal projection of the columns of
    vecs (shape (k^2, m), vec coordinates) onto each isotypic component,
    keyed hook, two-row, standard, trivial: the closed forms of the module
    docstring, O(k^2) per column.  The C-order reshape of a column-stacked
    vector is U^T, and every score is invariant under transposition;
    |A|^2 and |S|^2 come from |U|^2 and <U, U^T>.
    """
    x = vecs.reshape(k, k, -1)
    d = np.einsum("iim->im", x)
    rows, cols = x.sum(axis=1), x.sum(axis=0)
    rho = 0.5 * (rows - cols)
    sigma = 0.5 * (rows + cols) - d
    total = float(np.einsum("ijm,ijm->", x, x))
    cross = float(np.einsum("ijm,jim->", x, x))         # <U, U^T>
    anti = 0.5 * (total - cross)                         # |A|^2
    sym = 0.5 * (total + cross) - float((d * d).sum())   # |S|^2
    d_bar, s_bar = d.mean(axis=0), sigma.mean(axis=0)
    triv_off = k * float((s_bar * s_bar).sum()) / (k - 1)
    std_off = 2.0 * float(((sigma - s_bar) ** 2).sum()) / (k - 2)
    std_anti = 2.0 * float((rho * rho).sum()) / k
    return {
        f"({k - 2},1,1)": anti - std_anti,
        f"({k - 2},2)": sym - triv_off - std_off,
        f"({k - 1},1)": float(((d - d_bar) ** 2).sum()) + std_anti + std_off,
        f"({k})": k * float((d_bar * d_bar).sum()) + triv_off,
    }


def numerical_spectrum_match(
    k: int,
    alpha: float,
    tolerance: float = 1e-10,
    perturbation: float | None = None,
) -> SpectrumMatchReport:
    """Dense eigensolve of the assembled minimum Hessian against the analytic
    table, for k <= MAX_DENSE_K (wider raises CapacityError).

    Eigenvalues are clustered with gap threshold 1e-8 * scale so analytic
    coincidences (all of them at alpha = 0) do not trip multiplicity checks.
    A matched deviation passes up to max(tolerance, k^2 eps scale), the
    second term being the eigensolver's backward error at large leak values
    (it stays below 8e-11 for k <= 64, |alpha| <= 3.5).  An optional
    symmetric perturbation of one off-diagonal entry supports negative-
    control runs; mismatches produce a failing report, never an exception.

    Each cluster's eigenvectors are scored by _isotypic_scores, the squared
    projections onto the four isotypic components:

        (k)        k dbar^2 + k sigmabar^2/(k-1)
        (k-1,1)    |d - dbar|^2 + 2|rho|^2/k + 2|sigma - sigmabar|^2/(k-2)
        (k-2,2)    |S|^2 - k sigmabar^2/(k-1) - 2|sigma - sigmabar|^2/(k-2)
        (k-2,1,1)  |A|^2 - 2|rho|^2/k

    with U = Diag(d) + A + S, rho = A 1, sigma = S 1 (module docstring).
    The dominant label is the top score.  Labels within 1e-9 * multiplicity
    of the top score count as tied, and a tie goes to the first in
    FORMULA_IDS order: hook, two-row, standard, trivial.  So the k = 4
    b - c cluster (3 hook + 3 standard dimensions) is (2,1,1), and the
    k = 6, alpha = 0 zero cluster (10 hook + 10 standard) is (4,1,1).
    """
    if k > MAX_DENSE_K:
        raise CapacityError(f"dense eigenanalysis capped at k = {MAX_DENSE_K}")
    dense = assemble_dense(hessian_at_minimum(k, alpha))
    if perturbation is not None:
        dense[0, 1] += perturbation
        dense[1, 0] += perturbation
    evals, evecs = np.linalg.eigh(dense)
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
        scores = _isotypic_scores(evecs[:, col:col + nm], k)
        col += nm
        top = max(scores.values())
        dominant = next(lab for lab, s in scores.items()
                        if s >= top - LABEL_TIE_FACTOR * nm)
        clusters.append(ClusterMatch(
            analytic_value=av, numeric_value=nv,
            analytic_multiplicity=am, numeric_multiplicity=nm,
            deviation=dev, dominant_label=dominant,
        ))
    floor = k * k * float(np.finfo(float).eps) * scale
    ok = shape_ok and mults_ok and max_dev <= max(tolerance, floor)
    msg = "" if ok else (
        f"cluster shape {[m for _, m in numeric]} vs analytic {[m for _, m in analytic]}, "
        f"max matched deviation {max_dev:.3e} at tolerance {tolerance:.1e} "
        f"(eigensolver floor {floor:.1e})"
    )
    return SpectrumMatchReport(
        k=k, alpha=alpha, ok=ok, max_deviation=max_dev,
        multiplicities_agree=mults_ok, tolerance=tolerance,
        clusters=clusters, message=msg,
    )


# ---------------------------------------------------------------------------
# symbolic check of the printed k = 5 display
# ---------------------------------------------------------------------------

class _Poly2:
    """Exact polynomials in (alpha, pi) over Fractions; enough arithmetic to
    compare the k = 5 closed-form display against the general table after
    clearing pi denominators."""

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        self.terms = {e: Fraction(c) for e, c in (terms or {}).items() if c != 0}

    @staticmethod
    def const(c) -> "_Poly2":
        return _Poly2({(0, 0): Fraction(c)})

    @staticmethod
    def alpha() -> "_Poly2":
        return _Poly2({(1, 0): Fraction(1)})

    @staticmethod
    def pi() -> "_Poly2":
        return _Poly2({(0, 1): Fraction(1)})

    def __add__(self, other: "_Poly2") -> "_Poly2":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return _Poly2(out)

    def __sub__(self, other: "_Poly2") -> "_Poly2":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "_Poly2":
        return _Poly2({e: Fraction(scalar) * c for e, c in self.terms.items()})

    def __mul__(self, other: "_Poly2") -> "_Poly2":
        out: dict[tuple[int, int], Fraction] = {}
        for (a1, p1), c1 in self.terms.items():
            for (a2, p2), c2 in other.terms.items():
                key = (a1 + a2, p1 + p2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return _Poly2(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Poly2) and self.terms == other.terms


def spectrum_symbolic_check_k5() -> dict[str, bool]:
    """Coefficient-level comparison at k = 5 of the general eigenvalue table
    against the printed closed-form display

        alpha/4 -+ alpha/2pi,
        (pi(10 - 3 alpha) +- rho1) / 8pi,
        (pi(10 - 3 alpha) + 10 alpha +- rho2) / 8pi,

    rho1^2 = 25 pi^2 (alpha-2)^2 + 16 pi alpha (alpha-2) + 16 alpha^2 and
    rho2^2 with 36 in place of 16.  Multiplying through by powers of pi makes
    every comparison a polynomial identity in (alpha, pi) over Q.
    """
    k = 5
    al, pi = _Poly2.alpha(), _Poly2.pi()
    one = _Poly2.const(1)
    # pi-cleared coefficients: A = 4a, B = 4b, Cpi = 2 pi c = alpha
    a4 = 2 * one - al           # 4a
    b4 = al                     # 4b
    cpi = al                    # 2 pi c

    checks: dict[str, bool] = {}
    # b - c and b + c against alpha/4 -+ alpha/2pi, cleared by 4pi:
    # 4pi(b -+ c) = pi*4b/4*... -> pi*b4 -+ 2*cpi
    checks["bminusc"] = (pi * b4 - 2 * cpi) == (pi * al - 2 * al)
    checks["bplusc"] = (pi * b4 + 2 * cpi) == (pi * al + 2 * al)

    alpha_minus_2 = al - 2 * one
    # W family: linear part  4(ak + 2b) = k*a4 + 2*b4  vs  (10 - 3 alpha)
    checks["W_linear"] = (k * a4 + 2 * b4) == (10 * one - 3 * al)
    # W family: 16 pi^2 (a^2 k^2 + 4c^2 - 8ca)
    #   = k^2 (pi a4)^2 + 16 cpi^2 - 16 cpi (pi a4)
    w_radicand = k * k * (pi * a4) * (pi * a4) + 16 * (cpi * cpi) - 16 * (cpi * (pi * a4))
    rho1_sq = (25 * one) * (pi * pi) * (alpha_minus_2 * alpha_minus_2) \
        + 16 * (pi * (al * alpha_minus_2)) + 16 * (al * al)
    checks["W_radicand"] = w_radicand == rho1_sq
    # span family: linear part 4 pi (2b + k(a + c)) vs pi(10 - 3 alpha) + 10 alpha
    span_linear = pi * (2 * b4) + k * (pi * a4 + 2 * cpi)
    checks["span_linear"] = span_linear == (pi * (10 * one - 3 * al) + 10 * al)
    # span radicand: 16 pi^2 (k^2 (a - c)^2 + 4 c (2a - c)(k - 1))
    #   = k^2 (4 pi (a-c))^2 + 8 (k-1) cpi (4 pi (2a - c))
    a_minus_c_pi = pi * a4 - 2 * cpi            # 4 pi (a - c)
    two_a_minus_c_pi = 2 * (pi * a4) - 2 * cpi  # 4 pi (2a - c)
    span_radicand = k * k * (a_minus_c_pi * a_minus_c_pi) \
        + 8 * (k - 1) * (cpi * two_a_minus_c_pi)
    rho2_sq = (25 * one) * (pi * pi) * (alpha_minus_2 * alpha_minus_2) \
        + 36 * (pi * (al * alpha_minus_2)) + 36 * (al * al)
    checks["span_radicand"] = span_radicand == rho2_sq
    # printed multiplicities (10, 5, 4, 4, 1, 1) against the k = 5 table
    mults = sorted(m for _, m in merged_view(analytic_spectrum(5, 1.0)))
    checks["multiplicities"] = mults == [1, 1, 4, 4, 5, 10]
    return checks
