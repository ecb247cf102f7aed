"""Analytic spectrum of the Hessian at the global minimum, the explicit
isotypic eigenbasis, the critical set of leaky parameters, and the matcher
against dense numerical eigensolves.

With a = 1/2 - alpha/4, b = alpha/4, c = alpha/2pi (hessian.abc, re-exported
here) the block operator has exactly seven eigenvalue families:

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

family_values is the one evaluator of these seven formulas, on an array of
leak values; analytic_spectrum, root_scan and critical_set all read it.
critical_set is the one owner of the critical set {0, alpha_std, alpha_triv}:
its labels, its residuals and its ordering 0 < alpha_std < alpha_triv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, DomainError
from .hessian import ABCCoefficients, abc, assemble_dense, hessian_at_minimum, vec  # noqa: F401
from .symrep import Partition

FORMULA_IDS = ("wedge", "sym0", "W_bminus_c", "W_plus", "W_minus",
               "span_IJ_plus", "span_IJ_minus")


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
    in FORMULA_IDS order.  Each expression keeps the operation order of the
    scalar formulas, so every entry is bit-identical to Python float
    arithmetic."""
    if k < 4:
        raise DomainError("k >= 4 required (the uniform decomposition starts there)")
    alphas = np.asarray(alphas, dtype=float)
    kf = float(k)
    co = abc(alphas)
    a, b, c = co.a, co.b, co.c
    with np.errstate(all="ignore"):
        r1 = a * a * kf * kf + 4.0 * c * (c - 2.0 * a)
        r2 = kf * kf * (a - c) ** 2 + 4.0 * c * (2.0 * a - c) * (kf - 1)
        for name, r in (("W", r1), ("span_IJ", r2)):
            finite = np.isfinite(r)
            if not finite.all():
                alpha = float(alphas[np.argmin(finite)])
                raise DomainError(f"alpha={alpha!r} at k={k} overflows the {name} radicand")
            if (r < 0.0).any():
                raise ConsistencyError(
                    f"negative discriminant {float(r[r < 0.0][0])!r} in the {name} family")
        s1, s2 = np.sqrt(r1), np.sqrt(r2)
        w_lin = a * kf + 2 * b
        ij_lin = 2 * b + kf * (a + c)
        return np.stack([
            b - c, b + c, b - c,
            0.5 * (w_lin + s1), 0.5 * (w_lin - s1),
            0.5 * (ij_lin + s2), 0.5 * (ij_lin - s2),
        ])


def analytic_spectrum(k: int, alpha: float) -> list[SpectrumEntry]:
    """All seven eigenvalue families; multiplicities sum to k^2."""
    values = family_values(k, [alpha])[:, 0].tolist()
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
    co = abc(alpha)
    a, b, c = co.a, co.b, co.c
    return np.array([
        [b - c + a * k / 2.0, a * k / 2.0, 0.0],
        [a * k / 2.0, b + c + a * k / 2.0 - 4.0 * c / k, -4.0 * c],
        [0.0, -2.0 * c * (k - 2) / (k * k), b - c + 4.0 * c / k],
    ])


# ---------------------------------------------------------------------------
# critical set
# ---------------------------------------------------------------------------

@dataclass
class CriticalSet:
    k: int
    values: tuple[float, float, float]          # (0, standard, trivial), increasing
    labels: tuple[tuple[Partition, ...], ...]   # vanishing components per value
    residuals: tuple[float, ...]                # eigenvalue at its critical value
    # the minus branches of both quadratic families also pass through zero at
    # alpha = 0, so the trivial component degenerates there as well; kept as
    # an explicit note because displays list only the three linear families
    trivial_zero_at_origin: bool = True

    @property
    def subcritical_regime(self) -> bool:
        """Every positive critical value exceeds 1, the engineering regime's edge."""
        return self.values[1] > 1.0


def critical_alpha_standard(k: int) -> float:
    """Root of the W_minus family: (8 pi + 2 k pi^2) / (4 + (k-1) pi^2 + 4 pi)."""
    p = math.pi
    return (8.0 * p + 2.0 * k * p * p) / (4.0 + (k - 1) * p * p + 4.0 * p)


def critical_alpha_trivial(k: int) -> float:
    """Root of the span_IJ_minus family:
    2 pi (4 - 4k + 2k^2 + k pi) / ((k-1)(2k pi + pi^2 - 4 pi - 4))."""
    p = math.pi
    return (2.0 * p * (4.0 - 4.0 * k + 2.0 * k * k + k * p)
            / ((k - 1) * (2.0 * k * p + p * p - 4.0 * p - 4.0)))


def critical_set(k: int) -> CriticalSet:
    """0 = alpha_(k-2,2) = alpha_(k-2,1,1) = alpha^1_(k-1,1)
    < alpha^2_(k-1,1) < alpha^1_(k); a violated chain is an invariant
    failure (ConsistencyError)."""
    if k < 4:
        raise DomainError("k >= 4 required")
    mid = critical_alpha_standard(k)
    last = critical_alpha_trivial(k)
    fam = np.abs(family_values(k, [0.0, mid, last]))
    crit = CriticalSet(
        k=k,
        values=(0.0, mid, last),
        labels=(
            ((k - 2, 2), (k - 2, 1, 1), (k - 1, 1)),
            ((k - 1, 1),),
            ((k,),),
        ),
        residuals=(float(fam[:3, 0].max()), float(fam[4, 1]), float(fam[6, 2])),
    )
    if not 0.0 < mid < last:
        raise ConsistencyError(f"critical ordering violated at k={k}: {crit.values}")
    return crit


def root_scan(k: int, lo: float = -10.0, hi: float = 10.0,
              grid: int = 4000, tol: float = 1e-12) -> dict[str, list[float]]:
    """Safeguarded bisection roots of every eigenvalue family on [lo, hi].

    Oracle for the nonnegativity of the critical set: no family may have a
    root below zero, and each has at most one nonzero root (the quadratic
    minus-branches vanish both at 0 and at their positive critical value).
    """
    out: dict[str, list[float]] = {}
    xs = np.linspace(lo, hi, grid + 1)
    for row, (fid, row_vals) in enumerate(zip(FORMULA_IDS, family_values(k, xs))):
        vals = row_vals.tolist()
        roots: list[float] = []
        for i in range(grid):
            va, vb = vals[i], vals[i + 1]
            if va == 0.0:
                roots.append(float(xs[i]))
                continue
            if va * vb < 0.0:
                a_, b_ = float(xs[i]), float(xs[i + 1])
                fa = va
                for _ in range(200):
                    m = 0.5 * (a_ + b_)
                    fm = float(family_values(k, [m])[row, 0])
                    if fm == 0.0 or (b_ - a_) < tol:
                        break
                    if fa * fm < 0.0:
                        b_ = m
                    else:
                        a_, fa = m, fm
                roots.append(0.5 * (a_ + b_))
        if vals[-1] == 0.0:
            roots.append(float(xs[-1]))
        out[fid] = [0.0 if abs(r) < 1e-9 else r for r in roots]
    return out


# ---------------------------------------------------------------------------
# numerical match
# ---------------------------------------------------------------------------

CLUSTER_GAP_FACTOR = 1e-8


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


def numerical_spectrum_match(
    k: int,
    alpha: float,
    tolerance: float = 1e-10,
    perturbation: float | None = None,
) -> SpectrumMatchReport:
    """Dense eigensolve of the assembled minimum Hessian against the analytic
    table.

    Eigenvalues are clustered with gap threshold 1e-8 * scale so analytic
    coincidences (all of them at alpha = 0) do not trip multiplicity checks.
    An optional symmetric perturbation of one off-diagonal entry supports
    negative-control runs; mismatches produce a failing report, never an
    exception.  Eigenvectors are projected onto the isotypic families and
    the dominant component label is attached per cluster.
    """
    if k > 64:
        raise DomainError("dense eigenanalysis capped at k = 64")
    dense = assemble_dense(hessian_at_minimum(k, alpha))
    if perturbation is not None:
        dense[0, 1] += perturbation
        dense[1, 0] += perturbation
    evals, evecs = np.linalg.eigh(dense)
    scale = max(1.0, float(np.abs(evals).max()))
    gap = CLUSTER_GAP_FACTOR * scale
    numeric = _cluster(evals, gap)
    analytic = merged_view(analytic_spectrum(k, alpha), tol=gap)

    # orthonormal family projectors in vec coordinates
    basis = isotypic_basis(k)
    projectors: dict[str, np.ndarray] = {}
    fam_label = {
        "span_IJ": f"({k})",
        "K": f"({k - 1},1)",
        "S": f"({k - 1},1)",
        "D": f"({k - 1},1)",
        "S0": f"({k - 2},2)",
        "wedge": f"({k - 2},1,1)",
    }
    label_vectors: dict[str, list[np.ndarray]] = {}
    for fam, mats in basis.families().items():
        lab = fam_label[fam]
        label_vectors.setdefault(lab, []).extend(vec(m) for m in mats)
    for lab, vecs in label_vectors.items():
        q, _ = np.linalg.qr(np.stack(vecs, axis=1))
        projectors[lab] = q

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
        vecs = evecs[:, col:col + nm]
        col += nm
        scores = {
            lab: float(np.linalg.norm(q.T @ vecs) ** 2) for lab, q in projectors.items()
        }
        dominant = max(scores, key=scores.get)
        clusters.append(ClusterMatch(
            analytic_value=av, numeric_value=nv,
            analytic_multiplicity=am, numeric_multiplicity=nm,
            deviation=dev, dominant_label=dominant,
        ))
    ok = shape_ok and mults_ok and max_dev <= tolerance
    msg = "" if ok else (
        f"cluster shape {[m for _, m in numeric]} vs analytic {[m for _, m in analytic]}, "
        f"max matched deviation {max_dev:.3e} at tolerance {tolerance:.1e}"
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
