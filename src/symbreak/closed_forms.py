"""Closed forms at the global minimum that need no arrays: the (a, b, c)
coefficients, the seven eigenvalue families, the critical set and the root
scan that checks it.

With a = 1/2 - alpha/4, b = alpha/4, c = alpha/2pi the block operator has
exactly seven eigenvalue families, each one copy of an isotypic component
of R^{k^2} under the diagonal action of S_k:

    wedge          b - c
    sym0           b + c
    W_bminus_c     b - c
    W_plus/minus   (ak + 2b +- sqrt(a^2k^2 + 4c(c-2a))) / 2
    span_IJ_+-     (2b + k(a+c) +- sqrt(k^2(a-c)^2 + 4c(2a-c)(k-1))) / 2

family_terms writes them once, over any number type, and family_values_at
takes their float roots at one leak value.  This module is the one
statement of the isotypic structure: components(k) gives the four
components and their dimensions, FAMILY_COMPONENTS each family's component
and CRITICAL_FAMILIES the families that vanish at each critical value;
every other module reads them.  Every square is written as a product:
Python's float power calls libm pow, which can differ from numpy's
elementwise square in the last bit, and a product is one correctly rounded
multiplication on a float and on an array alike, so the tests' array copy
of these formulas rounds as they do.

critical_set is the one owner of the critical set {0, alpha_std,
alpha_triv}: its labels, its residuals and its ordering
0 < alpha_std < alpha_triv.  root_scan brackets the roots of every family
on a grid, one family_values_at call per grid point; its grid points are
numpy.linspace's bit for bit.  MAX_DENSE_K is the widest Hessian the dense
eigensolve takes, named here so that argument checks can read it.

This module imports neither numpy nor symrep (it names Partition only for
type checkers), so `critical` and the exact commands (`invariants`, the
capacity report) run without numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConsistencyError, DomainError

if TYPE_CHECKING:
    from .symrep import Partition

TWO_PI = 2.0 * math.pi

# the dense oracle stops here.  Its memory grows as k^3, about five k^3
# floats at its peak, since it builds the Hessian one block row at a time
# and solves a few shift frequencies per eigh call; the cap stays until
# wider widths are timed and measured
MAX_DENSE_K = 64

FORMULA_IDS = ("wedge", "sym0", "W_bminus_c", "W_plus", "W_minus",
               "span_IJ_plus", "span_IJ_minus")

# each family's component, an index into components(k), in FORMULA_IDS order
FAMILY_COMPONENTS = (0, 1, 2, 2, 2, 3, 3)

# the families that vanish at 0, at alpha_std and at alpha_triv, in the
# order `critical` prints their components
CRITICAL_FAMILIES = ((1, 0, 2), (4,), (6,))


def components(k: int) -> tuple[tuple[Partition, int], ...]:
    """The four components as (partition, irreducible dimension): hook,
    two-row, standard, trivial.  The dimensions are stated, not computed."""
    if k < 4:
        raise DomainError("k >= 4 required (the uniform decomposition starts there)")
    return (((k - 2, 1, 1), (k - 1) * (k - 2) // 2),
            ((k - 2, 2), k * (k - 3) // 2),
            ((k - 1, 1), k - 1),
            ((k,), 1))


# ---------------------------------------------------------------------------
# coefficients and the seven families
# ---------------------------------------------------------------------------

def abc_terms(alpha):
    """(a, b, c) = (1/2 - alpha/4, alpha/4, alpha/2pi), so a + b = 1/2; alpha
    is a float or a float array.  The one source of the coefficients."""
    return 0.5 - alpha / 4.0, alpha / 4.0, alpha / TWO_PI


def family_terms(kf, a, b, c):
    """The six terms of the table at width kf: b - c, b + c, then the linear
    part and radicand of the W and of the span_IJ pair.  Integer literals
    only, so it runs on floats and on fractions.Fraction alike."""
    w_rad = a * a * kf * kf + 4 * c * (c - 2 * a)
    ij_rad = kf * kf * ((a - c) * (a - c)) + 4 * c * (2 * a - c) * (kf - 1)
    return b - c, b + c, a * kf + 2 * b, w_rad, 2 * b + kf * (a + c), ij_rad


def family_values_at(k: int, alpha: float) -> tuple[float, ...]:
    """The seven families at one leak value, in FORMULA_IDS order."""
    alpha = float(alpha)
    if k < 4:
        raise DomainError("k >= 4 required (the uniform decomposition starts there)")

    def root(r: float, name: str) -> float:
        if not math.isfinite(r):
            raise DomainError(f"alpha={alpha!r} at k={k} overflows the {name} radicand")
        if r < 0.0:
            raise ConsistencyError(f"negative discriminant {r!r} in the {name} family")
        return math.sqrt(r)

    bmc, bpc, w_lin, w_rad, ij_lin, ij_rad = family_terms(float(k), *abc_terms(alpha))
    s1, s2 = root(w_rad, "W"), root(ij_rad, "span_IJ")
    return (bmc, bpc, bmc,
            0.5 * (w_lin + s1), 0.5 * (w_lin - s1),
            0.5 * (ij_lin + s2), 0.5 * (ij_lin - s2))


# ---------------------------------------------------------------------------
# critical set
# ---------------------------------------------------------------------------

class CriticalSet(NamedTuple):
    k: int
    values: tuple[float, float, float]          # (0, standard, trivial), increasing
    labels: tuple[tuple[Partition, ...], ...]   # vanishing components per value
    residuals: tuple[float, ...]                # eigenvalue at its critical value
    # the minus branches of both quadratic families also pass through zero at
    # alpha = 0, so the trivial component degenerates there as well; read off
    # span_IJ_minus at 0 because displays list only the three linear families
    trivial_zero_at_origin: bool

    @property
    def subcritical_regime(self) -> bool:
        """Every positive critical value exceeds 1, the engineering regime's edge."""
        return self.values[1] > 1.0

    @property
    def ordered(self) -> bool:
        """0 = values[0] < values[1] < values[2]; where the two nonzero
        values round to the same float (both 2.0 from k ~ 1e17 on), their
        closed-form distances from the asymptote 2 decide."""
        zero, mid, last = self.values
        d_std, d_triv = _asymptote_distances(self.k)
        return zero == 0.0 < mid and (mid, d_std) < (last, d_triv)


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


def _asymptote_distances(k: int) -> tuple[float, float]:
    """alpha_std - 2 and alpha_triv - 2 in closed form,
    (2 pi^2 - 8) / (4 + (k-1) pi^2 + 4 pi) and
    (4 pi k + 8k + 2 pi^2 - 8) / ((k-1)(2k pi + pi^2 - 4 pi - 4)),
    each divided through by k so that no k^2 is formed."""
    p = math.pi
    d_std = (2.0 * p * p - 8.0) / k / (4.0 / k + (1.0 - 1.0 / k) * p * p + 4.0 * p / k)
    d_triv = ((4.0 * p + 8.0 + (2.0 * p * p - 8.0) / k)
              / ((k - 1) * (2.0 * p + (p * p - 4.0 * p - 4.0) / k)))
    return d_std, d_triv


def critical_set(k: int) -> CriticalSet:
    """0 = alpha_(k-2,2) = alpha_(k-2,1,1) = alpha^1_(k-1,1)
    < alpha^2_(k-1,1) < alpha^1_(k); a violated chain (CriticalSet.ordered,
    which orders values that round alike by their distances from the
    asymptote 2) is an invariant failure (ConsistencyError).  From
    k ~ 9.5e153 on, 2k^2 in alpha_triv is not a finite float, and the width
    is refused (DomainError)."""
    if k < 4:
        raise DomainError("k >= 4 required")
    mid = critical_alpha_standard(k)
    last = critical_alpha_trivial(k)
    if not math.isfinite(last):
        raise DomainError(f"k={k} overflows the W radicand: 2k^2 in alpha_triv "
                          "is not a finite float")
    at = [family_values_at(k, alpha) for alpha in (0.0, mid, last)]
    comps = components(k)
    crit = CriticalSet(
        k=k,
        values=(0.0, mid, last),
        labels=tuple(tuple(comps[FAMILY_COMPONENTS[f]][0] for f in fams) for fams in CRITICAL_FAMILIES),
        residuals=tuple(max(abs(row[f]) for f in fams) for row, fams in zip(at, CRITICAL_FAMILIES)),
        trivial_zero_at_origin=all(at[0][f] == 0.0 for f in CRITICAL_FAMILIES[2]),
    )
    if not crit.ordered:
        raise ConsistencyError(f"critical ordering violated at k={k}: {crit.values}")
    return crit


# ---------------------------------------------------------------------------
# root scan
# ---------------------------------------------------------------------------

SCAN_LO, SCAN_HI, SCAN_GRID, SCAN_TOL = -10.0, 10.0, 4000, 1e-12
# the widest k whose `critical` report carries a root_scan; it equals
# MAX_DENSE_K but is not tied to it, so raising the dense cap leaves what
# `critical` prints unchanged
SCAN_MAX_K = 64


def _grid(lo: float, hi: float, grid: int):
    """The grid + 1 points of numpy.linspace(lo, hi, grid + 1), bit for bit:
    float(i) * step + lo, with hi last."""
    step = (hi - lo) / grid
    for i in range(grid):
        yield float(i) * step + lo
    yield float(hi)


def _bisect(k: int, row: int, a: float, b: float, fa: float) -> float:
    """Safeguarded bisection of family `row` on [a, b], where it changes sign."""
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = family_values_at(k, m)[row]
        if fm == 0.0 or (b - a) < SCAN_TOL:
            break
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def root_scan(k: int) -> dict[str, list[float]]:
    """Safeguarded bisection roots of every eigenvalue family on
    [SCAN_LO, SCAN_HI], in SCAN_GRID cells, to brackets under SCAN_TOL.

    Oracle for the nonnegativity of the critical set: no family may have a
    root below zero, and each has at most one nonzero root (the quadratic
    minus-branches vanish both at 0 and at their positive critical value).
    The grid is numpy.linspace's (_grid), walked one cell at a time with
    one family_values_at call per point, so no array is formed.
    """
    roots: dict[str, list[float]] = {fid: [] for fid in FORMULA_IDS}
    points = _grid(SCAN_LO, SCAN_HI, SCAN_GRID)
    x_a = next(points)
    at_a = family_values_at(k, x_a)
    for x_b in points:
        at_b = family_values_at(k, x_b)
        for row, fid in enumerate(FORMULA_IDS):
            va, vb = at_a[row], at_b[row]
            if va == 0.0:
                roots[fid].append(x_a)
            elif va * vb < 0.0:
                roots[fid].append(_bisect(k, row, x_a, x_b, va))
        x_a, at_a = x_b, at_b
    for row, fid in enumerate(FORMULA_IDS):
        if at_a[row] == 0.0:
            roots[fid].append(x_a)
    return {fid: [0.0 if abs(r) < 1e-9 else r for r in found]
            for fid, found in roots.items()}
