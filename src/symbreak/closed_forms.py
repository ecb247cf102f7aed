"""Closed forms at the global minimum that need no arrays: the (a, b, c)
coefficients, the seven eigenvalue families and the critical set.

With a = 1/2 - alpha/4, b = alpha/4, c = alpha/2pi the block operator has
exactly seven eigenvalue families (spectrum's module docstring gives their
multiplicities and isotypic labels):

    wedge          b - c
    sym0           b + c
    W_bminus_c     b - c
    W_plus/minus   (ak + 2b +- sqrt(a^2k^2 + 4c(c-2a))) / 2
    span_IJ_+-     (2b + k(a+c) +- sqrt(k^2(a-c)^2 + 4c(2a-c)(k-1))) / 2

family_terms writes them once, for a float or a float array of leak
values; family_values_at evaluates them on one float, and
spectrum.family_values on an array.  Every square is written as a product:
Python's float power calls libm pow, which can differ from numpy's
elementwise square in the last bit, and a product is one correctly rounded
multiplication on both paths.  So both evaluators agree bit for bit.

critical_set is the one owner of the critical set {0, alpha_std,
alpha_triv}: its labels, its residuals and its ordering
0 < alpha_std < alpha_triv.  This module imports no numpy, so the exact
commands (`invariants`, the capacity report) never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, DomainError
from .symrep import Partition

TWO_PI = 2.0 * math.pi

FORMULA_IDS = ("wedge", "sym0", "W_bminus_c", "W_plus", "W_minus",
               "span_IJ_plus", "span_IJ_minus")


# ---------------------------------------------------------------------------
# coefficients and the seven families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ABCCoefficients:
    a: float
    b: float
    c: float


def abc(alpha: float) -> ABCCoefficients:
    """a = 1/2 - alpha/4, b = alpha/4, c = alpha/2pi (so a + b = 1/2)."""
    return ABCCoefficients(a=0.5 - alpha / 4.0, b=alpha / 4.0, c=alpha / TWO_PI)


def family_terms(k: int, alpha, root) -> tuple:
    """The seven families at alpha, a float or a float array, in FORMULA_IDS
    order.  root(r, name) checks the radicand r of the W or span_IJ family
    and returns its square root."""
    if k < 4:
        raise DomainError("k >= 4 required (the uniform decomposition starts there)")
    kf = float(k)
    co = abc(alpha)
    a, b, c = co.a, co.b, co.c
    s1 = root(a * a * kf * kf + 4.0 * c * (c - 2.0 * a), "W")
    s2 = root(kf * kf * ((a - c) * (a - c)) + 4.0 * c * (2.0 * a - c) * (kf - 1), "span_IJ")
    w_lin = a * kf + 2 * b
    ij_lin = 2 * b + kf * (a + c)
    return (b - c, b + c, b - c,
            0.5 * (w_lin + s1), 0.5 * (w_lin - s1),
            0.5 * (ij_lin + s2), 0.5 * (ij_lin - s2))


def family_values_at(k: int, alpha: float) -> tuple[float, ...]:
    """The seven families at one leak value, in FORMULA_IDS order."""
    alpha = float(alpha)

    def root(r: float, name: str) -> float:
        if not math.isfinite(r):
            raise DomainError(f"alpha={alpha!r} at k={k} overflows the {name} radicand")
        if r < 0.0:
            raise ConsistencyError(f"negative discriminant {r!r} in the {name} family")
        return math.sqrt(r)

    return family_terms(k, alpha, root)


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
    < alpha^2_(k-1,1) < alpha^1_(k); a violated chain is an invariant
    failure (ConsistencyError).  Where alpha_std and alpha_triv round to the
    same float (both are 2.0 from k ~ 1e17 on), the upper link is judged on
    their closed-form distances from the asymptote 2, which stay apart.
    From k ~ 9.5e153 on, 2k^2 in alpha_triv is not a finite float, and the
    width is refused (DomainError)."""
    if k < 4:
        raise DomainError("k >= 4 required")
    mid = critical_alpha_standard(k)
    last = critical_alpha_trivial(k)
    if not math.isfinite(last):
        raise DomainError(f"k={k} overflows the W radicand: 2k^2 in alpha_triv "
                          "is not a finite float")
    at_zero, at_mid, at_last = (family_values_at(k, alpha) for alpha in (0.0, mid, last))
    crit = CriticalSet(
        k=k,
        values=(0.0, mid, last),
        labels=(
            ((k - 2, 2), (k - 2, 1, 1), (k - 1, 1)),
            ((k - 1, 1),),
            ((k,),),
        ),
        residuals=(max(abs(v) for v in at_zero[:3]), abs(at_mid[4]), abs(at_last[6])),
    )
    # the values decide the order; equal values fall through to the distances
    d_std, d_triv = _asymptote_distances(k)
    if not (0.0 < mid and (mid, d_std) < (last, d_triv)):
        raise ConsistencyError(f"critical ordering violated at k={k}: {crit.values}")
    return crit
