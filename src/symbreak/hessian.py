"""Hessian blocks of the loss, the block operator at the global minimum, and
dense assembly for numerical eigenanalysis.

Block (i, j) of the Hessian lives on neuron pair (u_i, u_j).  At a general
admissible point the blocks are built from the two matrix kernels

    h1(x, y) = (sin t |y| / 2pi |x|) (I - x x^T/|x|^2 + nyx nyx^T)
    h2(x, y) = (1/2pi) (-t I + nxy y^T/|y| + nyx x^T/|x|)

where t is the angle, nxy is the unit normal of x against y, and the normal
of parallel vectors is the zero vector (so h1 vanishes there).  At the
global minimum the blocks collapse to A_ii = I/2 and
A_ij = (1/2 - a/4) I + (a/2pi)(E_ij + E_ji), whose action on a k x k matrix
U is the block operator

    L(U) = U (aJ + bI) + c (U^T + tr(U) I - 2 Diag(U)),

a = 1/2 - alpha/4, b = alpha/4, c = alpha/2pi; abc(alpha) is the one source
of these coefficients (spectrum re-exports it), and TWO_PI comes from
landscape.  vec convention: a matrix maps to the concatenation of its
columns, so assemble_dense(...) @ vec(U) equals vec(block_operator_apply(U)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .landscape import TWO_PI, _check_pair, _vector, angle, loss

ASSEMBLY_SYMMETRY_TOL = 1e-9


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ABCCoefficients:
    a: float
    b: float
    c: float


def abc(alpha: float) -> ABCCoefficients:
    """a = 1/2 - alpha/4, b = alpha/4, c = alpha/2pi (so a + b = 1/2)."""
    return ABCCoefficients(a=0.5 - alpha / 4.0, b=alpha / 4.0, c=alpha / TWO_PI)


# ---------------------------------------------------------------------------
# matrix kernels
# ---------------------------------------------------------------------------

def unit_normal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """nxy = (xhat - cos(t) yhat) / sin(t); zero for parallel nonzero inputs."""
    xh = x / np.linalg.norm(x)
    yh = y / np.linalg.norm(y)
    n = xh - float(np.dot(xh, yh)) * yh
    norm = np.linalg.norm(n)
    if norm < 1e-14:
        return np.zeros_like(x)
    return n / norm


def h1(x, y) -> np.ndarray:
    x = _vector(x, "x")
    y = _vector(y, "y")
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    sin_t = math.sin(angle(x, y))
    if sin_t == 0.0 or np.linalg.norm(unit_normal(y, x)) == 0.0:
        # parallel inputs: the prefactor vanishes with the zero-normal rule
        return np.zeros((x.size, x.size))
    nyx = unit_normal(y, x)
    k = x.size
    return (sin_t * ny / (TWO_PI * nx)) * (
        np.eye(k) - np.outer(x, x) / (nx * nx) + np.outer(nyx, nyx)
    )


def h2(x, y) -> np.ndarray:
    x = _vector(x, "x")
    y = _vector(y, "y")
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    t = angle(x, y)
    k = x.size
    nxy = unit_normal(x, y)
    nyx = unit_normal(y, x)
    return (-t * np.eye(k) + np.outer(nxy, y) / ny + np.outer(nyx, x) / nx) / TWO_PI


def phi_map(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phi(x, y) = |y| sin(t) xhat - t y; h1 and h2 are (1/2pi) times its
    partial derivative maps.  No command calls it; it stays as the map whose
    finite-difference Jacobians are the oracle for h1 and h2."""
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    t = angle(x, y)
    return ny * math.sin(t) * x / nx - t * y


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

@dataclass
class HessianBlocks:
    """blocks[i, j] is the k x k block on neuron pair (i, j)."""

    k: int
    blocks: np.ndarray  # shape (k, k, k, k)


def hessian_published(student, teacher, alpha: float) -> HessianBlocks:
    """Published block formulas at a general admissible point:

        A_ii = I/2 + sum_j a (h1(u_i, u_j) - h1(u_i, v_j))
        A_ij = I/2 + a h2(u_i, u_j),   i != j.

    Exact second derivative of the loss at alpha = 1; elsewhere this family
    is the defined object of study and the finite-difference gap is reported
    rather than asserted.
    """
    s, t = _check_pair(student, teacher)
    k = s.shape[0]
    blocks = np.zeros((k, k, k, k))
    half = 0.5 * np.eye(k)
    for i in range(k):
        diag = half.copy()
        for j in range(k):
            diag += alpha * (h1(s[i], s[j]) - h1(s[i], t[j]))
        blocks[i, i] = diag
        for j in range(k):
            if j != i:
                blocks[i, j] = half + alpha * h2(s[i], s[j])
    return HessianBlocks(k=k, blocks=blocks)


def hessian_at_minimum(k: int, alpha: float) -> HessianBlocks:
    """Blocks at the global minimum: A_ii = I/2, and for i != j
    A_ij = (1/2 - a/4) I + (a/2pi)(E_ij + E_ji)."""
    if k < 2:
        raise DomainError("k >= 2 required")
    blocks = np.zeros((k, k, k, k))
    co = abc(alpha)
    off = co.a * np.eye(k)
    for i in range(k):
        blocks[i, i] = 0.5 * np.eye(k)
        for j in range(k):
            if j != i:
                b = off.copy()
                b[i, j] += co.c
                b[j, i] += co.c
                blocks[i, j] = b
    return HessianBlocks(k=k, blocks=blocks)


# ---------------------------------------------------------------------------
# block operator and vec/unvec
# ---------------------------------------------------------------------------

def block_operator_apply(U, alpha: float) -> np.ndarray:
    """L(U) = U (aJ + bI) + c (U^T + tr(U) I - 2 Diag(U))."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DomainError(f"square matrix required, got shape {U.shape}")
    k = U.shape[0]
    co = abc(alpha)
    J = np.ones((k, k))
    return U @ (co.a * J + co.b * np.eye(k)) + co.c * (
        U.T + np.trace(U) * np.eye(k) - 2.0 * np.diag(np.diag(U))
    )


def vec(U: np.ndarray) -> np.ndarray:
    """Column stacking: (u_1, ..., u_k) -> concatenated columns."""
    return np.asarray(U, dtype=float).flatten(order="F")


def unvec(x: np.ndarray, k: int) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape((k, k), order="F")


def assemble_dense(blocks: HessianBlocks) -> np.ndarray:
    """k^2 x k^2 symmetric matrix with block (i, j) at rows i*k:(i+1)*k.

    The assembly is symmetrized after a guard: raw asymmetry beyond 1e-9 is
    an internal-consistency error (well-formed blocks stay under 1e-12)."""
    k = blocks.k
    dense = np.zeros((k * k, k * k))
    for i in range(k):
        for j in range(k):
            dense[i * k:(i + 1) * k, j * k:(j + 1) * k] = blocks.blocks[i, j]
    asym = float(np.abs(dense - dense.T).max())
    if asym > ASSEMBLY_SYMMETRY_TOL:
        raise ConsistencyError(f"assembled Hessian asymmetry {asym:.3e} exceeds {ASSEMBLY_SYMMETRY_TOL}")
    return 0.5 * (dense + dense.T)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def finite_diff_hessian(student, teacher, alpha: float, step: float = 1e-4) -> np.ndarray:
    """Dense k^2 x k^2 central second differences of loss.

    Entry order follows the vec convention of assemble_dense: coordinate
    m = i*k + a is entry (i, a) of the student (row i of the weight matrix),
    which equals column-stacking of the transposed weight array; see
    coord_of.  Independent of every analytic derivative here.
    """
    s, t = _check_pair(student, teacher)
    if step <= 0.0:
        raise DomainError("step must be positive")
    k = s.shape[0]
    n = k * k

    def coord_of(m: int) -> tuple[int, int]:
        return divmod(m, k)

    def perturbed(base: np.ndarray, m: int, eps: float) -> np.ndarray:
        out = base.copy()
        i, a = coord_of(m)
        out[i, a] += eps
        return out

    hess = np.zeros((n, n))
    f0 = loss(s, t, alpha)
    for m in range(n):
        fp = loss(perturbed(s, m, step), t, alpha)
        fm = loss(perturbed(s, m, -step), t, alpha)
        hess[m, m] = (fp - 2.0 * f0 + fm) / (step * step)
        for mm in range(m + 1, n):
            fpp = loss(perturbed(perturbed(s, m, step), mm, step), t, alpha)
            fpm = loss(perturbed(perturbed(s, m, step), mm, -step), t, alpha)
            fmp = loss(perturbed(perturbed(s, m, -step), mm, step), t, alpha)
            fmm = loss(perturbed(perturbed(s, m, -step), mm, -step), t, alpha)
            val = (fpp - fpm - fmp + fmm) / (4.0 * step * step)
            hess[m, mm] = val
            hess[mm, m] = val
    return hess
