"""Hessian blocks of the loss, the block operator at the global minimum, the
asymmetry guard on the blocks, and dense assembly.

Block (i, j) of the Hessian lives on neuron pair (u_i, u_j).  At a general
admissible point the blocks are built from the two matrix kernels

    h1(x, y) = (sin t |y| / 2pi |x|) (I - x x^T/|x|^2 + nyx nyx^T)
    h2(x, y) = (1/2pi) (-t I + nxy y^T/|y| + nyx x^T/|x|)

where t is the angle, nxy is the unit normal of x against y, and the normal
of parallel vectors is the zero vector (so h1 vanishes there).  h1 and h2
take all row pairs of two row stacks at once, with the angles of
landscape._angles; they are (1/2pi) times the partial derivative maps of
Phi(x, y) = |y| sin(t) xhat - t y, whose finite-difference Jacobians, with
an angle of their own, are the tests' oracle for them.  At the
global minimum the blocks collapse to A_ii = I/2 and
A_ij = (1/2 - a/4) I + (a/2pi)(E_ij + E_ji), whose action on a k x k matrix
U is the block operator

    L(U) = U (aJ + bI) + c (U^T + tr(U) I - 2 Diag(U)),

a = 1/2 - alpha/4, b = alpha/4, c = alpha/2pi; closed_forms holds the one
source of these coefficients, abc_terms(alpha), and TWO_PI.  vec
convention (vec lives in the tests): a matrix maps to the concatenation of
its columns, so assemble_dense(...) @ vec(U) equals vec(block_operator_apply(U)).

minimum_blocks is the one closed form of the blocks at the minimum, indexed
by block positions, so the dense oracle builds one block row and one block
column at a time (k^3 entries each) and never the k^4 block array;
hessian_at_minimum is minimum_blocks on the full grid.  check_block_pair is
the asymmetry guard on one block row against its block column, and
check_symmetry runs it on every row of a full block array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import TWO_PI, abc_terms
from .errors import ConsistencyError, DomainError
from .landscape import _angles, _check_pair, _check_rows, _losses, loss

ASSEMBLY_SYMMETRY_TOL = 1e-9


# ---------------------------------------------------------------------------
# matrix kernels
# ---------------------------------------------------------------------------

def _row_pairs(rows_x, rows_y):
    """(theta, sin theta, |x_i|, |y_j|, xh, yh, nxy, nyx) for row stacks x
    (m, k) and y (n, k): the (m, n) angles of landscape._angles, the unit
    rows, and the unit normals nxy[i, j] = (xh_i - cos yh_j) / |...| of x_i
    against y_j and nyx[i, j] of y_j against x_i.  A normal under 1e-14 in
    norm (parallel rows) is the zero vector; the division is masked there,
    so no warning is raised."""
    x = np.asarray(rows_x, dtype=float)
    y = np.asarray(rows_y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DomainError(f"row stacks of one width required, got shapes {x.shape} and {y.shape}")
    _check_rows(x, "x")
    _check_rows(y, "y")
    theta, sin, cos, nx, ny = _angles(x, y)
    xh, yh = x / nx[:, None], y / ny[:, None]
    c = cos[:, :, None]
    diffs = np.stack([xh[:, None] - c * yh[None], yh[None] - c * xh[:, None]])
    norms = np.linalg.norm(diffs, axis=-1, keepdims=True)
    nxy, nyx = np.divide(diffs, norms, out=np.zeros_like(diffs), where=norms >= 1e-14)
    return theta, sin, nx, ny, xh, yh, nxy, nyx


def h1(rows_x, rows_y) -> np.ndarray:
    """h1 over all row pairs: entry [i, j] is the k x k block h1(x_i, y_j)."""
    _, sin, nx, ny, xh, _, _, nyx = _row_pairs(rows_x, rows_y)
    # the zero-normal rule: parallel rows give the zero block
    scale = np.where(nyx.any(axis=-1), sin * ny / (TWO_PI * nx[:, None]), 0.0)
    proj = (np.eye(xh.shape[1]) - np.einsum("ia,ib->iab", xh, xh)[:, None]
            + np.einsum("ija,ijb->ijab", nyx, nyx))
    return scale[:, :, None, None] * proj


def h2(rows_x, rows_y) -> np.ndarray:
    """h2 over all row pairs: entry [i, j] is the k x k block h2(x_i, y_j)."""
    theta, _, _, _, xh, yh, nxy, nyx = _row_pairs(rows_x, rows_y)
    return (-theta[:, :, None, None] * np.eye(xh.shape[1])
            + np.einsum("ija,jb->ijab", nxy, yh) + np.einsum("ija,ib->ijab", nyx, xh)) / TWO_PI


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
    half = 0.5 * np.eye(k)
    blocks = half + alpha * h2(s, s)
    diag = np.arange(k)
    blocks[diag, diag] = half + alpha * (h1(s, s) - h1(s, t)).sum(axis=1)
    return HessianBlocks(k=k, blocks=blocks)


def minimum_blocks(k: int, alpha: float, rows, cols) -> np.ndarray:
    """Blocks B[rows, cols] at the global minimum, the index arrays
    broadcast: shape broadcast(rows, cols).shape + (k, k).  A_ii = I/2, and
    for i != j A_ij = a I + c (E_ij + E_ji) with a, c of abc_terms: entry
    (p, q) is a * I[p, q], plus c where (p, q) is (i, j) or (j, i), so the
    off-diagonal blocks' zeros are a * 0.0, signed like a.  Block row t is
    minimum_blocks(k, alpha, t, range(k)) and block column t
    minimum_blocks(k, alpha, range(k), t), each k^3 entries."""
    if k < 2:
        raise DomainError("k >= 2 required")
    a, _, c = abc_terms(alpha)
    i, j = np.broadcast_arrays(np.asarray(rows), np.asarray(cols))
    eye = np.eye(k)
    blocks = np.where((i == j)[..., None, None], 0.5 * eye, a * eye)
    off = i != j
    blocks[off, i[off], j[off]] += c
    blocks[off, j[off], i[off]] += c
    return blocks


def hessian_at_minimum(k: int, alpha: float) -> HessianBlocks:
    """minimum_blocks on the full k x k grid of block positions."""
    steps = np.arange(k)
    return HessianBlocks(k=k, blocks=minimum_blocks(k, alpha, steps[:, None], steps))


# ---------------------------------------------------------------------------
# block operator, asymmetry guard and dense assembly
# ---------------------------------------------------------------------------

def block_operator_apply(U, alpha: float) -> np.ndarray:
    """L(U) = U (aJ + bI) + c (U^T + tr(U) I - 2 Diag(U))."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise DomainError(f"square matrix required, got shape {U.shape}")
    k = U.shape[0]
    a, b, c = abc_terms(alpha)
    J = np.ones((k, k))
    return U @ (a * J + b * np.eye(k)) + c * (
        U.T + np.trace(U) * np.eye(k) - 2.0 * np.diag(np.diag(U))
    )


def check_block_pair(row, col) -> None:
    """The assembly guard on block row i against block column i, both read
    as [j, a, b] (block (i, j) and block (j, i) at (a, b)): raw asymmetry
    max |row[j][a, b] - col[j][b, a]| beyond 1e-9, or a NaN or infinite
    entry, is an internal-consistency error (well-formed blocks stay under
    1e-12).  The temporaries are the size of the pair."""
    with np.errstate(invalid="ignore"):          # inf - inf is a NaN the guard refuses
        pair = np.subtract(row, np.swapaxes(col, 1, 2))
        asym = float(np.max(np.abs(pair, out=pair)))   # np.max, unlike max(), keeps a NaN
    if not asym <= ASSEMBLY_SYMMETRY_TOL:       # a NaN fails this test too
        raise ConsistencyError(f"assembled Hessian asymmetry {asym:.3e} exceeds {ASSEMBLY_SYMMETRY_TOL}")


def check_symmetry(blocks: HessianBlocks) -> None:
    """check_block_pair on every block row i, from the diagonal block on,
    so every pair (i, j) is compared once and the temporaries are k^3."""
    raw = blocks.blocks
    for i in range(blocks.k):
        check_block_pair(raw[i, i:], raw[i:, i])


def assemble_dense(blocks: HessianBlocks) -> np.ndarray:
    """k^2 x k^2 symmetric matrix with block (i, j) at rows i*k:(i+1)*k.

    After check_symmetry, entry (p, q) is (x + y) * 0.5 for the raw
    entries x at (p, q) and y at (q, p).  The dense oracle reads the blocks
    themselves, so only verify (at k = 4) and the tests assemble.
    """
    check_symmetry(blocks)
    k = blocks.k
    raw = blocks.blocks
    dense = raw + raw.transpose(1, 0, 3, 2)
    dense *= 0.5
    return dense.transpose(0, 2, 1, 3).reshape(k * k, k * k)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def finite_diff_hessian(student, teacher, alpha: float, step: float = 1e-4) -> np.ndarray:
    """Dense k^2 x k^2 central second differences of loss.

    Entry order follows the vec convention of assemble_dense: coordinate
    m = i*k + a is entry (i, a) of the student (row i of the weight matrix),
    which equals column-stacking of the transposed weight array.
    Independent of every analytic derivative here.

    Row m is evaluated as one stack of perturbed students: +-e_m and the
    four corners +-e_m +- e_mm for every mm > m, at most 4k^2 - 2 points of
    k^2 entries, so memory stays O(k^4), the size of the dense result.  Each
    point is a copy of the student with step added to or subtracted from
    two entries, and every loss and difference quotient takes the same
    operations in the same order as a point-by-point loop, so the result is
    bit for bit the same.
    """
    s, t = _check_pair(student, teacher)
    if step <= 0.0:
        raise DomainError("step must be positive")
    k = s.shape[0]
    n = k * k
    flat = s.reshape(n)

    hess = np.zeros((n, n))
    f0 = loss(s, t, alpha)
    for m in range(n):
        rest = np.arange(m + 1, n)
        r = np.arange(len(rest))
        # points: +e_m, -e_m, then the corners (++, +-, -+, --) of each mm
        points = np.repeat(flat[None], 2 + 4 * len(rest), axis=0)
        points[0, m] += step
        points[1, m] -= step
        corners = points[2:].reshape(len(rest), 4, n)
        corners[:, :2, m] += step
        corners[:, 2:, m] -= step
        corners[r, 0, rest] += step
        corners[r, 1, rest] -= step
        corners[r, 2, rest] += step
        corners[r, 3, rest] -= step
        values = _losses(points.reshape(-1, k, k), t, alpha)
        hess[m, m] = (values[0] - 2.0 * f0 + values[1]) / (step * step)
        fpp, fpm, fmp, fmm = values[2:].reshape(len(rest), 4).T
        row = (fpp - fpm - fmp + fmm) / (4.0 * step * step)
        hess[m, m + 1:] = row
        hess[m + 1:, m] = row
    return hess
