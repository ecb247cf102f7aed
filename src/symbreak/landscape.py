"""Closed-form loss, kernel, and gradients of the leaky-ReLU teacher-student
model under standard Gaussian inputs.

The activation is sigma_a(t) = max{(1-a)t, t} with leaky parameter a (slope
1 on the positive side, 1-a on the negative side).  The population kernel

    f_a(w, v) = E[sigma_a(w.x) sigma_a(v.x)],   x ~ N(0, I_k)

has one closed form, _kernel_matrix over all row pairs with the angles of
_angles (kernel_f is its single entry), and the loss is the quadratic
combination of kernels over all row pairs of the student and teacher weight
matrices.

Two gradients are exposed on purpose.  gradient_exact differentiates the
closed-form kernel (coefficients a^2/2pi and 1 - a + a^2/2) and matches
central finite differences everywhere; gradient_published reproduces a published
variant with coefficients a/2pi and 1/2 that coincides with the exact one at
a = 1 and is kept as a separately named, separately tested operation.  The
finite-difference oracle is the arbiter between them; their comparison is a
first-class report in the verify pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import TWO_PI
from .errors import DomainError


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def validate_weights(u, name: str = "weights") -> np.ndarray:
    """Coerce to a k x k float array with strictly positive row norms."""
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"{name} must be square (k x k), got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DomainError(f"{name} needs k >= 2, got k={arr.shape[0]}")
    _check_rows(arr, name)
    return arr


def _check_rows(arr: np.ndarray, name: str) -> None:
    """DomainError unless every entry is finite and no row (last axis) is
    zero; leading axes index a stack of weight matrices."""
    norms = np.linalg.norm(arr, axis=-1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(arr)):
        *stack, row = np.unravel_index(int(np.argmin(norms)), norms.shape)
        where = "".join(f"[{int(i)}]" for i in stack)
        raise DomainError(f"{name}{where} row {row} has zero norm (outside the admissible set)")


def identity_teacher(k: int) -> np.ndarray:
    """The canonical teacher: row i equals e_i."""
    if k < 2:
        raise DomainError("k >= 2 required")
    return np.eye(k)


def _check_pair(student, teacher):
    s = validate_weights(student, "student")
    t = validate_weights(teacher, "teacher")
    if s.shape != t.shape:
        raise DomainError(f"student/teacher shape mismatch: {s.shape} vs {t.shape}")
    return s, t


def activation(a: np.ndarray, alpha: float) -> np.ndarray:
    """sigma_alpha(t) = max{(1-alpha) t, t}."""
    return np.maximum((1.0 - alpha) * a, a)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _vectors(w, v) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(w, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    for arr, name in ((w, "w"), (v, "v")):
        n = np.linalg.norm(arr)
        if n == 0.0 or not np.isfinite(n):
            raise DomainError(f"{name} has zero norm")
    if v.size != w.size:
        raise DomainError("w and v must have equal dimension")
    return w, v


def kernel_f(w, v, alpha: float) -> float:
    """Closed-form Gaussian kernel of the leaky activation at one vector pair,
    the single entry of _kernel_matrix.  Symmetric and positively homogeneous
    in each argument."""
    w, v = _vectors(w, v)
    return float(_kernel_matrix(w[None], v[None], alpha)[0, 0])


MC_CHUNK = 1 << 16   # rows per summed chunk
MC_BLOCK = 1 << 12   # rows per draw into the reused buffers


def _mc_mean_se(draw, k: int, n_samples: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of draw(x, out) over n_samples N(0, I_k) rows x.

    The stream is numpy's PCG64 via default_rng.  Rows are summed in chunks
    of MC_CHUNK and drawn in blocks of MC_BLOCK into one reused (block, k)
    buffer; draw writes each row's value into the block's slice of one
    reused chunk-length vals buffer.  This changes no draw and no sum:
    standard_normal fills its output in C order one normal at a time, so
    consecutive blocks hold exactly the rows of one (chunk, k) draw; each
    value depends on its own row only; and each chunk's sum and dot product
    see the same contiguous array of values as a per-chunk allocation would.
    The result therefore does not depend on the block size or on available
    parallelism."""
    if n_samples < 2:
        raise DomainError("n_samples >= 2 required for a standard error")
    rng = np.random.default_rng(seed)
    x = np.empty((min(MC_BLOCK, n_samples), k))
    vals = np.empty(min(MC_CHUNK, n_samples))
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(MC_CHUNK, remaining)
        for lo in range(0, m, MC_BLOCK):
            rows = x[:min(MC_BLOCK, m - lo)]
            rng.standard_normal(out=rows)
            draw(rows, vals[lo:lo + len(rows)])
        chunk = vals[:m]
        total += float(chunk.sum())
        total_sq += float(np.dot(chunk, chunk))
        remaining -= m
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean, math.sqrt(var / n_samples)


def kernel_mc(w, v, alpha: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo (mean, standard error) of E[sigma(w.x) sigma(v.x)],
    x ~ N(0, I_k); deterministic for a fixed seed."""
    w, v = _vectors(w, v)
    slope = 1.0 - alpha

    def draw(x, out):
        # two products, as one x @ [w v] product changes the last bits
        pw = x @ w
        pv = x @ v
        np.maximum(slope * pw, pw, out=pw)
        np.maximum(slope * pv, pv, out=pv)
        np.multiply(pw, pv, out=out)

    return _mc_mean_se(draw, w.size, n_samples, seed)


def _angles(rows_a: np.ndarray, rows_b: np.ndarray):
    """(theta, sin theta, clipped cos theta, |rows_a|, |rows_b|) over all row
    pairs; leading axes broadcast, so a stack of matrices gives a stack.  The
    cosine is clipped before arccos so floating overshoot on (anti)parallel
    rows cannot produce NaN."""
    na = np.linalg.norm(rows_a, axis=-1)
    nb = np.linalg.norm(rows_b, axis=-1)
    cos = np.clip(rows_a @ rows_b.swapaxes(-1, -2) / (na[..., :, None] * nb[..., None, :]),
                  -1.0, 1.0)
    theta = np.arccos(cos)
    return theta, np.sin(theta), cos, na, nb


def _kernel_matrix(rows_a: np.ndarray, rows_b: np.ndarray, alpha: float) -> np.ndarray:
    """f_alpha over all row pairs of two weight matrices (or stacks of them):

        (1/2pi) |w||v| (alpha^2 (sin t - t cos t) + (2 + alpha^2 - 2 alpha) pi cos t)

    for rows w, v at angle t."""
    theta, sin, cos, na, nb = _angles(rows_a, rows_b)
    beta = 2.0 + alpha * alpha - 2.0 * alpha
    vals = alpha * alpha * (sin - theta * cos) + beta * math.pi * cos
    return (na[..., :, None] * nb[..., None, :]) * vals / TWO_PI


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def loss(student, teacher, alpha: float) -> float:
    """sum_ij ( f(u_i,u_j)/2 - f(u_i,v_j) + f(v_i,v_j)/2 ); zero at the
    teacher and on its whole symmetry orbit."""
    s, t = _check_pair(student, teacher)
    return float(_losses(s[None], t, alpha)[0])


def _losses(stack: np.ndarray, teacher: np.ndarray, alpha: float) -> np.ndarray:
    """loss of each student in an (n, k, k) stack against one k x k teacher.

    Each student's kernel matrix is summed as one contiguous row of k^2
    values, the same reduction as summing a single k x k matrix, so entry i
    is bit for bit loss(stack[i], teacher, alpha)."""
    _check_rows(stack, "student")
    n = len(stack)
    return (
        0.5 * _kernel_matrix(stack, stack, alpha).reshape(n, -1).sum(axis=1)
        - _kernel_matrix(stack, teacher, alpha).reshape(n, -1).sum(axis=1)
        + 0.5 * _kernel_matrix(teacher, teacher, alpha).sum()
    )


def loss_mc(student, teacher, alpha: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo of the defining population risk
    (1/2) E (sum_i sigma(u_i.x) - sum_i sigma(v_i.x))^2; oracle for loss()."""
    s, t = _check_pair(student, teacher)

    def draw(x, out):
        diff = activation(x @ s.T, alpha).sum(axis=1) - activation(x @ t.T, alpha).sum(axis=1)
        np.multiply(0.5 * diff, diff, out=out)

    return _mc_mean_se(draw, s.shape[0], n_samples, seed)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def gradient_published(student, teacher, alpha: float) -> np.ndarray:
    """The published gradient variant, term by term:

        (a/2pi) sum_j (|u_j| sin(t_ij)/|u_i| u_i - t_ij u_j)
      - (a/2pi) sum_j (sin(tt_ij)/|u_i| u_i - tt_ij v_j)
      + (1/2)  sum_j (u_j - v_j)

    Parallel rows follow the zero-normal convention: the sin terms vanish.
    Coincides with gradient_exact at alpha = 1 (and only there, apart from
    the zero locus); see the verify report for the quantified gap.
    """
    s, t = _check_pair(student, teacher)
    theta_uu, sin_uu, _, nu, _ = _angles(s, s)
    theta_ut, sin_ut, _, _, _ = _angles(s, t)
    coef = alpha / TWO_PI

    self_uu = (sin_uu * nu[None, :]).sum(axis=1) / nu          # per i
    self_ut = sin_ut.sum(axis=1) / nu
    grad = coef * (self_uu - self_ut)[:, None] * s
    grad -= coef * (theta_uu @ s - theta_ut @ t)
    grad += 0.5 * (s.sum(axis=0)[None, :] - t.sum(axis=0)[None, :])
    return grad


def gradient_exact(student, teacher, alpha: float) -> np.ndarray:
    """Exact gradient of the closed-form loss for arbitrary alpha.

    Row i:  sum_j [ (a^2 |u_j| sin(t_ij) / 2pi |u_i|) u_i
                    + ((beta pi - a^2 t_ij)/2pi) u_j ]          (student sum)
          - the same with v_j in place of u_j                    (teacher sum)
    with beta = 2 + a^2 - 2a.  Matches central finite differences of loss to
    1e-6 relative at every admissible point tested.
    """
    s, t = _check_pair(student, teacher)
    theta_uu, sin_uu, _, nu, _ = _angles(s, s)
    theta_ut, sin_ut, _, _, nv = _angles(s, t)
    a2 = alpha * alpha
    beta = 2.0 + a2 - 2.0 * alpha

    self_uu = (sin_uu * nu[None, :]).sum(axis=1) / nu
    self_ut = (sin_ut * nv[None, :]).sum(axis=1) / nu
    grad = (a2 / TWO_PI) * (self_uu - self_ut)[:, None] * s
    grad += ((beta * math.pi - a2 * theta_uu) @ s) / TWO_PI
    grad -= ((beta * math.pi - a2 * theta_ut) @ t) / TWO_PI
    return grad


def finite_diff_gradient(student, teacher, alpha: float, step: float) -> np.ndarray:
    """Entrywise central differences of loss; independent of both analytic
    gradients.  Requires every student row norm to exceed 2*step so the
    perturbed points stay admissible.

    The 2k^2 perturbed students are evaluated as one stack, so memory is
    O(k^4): 2k^4 floats for the stack and as many for each kernel-matrix
    temporary.  Each student is a copy of the student with step added to or
    subtracted from one entry, and every loss and quotient takes the same
    operations in the same order as a point-by-point loop, so the result is
    bit for bit the same."""
    s, t = _check_pair(student, teacher)
    if step <= 0.0:
        raise DomainError("step must be positive")
    if float(np.linalg.norm(s, axis=1).min()) <= 2.0 * step:
        raise DomainError("step too large: a perturbed row could leave the admissible set")
    k = s.shape[0]
    m = np.arange(k * k)
    i, j = divmod(m, k)
    plus = np.repeat(s[None], k * k, axis=0)
    minus = plus.copy()
    plus[m, i, j] += step
    minus[m, i, j] -= step
    values = _losses(np.concatenate([plus, minus]), t, alpha)
    return ((values[:k * k] - values[k * k:]) / (2.0 * step)).reshape(k, k)
