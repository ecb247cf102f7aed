"""Closed-form loss, kernel, and gradients of the leaky-ReLU teacher-student
model under standard Gaussian inputs.

The activation is sigma_a(t) = max{(1-a)t, t} with leaky parameter a (slope
1 on the positive side, 1-a on the negative side).  The population kernel

    f_a(w, v) = E[sigma_a(w.x) sigma_a(v.x)],   x ~ N(0, I_k)

is one arc-cosine closed form over a weight pair (ws, wl),

    (1/2pi) |w||v| (ws (sin t - t cos t) + wl pi cos t)   at angle t.

exact_weights(a) = (a^2, 2 + a^2 - 2a) gives f_a and its exact derivatives;
published_weights(a) = (a, 1), equal to it at a = 1, gives the published
gradient and Hessian (the gradient's teacher term assumes unit teacher
rows).  Each derivative order is written once over the pair: _kernel_matrix
(kernel_f is its single entry), _losses, _gradient and hessian._hessian.
The finite-difference oracles differentiate _losses and both Monte-Carlo
oracles (kernel_mc, loss_mc) sample activation, the one sigma_a, so neither
reads the formulas they check; verify reports the convention gap.
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


def activation(a: np.ndarray, alpha: float, out: np.ndarray | None = None) -> np.ndarray:
    """sigma_alpha(t) = max{(1-alpha) t, t}, written into out if given."""
    return np.maximum((1.0 - alpha) * a, a, out=out)


def exact_weights(alpha: float) -> tuple[float, float]:
    """(ws, wl) of the leaky activation's own kernel: (a^2, 2 + a^2 - 2a)."""
    return alpha * alpha, 2.0 + alpha * alpha - 2.0 * alpha


def published_weights(alpha: float) -> tuple[float, float]:
    """(ws, wl) of the published formulas: (a, 1)."""
    return alpha, 1.0


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
    """f_alpha(w, v), the single entry of _kernel_matrix at exact_weights.
    Symmetric and positively homogeneous in each argument."""
    w, v = _vectors(w, v)
    return float(_kernel_matrix(w[None], v[None], exact_weights(alpha))[0, 0])


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
    value depends on its own row only; and each chunk's sums see the same
    contiguous values as a per-chunk allocation would.  The sum of squares
    is an einsum, which never calls BLAS, so the result depends neither on
    the block size, nor on the BLAS thread count, nor on verify's worker
    count, which only decides where each trial runs."""
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
        total_sq += float(np.einsum("i,i->", chunk, chunk))
        remaining -= m
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean, math.sqrt(var / n_samples)


def kernel_mc(w, v, alpha: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo (mean, standard error) of E[sigma(w.x) sigma(v.x)],
    x ~ N(0, I_k); deterministic for a fixed seed."""
    w, v = _vectors(w, v)

    def draw(x, out):
        # two products, as one x @ [w v] product changes the last bits
        pw = x @ w
        pv = x @ v
        np.multiply(activation(pw, alpha, out=pw), activation(pv, alpha, out=pv), out=out)

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


def _kernel_matrix(rows_a: np.ndarray, rows_b: np.ndarray, weights) -> np.ndarray:
    """The closed form at weights (ws, wl) over all row pairs of two weight
    matrices (or stacks of them)."""
    theta, sin, cos, na, nb = _angles(rows_a, rows_b)
    ws, wl = weights
    vals = ws * (sin - theta * cos) + wl * math.pi * cos
    return (na[..., :, None] * nb[..., None, :]) * vals / TWO_PI


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def loss(student, teacher, alpha: float) -> float:
    """sum_ij ( f(u_i,u_j)/2 - f(u_i,v_j) + f(v_i,v_j)/2 ); zero at the
    teacher and on its whole symmetry orbit."""
    s, t = _check_pair(student, teacher)
    return float(_losses(s[None], t, exact_weights(alpha))[0])


def _losses(stack: np.ndarray, teacher: np.ndarray, weights) -> np.ndarray:
    """Loss at weights (ws, wl) of each student in an (n, k, k) stack
    against one k x k teacher.  Each student's kernel matrix is summed as
    one contiguous row of k^2 values, the reduction of a single k x k
    matrix, so at exact_weights(alpha) entry i is bit for bit
    loss(stack[i], teacher, alpha)."""
    _check_rows(stack, "student")
    n = len(stack)
    return (
        0.5 * _kernel_matrix(stack, stack, weights).reshape(n, -1).sum(axis=1)
        - _kernel_matrix(stack, teacher, weights).reshape(n, -1).sum(axis=1)
        + 0.5 * _kernel_matrix(teacher, teacher, weights).sum()
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

def _gradient(s: np.ndarray, t: np.ndarray, weights, teacher_norms: np.ndarray) -> np.ndarray:
    """Gradient of _losses at weights (ws, wl), row i:

        (ws/2pi) sum_j (Phi(u_i, u_j) - Phi(u_i, v_j)) + (wl/2) sum_j (u_j - v_j)

    with Phi(x, y) = |y| sin(t) xhat - t y and teacher_norms in place of
    |v_j|; the sin terms of parallel rows vanish (zero-normal convention)."""
    theta_uu, sin_uu, _, nu, _ = _angles(s, s)
    theta_ut, sin_ut, _, _, _ = _angles(s, t)
    ws, wl = weights
    self_uu = (sin_uu * nu[None, :]).sum(axis=1) / nu
    self_ut = (sin_ut * teacher_norms[None, :]).sum(axis=1) / nu
    grad = (ws / TWO_PI) * (self_uu - self_ut)[:, None] * s
    grad += ((wl * math.pi - ws * theta_uu) @ s) / TWO_PI
    grad -= ((wl * math.pi - ws * theta_ut) @ t) / TWO_PI
    return grad


def gradient_exact(student, teacher, alpha: float) -> np.ndarray:
    """Exact gradient of loss: _gradient at exact_weights."""
    s, t = _check_pair(student, teacher)
    return _gradient(s, t, exact_weights(alpha), np.linalg.norm(t, axis=1))


def gradient_published(student, teacher, alpha: float) -> np.ndarray:
    """The published gradient: _gradient at published_weights with unit
    teacher norms, as the published formula omits |v_j|."""
    s, t = _check_pair(student, teacher)
    return _gradient(s, t, published_weights(alpha), np.ones(len(t)))


def finite_diff_gradient(student, teacher, alpha: float, step: float) -> np.ndarray:
    """Central differences of loss: _finite_diff_gradient at exact_weights."""
    return _finite_diff_gradient(*_check_pair(student, teacher), exact_weights(alpha), step)


def _finite_diff_gradient(s: np.ndarray, t: np.ndarray, weights, step: float) -> np.ndarray:
    """Entrywise central differences of _losses at weights (ws, wl),
    independent of every analytic gradient.  Every student row norm must
    exceed 2*step, so that the perturbed points stay admissible.

    The 2k^2 perturbed students, each the student with step added to or
    subtracted from one entry, are evaluated as one stack: memory is O(k^4),
    2k^4 floats for the stack and as many for each kernel-matrix temporary.
    Every loss and quotient takes a point-by-point loop's operations in its
    order, so the result is bit for bit the same."""
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
    values = _losses(np.concatenate([plus, minus]), t, weights)
    return ((values[:k * k] - values[k * k:]) / (2.0 * step)).reshape(k, k)
