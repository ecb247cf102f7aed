"""Closed-form loss, kernel, and gradients of the leaky-ReLU teacher-student
model under standard Gaussian inputs.

The activation is sigma_a(t) = max{(1-a)t, t} with leaky parameter a (slope
1 on the positive side, 1-a on the negative side).  The population kernel

    f_a(w, v) = E[sigma_a(w.x) sigma_a(v.x)],   x ~ N(0, I_k)

has the closed form implemented by kernel_f, and the loss is the quadratic
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

from .errors import DomainError

TWO_PI = 2.0 * math.pi


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
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0) or not np.all(np.isfinite(arr)):
        bad = int(np.argmin(norms))
        raise DomainError(f"{name} row {bad} has zero norm (outside the admissible set)")
    return arr


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

def _vector(w, name: str) -> np.ndarray:
    arr = np.asarray(w, dtype=float).reshape(-1)
    n = np.linalg.norm(arr)
    if n == 0.0 or not np.isfinite(n):
        raise DomainError(f"{name} has zero norm")
    return arr


def angle(w: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi]; the cosine is clamped before arccos so floating
    overshoot on (anti)parallel inputs cannot produce NaN."""
    c = float(np.dot(w, v) / (np.linalg.norm(w) * np.linalg.norm(v)))
    return math.acos(min(1.0, max(-1.0, c)))


def kernel_f(w, v, alpha: float) -> float:
    """Closed-form Gaussian kernel of the leaky activation.

    (1/2pi) |w||v| (alpha^2 (sin t - t cos t) + (2 + alpha^2 - 2 alpha) pi cos t)
    with t the angle between w and v.  Symmetric and positively homogeneous
    in each argument.
    """
    w = _vector(w, "w")
    v = _vector(v, "v")
    t = angle(w, v)
    beta = 2.0 + alpha * alpha - 2.0 * alpha
    val = alpha * alpha * (math.sin(t) - t * math.cos(t)) + beta * math.pi * math.cos(t)
    return float(np.linalg.norm(w) * np.linalg.norm(v) * val / TWO_PI)


def _mc_mean_se(draw, k: int, n_samples: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of draw(x) over n_samples N(0, I_k) rows x.
    The stream is numpy's PCG64 via default_rng, drawn in fixed-size chunks,
    so the result does not depend on available parallelism."""
    if n_samples < 2:
        raise DomainError("n_samples >= 2 required for a standard error")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    chunk = 1 << 16
    while remaining > 0:
        m = min(chunk, remaining)
        vals = draw(rng.standard_normal((m, k)))
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
        remaining -= m
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean, math.sqrt(var / n_samples)


def kernel_mc(w, v, alpha: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo (mean, standard error) of E[sigma(w.x) sigma(v.x)],
    x ~ N(0, I_k); deterministic for a fixed seed."""
    w = _vector(w, "w")
    v = _vector(v, "v")
    if v.size != w.size:
        raise DomainError("w and v must have equal dimension")
    return _mc_mean_se(
        lambda x: activation(x @ w, alpha) * activation(x @ v, alpha),
        w.size, n_samples, seed,
    )


def _angles(rows_a: np.ndarray, rows_b: np.ndarray):
    """(theta, sin theta, clipped cos theta, |rows_a|, |rows_b|) over all row pairs."""
    na = np.linalg.norm(rows_a, axis=1)
    nb = np.linalg.norm(rows_b, axis=1)
    cos = np.clip(rows_a @ rows_b.T / np.outer(na, nb), -1.0, 1.0)
    theta = np.arccos(cos)
    return theta, np.sin(theta), cos, na, nb


def _kernel_matrix(rows_a: np.ndarray, rows_b: np.ndarray, alpha: float) -> np.ndarray:
    """f_alpha over all row pairs of two weight matrices."""
    theta, sin, cos, na, nb = _angles(rows_a, rows_b)
    beta = 2.0 + alpha * alpha - 2.0 * alpha
    vals = alpha * alpha * (sin - theta * cos) + beta * math.pi * cos
    return np.outer(na, nb) * vals / TWO_PI


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def loss(student, teacher, alpha: float) -> float:
    """sum_ij ( f(u_i,u_j)/2 - f(u_i,v_j) + f(v_i,v_j)/2 ); zero at the
    teacher and on its whole symmetry orbit."""
    s, t = _check_pair(student, teacher)
    return float(
        0.5 * _kernel_matrix(s, s, alpha).sum()
        - _kernel_matrix(s, t, alpha).sum()
        + 0.5 * _kernel_matrix(t, t, alpha).sum()
    )


def loss_mc(student, teacher, alpha: float, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo of the defining population risk
    (1/2) E (sum_i sigma(u_i.x) - sum_i sigma(v_i.x))^2; oracle for loss()."""
    s, t = _check_pair(student, teacher)

    def draw(x):
        diff = activation(x @ s.T, alpha).sum(axis=1) - activation(x @ t.T, alpha).sum(axis=1)
        return 0.5 * diff * diff

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
    perturbed points stay admissible."""
    s, t = _check_pair(student, teacher)
    if step <= 0.0:
        raise DomainError("step must be positive")
    if float(np.linalg.norm(s, axis=1).min()) <= 2.0 * step:
        raise DomainError("step too large: a perturbed row could leave the admissible set")
    k = s.shape[0]
    out = np.zeros_like(s)
    for i in range(k):
        for j in range(k):
            plus = s.copy()
            minus = s.copy()
            plus[i, j] += step
            minus[i, j] -= step
            out[i, j] = (loss(plus, t, alpha) - loss(minus, t, alpha)) / (2.0 * step)
    return out
