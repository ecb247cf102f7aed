import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_admissible
from symbreak.errors import DomainError
from symbreak.hessian import finite_diff_hessian
from symbreak.landscape import (
    _angles,
    _finite_diff_gradient,
    _kernel_matrix,
    _losses,
    activation,
    exact_weights,
    finite_diff_gradient,
    gradient_exact,
    gradient_published,
    identity_teacher,
    kernel_f,
    kernel_mc,
    loss,
    loss_mc,
    published_weights,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# kernel closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.3, 1.0, 2.5])
def test_kernel_orthogonal_unit_vectors(alpha):
    got = kernel_f([1, 0, 0], [0, 1, 0], alpha)
    assert got == pytest.approx(alpha * alpha / TWO_PI, abs=1e-15)


def test_kernel_linear_activation_is_dot_product(rng):
    for _ in range(20):
        w = rng.standard_normal(5)
        v = rng.standard_normal(5)
        assert kernel_f(w, v, 0.0) == pytest.approx(float(w @ v), rel=1e-12)


def test_kernel_equal_unit_vectors_relu():
    assert kernel_f([1, 0], [1, 0], 1.0) == pytest.approx(0.5, abs=1e-15)


def test_kernel_equal_vector_general_alpha():
    # t = 0 gives |w|^2 (1 - alpha + alpha^2/2)
    w = [0.0, 2.0, 0.0]
    for alpha in (0.0, 0.7, 1.0, 3.0):
        want = 4.0 * (1.0 - alpha + alpha * alpha / 2.0)
        assert kernel_f(w, w, alpha) == pytest.approx(want, rel=1e-14)


def test_kernel_antiparallel_vectors():
    # t = pi: value collapses to |w||v| (alpha - 1); the ReLU case vanishes
    # exactly (opposite half-lines never fire together) and alpha = 0 gives
    # the dot product; exercises the cosine clamp at -1
    w = np.array([2.0, 0.0, 0.0])
    v = np.array([-3.0, 0.0, 0.0])
    assert kernel_f(w, v, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert kernel_f(w, v, 0.0) == pytest.approx(-6.0, rel=1e-14)
    for alpha in (-1.0, 0.5, 2.5):
        assert kernel_f(w, v, alpha) == pytest.approx(6.0 * (alpha - 1.0), rel=1e-12)


def test_kernel_zero_norm_error_names_argument():
    with pytest.raises(DomainError, match="w"):
        kernel_f([0, 0], [1, 0], 1.0)
    with pytest.raises(DomainError, match="v"):
        kernel_f([1, 0], [0, 0], 1.0)


def test_kernel_dimension_mismatch_is_domain_error():
    with pytest.raises(DomainError, match="equal dimension"):
        kernel_f([1, 0], [1, 0, 0], 0.5)
    with pytest.raises(DomainError, match="equal dimension"):
        kernel_mc([1, 0], [1, 0, 0], 0.5, 100, 0)


def _scalar_kernel(w, v, alpha):
    # the one-pair closed form with math.acos, the reference for kernel_f,
    # which evaluates the batched _kernel_matrix
    nw, nv = np.linalg.norm(w), np.linalg.norm(v)
    t = math.acos(min(1.0, max(-1.0, float(np.dot(w, v) / (nw * nv)))))
    beta = 2.0 + alpha * alpha - 2.0 * alpha
    val = alpha * alpha * (math.sin(t) - t * math.cos(t)) + beta * math.pi * math.cos(t)
    return float(nw * nv * val / TWO_PI)


# relative to |w||v|; float64 rounding of either form stays far below this
SCALAR_KERNEL_TOL = 1e-13


def test_kernel_matches_scalar_reference(rng):
    pairs = []
    for k in (2, 3, 5, 8):
        for _ in range(50):
            w = rng.standard_normal(k)
            pairs.append((w, rng.standard_normal(k)))
        pairs += [(w, 2.0 * w), (w, -w), (w, -0.5 * w)]
    for w, v in pairs:
        scale = np.linalg.norm(w) * np.linalg.norm(v)
        for alpha in (-1.0, 0.0, 0.5, 1.0, float(rng.uniform(-1.0, 3.0))):
            assert abs(kernel_f(w, v, alpha) - _scalar_kernel(w, v, alpha)) <= SCALAR_KERNEL_TOL * scale


def test_kernel_alpha1_matches_relu_form(rng):
    # at alpha = 1 the kernel is |w||v|(sin t + (pi - t) cos t)/2pi
    for _ in range(50):
        w = rng.standard_normal(4)
        v = rng.standard_normal(4)
        nw, nv = np.linalg.norm(w), np.linalg.norm(v)
        t = math.acos(np.clip(w @ v / (nw * nv), -1, 1))
        want = nw * nv * (math.sin(t) + (math.pi - t) * math.cos(t)) / TWO_PI
        assert kernel_f(w, v, 1.0) == pytest.approx(want, abs=1e-12 * max(1, nw * nv))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    c=st.floats(0.1, 10.0),
    d=st.floats(0.1, 10.0),
    alpha=st.floats(-1.0, 3.0),
    seed=st.integers(0, 10_000),
)
def test_kernel_positive_homogeneity(c, d, alpha, seed):
    r = np.random.default_rng(seed)
    w = r.standard_normal(4)
    v = r.standard_normal(4)
    if np.linalg.norm(w) < 1e-3 or np.linalg.norm(v) < 1e-3:
        return
    lhs = kernel_f(c * w, d * v, alpha)
    rhs = c * d * kernel_f(w, v, alpha)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(alpha=st.floats(-1.0, 3.0), seed=st.integers(0, 10_000))
def test_kernel_orthogonal_invariance(alpha, seed):
    r = np.random.default_rng(seed)
    w = r.standard_normal(5)
    v = r.standard_normal(5)
    if np.linalg.norm(w) < 1e-3 or np.linalg.norm(v) < 1e-3:
        return
    q, _ = np.linalg.qr(r.standard_normal((5, 5)))
    assert kernel_f(q @ w, q @ v, alpha) == pytest.approx(
        kernel_f(w, v, alpha), rel=1e-11, abs=1e-11
    )


# ---------------------------------------------------------------------------
# Monte Carlo kernel
# ---------------------------------------------------------------------------

def test_kernel_mc_relu_unit():
    est, se = kernel_mc([1, 0, 0, 0], [1, 0, 0, 0], 1.0, 1_000_000, seed=11)
    assert abs(est - 0.5) <= 3.0 * se


def test_kernel_mc_orthogonal_half_leak():
    est, se = kernel_mc([1, 0, 0, 0], [0, 1, 0, 0], 0.5, 1_000_000, seed=12)
    assert abs(est - 0.25 / TWO_PI) <= 3.0 * se


def test_kernel_mc_deterministic():
    a = kernel_mc([1.0, 2.0], [0.5, -1.0], 0.7, 50_000, seed=99)
    b = kernel_mc([1.0, 2.0], [0.5, -1.0], 0.7, 50_000, seed=99)
    assert a == b


def test_activation_out_is_in_place_and_bit_equal(rng):
    for alpha in (-0.4, 0.0, 0.35, 1.0, 2.5):
        a = rng.standard_normal((7, 3))
        want = activation(a, alpha)
        assert activation(a, alpha, out=a) is a
        assert a.tobytes() == want.tobytes()


def test_kernel_mc_bits_recorded():
    # recorded from the draw that wrote its own np.maximum(slope * p, p);
    # 70,000 samples cross the 65,536-row chunk boundary
    w = [0.3, -1.2, 0.7, 0.5]
    v = [1.1, 0.4, -0.6, 0.2]
    assert [x.hex() for x in kernel_mc(w, v, 0.35, 70_000, seed=7)] == [
        "-0x1.1e700b6c92ed1p-2", "0x1.5c1b9ccabe080p-8"]
    assert [x.hex() for x in kernel_mc(w, v, -0.4, 5_000, seed=20240901)] == [
        "-0x1.5d68686580b73p-1", "0x1.56fe8dd76a3b2p-5"]


def test_kernel_mc_rejects_tiny_sample():
    with pytest.raises(DomainError):
        kernel_mc([1, 0], [0, 1], 1.0, 1, seed=0)


def test_kernel_mc_sigma_coverage_smoke(rng):
    hits = 0
    trials = 100
    for _ in range(trials):
        w = rng.standard_normal(4)
        v = rng.standard_normal(4)
        alpha = float(rng.uniform(-0.5, 2.5))
        est, se = kernel_mc(w, v, alpha, 20_000, seed=int(rng.integers(2**31)))
        if abs(est - kernel_f(w, v, alpha)) <= 3.0 * se:
            hits += 1
    assert hits >= 97


def _unblocked_mean_se(draw, k, n_samples, seed):
    """The accumulator before blocking: one (chunk, k) draw and one values
    array per 65,536-row chunk."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(1 << 16, remaining)
        vals = draw(rng.standard_normal((m, k)))
        total += float(vals.sum())
        total_sq += float(np.einsum("i,i->", vals, vals))
        remaining -= m
    mean = total / n_samples
    var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean, math.sqrt(var / n_samples)


def test_mc_accumulator_matches_unblocked_reference(rng):
    # block boundaries (4096), chunk boundaries (65536) and several chunks
    sizes = (2, 4095, 4096, 4097, 65535, 65536, 65537, 100_000, 1_000_000)
    for k in (2, 4):
        for n in sizes:
            w = rng.standard_normal(k)
            v = rng.standard_normal(k)
            alpha = float(rng.uniform(-0.5, 2.5))
            seed = int(rng.integers(2**31))

            def act(t):
                return np.maximum((1.0 - alpha) * t, t)

            want = _unblocked_mean_se(lambda x: act(x @ w) * act(x @ v), k, n, seed)
            assert kernel_mc(w, v, alpha, n, seed) == want, (k, n)

            student = random_admissible(rng, k)
            teacher = identity_teacher(k)

            def risk(x):
                diff = act(x @ student.T).sum(axis=1) - act(x @ teacher.T).sum(axis=1)
                return 0.5 * diff * diff

            want = _unblocked_mean_se(risk, k, n, seed)
            assert loss_mc(student, teacher, alpha, n, seed) == want, (k, n)


_LOSS_MC_BITS = """
import numpy as np
from symbreak.landscape import loss_mc
student = np.eye(4)
student[0, 0] = 2.0
for seed in (7, 20240901):
    print(*(v.hex() for v in loss_mc(student, np.eye(4), 1.0, 1_000_000, seed)))
"""


def test_loss_mc_bits_independent_of_blas_threads():
    # verify's loss_mc oracle: a BLAS reduction (np.dot) of the squares
    # moves the standard error's last bit between one and two BLAS threads
    runs = [subprocess.run([sys.executable, "-c", _LOSS_MC_BITS], capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, check=True).stdout
            for threads in ("1", "2")]
    assert len(runs[0].split()) == 4
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_zero_at_teacher():
    teacher = identity_teacher(5)
    for alpha in (-1.0, 0.0, 0.7, 1.0, 2.5):
        assert abs(loss(teacher, teacher, alpha)) <= 1e-12


def test_loss_zero_on_teacher_orbit():
    teacher = identity_teacher(4)
    permuted = teacher[[2, 0, 3, 1]]
    assert abs(loss(permuted, teacher, 0.7)) <= 1e-12


def test_loss_group_invariance(rng):
    # simultaneous row permutation and coordinate permutation of the student
    teacher = identity_teacher(4)
    for _ in range(100):
        point = random_admissible(rng, 4)
        alpha = float(rng.uniform(-0.5, 2.5))
        sigma = rng.permutation(4)
        gamma = rng.permutation(4)
        p_gamma = np.eye(4)[gamma]        # row a of p_gamma is e_{gamma(a)}
        moved = point[sigma][:, :] @ p_gamma
        assert loss(moved, teacher, alpha) == pytest.approx(
            loss(point, teacher, alpha), abs=1e-12, rel=1e-12
        )


def test_loss_against_defining_risk_mc():
    teacher = identity_teacher(4)
    student = teacher.copy()
    student[0, 0] = 2.0
    closed = loss(student, teacher, 1.0)
    est, se = loss_mc(student, teacher, 1.0, 1_000_000, seed=21)
    assert abs(est - closed) <= 3.0 * se


def test_loss_dimension_mismatch():
    with pytest.raises(DomainError):
        loss(identity_teacher(4), identity_teacher(5), 1.0)


def test_loss_zero_row_rejected():
    bad = identity_teacher(4)
    bad[2] = 0.0
    with pytest.raises(DomainError):
        loss(bad, identity_teacher(4), 1.0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_published_alpha_zero_rows(rng):
    teacher = identity_teacher(4)
    point = random_admissible(rng, 4)
    grad = gradient_published(point, teacher, 0.0)
    want = 0.5 * (point.sum(axis=0) - teacher.sum(axis=0))
    assert np.abs(grad - want[None, :]).max() <= 1e-12


def test_gradients_agree_at_alpha_one(rng):
    teacher = identity_teacher(4)
    for _ in range(20):
        point = random_admissible(rng, 4)
        gp = gradient_published(point, teacher, 1.0)
        ge = gradient_exact(point, teacher, 1.0)
        assert np.abs(gp - ge).max() <= 1e-10


def test_gradient_published_alpha_one_vs_fd(rng):
    teacher = identity_teacher(4)
    point = random_admissible(rng, 4)
    grad = gradient_published(point, teacher, 1.0)
    fd = finite_diff_gradient(point, teacher, 1.0, 1e-5)
    assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-6


def test_gradient_exact_zero_at_teacher():
    teacher = identity_teacher(5)
    for alpha in np.linspace(-1.0, 4.0, 11):
        assert np.abs(gradient_exact(teacher, teacher, float(alpha))).max() <= 1e-14


def test_gradient_exact_alpha_zero_linear(rng):
    teacher = identity_teacher(4)
    point = random_admissible(rng, 4)
    grad = gradient_exact(point, teacher, 0.0)
    want = (point.sum(axis=0) - teacher.sum(axis=0))[None, :]
    assert np.abs(grad - want).max() <= 1e-12
    fd = finite_diff_gradient(point, teacher, 0.0, 1e-5)
    assert np.abs(grad - fd).max() <= 1e-8


def test_gradient_exact_vs_fd_many_alphas(rng):
    teacher = identity_teacher(4)
    for _ in range(20):
        point = random_admissible(rng, 4)
        alpha = float(rng.uniform(-1.0, 3.0))
        grad = gradient_exact(point, teacher, alpha)
        fd = finite_diff_gradient(point, teacher, alpha, 1e-5)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-6


def test_fd_gradient_near_zero_at_critical_point():
    teacher = identity_teacher(4)
    fd = finite_diff_gradient(teacher, teacher, 0.5, 1e-5)
    assert np.abs(fd).max() <= 1e-8


def test_fd_gradient_second_order_convergence(rng):
    teacher = identity_teacher(4)
    point = random_admissible(rng, 4)
    exact = gradient_exact(point, teacher, 0.8)
    err_h = np.abs(finite_diff_gradient(point, teacher, 0.8, 2e-4) - exact).max()
    err_h2 = np.abs(finite_diff_gradient(point, teacher, 0.8, 1e-4) - exact).max()
    assert 2.5 <= err_h / err_h2 <= 6.0


def test_fd_gradient_step_guard():
    teacher = identity_teacher(4)
    with pytest.raises(DomainError):
        finite_diff_gradient(teacher, teacher, 1.0, 0.6)
    with pytest.raises(DomainError):
        finite_diff_gradient(teacher, teacher, 1.0, -1e-5)


# ---------------------------------------------------------------------------
# stacked finite differences against the point-by-point loops
# ---------------------------------------------------------------------------

def _loop_gradient(s, t, alpha, step):
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


def _loop_hessian(s, t, alpha, step):
    k = s.shape[0]
    n = k * k

    def perturbed(base, m, eps):
        out = base.copy()
        i, a = divmod(m, k)
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


def test_stacked_finite_differences_match_loop_reference(rng):
    # the stacks change no operation and no order, so the bits are equal
    for k in (2, 3, 4, 5):
        teacher = identity_teacher(k)
        for alpha in (-1.0, 0.0, 0.5, 1.0, 2.5):
            for step in (1e-5, 1e-4):
                point = random_admissible(rng, k)
                got = finite_diff_gradient(point, teacher, alpha, step)
                want = _loop_gradient(point, teacher, alpha, step)
                assert got.tobytes() == want.tobytes(), (k, alpha, step)
                got = finite_diff_hessian(point, teacher, alpha, step)
                want = _loop_hessian(point, teacher, alpha, step)
                assert got.tobytes() == want.tobytes(), (k, alpha, step)
                stack = point + step * rng.standard_normal((7, k, k))
                each = [loss(p, teacher, alpha) for p in stack]
                got = _losses(stack, teacher, exact_weights(alpha))
                assert got.tobytes() == np.array(each).tobytes()


def test_finite_diff_hessian_rejects_zero_perturbed_row():
    teacher = identity_teacher(4)
    point = teacher.copy()
    point[0] = (1e-4, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        finite_diff_hessian(point, teacher, 1.0, 1e-4)


# ---------------------------------------------------------------------------
# one closed form over two weight pairs
# ---------------------------------------------------------------------------

def test_weight_pairs_equal_at_alpha_one():
    assert published_weights(1.0) == exact_weights(1.0)


def test_gradient_published_is_gradient_of_published_loss(rng):
    # with unit teacher rows the published gradient differentiates _losses
    # at published_weights, at every leak value
    teacher = identity_teacher(5)
    for alpha in (-1.0, 0.3, 1.0, 1.7, 2.5, 3.5):
        for _ in range(5):
            point = random_admissible(rng, 5)
            grad = gradient_published(point, teacher, alpha)
            fd = _finite_diff_gradient(point, teacher, published_weights(alpha), 1e-5)
            assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-6, alpha


# the alpha-parametrised kernel and gradients that the weight pairs replaced,
# kept as references
def _alpha_kernel_matrix(rows_a, rows_b, alpha):
    theta, sin, cos, na, nb = _angles(rows_a, rows_b)
    beta = 2.0 + alpha * alpha - 2.0 * alpha
    vals = alpha * alpha * (sin - theta * cos) + beta * math.pi * cos
    return (na[..., :, None] * nb[..., None, :]) * vals / TWO_PI


def _alpha_gradient_exact(s, t, alpha):
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


def _alpha_gradient_published(s, t, alpha):
    theta_uu, sin_uu, _, nu, _ = _angles(s, s)
    theta_ut, sin_ut, _, _, _ = _angles(s, t)
    coef = alpha / TWO_PI
    self_uu = (sin_uu * nu[None, :]).sum(axis=1) / nu
    self_ut = sin_ut.sum(axis=1) / nu
    grad = coef * (self_uu - self_ut)[:, None] * s
    grad -= coef * (theta_uu @ s - theta_ut @ t)
    grad += 0.5 * (s.sum(axis=0)[None, :] - t.sum(axis=0)[None, :])
    return grad


def test_weight_pairs_match_alpha_references(rng):
    # the kernel and exact gradient keep their operations, so their bits;
    # the published gradient's order changed, so it agrees to rounding.
    # Teachers with rows of other norms than 1 see the teacher norms.
    for k in (2, 4, 5, 8):
        for alpha in np.linspace(-3.5, 3.5, 15):
            alpha = float(alpha)
            point = random_admissible(rng, k)
            teacher = identity_teacher(k) if alpha < 0 else random_admissible(rng, k)
            stack = point + 0.1 * rng.standard_normal((3, k, k))
            for a, b in ((point, teacher), (stack, stack), (stack, teacher)):
                got = _kernel_matrix(a, b, exact_weights(alpha))
                assert got.tobytes() == _alpha_kernel_matrix(a, b, alpha).tobytes()
            assert np.float64(loss(point, teacher, alpha)).tobytes() == np.float64(
                0.5 * _alpha_kernel_matrix(point, point, alpha).sum()
                - _alpha_kernel_matrix(point, teacher, alpha).sum()
                + 0.5 * _alpha_kernel_matrix(teacher, teacher, alpha).sum()).tobytes()
            got = gradient_exact(point, teacher, alpha)
            assert got.tobytes() == _alpha_gradient_exact(point, teacher, alpha).tobytes()
            got = gradient_published(point, teacher, alpha)
            want = _alpha_gradient_published(point, teacher, alpha)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
