import math
import re

import numpy as np
import pytest

from conftest import random_admissible, unvec, vec
from symbreak.errors import ConsistencyError, DomainError
from symbreak.hessian import (
    HessianBlocks,
    _hessian,
    assemble_dense,
    block_operator_apply,
    finite_diff_hessian,
    h1,
    h2,
    hessian_at_minimum,
    hessian_published,
    minimum_blocks,
)
from symbreak.landscape import exact_weights, identity_teacher
from symbreak.closed_forms import abc_terms
from symbreak.spectrum import analytic_spectrum, merged_view

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# h1 / h2
# ---------------------------------------------------------------------------

def test_h1_parallel_inputs_vanish():
    assert np.abs(h1([[1.0, 1.0, 0.0]], [[3.0, 3.0, 0.0]])[0, 0]).max() == 0.0
    assert np.abs(h1([[1.0, 0.0]], [[-2.0, 0.0]])[0, 0]).max() == 0.0


def test_h2_orthogonal_basis_vectors():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    want = (-(math.pi / 2) * np.eye(3) + np.outer(e1, e2) + np.outer(e2, e1)) / TWO_PI
    assert np.abs(h2([e1], [e2])[0, 0] - want).max() <= 1e-15


def test_h_kernels_reject_zero_vectors():
    with pytest.raises(DomainError):
        h1([[0.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(DomainError):
        h2([[1.0, 0.0]], [[0.0, 0.0]])


def test_h_kernels_reject_stacks_of_two_widths():
    with pytest.raises(DomainError, match="one width"):
        h1([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
    with pytest.raises(DomainError, match="one width"):
        h2([1.0, 0.0], [[1.0, 0.0]])


def phi_map(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phi(x, y) = |y| sin(t) xhat - t y; h1 and h2 are (1/2pi) times its
    partial derivative maps.  It computes its own angle (clamped math.acos)
    rather than read landscape._angles, the routine h1 and h2 use, so its
    finite-difference Jacobians stay an independent oracle for them."""
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    t = math.acos(min(1.0, max(-1.0, float(np.dot(x, y)) / (nx * ny))))
    return ny * math.sin(t) * x / nx - t * y


def _fd_jacobian(f, x, eps=1e-6):
    """Rows indexed by the differentiation coordinate (transposed Jacobian)."""
    k = x.size
    out = np.zeros((k, k))
    for a in range(k):
        xp, xm = x.copy(), x.copy()
        xp[a] += eps
        xm[a] -= eps
        out[a, :] = (f(xp) - f(xm)) / (2 * eps)
    return out


def test_h1_h2_match_fd_derivatives_of_phi(rng):
    for _ in range(10):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        if min(np.linalg.norm(x), np.linalg.norm(y)) < 0.3:
            continue
        jx = _fd_jacobian(lambda z: phi_map(z, y), x)
        assert np.abs(h1([x], [y])[0, 0] - jx / TWO_PI).max() <= 1e-6
        jy = _fd_jacobian(lambda z: phi_map(x, z), y)
        assert np.abs(h2([x], [y])[0, 0] - jy / TWO_PI).max() <= 1e-6


def test_h2_is_symmetric_matrix(rng):
    for _ in range(10):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        m = h2([x], [y])[0, 0]
        assert np.abs(m - m.T).max() <= 1e-12


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
def test_hessian_published_at_teacher_equals_minimum_form(alpha):
    teacher = identity_teacher(5)
    hp = hessian_published(teacher, teacher, alpha)
    hm = hessian_at_minimum(5, alpha)
    assert np.abs(hp.blocks - hm.blocks).max() <= 1e-12


def test_hessian_published_alpha_zero_all_half_identity(rng):
    point = random_admissible(rng, 4)
    hb = hessian_published(point, identity_teacher(4), 0.0)
    for i in range(4):
        for j in range(4):
            assert np.abs(hb.blocks[i, j] - 0.5 * np.eye(4)).max() <= 1e-15


def test_hessian_published_matches_fd_at_alpha_one(rng):
    teacher = identity_teacher(4)
    for _ in range(20):
        point = random_admissible(rng, 4)
        dense = assemble_dense(hessian_published(point, teacher, 1.0))
        fd = finite_diff_hessian(point, teacher, 1.0, 1e-4)
        assert np.abs(dense - fd).max() <= 1e-5


def test_exact_weight_blocks_match_fd_at_every_alpha(rng):
    # the same block formula at exact_weights is the exact loss's Hessian
    teacher = identity_teacher(4)
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.5, 3.5):
        for _ in range(3):
            point = random_admissible(rng, 4)
            dense = assemble_dense(_hessian(point, teacher, exact_weights(alpha)))
            fd = finite_diff_hessian(point, teacher, alpha, 1e-4)
            assert np.abs(dense - fd).max() <= 1e-5, alpha


def _alpha_hessian_published(s, t, alpha):
    # the alpha-parametrised body that _hessian replaced, kept as a reference
    k = s.shape[0]
    half = 0.5 * np.eye(k)
    blocks = half + alpha * h2(s, s)
    blocks[np.arange(k), np.arange(k)] = half + alpha * (h1(s, s) - h1(s, t)).sum(axis=1)
    return blocks


def test_hessian_published_matches_alpha_reference_bits(rng):
    for k in (2, 4, 5, 8):
        teacher = identity_teacher(k)
        for alpha in np.linspace(-3.5, 3.5, 15):
            point = random_admissible(rng, k)
            got = hessian_published(point, teacher, float(alpha)).blocks
            assert got.tobytes() == _alpha_hessian_published(point, teacher, float(alpha)).tobytes()


def test_block_symmetry_at_random_points(rng):
    teacher = identity_teacher(4)
    worst = 0.0
    for _ in range(100):
        point = random_admissible(rng, 4)
        blocks = hessian_published(point, teacher, float(rng.uniform(-0.5, 2.5))).blocks
        # block (i, j) is the transpose of block (j, i)
        worst = max(worst, float(np.abs(blocks - blocks.transpose(1, 0, 3, 2)).max()))
    assert worst <= 1e-10


# the scalar per-pair kernels and loop that the all-pairs h1/h2 replaced,
# kept as the reference for hessian_published
def _pair_angle(x, y):
    c = float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))
    return math.acos(min(1.0, max(-1.0, c)))


def _pair_unit_normal(x, y):
    xh = x / np.linalg.norm(x)
    yh = y / np.linalg.norm(y)
    n = xh - float(np.dot(xh, yh)) * yh
    norm = np.linalg.norm(n)
    return np.zeros_like(x) if norm < 1e-14 else n / norm


def _pair_h1(x, y):
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    sin_t = math.sin(_pair_angle(x, y))
    nyx = _pair_unit_normal(y, x)
    if sin_t == 0.0 or np.linalg.norm(nyx) == 0.0:
        return np.zeros((x.size, x.size))
    return (sin_t * ny / (TWO_PI * nx)) * (
        np.eye(x.size) - np.outer(x, x) / (nx * nx) + np.outer(nyx, nyx))


def _pair_h2(x, y):
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    return (-_pair_angle(x, y) * np.eye(x.size) + np.outer(_pair_unit_normal(x, y), y) / ny
            + np.outer(_pair_unit_normal(y, x), x) / nx) / TWO_PI


def _loop_published_blocks(s, t, alpha):
    k = s.shape[0]
    blocks = np.zeros((k, k, k, k))
    half = 0.5 * np.eye(k)
    for i in range(k):
        diag = half.copy()
        for j in range(k):
            diag += alpha * (_pair_h1(s[i], s[j]) - _pair_h1(s[i], t[j]))
        blocks[i, i] = diag
        for j in range(k):
            if j != i:
                blocks[i, j] = half + alpha * _pair_h2(s[i], s[j])
    return blocks


# summation order differs from the loop; float64 rounding stays far below this
PUBLISHED_LOOP_TOL = 1e-13


@pytest.mark.parametrize("k", range(2, 7))
def test_hessian_published_matches_per_pair_loop(k, rng):
    teacher = identity_teacher(k)
    for _ in range(10):
        point = random_admissible(rng, k)
        for alpha in (-0.5, 0.5, 1.0, 2.5):
            got = hessian_published(point, teacher, alpha).blocks
            assert np.abs(got - _loop_published_blocks(point, teacher, alpha)).max() <= PUBLISHED_LOOP_TOL


def test_hessian_published_matches_loop_on_parallel_rows():
    # rows with exact norms, so every cosine below is exactly 0 or +-1:
    # rows 1 and 2 are parallel and antiparallel to row 0, and row 3 is
    # parallel to its teacher row; their normals take the zero-normal path
    point = np.eye(4)
    point[0] = [0.75, 1.0, 0.0, 0.0]
    point[1] = 2.0 * point[0]
    point[2] = -point[0]
    point[3, 3] = 1.5
    teacher = identity_teacher(4)
    for alpha in (-0.5, 0.5, 1.0, 2.5):
        got = hessian_published(point, teacher, alpha).blocks
        assert np.abs(got - _loop_published_blocks(point, teacher, alpha)).max() <= PUBLISHED_LOOP_TOL


def test_minimum_blocks_k4_alpha0():
    hb = hessian_at_minimum(4, 0.0)
    for i in range(4):
        for j in range(4):
            assert np.abs(hb.blocks[i, j] - 0.5 * np.eye(4)).max() == 0.0


def test_minimum_blocks_k5_alpha1_offdiagonal():
    hb = hessian_at_minimum(5, 1.0)
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            want = 0.25 * np.eye(5)
            want[i, j] += 1.0 / TWO_PI
            want[j, i] += 1.0 / TWO_PI
            assert np.abs(hb.blocks[i, j] - want).max() <= 1e-15


def test_minimum_rejects_small_k():
    with pytest.raises(DomainError):
        hessian_at_minimum(1, 1.0)


# ---------------------------------------------------------------------------
# block operator, vec, assembly
# ---------------------------------------------------------------------------

def test_operator_on_identity_and_ones():
    a, b, c = abc_terms(1.0)
    k = 4
    ones = np.ones((k, k))
    got_i = block_operator_apply(np.eye(k), 1.0)
    want_i = a * ones + (b + c * k - c) * np.eye(k)
    assert np.abs(got_i - want_i).max() <= 1e-15
    got_j = block_operator_apply(ones, 1.0)
    want_j = c * (k - 2) * np.eye(k) + (k * a + b + c) * ones
    assert np.abs(got_j - want_j).max() <= 1e-15


def test_operator_rejects_nonsquare():
    with pytest.raises(DomainError):
        block_operator_apply(np.ones((3, 4)), 1.0)


@pytest.mark.parametrize("k,alpha", [(4, 1.0), (5, 0.5), (6, 2.5)])
def test_vec_unvec_operator_consistency(k, alpha, rng):
    dense = assemble_dense(hessian_at_minimum(k, alpha))
    for _ in range(5):
        u = rng.standard_normal((k, k))
        lhs = dense @ vec(u)
        rhs = vec(block_operator_apply(u, alpha))
        assert np.abs(lhs - rhs).max() <= 1e-12
        assert np.abs(unvec(vec(u), k) - u).max() == 0.0


def test_assemble_zero_blocks():
    blocks = HessianBlocks(k=2, blocks=np.zeros((2, 2, 2, 2)))
    assert np.abs(assemble_dense(blocks)).max() == 0.0


def test_assemble_round_trip(rng):
    hb = hessian_at_minimum(4, 1.3)
    # dense row i*k + a, column j*k + b is entry (a, b) of block (i, j)
    again = assemble_dense(hb).reshape(4, 4, 4, 4).transpose(0, 2, 1, 3)
    assert np.abs(again - hb.blocks).max() == 0.0


def _loop_minimum_blocks(k, alpha):
    a, _, c = abc_terms(alpha)
    blocks = np.zeros((k, k, k, k))
    for i in range(k):
        blocks[i, i] = 0.5 * np.eye(k)
        for j in range(k):
            if j != i:
                block = a * np.eye(k)
                block[i, j] += c
                block[j, i] += c
                blocks[i, j] = block
    return blocks


def _full_array_minimum_blocks(k, alpha):
    # the whole-array construction the indexed closed form replaced, kept
    # as its bit-for-bit reference
    a, _, c = abc_terms(alpha)
    blocks = np.empty((k, k, k, k))
    blocks[...] = a * np.eye(k)
    diag = np.arange(k)
    blocks[diag, diag] = 0.5 * np.eye(k)
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    blocks[i, j, i, j] += c
    blocks[i, j, j, i] += c
    return blocks


@pytest.mark.parametrize("k", [4, 5, 8, 17, 48])
def test_minimum_blocks_equal_full_array_reference(k):
    # a * 0.0 is -0.0 for a < 0 (alpha > 2), so comparing the bits also
    # compares the signs of the zeros
    steps = np.arange(k)
    for alpha in (-3.5, -0.7, 0.0, 1.0, 1.3, 3.5):
        want = _bits(_full_array_minimum_blocks(k, alpha))
        assert np.array_equal(_bits(hessian_at_minimum(k, alpha).blocks), want)
        for t in range(k):
            assert np.array_equal(_bits(minimum_blocks(k, alpha, t, steps)), want[t])
            assert np.array_equal(_bits(minimum_blocks(k, alpha, steps, t)), want[:, t])
            assert np.array_equal(_bits(minimum_blocks(k, alpha, steps[t:], t)), want[t:, t])
        assert np.array_equal(_bits(minimum_blocks(k, alpha, 1, 0)), want[1, 0])


def _loop_assemble(blocks):
    k = blocks.shape[0]
    dense = np.zeros((k * k, k * k))
    for i in range(k):
        for j in range(k):
            dense[i * k:(i + 1) * k, j * k:(j + 1) * k] = blocks[i, j]
    return 0.5 * (dense + dense.T)


@pytest.mark.parametrize("k", range(2, 9))
def test_assembly_equals_loop_reference(k, rng):
    for alpha in (0.0, 0.7, 1.0, 2.5, 3.5, -3.0):
        hb = hessian_at_minimum(k, alpha)
        want = _loop_minimum_blocks(k, alpha)
        assert np.array_equal(hb.blocks, want)
        assert np.array_equal(assemble_dense(hb), _loop_assemble(want))
    published = hessian_published(random_admissible(rng, k), identity_teacher(k), 0.8)
    assert np.array_equal(assemble_dense(published), _loop_assemble(published.blocks))


def _three_pass_assemble(blocks):
    # the full-matrix assembly on the k^2 x k^2 matrix, kept as the
    # reference: copy, guard on |dense - dense^T|, then (dense + dense^T) / 2
    k = blocks.k
    dense = blocks.blocks.transpose(0, 2, 1, 3).reshape(k * k, k * k)
    work = dense - dense.T
    asym = float(np.abs(work, out=work).max())
    if asym > 1e-9:
        raise ConsistencyError(f"assembled Hessian asymmetry {asym:.3e} exceeds 1e-09")
    np.add(dense, dense.T, out=work)
    work *= 0.5
    return work


def _bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("k", [2, 4, 5, 17, 24])
def test_assembly_equals_three_pass_reference(k, rng):
    for alpha in (0.0, 1.0, 2.5, -3.0):
        hb = hessian_at_minimum(k, alpha)
        assert np.array_equal(_bits(assemble_dense(hb)), _bits(_three_pass_assemble(hb)))
    if k <= 5:
        # the published blocks are symmetric only to rounding
        published = hessian_published(random_admissible(rng, k), identity_teacher(k), 0.8)
        raw = published.blocks
        assert np.abs(raw - raw.transpose(1, 0, 3, 2)).max() > 0.0
        assert np.array_equal(_bits(assemble_dense(published)),
                              _bits(_three_pass_assemble(published)))
    # one entry off by 1e-6 in the last block row: both refuse, in the same words
    raw = hessian_at_minimum(k, 1.0).blocks.copy()
    raw[k - 1, 0, 1, 0] += 1e-6
    bad = HessianBlocks(k=k, blocks=raw)
    with pytest.raises(ConsistencyError) as want:
        _three_pass_assemble(bad)
    with pytest.raises(ConsistencyError, match=re.escape(str(want.value))):
        assemble_dense(bad)


def test_assemble_rejects_asymmetry():
    blocks = np.zeros((2, 2, 2, 2))
    blocks[0, 1] = np.eye(2)
    # missing transpose partner at (1, 0): asymmetry 1.0
    with pytest.raises(ConsistencyError):
        assemble_dense(HessianBlocks(k=2, blocks=blocks))


@pytest.mark.parametrize("entry", [(0, 1, 0, 0), (0, 0, 0, 0), (2, 3, 1, 2)])
def test_assemble_rejects_nan_entry(entry):
    # nan > tol is False, so the guard must read "not asym <= tol"; an
    # infinite diagonal entry gives inf - inf, which must not warn first
    for bad in (math.nan, math.inf, -math.inf):
        blocks = hessian_at_minimum(4, 1.0)
        blocks.blocks[entry] = bad
        with pytest.raises(ConsistencyError, match="asymmetry (nan|inf) exceeds"):
            assemble_dense(blocks)


def test_minimum_eigenvalues_match_table_k4():
    dense = assemble_dense(hessian_at_minimum(4, 1.0))
    evals = np.sort(np.linalg.eigvalsh(dense))
    want = []
    for value, mult in merged_view(analytic_spectrum(4, 1.0), tol=1e-12):
        want.extend([value] * mult)
    assert np.abs(evals - np.array(sorted(want))).max() <= 1e-10
