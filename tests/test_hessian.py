import math

import numpy as np
import pytest

from conftest import random_admissible
from symbreak.errors import ConsistencyError, DomainError
from symbreak.hessian import (
    HessianBlocks,
    assemble_dense,
    block_operator_apply,
    finite_diff_hessian,
    h1,
    h2,
    hessian_at_minimum,
    hessian_published,
    phi_map,
    unvec,
    vec,
)
from symbreak.landscape import identity_teacher
from symbreak.spectrum import abc, analytic_spectrum, merged_view

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# h1 / h2
# ---------------------------------------------------------------------------

def test_h1_parallel_inputs_vanish():
    assert np.abs(h1([1.0, 1.0, 0.0], [3.0, 3.0, 0.0])).max() == 0.0
    assert np.abs(h1([1.0, 0.0], [-2.0, 0.0])).max() == 0.0


def test_h2_orthogonal_basis_vectors():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    want = (-(math.pi / 2) * np.eye(3) + np.outer(e1, e2) + np.outer(e2, e1)) / TWO_PI
    assert np.abs(h2(e1, e2) - want).max() <= 1e-15


def test_h_kernels_reject_zero_vectors():
    with pytest.raises(DomainError):
        h1([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        h2([1.0, 0.0], [0.0, 0.0])


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
        assert np.abs(h1(x, y) - jx / TWO_PI).max() <= 1e-6
        jy = _fd_jacobian(lambda z: phi_map(x, z), y)
        assert np.abs(h2(x, y) - jy / TWO_PI).max() <= 1e-6


def test_h2_is_symmetric_matrix(rng):
    for _ in range(10):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        m = h2(x, y)
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


def test_block_symmetry_at_random_points(rng):
    teacher = identity_teacher(4)
    worst = 0.0
    for _ in range(100):
        point = random_admissible(rng, 4)
        blocks = hessian_published(point, teacher, float(rng.uniform(-0.5, 2.5))).blocks
        # block (i, j) is the transpose of block (j, i)
        worst = max(worst, float(np.abs(blocks - blocks.transpose(1, 0, 3, 2)).max()))
    assert worst <= 1e-10


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
    co = abc(1.0)
    k = 4
    ones = np.ones((k, k))
    got_i = block_operator_apply(np.eye(k), 1.0)
    want_i = co.a * ones + (co.b + co.c * k - co.c) * np.eye(k)
    assert np.abs(got_i - want_i).max() <= 1e-15
    got_j = block_operator_apply(ones, 1.0)
    want_j = co.c * (k - 2) * np.eye(k) + (k * co.a + co.b + co.c) * ones
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


def test_assemble_rejects_asymmetry():
    blocks = np.zeros((2, 2, 2, 2))
    blocks[0, 1] = np.eye(2)
    # missing transpose partner at (1, 0): asymmetry 1.0
    with pytest.raises(ConsistencyError):
        assemble_dense(HessianBlocks(k=2, blocks=blocks))


def test_minimum_eigenvalues_match_table_k4():
    dense = assemble_dense(hessian_at_minimum(4, 1.0))
    evals = np.sort(np.linalg.eigvalsh(dense))
    want = []
    for value, mult in merged_view(analytic_spectrum(4, 1.0), tol=1e-12):
        want.extend([value] * mult)
    assert np.abs(evals - np.array(sorted(want))).max() <= 1e-10
