import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import permutation_matrix, unvec, vec
from symbreak import closed_forms, spectrum
from symbreak.closed_forms import (
    FORMULA_IDS,
    abc_terms,
    critical_alpha_standard,
    critical_alpha_trivial,
    critical_set,
    family_values_at,
    root_scan,
)
from symbreak.errors import CapacityError, ConsistencyError, DomainError
from symbreak.golden import load_golden
from symbreak.hessian import assemble_dense, block_operator_apply, hessian_at_minimum
from symbreak.spectrum import (
    CLUSTER_GAP_FACTOR,
    LABEL_TIE_FACTOR,
    _cluster,
    _frequency_scores,
    analytic_spectrum,
    isotypic_basis,
    merged_view,
    numerical_spectrum_match,
    spectrum_symbolic_check_k5,
    w_block_matrix,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_abc_values():
    assert abc_terms(0.0) == pytest.approx((0.5, 0.0, 0.0))
    assert abc_terms(1.0) == pytest.approx((0.25, 0.25, 1.0 / TWO_PI))
    assert abc_terms(2.0) == pytest.approx((0.0, 0.5, 1.0 / math.pi))
    for alpha in (-1.0, 0.3, 2.7):
        a, b, _ = abc_terms(alpha)
        assert a + b == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# analytic spectrum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(4, 11))
def test_multiplicity_accounting(k):
    entries = analytic_spectrum(k, 0.9)
    assert sum(e.multiplicity for e in entries) == k * k
    # the closed multiplicity identity behind the merged display
    assert k * (k - 1) // 2 + k * (k - 3) // 2 + 2 * (k - 1) + 2 == k * k


def test_spectrum_requires_k4():
    with pytest.raises(DomainError):
        analytic_spectrum(3, 1.0)


@pytest.mark.parametrize("k", [4, 5, 8])
def test_trace_consistency(k):
    # sum of value * multiplicity equals tr A = k * (k/2) for every alpha
    for alpha in np.linspace(-1.0, 3.5, 10):
        entries = analytic_spectrum(k, float(alpha))
        total = sum(e.value * e.multiplicity for e in entries)
        assert total == pytest.approx(k * k / 2.0, abs=1e-9)


def test_k5_values_match_frozen_display():
    golden = load_golden()["spectrum_display"]
    for key, want in golden["values"].items():
        alpha = float(key)
        entries = {e.formula_id: e.value for e in analytic_spectrum(5, alpha)}
        assert entries["wedge"] == pytest.approx(want["b_minus_c"], abs=1e-12)
        assert entries["W_bminus_c"] == pytest.approx(want["b_minus_c"], abs=1e-12)
        assert entries["sym0"] == pytest.approx(want["b_plus_c"], abs=1e-12)
        assert entries["W_plus"] == pytest.approx(want["W_plus"], abs=1e-12)
        assert entries["W_minus"] == pytest.approx(want["W_minus"], abs=1e-12)
        assert entries["span_IJ_plus"] == pytest.approx(want["span_plus"], abs=1e-12)
        assert entries["span_IJ_minus"] == pytest.approx(want["span_minus"], abs=1e-12)


def test_k4_alpha1_w_pair():
    entries = {e.formula_id: e for e in analytic_spectrum(4, 1.0)}
    # frozen from the dense eigensolver oracle; the independently quoted
    # approximations 1.192435 / 0.307565 agree to 1e-4
    assert entries["W_plus"].value == pytest.approx(1.1924394, abs=1e-6)
    assert entries["W_minus"].value == pytest.approx(0.3075606, abs=1e-6)
    assert entries["W_plus"].value == pytest.approx(1.192435, abs=1e-4)
    assert entries["W_minus"].value == pytest.approx(0.307565, abs=1e-4)
    assert entries["W_plus"].multiplicity == entries["W_minus"].multiplicity == 3


def test_k5_alpha0_collapse():
    groups = merged_view(analytic_spectrum(5, 0.0), tol=1e-12)
    assert groups == [(0.0, 20), (2.5, 5)]


def test_symbolic_display_check():
    checks = spectrum_symbolic_check_k5()
    assert list(checks) == ["bminusc", "bplusc", "W_linear", "W_radicand",
                            "span_linear", "span_radicand", "multiplicities"]
    assert all(checks.values())


# the printed side of each k = 5 identity with one coefficient changed
_MISPRINTED_K5 = {
    "bminusc": lambda al, pi: pi * al - 3 * al,
    "bplusc": lambda al, pi: pi * al + al,
    "W_linear": lambda al, pi: 10 - 2 * al,
    "W_radicand": lambda al, pi: 25 * pi * pi * (al - 2) ** 2 + 17 * pi * al * (al - 2)
    + 16 * al * al,
    "span_linear": lambda al, pi: pi * (10 - 3 * al) + 9 * al,
    "span_radicand": lambda al, pi: 25 * pi * pi * (al - 2) ** 2 + 32 * pi * al * (al - 2)
    + 36 * al * al,
}


@pytest.mark.parametrize("name", list(_MISPRINTED_K5))
def test_symbolic_display_check_catches_one_misprint(name, monkeypatch):
    general, _ = spectrum.K5_DISPLAY_IDENTITIES[name]
    monkeypatch.setitem(spectrum.K5_DISPLAY_IDENTITIES, name, (general, _MISPRINTED_K5[name]))
    checks = spectrum_symbolic_check_k5()
    assert [key for key, ok in checks.items() if not ok] == [name]


# ---------------------------------------------------------------------------
# isotypic basis
# ---------------------------------------------------------------------------

def _families(basis):
    """The six families of an IsotypicBasis by name."""
    return {
        "span_IJ": basis.span_ij,
        "K": [t[0] for t in basis.ksd],
        "S": [t[1] for t in basis.ksd],
        "D": [t[2] for t in basis.ksd],
        "S0": basis.s0,
        "wedge": basis.wedge,
    }


@pytest.mark.parametrize("k", [4, 5, 6])
def test_basis_counts_and_algebra(k):
    basis = isotypic_basis(k)
    mats = [m for fam in _families(basis).values() for m in fam]
    assert len(mats) == k * k
    stacked = np.stack([m.flatten() for m in mats])
    assert np.linalg.matrix_rank(stacked) == k * k
    ones = np.ones(k)
    J = np.outer(ones, ones)
    for i, (K, S, D) in enumerate(basis.ksd):
        r = np.zeros(k)
        r[i], r[-1] = 1.0, -1.0
        assert np.abs(K @ J - k * np.outer(r, ones)).max() <= 1e-12
        assert np.abs(S @ J - k * np.outer(r, ones)).max() <= 1e-12
        assert np.abs(D @ J).max() <= 1e-12
        assert np.abs(2 * np.outer(r, ones) - (S + K)).max() <= 1e-12
        assert np.abs(2 * np.outer(ones, r) - (S - K)).max() <= 1e-12
    # featured constructions: P_perp = I - J/k spans the trivial copy inside
    # the symmetric square, and U_w for w in the r_i basis is the
    # symmetric-square copy of the standard component
    p_perp = np.eye(k) - J / k
    assert np.abs(p_perp - (basis.span_ij[0] - basis.span_ij[1] / k)).max() == 0.0
    assert np.abs(np.diag(p_perp) - (1 - 1 / k)).max() <= 1e-15
    for i in range(k - 1):
        r = np.zeros(k)
        r[i], r[-1] = 1.0, -1.0
        uw = np.outer(r, ones) + np.outer(ones, r) - k * np.diag(r)
        assert np.abs(np.diag(uw) - (2 - k) * r).max() <= 1e-12
        assert np.abs(uw + k * basis.ksd[i][2]).max() <= 1e-12   # U_{r_i} = -k D_i
    # P_perp lies in span{I, J}
    coeffs, res, *_ = np.linalg.lstsq(
        np.stack([m.flatten() for m in basis.span_ij], axis=1),
        p_perp.flatten(), rcond=None,
    )
    assert np.abs(np.stack([m.flatten() for m in basis.span_ij], axis=1) @ coeffs
                  - p_perp.flatten()).max() <= 1e-12


@pytest.mark.parametrize("k,alpha", [(4, 1.0), (5, 0.7), (6, 2.5)])
def test_eigen_equations_on_basis(k, alpha):
    basis = isotypic_basis(k)
    _, b, c = abc_terms(alpha)
    for mat in basis.wedge:
        assert np.abs(block_operator_apply(mat, alpha) - (b - c) * mat).max() <= 1e-10
    for mat in basis.s0:
        assert np.abs(block_operator_apply(mat, alpha) - (b + c) * mat).max() <= 1e-10
    block = w_block_matrix(k, alpha)
    for (K, S, D) in basis.ksd:
        triple = [K, S, D]
        for row in range(3):
            got = block_operator_apply(triple[row], alpha)
            want = sum(block[row, col] * triple[col] for col in range(3))
            assert np.abs(got - want).max() <= 1e-10
    # the 3x3 restriction carries eigenvalues {b-c, W_plus, W_minus}
    evals = np.sort(np.linalg.eigvals(block).real)
    fam = {e.formula_id: e.value for e in analytic_spectrum(k, alpha)}
    want = np.sort([fam["W_bminus_c"], fam["W_plus"], fam["W_minus"]])
    assert np.abs(evals - want).max() <= 1e-10


def test_families_closed_under_diagonal_action(rng):
    k = 5
    basis = isotypic_basis(k)
    for fam_name, mats in _families(basis).items():
        span = np.stack([m.flatten() for m in mats], axis=1)
        for _ in range(5):
            sigma = rng.permutation(k)
            p = permutation_matrix(tuple(int(x) for x in sigma))
            for m in mats:
                moved = (p @ m @ p.T).flatten()
                coeffs, *_ = np.linalg.lstsq(span, moved, rcond=None)
                assert np.abs(span @ coeffs - moved).max() <= 1e-10, fam_name


def test_basis_requires_k4():
    with pytest.raises(DomainError):
        isotypic_basis(3)


# ---------------------------------------------------------------------------
# critical set
# ---------------------------------------------------------------------------

def test_critical_values_k5():
    crit = critical_set(5)
    assert crit.values[0] == 0.0
    assert crit.values[1] == pytest.approx(2.2094612037138237, abs=1e-12)
    assert crit.values[2] == pytest.approx(3.158727282587906, abs=1e-12)
    # matches the published four-significant-digit value
    assert crit.values[2] == pytest.approx(3.1587, abs=5e-5)
    assert max(crit.residuals) <= 1e-12
    assert crit.trivial_zero_at_origin


def test_critical_value_k4_middle():
    p = math.pi
    want = (8 * p + 8 * p * p) / (4 + 3 * p * p + 4 * p)
    assert critical_alpha_standard(4) == pytest.approx(want, abs=1e-15)
    assert critical_alpha_standard(4) == pytest.approx(2.254, abs=1e-3)


def test_critical_asymptote_large_k():
    assert abs(critical_alpha_standard(10**6) - 2.0) <= 1e-4
    assert abs(critical_alpha_trivial(10**6) - 2.0) <= 1e-4


def test_ordering_chain_sweep():
    minpos = math.inf
    for k in range(4, 65):
        zero, mid, last = critical_set(k).values     # raises on a violated chain
        assert zero == 0.0 < mid < last
        assert mid > 2.0  # both nonzero members stay above the asymptote
        minpos = min(minpos, mid)
    assert minpos > 1.0  # engineering regime is uniformly subcritical


@pytest.mark.parametrize("k", range(4, 17))
def test_nonzero_members_zero_exactly_their_family(k):
    crit = critical_set(k)
    _, mid, last = crit.values
    margin = 1e-6
    fam = dict(zip(FORMULA_IDS, zip(family_values_at(k, mid), family_values_at(k, last))))
    for fid in ("wedge", "sym0", "W_bminus_c", "W_plus", "span_IJ_plus"):
        assert abs(fam[fid][0]) > margin
        assert abs(fam[fid][1]) > margin
    assert abs(fam["W_minus"][0]) <= 1e-12
    assert abs(fam["W_minus"][1]) > margin
    assert abs(fam["span_IJ_minus"][1]) <= 1e-12
    assert abs(fam["span_IJ_minus"][0]) > margin


def test_trivial_zero_at_origin_is_read_from_span_ij_minus(monkeypatch):
    assert all(critical_set(k).trivial_zero_at_origin for k in range(4, 65))
    original = closed_forms.family_values_at

    def lifted(k, alpha):                # span_IJ_minus moved off zero at 0
        values = original(k, alpha)
        return values[:6] + (values[6] + 1e-3,) if alpha == 0.0 else values

    monkeypatch.setattr(closed_forms, "family_values_at", lifted)
    assert not critical_set(5).trivial_zero_at_origin


def test_critical_set_rejects_violated_chain(monkeypatch):
    mid = critical_alpha_standard(5)
    monkeypatch.setattr(closed_forms, "critical_alpha_trivial", lambda k: mid - 0.5)
    with pytest.raises(ConsistencyError, match="critical ordering violated at k=5"):
        critical_set(5)


@pytest.mark.parametrize("k", [4, 5, 64, 10**6, 10**12, 10**17, 10**18, 10**100, 10**300])
def test_asymptote_distances_match_exact_rationals(k):
    from fractions import Fraction
    p = Fraction(math.pi)
    want_std = (2 * p * p - 8) / (4 + (k - 1) * p * p + 4 * p)
    want_triv = (4 * p * k + 8 * k + 2 * p * p - 8) / ((k - 1) * (2 * k * p + p * p - 4 * p - 4))
    d_std, d_triv = closed_forms._asymptote_distances(k)
    assert abs(Fraction(d_std) / want_std - 1) <= 1e-15
    assert abs(Fraction(d_triv) / want_triv - 1) <= 1e-15
    assert 0.0 < d_std < d_triv
    if k <= 64:
        assert d_std == pytest.approx(critical_alpha_standard(k) - 2.0, rel=1e-13)
        assert d_triv == pytest.approx(critical_alpha_trivial(k) - 2.0, rel=1e-13)


def _numpy_families(k, xs):
    # the seven families on an array, written here with every square a
    # product, so each entry rounds as family_values_at's; a negative
    # radicand raises
    kf = float(k)
    with np.errstate(all="raise"):
        a, b, c = 0.5 - xs / 4.0, xs / 4.0, xs / TWO_PI
        s1 = np.sqrt(a * a * kf * kf + 4.0 * c * (c - 2.0 * a))
        s2 = np.sqrt(kf * kf * ((a - c) * (a - c)) + 4.0 * c * (2.0 * a - c) * (kf - 1))
        w_lin, ij_lin = a * kf + 2 * b, 2 * b + kf * (a + c)
        return (b - c, b + c, b - c, 0.5 * (w_lin + s1), 0.5 * (w_lin - s1),
                0.5 * (ij_lin + s2), 0.5 * (ij_lin - s2))


def _numpy_root_scan(k, lo=-10.0, hi=10.0, grid=4000, tol=1e-12):
    # the array scan root_scan replaced, kept as its reference; it brackets
    # and bisects on its own formulas, the bisection at one-point arrays
    out = {}
    xs = np.linspace(lo, hi, grid + 1)
    table = _numpy_families(k, xs)
    for row, (fid, row_vals) in enumerate(zip(FORMULA_IDS, table)):
        vals = row_vals.tolist()
        roots = []
        for i in range(grid):
            va, vb = vals[i], vals[i + 1]
            if va == 0.0:
                roots.append(float(xs[i]))
                continue
            if va * vb < 0.0:
                a_, b_ = float(xs[i]), float(xs[i + 1])
                fa = va
                for _ in range(200):
                    m = 0.5 * (a_ + b_)
                    fm = float(_numpy_families(k, np.array([m]))[row][0])
                    if fm == 0.0 or (b_ - a_) < tol:
                        break
                    if fa * fm < 0.0:
                        b_ = m
                    else:
                        a_, fa = m, fm
                roots.append(0.5 * (a_ + b_))
        if vals[-1] == 0.0:
            roots.append(float(xs[-1]))
        out[fid] = [0.0 if abs(r) < 1e-9 else r for r in roots]
    return out


@pytest.mark.parametrize("grid", [4000, 2000])
def test_root_scan_grid_is_linspace_bit_for_bit(grid):
    got = np.array(list(closed_forms._grid(-10.0, 10.0, grid)))
    want = np.linspace(-10.0, 10.0, grid + 1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k", [4, 5, 8, 16, 64])
def test_root_scan_equals_numpy_scan(k):
    # spectrum re-exports the one scan, so the benchmark tracer's rebinding
    # of spectrum.root_scan reaches every caller
    assert spectrum.root_scan is closed_forms.root_scan
    want = _numpy_root_scan(k)
    got = root_scan(k)
    assert list(got) == list(want)
    for fid in FORMULA_IDS:
        assert [r.hex() for r in got[fid]] == [r.hex() for r in want[fid]], fid


@pytest.mark.parametrize("k", [4, 5, 8, 16, 64])
def test_root_scan_nonnegativity(k):
    scan = root_scan(k)
    for fid, roots in scan.items():
        assert all(r >= 0.0 for r in roots), (fid, roots)
        assert sum(1 for r in roots if r > 0.0) <= 1
    # the minus branches of both quadratic families vanish at the origin too
    assert 0.0 in scan["W_minus"] and 0.0 in scan["span_IJ_minus"]
    crit = critical_set(k)
    assert scan["W_minus"][-1] == pytest.approx(crit.values[1], abs=1e-7)
    assert scan["span_IJ_minus"][-1] == pytest.approx(crit.values[2], abs=1e-7)


# ---------------------------------------------------------------------------
# numerical match
# ---------------------------------------------------------------------------

def test_match_k5_alpha1():
    rep = numerical_spectrum_match(5, 1.0)
    assert rep.ok
    assert rep.max_deviation <= 1e-10
    assert sorted(c.numeric_multiplicity for c in rep.clusters) == [1, 1, 4, 4, 5, 10]


def test_match_k8_alpha25():
    rep = numerical_spectrum_match(8, 2.5)
    assert rep.ok
    assert sorted(c.numeric_multiplicity for c in rep.clusters) == [1, 1, 7, 7, 20, 28]


def test_match_k4_alpha0_degenerate():
    rep = numerical_spectrum_match(4, 0.0)
    assert rep.ok
    assert sum(c.numeric_multiplicity for c in rep.clusters) == 16
    values = sorted(c.numeric_value for c in rep.clusters)
    assert values == pytest.approx([0.0, 2.0], abs=1e-10)


def test_match_dominant_labels_k5():
    rep = numerical_spectrum_match(5, 1.0)
    by_mult = {c.numeric_multiplicity: c.dominant_label for c in rep.clusters}
    assert by_mult[10] == "(3,1,1)"   # wedge dominates the merged b-c cluster
    assert by_mult[5] == "(3,2)"
    assert by_mult[4] == "(4,1)"
    assert by_mult[1] == "(5)"


def test_match_detects_perturbation():
    rep = numerical_spectrum_match(5, 1.0, perturbation=1e-3)
    assert not rep.ok
    assert rep.message
    # H[0, 1] and H[1, 0] sit at position t = 0 alone, so each differs
    # from its k - 1 shifted images, and the coupling reads all of them
    assert rep.coupling == pytest.approx(1e-3 * math.sqrt(2 * (5 - 1)), rel=1e-12)


@pytest.mark.parametrize("k", range(4, 9))
def test_operator_matrix_spectral_equivalence(k):
    # eigenvalues of the abstract block operator, built by applying it to a
    # matrix unit basis, coincide with the assembled-Hessian spectrum
    for alpha in np.linspace(0.0, 3.5, 11):
        dense = assemble_dense(hessian_at_minimum(k, float(alpha)))
        op = np.zeros((k * k, k * k))
        for col in range(k * k):
            e = np.zeros(k * k)
            e[col] = 1.0
            op[:, col] = vec(block_operator_apply(unvec(e, k), float(alpha)))
        lhs = np.sort(np.linalg.eigvalsh(dense))
        rhs = np.sort(np.linalg.eigvals(op).real)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_eigenvector_projections_recover_isotypic_multiplicities():
    # dim-weighted projections of the numerical eigenvectors reproduce the
    # {2, 3, 1, 1} decomposition of R^{k^2}
    from symbreak.symrep import hook_dimension

    for k in (4, 5):
        rep = numerical_spectrum_match(k, 1.3)
        assert rep.ok
        dims: dict[str, int] = {}
        for c in rep.clusters:
            dims[c.dominant_label] = dims.get(c.dominant_label, 0) + c.numeric_multiplicity
        # the merged b-c cluster mixes the hook component with one standard
        # copy; split it using the analytic multiplicities
        hook_lab = f"({k - 2},1,1)"
        std_lab = f"({k - 1},1)"
        dims[std_lab] = dims.get(std_lab, 0) + dims[hook_lab] - (k - 1) * (k - 2) // 2
        dims[hook_lab] = (k - 1) * (k - 2) // 2
        mults = {
            hook_lab: dims[hook_lab] // hook_dimension((k - 2, 1, 1)),
            f"({k - 2},2)": dims[f"({k - 2},2)"] // hook_dimension((k - 2, 2)),
            std_lab: dims[std_lab] // hook_dimension((k - 1, 1)),
            f"({k})": dims[f"({k})"] // hook_dimension((k,)),
        }
        assert mults == {hook_lab: 1, f"({k - 2},2)": 1, std_lab: 3, f"({k})": 2}


def _isotypic_scores(vecs, k):
    """Squared Frobenius norm of the orthogonal projection of the real
    columns of vecs (shape (k^2, m), vec coordinates) onto each isotypic
    component, keyed hook, two-row, standard, trivial: the general closed
    forms of the spectrum module docstring, O(k^2) per column.  The C-order
    reshape of a column-stacked vector is U^T, and every score is invariant
    under transposition; |A|^2 and |S|^2 come from |U|^2 and <U, U^T>.  The
    reference for the matcher's per-frequency scores, on its own code path.
    """
    x = vecs.reshape(k, k, -1)
    d = np.einsum("iim->im", x)
    rows, cols = x.sum(axis=1), x.sum(axis=0)
    rho = 0.5 * (rows - cols)
    sigma = 0.5 * (rows + cols) - d
    total = float(np.einsum("ijm,ijm->", x, x))
    cross = float(np.einsum("ijm,jim->", x, x))         # <U, U^T>
    anti = 0.5 * (total - cross)                         # |A|^2
    sym = 0.5 * (total + cross) - float((d * d).sum())   # |S|^2
    d_bar, s_bar = d.mean(axis=0), sigma.mean(axis=0)
    triv_off = k * float((s_bar * s_bar).sum()) / (k - 1)
    std_off = 2.0 * float(((sigma - s_bar) ** 2).sum()) / (k - 2)
    std_anti = 2.0 * float((rho * rho).sum()) / k
    return {
        f"({k - 2},1,1)": anti - std_anti,
        f"({k - 2},2)": sym - triv_off - std_off,
        f"({k - 1},1)": float(((d - d_bar) ** 2).sum()) + std_anti + std_off,
        f"({k})": k * float((d_bar * d_bar).sum()) + triv_off,
    }


def _basis_scores(vecs, k):
    """Squared projection norms onto the QR-orthonormalized families of
    isotypic_basis: the labelling oracle, on its own code path."""
    labels = {"span_IJ": f"({k})", "K": f"({k - 1},1)", "S": f"({k - 1},1)",
              "D": f"({k - 1},1)", "S0": f"({k - 2},2)", "wedge": f"({k - 2},1,1)"}
    grouped: dict[str, list[np.ndarray]] = {}
    for fam, mats in _families(isotypic_basis(k)).items():
        grouped.setdefault(labels[fam], []).extend(vec(m) for m in mats)
    out = {}
    for lab, cols in grouped.items():
        q, _ = np.linalg.qr(np.stack(cols, axis=1))
        out[lab] = float(np.linalg.norm(q.T @ vecs) ** 2)
    return out


@pytest.mark.parametrize("k", range(4, 9))
def test_isotypic_scores_match_basis_projections(k, rng):
    blocks = [rng.standard_normal((k * k, m)) for m in (1, 3, k + 1)]
    for alpha in (0.0, 1.0, 2.5):
        evals, evecs = np.linalg.eigh(assemble_dense(hessian_at_minimum(k, alpha)))
        gap = CLUSTER_GAP_FACTOR * max(1.0, float(np.abs(evals).max()))
        col = 0
        for _, m in _cluster(evals, gap):
            blocks.append(evecs[:, col:col + m])
            col += m
    for block in blocks:
        got = _isotypic_scores(block, k)
        want = _basis_scores(block, k)
        assert list(got) == [f"({k - 2},1,1)", f"({k - 2},2)", f"({k - 1},1)", f"({k})"]
        assert set(got) == set(want)
        for lab in got:
            assert abs(got[lab] - want[lab]) <= 1e-12 * block.shape[1], lab


def _unfolded_scores(y, w, k):
    """_isotypic_scores of the block-w eigenvector y unfolded to the k^2
    coordinates, x[(t, t+d)] = y[d] e^(-2 pi i w t/k)/sqrt(k): its real
    part's plus its imaginary part's.  The labelling the per-frequency forms
    replaced, kept as their reference."""
    t = np.arange(k)
    back = (t[None, :] - t[:, None]) % k          # back[i, a]: the orbit d of (i, a)
    x = y[back] * (np.exp(-2j * math.pi * w * t / k) / math.sqrt(k))[:, None]
    return list(_isotypic_scores(np.stack([x.real.ravel(), x.imag.ravel()], axis=1), k).values())


@pytest.mark.parametrize("k", range(4, 13))
def test_frequency_scores_match_unfolded_reference(k, rng, monkeypatch):
    # random unit complex columns in every block w, w = 0 included, and the
    # matcher's own block eigenvectors at 0, 1, 3.5 and both nonzero
    # critical values
    random = rng.standard_normal((k, k, 3)) + 1j * rng.standard_normal((k, k, 3))
    stacks = [random / np.linalg.norm(random, axis=1, keepdims=True)]
    eigh = np.linalg.eigh

    def kept(matrix):
        vals, vecs = eigh(matrix)
        stacks.append(vecs)
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", kept)
    _, mid, last = critical_set(k).values
    for alpha in (0.0, 1.0, 3.5, mid, last):
        assert numerical_spectrum_match(k, alpha).ok
    assert len(stacks) == 6
    for vecs in stacks:
        got = _frequency_scores(vecs)
        m = vecs.shape[2]
        assert got.shape == (4, k * m)
        for w in range(k):
            for j in range(m):
                want = _unfolded_scores(vecs[w, :, j], w, k)
                assert np.abs(got[:, w * m + j] - want).max() <= 1e-13, (w, j)


def _vectorized_frequency_scores(vecs):
    """_frequency_scores on all k frequencies at once, with (k, k, m)
    temporaries: the form the per-frequency loop replaced, kept as its
    bit-for-bit reference."""
    k = vecs.shape[0]
    steps = np.arange(k)
    e = np.exp(2j * math.pi * (np.outer(steps, steps) % k) / k)
    shifted = vecs * e[:, :, None]
    y0 = vecs[:, 0]
    rows, cols = vecs.sum(axis=1), shifted.sum(axis=1)
    total = np.einsum("wdj,wdj->wj", vecs.conj(), vecs).real
    cross = np.einsum("wdj,wdj->wj", shifted.conj(), vecs[:, -steps % k]).real
    diag_sq = np.abs(y0) ** 2
    sigma_sq = np.abs(0.5 * (rows + cols) - y0) ** 2
    std_anti = np.abs(rows - cols) ** 2 / (2 * k)
    mean = steps[:, None] == 0
    triv_off = np.where(mean, sigma_sq / (k - 1), 0.0)
    std_off = np.where(mean, 0.0, 2.0 * sigma_sq / (k - 2))
    std_diag = np.where(mean, 0.0, diag_sq)
    return np.stack([
        0.5 * (total - cross) - std_anti,
        0.5 * (total + cross) - diag_sq - triv_off - std_off,
        std_diag + std_anti + std_off,
        diag_sq - std_diag + triv_off,
    ]).reshape(4, -1)


def test_frequency_scores_equal_vectorized_reference(rng):
    # random complex blocks, square as eigh returns them and with 3 columns,
    # and unitary blocks from eigh
    for k in range(4, 65):
        stacks = [rng.standard_normal((k, k, m)) + 1j * rng.standard_normal((k, k, m))
                  for m in (k, 3)]
        stacks.append(np.linalg.eigh(stacks[0] + stacks[0].conj().transpose(0, 2, 1))[1])
        for vecs in stacks:
            got = _frequency_scores(vecs)
            assert np.array_equal(got.view(np.int64),
                                  _vectorized_frequency_scores(vecs).view(np.int64)), k


def test_dominant_label_ties_are_deterministic():
    # the k = 4 b - c cluster holds 3 hook + 3 standard dimensions, and the
    # k = 6, alpha = 0 zero cluster 10 hook + 10 standard: ties go to the hook
    six = []
    for alpha in np.linspace(0.0, 3.5, 11):
        rep = numerical_spectrum_match(4, float(alpha))
        six += [c.dominant_label for c in rep.clusters if c.numeric_multiplicity == 6]
    assert six == ["(2,1,1)"] * 10      # every grid point but alpha = 0 has one
    rep = numerical_spectrum_match(6, 0.0)
    assert [(c.numeric_multiplicity, c.dominant_label) for c in rep.clusters] == [
        (30, "(4,1,1)"), (6, "(5,1)")]


def test_match_labels_without_basis_qr_or_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the labelling must not build a basis")

    monkeypatch.setattr(spectrum, "isotypic_basis", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    rep = numerical_spectrum_match(5, 1.0)
    assert rep.ok
    assert {c.dominant_label for c in rep.clusters} == {"(3,1,1)", "(3,2)", "(4,1)", "(5)"}


def test_match_capacity_guard():
    with pytest.raises(CapacityError):
        numerical_spectrum_match(65, 1.0)


def _refuse_assembly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("refused inputs must not reach the assembly")

    monkeypatch.setattr(spectrum, "minimum_blocks", refuse)


# 1e200 and -1e160 are finite, but 2(k - 1) p^2, the coupling's square, is not
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200, -1e160])
def test_match_refuses_nonfinite_perturbation(bad, monkeypatch):
    _refuse_assembly(monkeypatch)
    with pytest.raises(DomainError, match="finite"):
        numerical_spectrum_match(5, 1.0, perturbation=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_match_refuses_nonfinite_alpha(bad, monkeypatch):
    _refuse_assembly(monkeypatch)
    with pytest.raises(DomainError, match="finite"):
        numerical_spectrum_match(5, bad)


def test_match_refuses_narrow_width(monkeypatch):
    _refuse_assembly(monkeypatch)
    with pytest.raises(DomainError, match="k >= 4"):
        numerical_spectrum_match(3, 1.0)


# ---------------------------------------------------------------------------
# the shift split against the full eigensolve
# ---------------------------------------------------------------------------

def _full_eigh_reference(k, alpha):
    """The matcher's former single eigh of the whole assembled matrix, kept
    as the reference for the split: (value, multiplicity, dominant label)
    per cluster, and the scale."""
    evals, evecs = np.linalg.eigh(assemble_dense(hessian_at_minimum(k, alpha)))
    scale = max(1.0, float(np.abs(evals).max()))
    out, col = [], 0
    for value, m in _cluster(evals, CLUSTER_GAP_FACTOR * scale):
        scores = _isotypic_scores(evecs[:, col:col + m], k)
        col += m
        top = max(scores.values())
        label = next(lab for lab, s in scores.items() if s >= top - LABEL_TIE_FACTOR * m)
        out.append((value, m, label))
    return out, scale


def _assert_split_matches_full(k, alpha):
    rep = numerical_spectrum_match(k, alpha)
    want, scale = _full_eigh_reference(k, alpha)
    assert rep.ok, (k, alpha, rep.message)
    assert rep.coupling == 0.0
    got = [(c.numeric_multiplicity, c.dominant_label) for c in rep.clusters]
    assert got == [(m, label) for _, m, label in want], (k, alpha)
    for c, (value, _, _) in zip(rep.clusters, want):
        assert abs(c.numeric_value - value) <= 1e-12 * scale, (k, alpha)


@pytest.mark.parametrize("k", range(4, 13))
def test_split_eigensolve_matches_full_reference(k):
    # the 11-point grid holds the k = 4 and k = 6, alpha = 0 label ties
    for alpha in [*np.linspace(0.0, 3.5, 11), -3.5, -1.0, 0.7]:
        _assert_split_matches_full(k, float(alpha))


@pytest.mark.slow
def test_split_eigensolve_matches_full_reference_k48():
    # alpha = 0 holds the largest tie cluster: 2,256 of the 2,304 eigenvectors
    for alpha in (0.0, 1.0, 3.5):
        _assert_split_matches_full(48, alpha)


def _shift(k):
    """g(i, a) = (i + 1, a + 1) mod k on m = i*k + a."""
    return lambda m: (m // k + 1) % k * k + (m % k + 1) % k


def _patch_blocks(monkeypatch, changes):
    """The block builder the matcher reads, plus delta at each block entry
    (i, j, a, b) of changes, in every block row or column that holds block
    (i, j): the same dense entries as a change to the whole block array."""
    build = spectrum.minimum_blocks

    def patched(k, alpha, rows, cols):
        blocks = build(k, alpha, rows, cols)
        rows, cols = np.broadcast_arrays(rows, cols)
        for (i, j, a, b), delta in changes:
            blocks[(rows == i) & (cols == j), a, b] += delta
        return blocks

    monkeypatch.setattr(spectrum, "minimum_blocks", patched)


def _defective_assembly(monkeypatch, k, changes):
    """The minimum blocks plus a symmetric change delta at each dense
    (p, q, delta): block entry (p // k, q // k, p % k, q % k) and its
    mirror."""
    _patch_blocks(monkeypatch, [
        change
        for p, q, delta in changes
        for change in (((p // k, q // k, p % k, q % k), delta),
                       ((q // k, p // k, q % k, p % k), delta))
    ])


def test_symmetry_breaking_change_fails_on_the_coupling(monkeypatch):
    k = 6
    g = _shift(k)
    p, q = 1 * k + 2, 3 * k            # (1, 2) and (3, 0)
    assert {g(p), g(q)} != {p, q}
    _defective_assembly(monkeypatch, k, [(p, q, 1e-6)])
    rep = numerical_spectrum_match(k, 1.0)
    assert not rep.ok
    assert rep.coupling > 0.0
    assert "coupling" in rep.message


def test_change_the_split_cannot_see_fails_on_the_coupling(monkeypatch):
    # +delta at (p, q) and -delta at (g p, g q), no row or column at
    # position t = 0: the representative slabs h_s are read from the rows
    # (0, d) alone and stay as they were, so no eigenvalue moves, and only
    # the coupling sees the four changed entries
    k = 6
    g = _shift(k)
    p, q = 1 * k + 3, 3 * k            # (1, 3) and (3, 0)
    assert all(m // k != 0 for m in (p, q, g(p), g(q)))
    _defective_assembly(monkeypatch, k, [(p, q, 1e-6), (g(p), g(q), -1e-6)])
    rep = numerical_spectrum_match(k, 1.0)
    assert rep.max_deviation <= 1e-12
    assert rep.coupling == pytest.approx(2e-6, rel=1e-6)
    assert not rep.ok
    assert "coupling" in rep.message


def test_symmetric_change_fails_on_the_deviation(monkeypatch):
    # the same delta on the whole shift orbit of (p, q) keeps the assembly
    # shift-invariant
    k = 6
    g = _shift(k)
    p, q = 1 * k + 2, 3 * k
    orbit = []
    for _ in range(k):
        orbit.append((p, q, 1e-6))
        p, q = g(p), g(q)
    _defective_assembly(monkeypatch, k, orbit)
    rep = numerical_spectrum_match(k, 1.0)
    assert rep.coupling == 0.0
    assert not rep.ok


@pytest.mark.parametrize("bad", [1e-6, math.nan])
def test_match_refuses_asymmetric_blocks(bad, monkeypatch):
    # the matcher reads the raw blocks, so it runs the assembly guard itself
    _patch_blocks(monkeypatch, [((1, 3, 2, 0), bad)])
    with pytest.raises(ConsistencyError, match="asymmetry"):
        numerical_spectrum_match(6, 1.0)


def test_match_guard_covers_every_block_pair(monkeypatch):
    # one asymmetric entry in any block (i, j), diagonal blocks included,
    # stops the matcher before the eigensolve
    k = 5

    def refuse(matrix):
        raise AssertionError("asymmetric blocks must not reach the eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for i, j in itertools.product(range(k), repeat=2):
        with monkeypatch.context() as patch:
            _patch_blocks(patch, [((i, j, 1, 0), 1e-6)])
            with pytest.raises(ConsistencyError, match="asymmetry"):
                numerical_spectrum_match(k, 1.0)


def test_match_peak_is_cubic():
    # the blocks are built one block row and column at a time, so no
    # allocation holds k^4 entries: the slabs, the guard's pair and the
    # eigensolve are O(k^3), about three complex (k, k, k) arrays, and no
    # k^2 x k^2 matrix is assembled
    k = 48
    assert not hasattr(spectrum, "assemble_dense")
    assert not hasattr(spectrum, "hessian_at_minimum")
    tracemalloc.start()
    try:
        assert numerical_spectrum_match(k, 1.0).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * k ** 3


@pytest.mark.parametrize("k", [4, 5, 8, 9])
def test_one_stacked_eigensolve_per_match(k, monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counted(matrix):
        shapes.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert numerical_spectrum_match(k, 1.3).ok
    assert shapes == [(k, k, k)]
