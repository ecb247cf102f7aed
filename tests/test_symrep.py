import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_by_label, permutation_matrix
from symbreak.burnside import cycle_type
from symbreak.errors import CapacityError, ConsistencyError, DomainError
from symbreak.golden import compare_character_table
from symbreak.symrep import (
    character_table,
    class_size,
    closed_form_character,
    closed_form_partition,
    conjugate_partition,
    cycle_counts,
    decompose_class_function,
    decompose_diag_square,
    diag_square_character,
    fixed_space_dim,
    frobenius_character,
    hook_dimension,
    inner_product,
    irreducible_character,
    partitions_of,
    sorted_cycle_types,
    validate_partition,
)


# ---------------------------------------------------------------------------
# partitions and classes
# ---------------------------------------------------------------------------

def test_partition_validation():
    assert validate_partition([3, 1, 1]) == (3, 1, 1)
    with pytest.raises(DomainError):
        validate_partition([1, 3])
    with pytest.raises(DomainError):
        validate_partition([2, 0])
    with pytest.raises(DomainError):
        validate_partition([])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 10))
def test_partition_enumeration_and_class_sizes(n):
    parts = partitions_of(n)
    assert parts[0] == (n,)
    assert parts[-1] == tuple([1] * n)
    assert len(set(parts)) == len(parts)
    assert sum(class_size(c) for c in parts) == math.factorial(n)


def test_conjugate_partition_involution():
    for n in range(1, 9):
        for eta in partitions_of(n):
            assert conjugate_partition(conjugate_partition(eta)) == eta


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_trivial_character_is_one():
    for k in range(2, 9):
        for ct in sorted_cycle_types(k):
            assert frobenius_character((k,), ct) == 1


def test_standard_character_counts_fixed_points():
    for k in range(3, 9):
        for ct in sorted_cycle_types(k):
            i1 = sum(1 for c in ct if c == 1)
            assert frobenius_character((k - 1, 1), ct) == i1 - 1


def test_two_row_character_on_five_cycle():
    # (3,2) on the 5-cycle class: (i1-1)(i1-2)/2 + i2 - 1 = 1 - 0 - 1 = 0
    assert frobenius_character((3, 2), (5,)) == 0
    assert closed_form_character("two-row", (5,)) == 0


def test_identity_value_equals_hook_dimension():
    for n in range(2, 9):
        ident = tuple([1] * n)
        for eta in partitions_of(n):
            assert frobenius_character(eta, ident) == hook_dimension(eta)


@pytest.mark.parametrize("k", range(4, 9))
def test_closed_forms_match_frobenius(k):
    for shape in ("top", "standard", "two-row", "hook"):
        eta = closed_form_partition(shape, k)
        for ct in sorted_cycle_types(k):
            assert closed_form_character(shape, ct) == frobenius_character(eta, ct)


def test_closed_form_dimensions():
    for k in range(4, 10):
        ident = tuple([1] * k)
        assert closed_form_character("two-row", ident) == k * (k - 3) // 2
        assert closed_form_character("hook", ident) == (k - 1) * (k - 2) // 2


def test_hook_dimensions_examples():
    assert hook_dimension((5,)) == 1
    assert hook_dimension((4, 1)) == 4
    assert hook_dimension((3, 1, 1)) == 6
    assert hook_dimension((3, 2)) == 5


def test_size_mismatch_rejected():
    with pytest.raises(DomainError):
        frobenius_character((3, 1), (5,))


def test_capacity_guard():
    with pytest.raises(CapacityError):
        frobenius_character(tuple([1] * 13), tuple([1] * 13))


def test_conjugate_twist_path_on_long_partitions():
    # the sign-twist identities chi_{1^n} = sgn and chi_{(2,1^{n-2})} =
    # sgn * (i1 - 1) on partitions with n - 1 and n parts
    n = 10
    for ct in sorted_cycle_types(n):
        sgn = (-1) ** (n - len(ct))
        assert frobenius_character(tuple([1] * n), ct) == sgn
        i1 = sum(1 for c in ct if c == 1)
        assert frobenius_character((2,) + tuple([1] * (n - 2)), ct) == sgn * (i1 - 1)


def _generic_product(eta, ctype):
    """The coefficient of x_1^{l_1} ... x_r^{l_r} (l_j = eta_j + r - j) in
    Delta(x) * prod_j P_j(x)^{i_j}: every Vandermonde factor x_i - x_j and
    every power sum multiplied in as a plain dict polynomial, one factor at
    a time, dropping monomials past the target exponent in any variable."""
    r = len(eta)
    caps = tuple(eta[j] + r - 1 - j for j in range(r))

    def unit(t, power=1):
        return tuple(power if s == t else 0 for s in range(r))

    def mul(poly, factor):
        out = {}
        for e1, c1 in poly.items():
            for e2, c2 in factor.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if all(x <= cap for x, cap in zip(e, caps)):
                    out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    poly = {unit(0, 0): 1}
    for i in range(r):
        for j in range(i + 1, r):
            poly = mul(poly, {unit(i): 1, unit(j): -1})
    for length in ctype:
        poly = mul(poly, {unit(s, length): 1 for s in range(r)})
    return poly.get(caps, 0)


def test_frobenius_matches_generic_product_reference():
    # the coefficient-extraction formula is exact integer arithmetic, so it
    # equals the Murnaghan-Nakayama value; it runs on the shorter of eta and
    # its conjugate, chi_eta = sgn * chi_{eta'}, to keep the products small
    for n in range(1, 10):
        for eta in partitions_of(n):
            conj = conjugate_partition(eta)
            short, twist = (conj, True) if len(conj) < len(eta) else (eta, False)
            for ct in partitions_of(n):
                sign = (-1) ** (n - len(ct)) if twist else 1
                want = sign * _generic_product(short, ct)
                assert frobenius_character(eta, ct) == want, (eta, ct)


def test_characters_at_capacity_edge():
    # n = 12 (77 partitions): column orthogonality sum_eta chi_eta(c)^2 =
    # 12!/|c| on every class, and the identity column gives the hook dimensions
    n = 12
    parts = partitions_of(n)
    assert len(parts) == 77
    for ct in parts:
        column = [frobenius_character(eta, ct) for eta in parts]
        assert sum(x * x for x in column) == math.factorial(n) // class_size(ct), ct
    ident = tuple([1] * n)
    for eta in parts:
        assert frobenius_character(eta, ident) == hook_dimension(eta), eta


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_character_table_s5_matches_reference():
    assert compare_character_table()["ok"]


def test_character_table_s5_under_one_second():
    import time

    character_table.cache_clear()
    start = time.perf_counter()
    character_table(5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", range(2, 9))
def test_orthogonality_and_centralizer_columns(k):
    table = character_table(k)
    table.check_orthogonality()
    for ci, ct in enumerate(table.cycle_types):
        sq = sum(row[ci] ** 2 for row in table.values)
        assert sq == math.factorial(k) // table.class_sizes[ci]


def test_character_table_k4_degrees():
    # column 0 is the identity class, so it holds the degrees
    table = character_table(4)
    assert table.cycle_types[0] == (1, 1, 1, 1)
    assert sorted(row[0] for row in table.values) == [1, 1, 2, 3, 3]


def test_character_table_capacity():
    with pytest.raises(CapacityError):
        character_table(9)


# ---------------------------------------------------------------------------
# Sym^2 / wedge^2 and the diagonal-square decomposition
# ---------------------------------------------------------------------------

def sym_wedge_characters(k: int):
    """Characters of Sym^2 and wedge^2 of the standard representation, from
    chi(g)^2 +- chi(g^2) with the fixed-point identity i1(g^2) = i1(g) +
    2 i2(g): an independent route to decompose_diag_square's result."""
    sym, wedge = {}, {}
    for c in sorted_cycle_types(k):
        counts = cycle_counts(c)
        i1, i2 = counts.get(1, 0), counts.get(2, 0)
        chi = i1 - 1
        chi_sq = (i1 + 2 * i2) - 1  # chi evaluated on g^2
        s2 = chi * chi + chi_sq
        w2 = chi * chi - chi_sq
        assert s2 % 2 == 0 and w2 % 2 == 0, "values must be even before halving"
        sym[c] = s2 // 2
        wedge[c] = w2 // 2
    return sym, wedge


@pytest.mark.parametrize("k", range(4, 9))
def test_sym_wedge_decompositions(k):
    sym, wedge = sym_wedge_characters(k)
    assert decompose_class_function(sym, k) == {
        (k,): 1, (k - 1, 1): 1, (k - 2, 2): 1}
    assert decompose_class_function(wedge, k) == {(k - 2, 1, 1): 1}
    ident = tuple([1] * k)
    assert sym[ident] + wedge[ident] == (k - 1) ** 2


@pytest.mark.parametrize("k", range(4, 11))
def test_diag_square_law(k):
    mults = decompose_diag_square(k)
    assert mults == {(k,): 2, (k - 1, 1): 3, (k - 2, 2): 1, (k - 2, 1, 1): 1}
    assert sum(m * hook_dimension(eta) for eta, m in mults.items()) == k * k


def test_diag_square_k5_component_dimensions():
    mults = decompose_diag_square(5)
    dims = {eta: m * hook_dimension(eta) for eta, m in mults.items()}
    assert dims == {(5,): 2, (4, 1): 12, (3, 2): 5, (3, 1, 1): 6}
    assert sum(dims.values()) == 25


@pytest.mark.parametrize("k", [4, 5])
def test_permutation_character_via_explicit_matrices(k):
    # chi_V(g) = i1(g)^2 for the diagonal action U -> P U P^T on R^{k^2}
    chi = diag_square_character(k)
    for ct in sorted_cycle_types(k):
        perm = _representative(ct)
        p = permutation_matrix(perm)
        action = np.kron(p, p)          # matrix of U -> P U P^T in vec coords
        i1 = sum(1 for c in ct if c == 1)
        assert int(round(np.trace(action))) == chi[ct] == i1 * i1


def _representative(ct):
    images = []
    start = 0
    for length in ct:
        images.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(images)


# ---------------------------------------------------------------------------
# fixed spaces
# ---------------------------------------------------------------------------

def test_fixed_space_trivial_character(lattice5):
    chi = irreducible_character((5,))
    for cls in lattice5.classes:
        assert fixed_space_dim(chi, cls.representative) == 1


def test_fixed_space_standard_at_full_group(lattice5):
    chi = irreducible_character((4, 1))
    full = lattice5.classes[-1]
    assert fixed_space_dim(chi, full.representative) == 0


def test_fixed_space_standard_at_point_stabilizer(lattice5):
    chi = irreducible_character((4, 1))
    s4 = class_by_label(lattice5, "S4")
    assert fixed_space_dim(chi, s4.representative) == 1
    # burn-in against the explicit matrix action on the sum-zero subspace
    elems = list(s4.representative)
    proj = sum(permutation_matrix(p) for p in elems) / len(elems)
    ones = np.ones((5, 5)) / 5.0
    rank_on_vperp = int(round(np.trace(proj - proj @ ones)))
    assert rank_on_vperp == 1


def test_fixed_space_rejects_non_integer_average(lattice5):
    chi = dict(irreducible_character((4, 1)))
    chi[(2, 1, 1, 1)] += 1   # corrupt one class value
    d1 = class_by_label(lattice5, "D1")
    with pytest.raises(ConsistencyError):
        fixed_space_dim(chi, d1.representative)


def test_inner_product_orthonormality():
    a = irreducible_character((3, 2))
    b = irreducible_character((4, 1))
    assert inner_product(a, a, 5) == 1
    assert inner_product(a, b, 5) == 0


def test_cycle_type_helper_consistency(lattice5):
    # permutation-level cycle types agree with the partition bookkeeping
    for cls in lattice5.classes:
        for p in cls.representative:
            assert sum(cycle_type(p)) == 5
