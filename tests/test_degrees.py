import itertools

import pytest

from symbreak.burnside import BurnsideElement
from symbreak.degrees import (
    all_invariants,
    basic_degree,
    bifurcation_invariant,
    leading_coefficient_check,
    linear_map_degree,
    maximal_orbit_types,
    bifurcation_report,
    invariants_payload,
)
from symbreak.errors import CapacityError, DomainError
from symbreak.golden import compare_k5, load_golden
from symbreak.spectrum import analytic_spectrum, critical_ordering, critical_set


def _degrees(lattice):
    k = lattice.k
    return {
        eta: basic_degree(eta, lattice)
        for eta in [(k - 2, 1, 1), (k - 2, 2), (k - 1, 1), (k,)]
    }


# ---------------------------------------------------------------------------
# basic degrees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["lattice4", "lattice5", "lattice6"])
def test_trivial_irrep_degree(fixture, request):
    lattice = request.getfixturevalue(fixture)
    bd = basic_degree((lattice.k,), lattice)
    assert bd.element.coeffs == {lattice.full_index: -1}
    assert bd.maximal_types == [lattice.full_index]


@pytest.mark.parametrize("fixture", ["lattice4", "lattice5", "lattice6"])
def test_involution_and_self_inverse(fixture, request):
    lattice = request.getfixturevalue(fixture)
    one = BurnsideElement.one(lattice)
    for eta, bd in _degrees(lattice).items():
        square = bd.element * bd.element
        assert square == one, eta
        # an involution is its own inverse
        assert (bd.element * square) == bd.element


def test_unit_coefficient_at_full_group(lattice5):
    for eta, bd in _degrees(lattice5).items():
        want = -1 if eta == (5,) else 1
        assert bd.element.coeffs.get(lattice5.full_index, 0) == want


def test_standard_degree_matches_reference(lattice5):
    golden = load_golden()
    bd = basic_degree((4, 1), lattice5)
    # reference terms keyed by conventional labels; map via the class labels
    # of this lattice (the inference in compare_k5 exercises the general
    # path; here the printed standard-representation line is pinned
    # directly: D3 in the reference is the point-stabilizer S3 class)
    relabel = {"D3": "S3"}
    want = {
        relabel.get(lab, lab): c
        for lab, c in golden["basic_degrees"]["standard"]["terms"].items()
    }
    assert bd.labels() == want


def test_leading_coefficients_k5(lattice5):
    degs = _degrees(lattice5)
    rep = leading_coefficient_check(degs[(3, 2)], lattice5)
    assert rep.ok
    table = {e["class"]: (e["coefficient"], e["weyl_order"]) for e in rep.entries}
    assert table == {"D4": (-2, 1), "D5": (-1, 2), "D6": (-2, 1)}
    triv = leading_coefficient_check(degs[(5,)], lattice5)
    assert triv.ok
    assert triv.entries[0]["exempt_full_group"]


def test_leading_coefficients_k4(lattice4):
    for eta, bd in _degrees(lattice4).items():
        assert leading_coefficient_check(bd, lattice4).ok, eta


def test_maximal_term_cancellation_law(lattice5):
    # if two basic degrees share a maximal type H, the product coefficient at
    # H is 2 n_H + n_H^2 |W(H)| = 0; otherwise maximal terms persist.  The
    # case analysis presumes factors of the form (S_5) + proper terms, which
    # excludes the trivial-irreducible degree -(S_5)
    degs = [
        bd for bd in _degrees(lattice5).values()
        if bd.element.coeffs.get(lattice5.full_index) == 1
    ]
    for a, b in itertools.combinations(degs, 2):
        prod = a.element * b.element
        shared = set(a.maximal_types) & set(b.maximal_types)
        for ci in shared:
            n_h = a.element.coeffs[ci]
            w = lattice5.classes[ci].weyl_order
            assert b.element.coeffs[ci] == n_h  # leading coefficients match
            assert 2 * n_h + n_h * n_h * w == 0
            assert prod.coeffs.get(ci, 0) == 0
        for ci in set(a.maximal_types) ^ set(b.maximal_types):
            owner = a if ci in a.maximal_types else b
            other = b if owner is a else a
            above = set(lattice5.strictly_above(ci))
            if above & set(other.element.coeffs) - {lattice5.full_index}:
                # dominated by a proper term of the other factor: the
                # nested-maximal subcase rewrites the coefficient
                continue
            assert prod.coeffs.get(ci, 0) == owner.element.coeffs[ci]


# ---------------------------------------------------------------------------
# linear map degrees from spectra
# ---------------------------------------------------------------------------

def test_degree_of_positive_spectrum(lattice5):
    entries = analytic_spectrum(5, 1.0)
    assert all(e.value > 0 for e in entries)
    assert linear_map_degree(entries, lattice5) == BurnsideElement.one(lattice5)


def test_degree_stability_in_subcritical_window(lattice5):
    crit = critical_set(5)
    for alpha in (0.2, 0.8, 1.4, 1.9, crit.values[1] - 1e-3):
        entries = analytic_spectrum(5, alpha)
        assert linear_map_degree(entries, lattice5) == BurnsideElement.one(lattice5)


def test_degree_below_zero_sign_pattern(lattice5):
    # just below zero every family is negative: wedge, sym0, both copies of
    # the standard family that cross at 0, and the trivial minus branch, so
    # the product is deg_hook * deg_tworow * deg_std^2 * deg_triv
    degs = _degrees(lattice5)
    for alpha in (-0.05, -0.1, -0.15):
        entries = analytic_spectrum(5, alpha)
        got = linear_map_degree(entries, lattice5)
        manual = (
            degs[(3, 1, 1)].element
            * degs[(3, 2)].element
            * degs[(4, 1)].element
            * degs[(4, 1)].element
            * degs[(5,)].element
        )
        assert got == manual
        # involution + deg_triv = -(S5) collapse the product
        assert got == -1 * (degs[(3, 1, 1)].element * degs[(3, 2)].element)


def test_degree_rejects_zero_eigenvalue(lattice5):
    entries = analytic_spectrum(5, 0.0)
    with pytest.raises(DomainError, match="degree undefined"):
        linear_map_degree(entries, lattice5)


# ---------------------------------------------------------------------------
# bifurcation invariants
# ---------------------------------------------------------------------------

def test_k5_reference_comparison(lattice5):
    degrees, invariants = all_invariants(5, lattice5)
    report = compare_k5(lattice5, degrees, invariants)
    assert report["expansions_ok"]
    assert report["maximal_ok"]
    assert report["ok"]
    assert report["name_map"]["D3"] == "S3"


def test_invariant_structure_k5(lattice5):
    degrees, invariants = all_invariants(5, lattice5)
    one = BurnsideElement.one(lattice5)
    d_hook = degrees[(3, 1, 1)].element
    d_two = degrees[(3, 2)].element
    d_std = degrees[(4, 1)].element
    d_triv = degrees[(5,)].element
    assert invariants[0].element == one - d_hook * d_two * d_std
    assert invariants[1].element == d_hook * d_two * d_std - d_hook * d_two
    assert invariants[2].element == 2 * (d_hook * d_two)
    assert invariants[2].element == d_hook * d_two * (one - d_triv)


def test_invariant_telescoping(lattice5):
    _, invariants = all_invariants(5, lattice5)
    for prev, nxt in zip(invariants, invariants[1:]):
        assert nxt.degree_below == prev.degree_above


def test_invariants_nonzero_and_maximal_k4(lattice4):
    _, invariants = all_invariants(4, lattice4)
    assert all(inv.nonzero() for inv in invariants)
    last = invariants[2]
    assert [lattice4.classes[i].label for i in last.maximal_types] == ["S4"]


def test_invariant_critical_values_align(lattice5):
    crit = critical_set(5)
    _, invariants = all_invariants(5, lattice5)
    for inv, value in zip(invariants, crit.values):
        assert inv.critical_value == value


def test_invariant_input_validation(lattice5):
    with pytest.raises(DomainError):
        bifurcation_invariant(5, 3, lattice5)
    with pytest.raises(DomainError):
        bifurcation_invariant(4, 0, lattice5)


# ---------------------------------------------------------------------------
# maximal orbit types
# ---------------------------------------------------------------------------

def test_maximal_orbit_types_basics(lattice5):
    full = BurnsideElement(lattice5, {lattice5.full_index: -1})
    assert maximal_orbit_types(full, lattice5) == [lattice5.full_index]
    zero = BurnsideElement.zero(lattice5)
    assert maximal_orbit_types(zero, lattice5) == []


def test_maximal_types_of_invariants_k5(lattice5):
    _, invariants = all_invariants(5, lattice5)
    labels = [
        sorted(lattice5.classes[i].label for i in inv.maximal_types)
        for inv in invariants
    ]
    assert labels[0] == ["D5", "S4", "Z6"]
    assert labels[1] == ["D6", "S4"]
    assert labels[2] == ["S5"]


# ---------------------------------------------------------------------------
# report payloads
# ---------------------------------------------------------------------------

def _passed(checks):
    return {c["name"]: c["passed"] for c in checks}


def test_invariants_payload_k5(lattice5):
    results, checks = invariants_payload(5, lattice5)
    passed = _passed(checks)
    assert results["basic_degrees"] and results["invariants"]   # exact ring part
    assert critical_ordering(5).ok
    values = [inv["critical_value"] for inv in results["invariants"]]
    assert min(v for v in values if v > 0) > 1.0                # engineering regime
    assert passed["invariants_nonzero"]
    assert passed["involution"]
    assert critical_set(5).trivial_zero_at_origin
    assert sorted(results["invariants"][0]["degenerating"]) == ["3/1/1", "3/2", "4/1"]


def test_invariants_payload_k4(lattice4):
    results, checks = invariants_payload(4, lattice4)
    assert results["basic_degrees"] and results["invariants"]
    assert _passed(checks)["invariants_nonzero"]
    assert len(results["invariants"]) == 3


@pytest.mark.slow
def test_invariants_payload_k6(lattice6):
    results, checks = invariants_payload(6, lattice6)
    passed = _passed(checks)
    assert results["basic_degrees"] and results["invariants"]
    assert passed["involution"]
    assert passed["invariants_nonzero"]
    for inv in results["invariants"]:
        assert inv["maximal_types"]


def test_bifurcation_report_capacity():
    rep = bifurcation_report(8)
    assert rep["ring_computation"] == "capacity"
    assert "capacity_notice" in rep
    assert rep["engineering_regime_subcritical"]
    with pytest.raises(DomainError):
        bifurcation_report(6)   # exact widths go through invariants_payload


def test_bifurcation_capacity_error(lattice5):
    with pytest.raises(CapacityError):
        bifurcation_invariant(7, 0, lattice5)
