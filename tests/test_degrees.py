import itertools
import math
import sys

import pytest

from symbreak import golden as golden_module, symrep
from symbreak.burnside import BurnsideElement, load_lattice, serialize_lattice
from symbreak.closed_forms import critical_set
from symbreak.degrees import (
    BasicDegree,
    all_invariants,
    basic_degree,
    fixed_dims_for,
    leading_coefficient_check,
    linear_map_degree,
    maximal_orbit_types,
    invariants_payload,
)
from symbreak.errors import CapacityError, DomainError
from symbreak.golden import _candidates, _display_targets, compare_k5, infer_name_map, load_golden
from symbreak.spectrum import analytic_spectrum
from symbreak.symrep import (
    fixed_space_dim,
    irreducible_character,
    partitions_of,
)


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


def test_basic_degree_is_frozen_and_equal_after_round_trip(lattice5):
    bd = basic_degree((4, 1), lattice5)
    for name in ("element", "maximal_types", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(bd, name, None)
    again = basic_degree((4, 1), load_lattice(serialize_lattice(lattice5)))
    assert again == bd and again is not bd
    assert again.labels() == bd.labels()
    assert bd._replace(maximal_types=[]) != bd
    assert BasicDegree(*bd) == bd


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


@pytest.mark.parametrize(
    "fixture", ["lattice4", "lattice5", pytest.param("lattice6", marks=pytest.mark.slow)]
)
def test_invariant_structure(fixture, request):
    # the ring-product chain, omega = deg_below * ((S_k) - prod deg_here),
    # is the reference for the mark-vector pass of all_invariants
    lattice = request.getfixturevalue(fixture)
    k = lattice.k
    hook, two, std, top = (k - 2, 1, 1), (k - 2, 2), (k - 1, 1), (k,)
    degrees, invariants = all_invariants(k, lattice)
    assert list(degrees) == [hook, two, std, top]
    assert len(invariants) == 3
    one = BurnsideElement.one(lattice)
    below = one
    for inv, group in zip(invariants, [[hook, two, std], [std], [top]]):
        here = one
        for eta in group:
            here = here * degrees[eta].element
        assert inv.labels == sorted(group)
        assert inv.degree_below == below
        assert inv.element == below * (one - here)
        assert inv.degree_above == below * here
        below = below * here


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
        all_invariants(4, lattice5)


# ---------------------------------------------------------------------------
# maximal orbit types
# ---------------------------------------------------------------------------

def test_maximal_orbit_types_basics(lattice5):
    full = BurnsideElement(lattice5, {lattice5.full_index: -1})
    assert maximal_orbit_types(full, lattice5) == [lattice5.full_index]
    zero = BurnsideElement(lattice5, {})
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
    results, checks = invariants_payload(5, lambda k: lattice5)
    passed = _passed(checks)
    assert results["basic_degrees"] and results["invariants"]   # exact ring part
    zero, mid, last = critical_set(5).values     # raises on a violated chain
    assert zero == 0.0 < mid < last
    values = [inv["critical_value"] for inv in results["invariants"]]
    assert min(v for v in values if v > 0) > 1.0                # engineering regime
    assert passed["invariants_nonzero"]
    assert passed["involution"]
    assert critical_set(5).trivial_zero_at_origin
    assert sorted(results["invariants"][0]["degenerating"]) == ["3/1/1", "3/2", "4/1"]


def test_invariants_payload_k4(lattice4):
    results, checks = invariants_payload(4, lambda k: lattice4)
    assert results["basic_degrees"] and results["invariants"]
    assert _passed(checks)["invariants_nonzero"]
    assert len(results["invariants"]) == 3
    # the entries start as the capacity report's do
    assert [list(inv)[:2] for inv in results["invariants"]] == [
        ["critical_value", "degenerating"]] * 3


@pytest.mark.slow
def test_invariants_payload_k6(lattice6):
    results, checks = invariants_payload(6, lambda k: lattice6)
    passed = _passed(checks)
    assert results["basic_degrees"] and results["invariants"]
    assert passed["involution"]
    assert passed["invariants_nonzero"]
    for inv in results["invariants"]:
        assert inv["maximal_types"]


def test_invariants_payload_capacity():
    # above the cap the report is the critical-value entries behind a
    # capacity notice, and no lattice is asked for
    def no_lattice(k):
        raise AssertionError(f"lattice_for({k}) called above the cap")

    results, checks = invariants_payload(8, no_lattice)
    assert checks == []
    assert list(results) == ["capacity_notice", "invariants"]
    assert "use 'critical'" in results["capacity_notice"]
    assert [inv["critical_value"] for inv in results["invariants"]] == list(critical_set(8).values)
    assert [inv["degenerating"] for inv in results["invariants"]] == [
        ["6/1/1", "6/2", "7/1"], ["7/1"], ["8"]]


def test_bifurcation_capacity_error(lattice5):
    with pytest.raises(CapacityError):
        all_invariants(7, lattice5)


def test_readme_quick_start():
    # the exact outputs printed in the library quick start of README.md
    import symbreak as sb

    assert sb.critical_set(5).values == (0.0, 2.2094612037138237, 3.158727282587906)
    lat = sb.build_lattice(5)
    deg = sb.basic_degree((4, 1), lat)
    assert deg.element.pretty() == "(Z1) - 4(D1) + 3(D2) + 3(S3) - 2(D6) - 2(S4) + (S5)"
    assert (deg.element * deg.element) == sb.BurnsideElement.one(lat)
    omega = sb.all_invariants(5, lat)[1][0]
    assert [lat.classes[i].label for i in omega.maximal_types] == ["Z6", "D5", "S4"]


@pytest.mark.parametrize("fixture", ["lattice4", "lattice5", "lattice6"])
def test_cycle_types_counted_once_per_class(fixture, request, monkeypatch):
    # a warm cache read, whose conjugacy check reads the counts, then the
    # invariants and the whole report, golden comparison included at k = 5:
    # each distinct permutation of the representatives is typed once in all,
    # one call per element of their union, not sum |H|
    blob = serialize_lattice(request.getfixturevalue(fixture))
    calls = []
    original = symrep.cycle_type
    for name, module in list(sys.modules.items()):
        if name.startswith("symbreak") and getattr(module, "cycle_type", None) is original:
            monkeypatch.setattr(module, "cycle_type", lambda p: calls.append(p) or original(p))
    lattice = load_lattice(blob)
    elements = len(frozenset().union(*(c.representative for c in lattice.classes)))
    assert elements == math.factorial(lattice.k) < sum(c.order for c in lattice.classes)
    assert len(set(calls)) == len(calls)
    all_invariants(lattice.k, lattice)
    assert len(calls) == elements
    all_invariants(lattice.k, lattice)
    assert len(calls) == elements
    invariants_payload(lattice.k, lambda k: lattice)
    assert len(calls) == elements
    monkeypatch.undo()
    # the counts give the per-element averages for every irreducible
    for eta in partitions_of(lattice.k):
        chi = irreducible_character(eta)
        assert fixed_dims_for(eta, lattice) == {
            c.index: fixed_space_dim(chi, c.representative) for c in lattice.classes}


# ---------------------------------------------------------------------------
# width-5 name map and maximal orbit types against the replaced searches
# ---------------------------------------------------------------------------

def _depth_first_name_map(lattice, computed, golden):
    """The depth-first search infer_name_map replaced: labels by candidate
    count, each candidate in order, the first strictly better score kept."""
    targets = _display_targets(golden)
    labels = sorted({lab for terms in targets.values() for lab in terms})
    cand = {lab: _candidates(lab, golden["label_orders"][lab], lattice) for lab in labels}
    order_of = sorted(labels, key=lambda lab: len(cand[lab]))
    best = []

    def backtrack(i, assign, used):
        if i == len(order_of):
            per = {key: computed[key].coeffs == {assign[lab]: c for lab, c in terms.items()}
                   if key in computed else False
                   for key, terms in targets.items()}
            if not best or sum(per.values()) > sum(best[0][1].values()):
                best[:] = [(dict(assign), per)]
            return
        lab = order_of[i]
        for ci in cand[lab]:
            if ci not in used:
                assign[lab] = ci
                backtrack(i + 1, assign, used | {ci})
                del assign[lab]

    backtrack(0, {}, frozenset())
    return best[0]


def _golden_computed(lattice5):
    degrees, invariants = all_invariants(5, lattice5)
    golden = load_golden()
    computed = {f"degree_{key}": degrees[tuple(entry["partition"])].element
                for key, entry in golden["basic_degrees"].items()}
    for key, inv in zip(golden["invariants"], invariants):
        computed[f"invariant_{key}"] = inv.element
    return computed, golden


def test_name_map_matches_depth_first_reference(lattice5):
    computed, golden = _golden_computed(lattice5)
    got = infer_name_map(lattice5, computed, golden)
    assert got == _depth_first_name_map(lattice5, computed, golden)
    assignment, per_display = got
    assert all(per_display.values()) and len(per_display) == 7
    assert len(set(assignment.values())) == len(assignment)


def test_name_map_tie_takes_first_in_candidate_order(lattice5):
    # only the trivial degree, (S5), is known: every injective assignment
    # scores 1, and the first in candidate order wins
    computed, golden = _golden_computed(lattice5)
    computed = {"degree_trivial": computed["degree_trivial"]}
    assignment, per_display = infer_name_map(lattice5, computed, golden)
    assert per_display == {key: key == "degree_trivial" for key in _display_targets(golden)}
    assert (assignment, per_display) == _depth_first_name_map(lattice5, computed, golden)
    labels = sorted(assignment)
    cand = {lab: _candidates(lab, golden["label_orders"][lab], lattice5) for lab in labels}
    labels.sort(key=lambda lab: len(cand[lab]))
    first = next(choice for choice in itertools.product(*(cand[lab] for lab in labels))
                 if len(set(choice)) == len(choice))
    assert assignment == dict(zip(labels, first))
    # the tie is real: some label has a second candidate it could have taken
    assert any(len(cand[lab]) > 1 for lab in labels)


def test_compare_k5_pairs_invariants_by_their_degenerating_factors(lattice5, monkeypatch):
    # renamed keys in reversed order: each entry still finds its invariant
    # by its own degenerating field, not by its name or place
    golden = load_golden()
    golden["invariants"] = {f"renamed_{key}": entry
                            for key, entry in reversed(golden["invariants"].items())}
    monkeypatch.setattr(golden_module, "load_golden", lambda: golden)
    degrees, invariants = all_invariants(5, lattice5)
    report = compare_k5(lattice5, degrees, invariants)
    assert report["ok"]
    names = ["invariant_renamed_at_trivial", "invariant_renamed_at_standard",
             "invariant_renamed_at_zero"]
    assert [key for key in report["displays_matched"] if key.startswith("invariant_")] == names
    assert [key for key in report["maximal_checks"] if key.startswith("invariant_")] == names
    assert report["maximal_checks"]["invariant_renamed_at_trivial"]["computed"] == ["S5"]


def _n_table_maximal_types(x, lattice):
    """The containment test maximal_orbit_types replaced, on the n_table keys."""
    support = sorted(x.coeffs)
    return [i for i in support
            if not any(j != i and (i, j) in lattice.n_table for j in support)]


@pytest.mark.parametrize("fixture", ["lattice4", "lattice5", "lattice6"])
def test_maximal_orbit_types_match_n_table_reference(fixture, request):
    lattice = request.getfixturevalue(fixture)
    degrees, invariants = all_invariants(lattice.k, lattice)
    elements = [inv.element for inv in invariants]
    for bd in degrees.values():
        proper = BurnsideElement(lattice, {i: c for i, c in bd.element.coeffs.items()
                                           if i != lattice.full_index})
        elements += [bd.element, proper]
        assert bd.maximal_types == _n_table_maximal_types(
            proper if proper.coeffs else bd.element, lattice)
    for inv in invariants:
        assert inv.maximal_types == _n_table_maximal_types(inv.element, lattice)
    for x in elements:
        assert maximal_orbit_types(x, lattice) == _n_table_maximal_types(x, lattice)
