"""Equivariant basic degrees and bifurcation invariants over A(S_k).

The basic degree of an irreducible V is determined by its marks: restricted
to the K-fixed subspace, minus-identity on the unit ball has Brouwer degree
(-1)^{dim V^K}, so the coefficients solve the descending recursion

    n_K = ((-1)^{dim V^K} - sum_{K<L} n_L n(K,L) |W(L)|) / |W(K)|

with exact divisions.  Basic degrees are involutions and their own inverses.
Marks multiply pointwise, so the jump invariant at a critical leaky parameter
has the mark vector m_below * (1 - m_here): m_here is the pointwise product
of the parity vectors of the factors degenerating there, m_below that of
every factor that degenerated at a smaller value (all ones below the first).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .burnside import MAX_LATTICE_K, BurnsideElement, SubgroupLattice, solve_from_marks
from .closed_forms import components, critical_set
from .errors import CapacityError, ConsistencyError, DomainError
from .report import check
from .symrep import (
    Partition,
    fixed_dim_from_counts,
    hook_dimension,
    irreducible_character,
    validate_partition,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    from .spectrum import SpectrumEntry


# ---------------------------------------------------------------------------
# basic degrees
# ---------------------------------------------------------------------------

class BasicDegree(NamedTuple):
    element: BurnsideElement
    fixed_dims: dict[int, int]          # class index -> dim V^K
    marks: list[int]                    # class index -> (-1)^{dim V^K}
    maximal_types: list[int]

    def labels(self) -> dict[str, int]:
        lat = self.element.lattice
        return {lat.classes[i].label: c for i, c in sorted(self.element.coeffs.items())}


def fixed_dims_for(eta: Partition, lattice: SubgroupLattice) -> dict[int, int]:
    """dim V^K for every class K, from the cycle types each class counted
    once for the lattice."""
    chi = irreducible_character(validate_partition(eta))
    return {
        c.index: fixed_dim_from_counts(chi, c.cycle_type_counts) for c in lattice.classes
    }


def basic_degree(eta, lattice: SubgroupLattice) -> BasicDegree:
    """Gradient basic degree of the irreducible labeled by eta, in A(S_k)."""
    eta = validate_partition(eta)
    if sum(eta) != lattice.k:
        raise DomainError(f"partition {eta} does not label an S_{lattice.k} irreducible")
    dims = fixed_dims_for(eta, lattice)
    marks = [1 if dims[i] % 2 == 0 else -1 for i in range(len(lattice.classes))]
    element = solve_from_marks(lattice, marks)
    # maximal types of a basic degree are taken among the proper terms: the
    # unit coefficient at (S_k) is structural (it is the whole degree only
    # for the trivial irreducible) and sits above everything else
    proper = BurnsideElement(
        lattice,
        {i: c for i, c in element.coeffs.items() if i != lattice.full_index},
    )
    maximal = maximal_orbit_types(proper if proper.coeffs else element, lattice)
    return BasicDegree(
        element=element,
        fixed_dims=dims,
        marks=marks,
        maximal_types=maximal,
    )


def maximal_orbit_types(x: BurnsideElement, lattice: SubgroupLattice) -> list[int]:
    """Support classes maximal under the containment order."""
    return [i for i in sorted(x.coeffs)
            if not any(j in x.coeffs for j in lattice.strictly_above(i))]


class LeadingCoefficientReport(NamedTuple):
    entries: list[dict]
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def leading_coefficient_check(bd: BasicDegree, lattice: SubgroupLattice) -> LeadingCoefficientReport:
    """Leading coefficients at maximal orbit types must be -1 when |W|=2 and
    -2 when |W|=1, with odd fixed-space dimension.  The full group (S_k)
    carries the trivial fixed line and is exempt (reported, never failed)."""
    entries, violations = [], []
    for ci in bd.maximal_types:
        cls = lattice.classes[ci]
        coeff = bd.element.coeffs.get(ci, 0)
        dim = bd.fixed_dims[ci]
        entry = {
            "class": cls.label,
            "coefficient": coeff,
            "weyl_order": cls.weyl_order,
            "fixed_dim": dim,
            "exempt_full_group": ci == lattice.full_index,
        }
        entries.append(entry)
        if ci == lattice.full_index:
            continue
        expected = {2: -1, 1: -2}.get(cls.weyl_order)
        if expected is None or coeff != expected or dim % 2 == 0:
            violations.append(entry)
    return LeadingCoefficientReport(entries=entries, violations=violations)


# ---------------------------------------------------------------------------
# degrees of linear maps from spectra
# ---------------------------------------------------------------------------

def linear_map_degree(spectrum: list[SpectrumEntry], lattice: SubgroupLattice) -> BurnsideElement:
    """Degree of a symmetric isomorphism with the given spectrum.

    Each entry carries whole irreducible copies (eigenspace dimension is a
    multiple of the irreducible dimension), so the degree is the product
    over negative eigenvalues of the basic degree of the entry's label, once
    per copy: an involution, so an odd copy count multiplies in the label's
    parity vector once.  Zero eigenvalues mean no isomorphism; that is a
    degeneracy error naming the offending family.  No command calls it; it
    stays as the degree-stability check of the subcritical window.
    """
    degrees: dict[Partition, BasicDegree] = {}
    marks = [1] * len(lattice.classes)
    for entry in spectrum:
        if entry.value == 0.0:
            raise DomainError(
                f"zero eigenvalue in family {entry.formula_id}: degree undefined at criticality"
            )
        copies = entry.multiplicity // hook_dimension(entry.label)
        if entry.multiplicity % hook_dimension(entry.label):
            raise ConsistencyError(
                f"eigenspace of {entry.formula_id} is not a whole number of copies of {entry.label}"
            )
        if entry.value < 0 and copies % 2:
            if entry.label not in degrees:
                degrees[entry.label] = basic_degree(entry.label, lattice)
            marks = [a * b for a, b in zip(marks, degrees[entry.label].marks)]
    return solve_from_marks(lattice, marks)


# ---------------------------------------------------------------------------
# bifurcation invariants
# ---------------------------------------------------------------------------

class BifurcationInvariant(NamedTuple):
    critical_value: float
    labels: list[Partition]              # isotypic factors degenerating here
    element: BurnsideElement
    maximal_types: list[int]
    degree_below: BurnsideElement        # degree on the small-alpha side
    degree_above: BurnsideElement        # degree_below * prod(basic degrees here)

    def nonzero(self) -> bool:
        return not self.element.is_zero()


def all_invariants(
    k: int, lattice: SubgroupLattice
) -> tuple[dict[Partition, BasicDegree], list[BifurcationInvariant]]:
    """Basic degrees of the components(k), in that order, and the invariant at each
    critical value: one pass over the critical chain multiplies mark vectors,
    deg_below telescopes, and each reported element is one solve_from_marks."""
    if k < 4:
        raise DomainError("k >= 4 required")
    if k > MAX_LATTICE_K:
        raise CapacityError(f"exact ring arithmetic capped at k={MAX_LATTICE_K}")
    if lattice.k != k:
        raise DomainError("lattice was built for a different k")
    degrees = {eta: basic_degree(eta, lattice) for eta, _ in components(k)}
    crit = critical_set(k)
    below, degree_below = [1] * len(lattice.classes), BurnsideElement.one(lattice)
    invariants = []
    for which, group in enumerate(crit.labels):
        labels = sorted(group)
        above = below
        for eta in labels:
            above = [a * b for a, b in zip(above, degrees[eta].marks)]
        omega = solve_from_marks(lattice, [b - a for b, a in zip(below, above)])
        degree_above = solve_from_marks(lattice, above)
        invariants.append(BifurcationInvariant(
            critical_value=crit.values[which],
            labels=labels,
            element=omega,
            maximal_types=maximal_orbit_types(omega, lattice),
            degree_below=degree_below,
            degree_above=degree_above,
        ))
        below, degree_below = above, degree_above
    return degrees, invariants


# ---------------------------------------------------------------------------
# report payloads
# ---------------------------------------------------------------------------

def invariants_payload(
    k: int, lattice_for: Callable[[int], SubgroupLattice]
) -> tuple[dict, list[dict]]:
    """(results, checks) of the invariants report at width k, at every width.

    Each critical value gets an entry naming the factors degenerating there.
    Above MAX_LATTICE_K those entries, behind a capacity notice, are the
    whole report, with no checks.  At the exact widths lattice_for(k)
    supplies the lattice: each entry gains its invariant's expansion,
    maximal types and nonzero flag, and the class table, the basic degrees,
    the involution, leading-coefficient and nonzero checks and, at k = 5,
    the golden comparison join them."""
    crit = critical_set(k)       # raises ConsistencyError on a violated ordering
    invariant_block = [
        {"critical_value": value,
         "degenerating": ["/".join(map(str, eta)) for eta in sorted(group)]}
        for value, group in zip(crit.values, crit.labels)
    ]
    if k > MAX_LATTICE_K:
        notice = (f"exact Burnside-ring computation is declared up to k={MAX_LATTICE_K}; "
                  "use 'critical' for the width-independent spectral conclusions")
        return {"capacity_notice": notice, "invariants": invariant_block}, []

    lattice = lattice_for(k)
    degrees, invariants = all_invariants(k, lattice)
    one = BurnsideElement.one(lattice)

    degree_block = {}
    involution_ok = True
    leading_ok = True
    for eta, bd in degrees.items():
        square_ok = (bd.element * bd.element) == one
        involution_ok &= square_ok
        lead = leading_coefficient_check(bd, lattice)
        leading_ok &= lead.ok
        degree_block["/".join(map(str, eta))] = {
            "expansion": bd.labels(),
            "maximal_types": [lattice.classes[i].label for i in bd.maximal_types],
            "squares_to_identity": square_ok,
            "leading_coefficients_ok": lead.ok,
            "leading_entries": lead.entries,
        }
    for entry, inv in zip(invariant_block, invariants):
        entry["expansion"] = {lattice.classes[i].label: c
                              for i, c in sorted(inv.element.coeffs.items())}
        entry["maximal_types"] = [lattice.classes[i].label for i in inv.maximal_types]
        entry["nonzero"] = inv.nonzero()

    results = {
        "lattice": {
            "classes": len(lattice.classes),
            "total_subgroups": lattice.total_subgroups(),
            "class_table": [
                {"label": c.label, "order": c.order,
                 "normalizer_order": c.normalizer_order, "weyl_order": c.weyl_order,
                 "conjugates": c.n_conjugates}
                for c in lattice.classes
            ],
        },
        "basic_degrees": degree_block,
        "invariants": invariant_block,
    }
    checks = [
        check("involution", involution_ok),
        check("leading_coefficients", leading_ok),
        check("invariants_nonzero", all(inv.nonzero() for inv in invariants)),
    ]
    if k == 5:
        from .golden import compare_character_table, compare_k5  # golden imports degrees

        comparison = compare_k5(lattice, degrees, invariants)
        table_cmp = compare_character_table()
        results["reference_comparison"] = comparison
        results["character_table_comparison"] = {
            k2: v for k2, v in table_cmp.items() if k2 != "mismatches"
        }
        checks.append(check("reference_expansions", comparison["ok"],
                            detail={"name_map": comparison["name_map"]}))
        checks.append(check("reference_character_table", table_cmp["ok"]))
    return results, checks
