"""Equivariant basic degrees and bifurcation invariants over A(S_k).

The basic degree of an irreducible V is determined by its marks: restricted
to the K-fixed subspace, minus-identity on the unit ball has Brouwer degree
(-1)^{dim V^K}, so the coefficients solve the descending recursion

    n_K = ((-1)^{dim V^K} - sum_{K<L} n_L n(K,L) |W(L)|) / |W(K)|

with exact divisions.  Basic degrees are involutions and their own inverses;
products of them assemble the jump invariants across each critical leaky
parameter: at a critical value the invariant is (prior degree) * ((S_k) -
degree of the newly degenerate isotypic factors), the prior degree being the
product of basic degrees of all factors that degenerated at smaller critical
values.
"""

from __future__ import annotations
from dataclasses import dataclass, field

from .burnside import BurnsideElement, SubgroupLattice, solve_from_marks
from .errors import CapacityError, ConsistencyError, DomainError
from .spectrum import SpectrumEntry, critical_set
from .symrep import (
    Partition,
    closed_form_partition,
    fixed_space_dim,
    hook_dimension,
    irreducible_character,
    validate_partition,
)

MAX_EXACT_K = 6


# ---------------------------------------------------------------------------
# basic degrees
# ---------------------------------------------------------------------------

@dataclass
class BasicDegree:
    irrep: Partition
    element: BurnsideElement
    fixed_dims: dict[int, int]          # class index -> dim V^K
    maximal_types: list[int] = field(default_factory=list)

    def labels(self) -> dict[str, int]:
        lat = self.element.lattice
        return {lat.classes[i].label: c for i, c in sorted(self.element.coeffs.items())}


def fixed_dims_for(eta: Partition, lattice: SubgroupLattice) -> dict[int, int]:
    chi = irreducible_character(validate_partition(eta))
    return {
        c.index: fixed_space_dim(chi, c.representative) for c in lattice.classes
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
        irrep=eta,
        element=element,
        fixed_dims=dims,
        maximal_types=maximal,
    )


def maximal_orbit_types(x: BurnsideElement, lattice: SubgroupLattice) -> list[int]:
    """Support classes maximal under the containment order."""
    support = sorted(x.coeffs)
    out = []
    for i in support:
        if not any(j != i and lattice.leq.get((i, j), False) for j in support):
            out.append(i)
    return out


@dataclass
class LeadingCoefficientReport:
    irrep: Partition
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
    return LeadingCoefficientReport(irrep=bd.irrep, entries=entries, violations=violations)


# ---------------------------------------------------------------------------
# degrees of linear maps from spectra
# ---------------------------------------------------------------------------

def linear_map_degree(
    spectrum: list[SpectrumEntry],
    lattice: SubgroupLattice,
    degrees: dict[Partition, BasicDegree] | None = None,
    multiplicities: dict[Partition, int] | None = None,
) -> BurnsideElement:
    """Degree of a symmetric isomorphism with the given spectrum.

    Each entry carries whole irreducible copies (eigenspace dimension is a
    multiple of the irreducible dimension), so the degree is the product
    over negative eigenvalues of the basic degree of the entry's label, once
    per copy.  Zero eigenvalues mean no isomorphism; that is a degeneracy
    error naming the offending family.  When the isotypic multiplicities of
    the ambient space are supplied they bound the per-label copy counts.
    No command calls it; it stays as the degree-stability check of the
    subcritical window.
    """
    if degrees is None:
        degrees = {}
    seen: dict[Partition, int] = {}
    out = BurnsideElement.one(lattice)
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
        seen[entry.label] = seen.get(entry.label, 0) + copies
        if multiplicities is not None and seen[entry.label] > multiplicities[entry.label]:
            raise ConsistencyError(
                f"{seen[entry.label]} copies of {entry.label} exceed the isotypic multiplicity"
            )
        if entry.value < 0:
            bd = degrees.get(entry.label)
            if bd is None:
                bd = basic_degree(entry.label, lattice)
                degrees[entry.label] = bd
            for _ in range(copies):
                out = out * bd.element
    return out


# ---------------------------------------------------------------------------
# bifurcation invariants
# ---------------------------------------------------------------------------

@dataclass
class BifurcationInvariant:
    critical_value: float
    critical_index: int
    labels: list[Partition]              # isotypic factors degenerating here
    element: BurnsideElement
    maximal_types: list[int]
    degree_below: BurnsideElement        # degree on the small-alpha side
    degree_above: BurnsideElement        # degree_below * prod(basic degrees here)

    def nonzero(self) -> bool:
        return not self.element.is_zero()


def bifurcation_invariant(
    k: int,
    which: int,
    lattice: SubgroupLattice,
    degrees: dict[Partition, BasicDegree] | None = None,
) -> BifurcationInvariant:
    """Invariant omega at the which-th critical value (0-based, increasing).

    omega = deg_below - deg_above = deg_below * ((S_k) - prod of basic
    degrees of the factors degenerating at this value); deg_below telescopes:
    it is the product of the basic degrees of every factor that degenerated
    at a smaller critical value, starting from (S_k) below the first one.
    """
    if k < 4:
        raise DomainError("k >= 4 required")
    if k > MAX_EXACT_K:
        raise CapacityError(f"exact ring arithmetic capped at k={MAX_EXACT_K}")
    if lattice.k != k:
        raise DomainError("lattice was built for a different k")
    crit = critical_set(k)
    lab_seq = [sorted(group) for group in crit.labels]
    if not 0 <= which < len(lab_seq):
        raise DomainError(f"critical index {which} out of range 0..{len(lab_seq) - 1}")
    if degrees is None:
        degrees = {}

    def deg_of(eta: Partition) -> BurnsideElement:
        if eta not in degrees:
            degrees[eta] = basic_degree(eta, lattice)
        return degrees[eta].element

    below = BurnsideElement.one(lattice)
    for prior in lab_seq[:which]:
        for eta in prior:
            below = below * deg_of(eta)
    here = BurnsideElement.one(lattice)
    for eta in lab_seq[which]:
        here = here * deg_of(eta)
    above = below * here
    omega = below - above
    return BifurcationInvariant(
        critical_value=crit.values[which],
        critical_index=which,
        labels=lab_seq[which],
        element=omega,
        maximal_types=maximal_orbit_types(omega, lattice),
        degree_below=below,
        degree_above=above,
    )


def all_invariants(
    k: int, lattice: SubgroupLattice
) -> tuple[dict[Partition, BasicDegree], list[BifurcationInvariant]]:
    degrees: dict[Partition, BasicDegree] = {}
    for shape in ("hook", "two-row", "standard", "top"):
        eta = closed_form_partition(shape, k)
        degrees[eta] = basic_degree(eta, lattice)
    invariants = [bifurcation_invariant(k, i, lattice, degrees) for i in range(3)]
    return degrees, invariants


# ---------------------------------------------------------------------------
# report payloads
# ---------------------------------------------------------------------------

def invariants_payload(k: int, lattice: SubgroupLattice) -> tuple[dict, list[dict]]:
    """(results, checks) of the exact invariants report at width k: class
    table, basic degrees, invariants, their involution, leading-coefficient
    and nonzero checks, and at k = 5 the golden comparison."""
    from .golden import compare_character_table, compare_k5  # golden imports degrees

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
    invariant_block = []
    for inv in invariants:
        invariant_block.append({
            "critical_value": inv.critical_value,
            "degenerating": ["/".join(map(str, eta)) for eta in inv.labels],
            "expansion": {lattice.classes[i].label: c
                          for i, c in sorted(inv.element.coeffs.items())},
            "maximal_types": [lattice.classes[i].label for i in inv.maximal_types],
            "nonzero": inv.nonzero(),
        })

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
        {"name": "involution", "passed": involution_ok, "hard": True, "detail": None},
        {"name": "leading_coefficients", "passed": leading_ok, "hard": True, "detail": None},
        {"name": "invariants_nonzero",
         "passed": all(inv.nonzero() for inv in invariants), "hard": True, "detail": None},
    ]
    if k == 5:
        comparison = compare_k5(lattice, degrees, invariants)
        table_cmp = compare_character_table()
        results["reference_comparison"] = comparison
        results["character_table_comparison"] = {
            k2: v for k2, v in table_cmp.items() if k2 != "mismatches"
        }
        checks.append({"name": "reference_expansions", "passed": comparison["ok"],
                       "hard": True, "detail": {"name_map": comparison["name_map"]}})
        checks.append({"name": "reference_character_table", "passed": table_cmp["ok"],
                       "hard": True, "detail": None})
    return results, checks


def bifurcation_report(k: int) -> dict:
    """Spectral bifurcation summary for a width above MAX_EXACT_K.

    The critical set, its ordering and the subcritical engineering regime
    are exact at every width; the Burnside-ring part is replaced by a
    capacity notice (invariants_payload covers the exact widths).
    """
    if k <= MAX_EXACT_K:
        raise DomainError(f"k > {MAX_EXACT_K} required; exact widths use invariants_payload")
    crit = critical_set(k)       # raises ConsistencyError on a violated ordering
    return {
        "k": k,
        "critical_values": list(crit.values),
        "ordering_ok": True,
        "multi_mode_degeneracy_at_zero": [list(eta) for eta in sorted(crit.labels[0])],
        "trivial_family_also_degenerate_at_zero": True,
        "nonnegative_critical_set": all(v >= 0 for v in crit.values),
        "min_positive_critical_value": crit.values[1],
        "engineering_regime_subcritical": crit.subcritical_regime,
        "ring_computation": "capacity",
        "capacity_notice": (
            f"exact Burnside-ring arithmetic is available for k <= {MAX_EXACT_K}; "
            "spectral conclusions above are still exact"
        ),
    }
