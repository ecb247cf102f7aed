"""Comparison of computed width-5 objects against the frozen reference data.

The reference expansions name subgroup classes with conventional symbols
(Z_n, D_n, V4, S4, ...) that identify conjugacy classes, not abstract
isomorphism types: S_5 has two order-2 classes, two Klein classes, and two
order-6 nonabelian classes.  The correspondence between those symbols and
the lattice classes is therefore inferred, not assumed: candidate classes
are filtered by order and structure (cyclic and even read off each class's
cycle-type counts, never its label), and one product search runs over the
candidate lists, labels sorted by name and then stably by candidate count.
It scores each injective assignment by the number of reference expansions
it reproduces as exact coefficient multisets; the first assignment, in that
order, with the highest score is selected and published with the report.
"""

from __future__ import annotations

import itertools
import json
import math
from importlib import resources

from .burnside import BurnsideElement, SubgroupClass, SubgroupLattice, compose
from .degrees import BasicDegree, BifurcationInvariant
from .symrep import character_table, decompose_diag_square, diag_square_character


def load_golden() -> dict:
    with resources.files("symbreak").joinpath("data/golden_k5.json").open("r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# structural candidate filters
# ---------------------------------------------------------------------------

def _is_cyclic(cls: SubgroupClass) -> bool:
    # some element's order, the lcm of its cycle lengths, is |H|
    return any(math.lcm(*t) == cls.order for t in cls.cycle_type_counts)


def _is_abelian(cls: SubgroupClass) -> bool:
    elems = list(cls.representative)
    return all(compose(a, b) == compose(b, a) for a in elems for b in elems)


def _candidates(label: str, order: int, lattice: SubgroupLattice) -> list[int]:
    out = []
    for cls in lattice.classes:
        if cls.order != order:
            continue
        if label.startswith("Z"):
            if not _is_cyclic(cls):
                continue
        elif label == "V4" or label == "D2":
            if not (_is_abelian(cls) and not _is_cyclic(cls)):
                continue
        elif label == "D1":
            pass  # any order-2 class
        elif label.startswith("D"):
            if _is_abelian(cls):
                continue
        elif label.startswith("A"):
            # alternating: every element even, k minus its number of cycles
            if cls.order not in (12, 60) or any((sum(t) - len(t)) % 2 for t in cls.cycle_type_counts):
                continue
        out.append(cls.index)
    return out


def _display_targets(golden: dict) -> dict[str, dict[str, int]]:
    targets = {}
    for key, entry in golden["basic_degrees"].items():
        targets[f"degree_{key}"] = entry["terms"]
    for key, entry in golden["invariants"].items():
        targets[f"invariant_{key}"] = entry["terms"]
    return targets


def infer_name_map(
    lattice: SubgroupLattice,
    computed: dict[str, BurnsideElement],
    golden: dict,
) -> tuple[dict[str, int], dict[str, bool]]:
    """(label -> class, per-display verdicts) of the first injective
    assignment, in candidate order, reproducing the most reference
    expansions exactly.  computed maps display keys (degree_hook, ...,
    invariant_at_zero, ...) to Burnside elements."""
    targets = _display_targets(golden)
    labels = sorted({lab for terms in targets.values() for lab in terms})
    orders = golden["label_orders"]
    cand = {lab: _candidates(lab, orders[lab], lattice) for lab in labels}
    labels.sort(key=lambda lab: len(cand[lab]))

    best = None
    for choice in itertools.product(*(cand[lab] for lab in labels)):
        if len(set(choice)) < len(choice):
            continue
        assign = dict(zip(labels, choice))
        per = {key: key in computed
               and computed[key].coeffs == {assign[lab]: c for lab, c in terms.items()}
               for key, terms in targets.items()}
        if best is None or sum(per.values()) > sum(best[1].values()):
            best = assign, per
    if best is None:
        raise RuntimeError("no injective label assignment exists")
    return best


# ---------------------------------------------------------------------------
# full k = 5 comparison
# ---------------------------------------------------------------------------

def compare_k5(
    lattice: SubgroupLattice,
    degrees: dict[tuple, BasicDegree],
    invariants: list[BifurcationInvariant],
) -> dict:
    """Match the four basic degrees and three invariants against the frozen
    expansions; returns the inferred name map, per-display verdicts, maximal
    orbit-type comparisons, and any repair notes from the reference data."""
    golden = load_golden()
    degree_of = {key: degrees[tuple(entry["partition"])]
                 for key, entry in golden["basic_degrees"].items()}
    # each invariant by the factors degenerating at its critical value
    by_factors = {tuple(inv.labels): inv for inv in invariants}
    invariant_of = {key: by_factors[tuple(map(tuple, entry["degenerating"]))]
                    for key, entry in golden["invariants"].items()}
    computed = {f"degree_{key}": bd.element for key, bd in degree_of.items()}
    for key, inv in invariant_of.items():
        computed[f"invariant_{key}"] = inv.element

    label_to_class, per_display = infer_name_map(lattice, computed, golden)
    inv_label = {ci: lab for lab, ci in label_to_class.items()}

    def to_labels(indices: list[int]) -> list[str]:
        return sorted(inv_label.get(i, lattice.classes[i].label) for i in indices)

    maximal_checks = {}
    for key, bd in degree_of.items():
        got = to_labels(bd.maximal_types)
        want = sorted(golden["basic_degrees"][key]["maximal"])
        maximal_checks[f"degree_{key}"] = {
            "computed": got,
            "reference": want,
            "equal": got == want,
        }
    for key, inv in invariant_of.items():
        got = to_labels(inv.maximal_types)
        marked = sorted(golden["invariants"][key]["marked_maximal"])
        maximal_checks[f"invariant_{key}"] = {
            "computed": got,
            "reference_marked": marked,
            "marked_subset_of_computed": set(marked) <= set(got),
            "equal": got == marked,
        }

    notes = {}
    for key, entry in golden["basic_degrees"].items():
        if "repair" in entry:
            notes[f"degree_{key}"] = entry["repair"]
    for key, entry in golden["invariants"].items():
        if "note" in entry:
            notes[f"invariant_{key}"] = entry["note"]

    expansions_ok = all(per_display.values())
    marked_ok = all(
        entry.get("equal", False) or entry.get("marked_subset_of_computed", False)
        for entry in maximal_checks.values()
    )
    return {
        "name_map": {lab: lattice.classes[ci].label
                     for lab, ci in sorted(label_to_class.items())},
        "displays_matched": per_display,
        "expansions_ok": expansions_ok,
        "maximal_checks": maximal_checks,
        "maximal_ok": marked_ok,
        "notes": notes,
        "ok": expansions_ok and marked_ok,
    }


def compare_character_table() -> dict:
    """Entrywise comparison of character_table(5) against the published
    7 x 7 table, its class sizes, the permutation-character row, and the
    stated decomposition of R^25."""
    ref = load_golden()["character_table"]
    table = character_table(5)
    mismatches = []
    for row_label, eta, row in zip(ref["row_labels"], ref["row_partitions"], ref["values"]):
        mine = table.character(tuple(eta))
        for ct, want in zip(ref["column_cycle_types"], row):
            got = mine[tuple(sorted(ct, reverse=True))]
            if got != want:
                mismatches.append({"row": row_label, "class": ct, "got": got, "want": want})
    sizes_ok = [
        table.class_sizes[table.cycle_types.index(tuple(sorted(ct, reverse=True)))]
        for ct in ref["column_cycle_types"]
    ] == ref["class_sizes"]
    chi_v = diag_square_character(5)
    chi_v_ok = [chi_v[tuple(sorted(ct, reverse=True))] for ct in ref["column_cycle_types"]] == ref["chi_V"]
    mults = decompose_diag_square(5)
    label_of = dict(zip(map(tuple, ref["row_partitions"]), ref["row_labels"]))
    decomposition = {label_of[eta]: m for eta, m in mults.items()}
    decomp_ok = decomposition == ref["decomposition"]
    return {
        "entries_ok": not mismatches,
        "mismatches": mismatches,
        "class_sizes_ok": sizes_ok,
        "chi_V_ok": chi_v_ok,
        "decomposition": decomposition,
        "decomposition_ok": decomp_ok,
        "ok": not mismatches and sizes_ok and chi_v_ok and decomp_ok,
    }
