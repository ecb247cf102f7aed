"""Partition/character machinery for S_k.

Characters are computed by the Murnaghan-Nakayama rule on beta-sets (James
& Kerber, The Representation Theory of the Symmetric Group, 1981, 2.4 and
2.7): write eta as the beta-set {eta_j + r - 1 - j : j < r}, r = len(eta),
and remove the cycles of the class one at a time.  Removing an m-cycle
moves one bead b down to a free place b - m, with sign (-1)^(beads
strictly between), and the character is the signed sum over every such move
of the character of the smaller partition on the remaining cycles; the
empty partition on no cycles has value 1.  All values are exact integers.
Everything downstream (closed two-row/hook forms, the isotypic
decomposition of R^{k^2} under the diagonal action, fixed-space
dimensions) is checked against this one primitive.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapacityError, ConsistencyError, DomainError

Partition = tuple[int, ...]

MAX_FROBENIUS_N = 12


# ---------------------------------------------------------------------------
# partitions and cycle types
# ---------------------------------------------------------------------------

def validate_partition(eta) -> Partition:
    eta = tuple(int(x) for x in eta)
    if not eta or any(x < 1 for x in eta):
        raise DomainError(f"partition parts must be positive: {eta}")
    if any(a < b for a, b in zip(eta, eta[1:])):
        raise DomainError(f"partition parts must be weakly decreasing: {eta}")
    return eta


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, descending lexicographic: (n) first, (1^n) last."""
    out: list[Partition] = []

    def rec(rest: int, maxpart: int, prefix: tuple[int, ...]):
        if rest == 0:
            out.append(prefix)
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, prefix + (p,))

    rec(n, n, ())
    return out


def conjugate_partition(eta: Partition) -> Partition:
    eta = validate_partition(eta)
    return tuple(sum(1 for p in eta if p > j) for j in range(eta[0]))


def cycle_counts(ctype: Partition) -> dict[int, int]:
    """Cycle type as a map length -> count (i_j)."""
    counts: dict[int, int] = {}
    for c in ctype:
        counts[c] = counts.get(c, 0) + 1
    return counts


def class_size(ctype: Partition) -> int:
    """|C_i| = n! / prod_j j^{i_j} i_j!"""
    n = sum(ctype)
    denom = 1
    for j, ij in cycle_counts(ctype).items():
        denom *= j**ij * math.factorial(ij)
    return math.factorial(n) // denom


def moved_points(ctype: Partition) -> int:
    return sum(c for c in ctype if c > 1)


def sorted_cycle_types(n: int) -> list[Partition]:
    """Conjugacy classes ordered by (moved points, lexicographic)."""
    return sorted(partitions_of(n), key=lambda t: (moved_points(t), t))


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _frobenius_cached(eta: Partition, ctype: Partition) -> int:
    # the Murnaghan-Nakayama step of the module docstring for m = ctype[0];
    # the cache shares each (mu, ctype suffix) value between branches
    if not ctype:
        return 1
    r = len(eta)
    beta = {eta[j] + r - 1 - j for j in range(r)}
    m = ctype[0]
    total = 0
    for b in beta:
        if b >= m and b - m not in beta:
            moved = sorted(beta - {b} | {b - m}, reverse=True)
            mu = tuple(x - (r - 1 - j) for j, x in enumerate(moved))
            sign = -1 if sum(b - m < x < b for x in beta) % 2 else 1
            total += sign * _frobenius_cached(tuple(p for p in mu if p), ctype[1:])
    return total


def frobenius_character(eta, ctype) -> int:
    """Exact irreducible character value chi_eta on the class of cycle type
    ctype, both partitions of the same n <= 12."""
    eta = validate_partition(eta)
    ctype = validate_partition(ctype)
    n = sum(eta)
    if n != sum(ctype):
        raise DomainError(f"partition sizes differ: {eta} vs {ctype}")
    if n > MAX_FROBENIUS_N:
        raise CapacityError(f"exact characters capped at n={MAX_FROBENIUS_N}")
    return _frobenius_cached(eta, ctype)


# ---------------------------------------------------------------------------
# closed forms, dimensions
# ---------------------------------------------------------------------------

_CLOSED_FORM_SHAPES = ("top", "standard", "two-row", "hook")


def closed_form_character(which: str, ctype) -> int:
    """The four closed-form characters, by shape of the labeling partition:

    top       eta=(k)        -> 1
    standard  eta=(k-1,1)    -> i1 - 1
    two-row   eta=(k-2,2)    -> (i1-1)(i1-2)/2 + i2 - 1
    hook      eta=(k-2,1,1)  -> (i1-1)(i1-2)/2 - i2
    """
    ctype = validate_partition(ctype)
    counts = cycle_counts(ctype)
    i1, i2 = counts.get(1, 0), counts.get(2, 0)
    if which == "top":
        return 1
    if which == "standard":
        return i1 - 1
    if which == "two-row":
        val2 = (i1 - 1) * (i1 - 2) // 2 + i2 - 1
        return val2
    if which == "hook":
        return (i1 - 1) * (i1 - 2) // 2 - i2
    raise DomainError(f"unknown closed form {which!r}; expected one of {_CLOSED_FORM_SHAPES}")


def closed_form_partition(which: str, k: int) -> Partition:
    if k < 4:
        raise DomainError("two-row/hook closed forms need k >= 4")
    return {
        "top": (k,),
        "standard": (k - 1, 1),
        "two-row": (k - 2, 2),
        "hook": (k - 2, 1, 1),
    }[which]


def hook_dimension(eta) -> int:
    """n! over the product of hook lengths."""
    eta = validate_partition(eta)
    n = sum(eta)
    conj = conjugate_partition(eta)
    prod = 1
    for i, row in enumerate(eta):
        for j in range(row):
            prod *= (row - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(n) // prod


# ---------------------------------------------------------------------------
# class functions on S_k and inner products
# ---------------------------------------------------------------------------

ClassFunction = dict[Partition, int]


@lru_cache(maxsize=None)
def _irreducible_character_cached(eta: Partition) -> tuple[tuple[Partition, int], ...]:
    n = sum(eta)
    return tuple((c, frobenius_character(eta, c)) for c in sorted_cycle_types(n))


def irreducible_character(eta: Partition) -> ClassFunction:
    eta = validate_partition(eta)
    return dict(_irreducible_character_cached(eta))


def inner_product(f: ClassFunction, g: ClassFunction, n: int) -> Fraction:
    total = sum(class_size(c) * f[c] * g[c] for c in sorted_cycle_types(n))
    return Fraction(total, math.factorial(n))


def decompose_class_function(f: ClassFunction, n: int) -> dict[Partition, int]:
    """Multiplicities of each irreducible in f; asserts integrality."""
    out: dict[Partition, int] = {}
    for eta in partitions_of(n):
        m = inner_product(f, irreducible_character(eta), n)
        if m.denominator != 1:
            raise ConsistencyError(f"non-integral multiplicity {m} at {eta}")
        if m:
            out[eta] = int(m)
    return out


def diag_square_character(k: int) -> ClassFunction:
    """Character of R^{k^2} under the diagonal action: i1(g)^2."""
    out: ClassFunction = {}
    for c in sorted_cycle_types(k):
        i1 = cycle_counts(c).get(1, 0)
        out[c] = i1 * i1
    return out


def decompose_diag_square(k: int) -> dict[Partition, int]:
    """Isotypic multiplicities of R^{k^2}; {top:2, standard:3, two-row:1, hook:1}
    for every k >= 4, but computed from inner products, never hard-coded."""
    if k < 4:
        raise DomainError("the uniform decomposition needs k >= 4")
    mults = decompose_class_function(diag_square_character(k), k)
    total = sum(m * hook_dimension(eta) for eta, m in mults.items())
    if total != k * k:
        raise ConsistencyError(f"decomposition dimensions sum to {total}, want {k * k}")
    return mults


# ---------------------------------------------------------------------------
# character table
# ---------------------------------------------------------------------------

@dataclass
class CharacterTable:
    k: int
    partitions: list[Partition]          # row order: descending lexicographic
    cycle_types: list[Partition]         # column order: (moved points, lex)
    class_sizes: list[int]
    values: list[list[int]]              # values[row][col]

    def row(self, eta: Partition) -> list[int]:
        return self.values[self.partitions.index(validate_partition(eta))]

    def character(self, eta: Partition) -> ClassFunction:
        r = self.row(eta)
        return {c: r[i] for i, c in enumerate(self.cycle_types)}

    def check_orthogonality(self) -> None:
        n_fact = math.factorial(self.k)
        for a, ra in enumerate(self.values):
            for b, rb in enumerate(self.values):
                dot = sum(sz * x * y for sz, x, y in zip(self.class_sizes, ra, rb))
                want = n_fact if a == b else 0
                if dot != want:
                    raise ConsistencyError(
                        f"row orthogonality fails at {self.partitions[a]},{self.partitions[b]}"
                    )


@lru_cache(maxsize=None)
def character_table(k: int) -> CharacterTable:
    """Full integer character table of S_k, 2 <= k <= 8."""
    if not 2 <= k <= 8:
        raise CapacityError("character_table supports 2 <= k <= 8")
    parts = partitions_of(k)
    ctypes = sorted_cycle_types(k)
    sizes = [class_size(c) for c in ctypes]
    if sum(sizes) != math.factorial(k):
        raise ConsistencyError("class sizes do not sum to k!")
    values = [[frobenius_character(eta, c) for c in ctypes] for eta in parts]
    return CharacterTable(k=k, partitions=parts, cycle_types=ctypes,
                          class_sizes=sizes, values=values)


# ---------------------------------------------------------------------------
# fixed spaces under subgroups
# ---------------------------------------------------------------------------

def fixed_space_dim(chi: ClassFunction, subgroup_elements) -> int:
    """dim V^H = (1/|H|) sum_{h in H} chi(h) for a character chi of S_k.

    chi is a class function keyed by cycle type; subgroup_elements is any
    iterable of permutation tuples.  The average is fixed_dim_from_counts
    on their cycle-type counts.  No command calls it: it stays as the
    tests' reference for degrees.fixed_dims_for, which reads the counts
    each lattice class keeps, and as a span the benchmark tracer names.
    """
    from .burnside import cycle_type

    return fixed_dim_from_counts(chi, Counter(map(cycle_type, subgroup_elements)))


def fixed_dim_from_counts(chi: ClassFunction, counts: dict[Partition, int]) -> int:
    """dim V^H from the number of elements of H of each cycle type
    (SubgroupClass.cycle_type_counts).  A non-integer or negative average
    means the character and group data do not belong together.
    """
    order = sum(counts.values())
    if not order:
        raise DomainError("empty subgroup")
    total = sum(chi[c] * n for c, n in counts.items())
    if total % order:
        raise ConsistencyError(f"character average {total}/{order} is not an integer")
    dim = total // order
    if dim < 0:
        raise ConsistencyError(f"negative fixed-space dimension {dim}")
    return dim

