"""Subgroup-class lattice of S_k and exact Burnside-ring arithmetic.

A lattice holds one representative per conjugacy class of subgroups of S_k
(k <= 6) and the table n(L, H) = |N(L, H)| / |N(H)| counting conjugates of L
inside H.  Its cache file stores each fact once: per class, in class order,
the normalizer order and the generators, and n(L, H) for every proper
containment L < H that _derived_rows does not give.  The rest is derived:
the index from its place in that order, the representative as the closure
of the generators and the order as its size, the Weyl order |N(H)|/|H|, the
number of conjugates k!/|N(H)|, the containment order, which is the key set
of the n table ((L) <= (H) iff n(L, H) > 0), the rows of _derived_rows, and
each class's cycle-type counts (symrep.cycle_type, which owns S_k's class
data), which those rows, the fixed-space dimensions of every irreducible
and golden's candidate filters read (counted once per class, in memory;
the reader types each distinct permutation once).
The builder and the cache reader both make their classes with
_class_records, which demands the class order (class_key) strictly and names
each class (class_name); the labels key the reported expansions.

The mark homomorphism mark_L(H) = n(L,H)|W(H)| (the table of marks) is an
injective ring map into integer vectors with the pointwise product, so a
BurnsideElement product is the pointwise product of the two mark vectors,
mapped back by the descending recursion

    n_L = (m_L - sum_{(Lt)>(L)} n(L,Lt) n_Lt |W(Lt)|) / |W(L)|

with every division asserted exact.  The lattice holds its table of marks,
made once with it (SubgroupLattice.mark_columns and mark_rows): mark_vector
sums the columns of an element's classes, and the recursion subtracts each
class's row.

Permutations are tuples of images on {0, ..., k-1}; subgroups are
frozensets of such tuples.  compose(p, q) maps q's images through p with
map, half the cost of a generator expression.  closure grows a group coset
by coset (Dimino), so a warm k = 6 read calls compose 611 times, once per
coset and generator, and forms each coset's products with one itemgetter,
where the former orbit search called compose about 8,500 times.
SubgroupClass is a named tuple, and SubgroupLattice a named tuple that also
carries its table of marks: the package imports no dataclasses, whose
import and per-class code generation a warm `invariants` process would pay
on every start (README, Start-up).  Everything here is exact integer arithmetic without numpy.  The
lattice builder and the brute-force oracles live in subgroups, which this
module does not import when it loads, so a warm read (load_lattice) and the
ring arithmetic neither compile nor run them.
"""

from __future__ import annotations

import collections
import math
import zlib
from collections.abc import Iterable
from operator import itemgetter
from typing import NamedTuple

from .errors import ConsistencyError, DomainError
from .symrep import centralizer_order, cycle_type

Perm = tuple[int, ...]

MAX_LATTICE_K = 6


def __getattr__(name: str):
    """build_lattice and _GroupTables, from subgroups (PEP 562).

    Only the outside benchmark tracer (perfbench/tracer.py) reads them here,
    to wrap its burnside.* spans; the forwarder goes with that tracer, when
    the in-package trace stream replaces it (ROADMAP item 8)."""
    if name in ("build_lattice", "_GroupTables"):
        from . import subgroups
        return getattr(subgroups, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------

def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def compose(p: Perm, q: Perm) -> Perm:
    """(p*q)(i) = p(q(i)): apply q first."""
    return tuple(map(p.__getitem__, q))


def closure(generators: list[Perm], k: int) -> frozenset[Perm]:
    """Subgroup generated by the given permutations (Dimino's algorithm;
    Butler, Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).

    The group grows one generator s at a time, from H to <H, s>, by whole
    right cosets Hx of H, starting from Hs: a coset Hx times a generator g is
    the coset H(xg), so one product xg and one membership test per coset and
    generator find every coset, and each new coset is the |H| products h*x,
    one itemgetter over x's images.  A generator already in the group is
    skipped.  Stays apart from subgroups._GroupTables.close_indices: it
    needs no group tables, which spares load_lattice the k!^2 table on a
    warm read."""
    members = {identity_perm(k)}
    gens: list[Perm] = []
    for s in generators:
        if s in members:
            continue
        gens.append(s)
        subgroup = tuple(members)   # H, the group before s
        members.update(map(itemgetter(*s), subgroup))
        reps = [s]
        for x in reps:   # grows while it is read
            for g in gens:
                y = compose(x, g)
                if y not in members:
                    members.update(map(itemgetter(*y), subgroup))
                    reps.append(y)
    return frozenset(members)


# ---------------------------------------------------------------------------
# lattice data model
# ---------------------------------------------------------------------------

class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups, carried by a chosen representative.

    cycle_type_counts holds the number of elements of each cycle type in the
    representative, counted once, by build_lattice or load_lattice (no cache
    bytes)."""

    index: int
    order: int
    normalizer_order: int
    label: str
    generators: tuple[Perm, ...]
    representative: frozenset[Perm]
    cycle_type_counts: dict[tuple[int, ...], int]

    @property
    def weyl_order(self) -> int:
        return self.normalizer_order // self.order

    @property
    def n_conjugates(self) -> int:
        # k comes from the representative: the trivial class has no generators
        k = len(next(iter(self.representative)))
        return math.factorial(k) // self.normalizer_order


class _LatticeFields(NamedTuple):
    k: int
    classes: list[SubgroupClass]
    # n_table[(i, j)] = n(L_i, H_j), zero entries omitted, so (i, j) is a key
    # iff some conjugate of class i is contained in class j
    n_table: dict[tuple[int, int], int]


class SubgroupLattice(_LatticeFields):
    """All subgroup classes of S_k with the n(L,H) table, and the table of
    marks, read from them once when the lattice is made (by build_lattice,
    load_lattice or _replace): mark_columns[H] lists (L, mark_L(H)) for every
    L with n(L, H) > 0, which mark_vector sums, and mark_rows[L] lists
    (H, mark_L(H)) for every H strictly above L, which solve_from_marks
    subtracts.  Equality compares k, classes and n_table alone; n_table is
    not changed after the lattice is made."""

    def __new__(cls, k: int, classes: list[SubgroupClass],
                n_table: dict[tuple[int, int], int]) -> "SubgroupLattice":
        self = super().__new__(cls, k, classes, n_table)
        self.mark_columns = [[] for _ in classes]
        self.mark_rows = [[] for _ in classes]
        for (li, hi), n in n_table.items():
            m = n * classes[hi].weyl_order
            self.mark_columns[hi].append((li, m))
            if li != hi:
                self.mark_rows[li].append((hi, m))
        return self

    @classmethod
    def _make(cls, iterable) -> "SubgroupLattice":
        # the named tuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def full_index(self) -> int:
        return len(self.classes) - 1

    def n(self, li: int, hi: int) -> int:
        return self.n_table.get((li, hi), 0)

    def mark(self, li: int, hi: int) -> int:
        """|(G/H_hi)^{L_li}| = n(L,H)|W(H)| -- the table of marks."""
        return self.n(li, hi) * self.classes[hi].weyl_order

    def strictly_above(self, li: int) -> list[int]:
        return sorted(hi for hi, _ in self.mark_rows[li])

    def total_subgroups(self) -> int:
        return sum(c.n_conjugates for c in self.classes)


# ---------------------------------------------------------------------------
# class names and the class order
# ---------------------------------------------------------------------------

def class_name(order: int, counts: dict[tuple[int, ...], int], moved: int) -> str:
    """Structural name of a subgroup H of S_k: Z_n, D_n, V4, A_m, S_m, F20,
    A4 or G<order>, from |H|, the number of its elements of each cycle type
    (SubgroupClass.cycle_type_counts) and the number m of points its
    generators move.  It reads no group table, so the cache reader names
    the classes it loads exactly as build_lattice names the ones it builds.

    D_n is the symmetry group of the n-gon (order 2n); an order-2 class
    generated by a single transposition is D1, one generated by a product
    of 2-cycles is Z2.  H fixes every point its generators fix, so it lies
    in S_m on its moved points: order m! makes it that S_m, and order m!/2
    with even elements only makes it A_m.  A group of order 2n, n >= 3,
    with an element of order n is dihedral iff it has n + 1 - (n mod 2)
    involutions, i.e. iff every element off that rotation's subgroup is one.
    A group of order 12 is A4 iff it has 8 elements of order 3: its Sylow
    3-subgroups are then 4, not 1 (Sylow), and A4 is the only group of order
    12 with 4 of them.  Classes sharing a name get primes from _class_records.
    """
    k = sum(next(iter(counts)))
    orders: collections.Counter[int] = collections.Counter()
    for t, c in counts.items():
        orders[math.lcm(*t)] += c
    all_even = all((k - len(t)) % 2 == 0 for t in counts)
    n = order // 2
    if order == 1:
        return "Z1"
    if order == 2:
        return "D1" if moved == 2 else "Z2"
    if max(orders) == order:
        return f"Z{order}"
    if order == 4:   # not cyclic, so the Klein four-group
        return "V4" if all_even else "D2"
    if order == math.factorial(moved):
        return f"S{moved}"
    if order == math.factorial(moved) // 2 and all_even:
        return f"A{moved}"
    if order == 20:
        return "F20"
    if order % 2 == 0 and order >= 6 and orders[n] and orders[2] == n + 1 - n % 2:
        return f"D{n}"
    if order == 12 and orders[3] == 8:
        return "A4"
    return f"G{order}"


def class_key(normalizer_order: int, generators: Iterable[Perm],
              types: Iterable[tuple[int, ...]]) -> tuple:
    """The class order: (|H|, the sorted cycle types of H's elements, |N(H)|,
    the number of points the generators move), each a conjugacy invariant;
    no two classes of S_k, k <= 7, tie on the fields other than |N(H)|."""
    types = tuple(sorted(types))
    moved = len({i for g in generators for i, x in enumerate(g) if x != i})
    return len(types), types, normalizer_order, moved


def _class_records(k: int, rows: Iterable[tuple]) -> list[SubgroupClass]:
    """The SubgroupClass of each (class_key, generators, representative), its
    index its place and its label class_name's, with one prime per earlier
    class of that name.  Refuses (ConsistencyError) keys that do not strictly
    increase or that tie on all but |N(H)|, which a file states (a class
    written twice, or two conjugate ones), a bad |N(H)|, and classes that do
    not run from the trivial group to S_k."""
    classes: list[SubgroupClass] = []
    seen: collections.Counter[str] = collections.Counter()
    derived: set[tuple] = set()
    for index, (key, generators, representative) in enumerate(rows):
        order, types, normalizer_order, moved = key
        if normalizer_order <= 0 or normalizer_order % order or math.factorial(k) % normalizer_order:
            raise ConsistencyError("|N(H)| is not a multiple of |H| dividing k!")
        if index and key <= previous or (order, types, moved) in derived:
            raise ConsistencyError("classes repeat, are conjugate or are out of the class order")
        previous = key
        derived.add((order, types, moved))
        counts = dict(collections.Counter(types))
        name = class_name(order, counts, moved)
        classes.append(SubgroupClass(index=index, order=order, normalizer_order=normalizer_order,
                                     label=name + "'" * seen[name], generators=generators,
                                     representative=representative, cycle_type_counts=counts))
        seen[name] += 1
    # the ring's unit is the full class, and its free orbit the trivial one
    if not classes or classes[0].order != 1 or classes[-1].order != math.factorial(k):
        raise ConsistencyError("classes do not run from the trivial group to S_k")
    return classes


# ---------------------------------------------------------------------------
# Burnside elements
# ---------------------------------------------------------------------------

class BurnsideElement:
    """Integer formal sum of subgroup classes of a fixed lattice.

    coeffs is a new dict holding the nonzero coefficients only."""

    def __init__(self, lattice: SubgroupLattice, coeffs: dict[int, int] | None = None):
        self.lattice = lattice
        self.coeffs = {i: c for i, c in (coeffs or {}).items() if c != 0}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def generator(lattice: SubgroupLattice, class_index: int) -> "BurnsideElement":
        return BurnsideElement(lattice, {class_index: 1})

    @staticmethod
    def one(lattice: SubgroupLattice) -> "BurnsideElement":
        return BurnsideElement.generator(lattice, lattice.full_index)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return BurnsideElement(self.lattice, out)

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-other)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.lattice, {i: -c for i, c in self.coeffs.items()})

    def __rmul__(self, scalar: int) -> "BurnsideElement":
        return BurnsideElement(self.lattice, {i: scalar * c for i, c in self.coeffs.items()})

    def __mul__(self, other: "BurnsideElement") -> "BurnsideElement":
        return multiply(self, other, self.lattice)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BurnsideElement) and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- marks ---------------------------------------------------------------
    def mark_vector(self) -> list[int]:
        """mark_L(a) for every class L; the injective ring homomorphism,
        summed over the table of marks' columns of a's classes."""
        columns = self.lattice.mark_columns
        out = [0] * len(columns)
        for hi, c in self.coeffs.items():
            for li, m in columns[hi]:
                out[li] += c * m
        return out

    def pretty(self) -> str:
        lat = self.lattice
        parts = []
        for i in sorted(self.coeffs, key=lambda i: (lat.classes[i].order, i)):
            c = self.coeffs[i]
            lab = f"({lat.classes[i].label})"
            if c == 1:
                parts.append(f"+ {lab}")
            elif c == -1:
                parts.append(f"- {lab}")
            elif c > 0:
                parts.append(f"+ {c}{lab}")
            else:
                parts.append(f"- {-c}{lab}")
        if not parts:
            return "0"
        head = parts[0].lstrip("+ ").replace("- ", "-", 1) if parts[0].startswith("- ") else parts[0][2:]
        return " ".join([head] + parts[1:])


def solve_from_marks(lattice: SubgroupLattice, marks: list[int]) -> BurnsideElement:
    """Invert the (triangular) mark system by descending recursion.

    Classes are processed from large subgroup order to small; strict
    containment (Lt) > (L) forces |Lt| > |L|, so each coefficient only
    depends on already-solved ones.  Non-integral division means the marks
    do not come from an actual element and raises ConsistencyError.
    """
    classes = lattice.classes
    coeffs: dict[int, int] = {}
    for li in sorted(range(len(classes)), key=lambda i: -classes[i].order):
        acc = marks[li] - sum(coeffs.get(hi, 0) * m for hi, m in lattice.mark_rows[li])
        w = classes[li].weyl_order
        if acc % w:
            raise ConsistencyError(
                f"non-integer coefficient at class {classes[li].label}: {acc}/{w}"
            )
        if acc:
            coeffs[li] = acc // w
    return BurnsideElement(lattice, coeffs)


def multiply(x: BurnsideElement, y: BurnsideElement, lattice: SubgroupLattice) -> BurnsideElement:
    """Exact product: the pointwise product of the mark vectors, solved back."""
    if x.lattice is not lattice or y.lattice is not lattice:
        raise DomainError("elements belong to a different lattice")
    return solve_from_marks(lattice, [a * b for a, b in zip(x.mark_vector(), y.mark_vector())])


# ---------------------------------------------------------------------------
# serialization (versioned text cache)
# ---------------------------------------------------------------------------

_CACHE_HEADER = "burnside-lattice v3"


def _derived_rows(classes: list[SubgroupClass]) -> dict[tuple[int, int], int]:
    """n(L, H) wherever the class lines fix it, zeros included: n(H, H) =
    n(L, S_k) = 1, and n(<g>, H) = z c(H)/|N(H)| (a mark at a cyclic subgroup
    is a value of the permutation character), g of the cycle type t with
    lcm(t) = |<g>|, z = symrep.centralizer_order(t) and c(H) the count of
    type t in H.  A wrong |N(H)| raises ConsistencyError: an inexact
    division, n(H,H) or n(L,S_k) != 1."""
    rows: dict[tuple[int, int], int] = {}
    for low, t in ((c, t) for c in classes for t in c.cycle_type_counts if math.lcm(*t) == c.order):
        z = centralizer_order(t)
        for high in classes:
            rows[low.index, high.index], inexact = divmod(
                z * high.cycle_type_counts.get(t, 0), high.normalizer_order)
            if inexact:
                raise ConsistencyError(f"n({low.label}, {high.label}) is not an integer")
    for i in range(len(classes)):
        if rows.setdefault((i, i), 1) != 1 or rows.setdefault((i, len(classes) - 1), 1) != 1:
            raise ConsistencyError(f"n(L, H) of {classes[i].label} with itself or S_k is not 1")
    return rows


def serialize_lattice(lattice: SubgroupLattice) -> bytes:
    """Byte-stable text format: per class, in class order, one line
    `|N(H)||generators`, each generator its 0-based images (a digit each,
    k <= 10), then `n:` and one `L H n(L,H)` row per proper containment that
    _derived_rows, checked here, does not give; then a CRC32 checksum."""
    derived = _derived_rows(lattice.classes)
    if any(lattice.n(*key) != n for key, n in derived.items()):
        raise ConsistencyError("the n(L,H) table disagrees with its derived rows")
    lines = [f"{_CACHE_HEADER} k={lattice.k}"]
    for c in lattice.classes:
        lines.append(f"{c.normalizer_order}|" + ",".join("".join(map(str, g)) for g in c.generators))
    lines += ["n:", *(f"{li} {hi} {n}" for (li, hi), n in sorted(lattice.n_table.items())
                      if (li, hi) not in derived)]
    body = "\n".join(lines) + "\n"
    checksum = zlib.crc32(body.encode("ascii"))
    return (body + f"checksum {checksum}\n").encode("ascii")


def load_lattice(blob: bytes) -> SubgroupLattice:
    """Rebuild a lattice from serialize_lattice output, verifying the checksum.

    Each class's index is the position of its line, its representative the
    closure of its generators and its order that closure's size; its label
    comes from _class_records, as the builder's does; and _derived_rows
    gives the rows the file must not state.  Class lines and containment
    rows must be in the writer's strictly increasing order.  Any file it
    cannot read back, checksum valid or not, raises ConsistencyError."""
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ConsistencyError("lattice cache is not ASCII") from exc
    lines = text.splitlines()
    last = lines[-1].split() if lines else []
    if len(last) != 2 or last[0] != "checksum" or not last[1].isdigit():
        raise ConsistencyError("lattice cache missing checksum")
    stated = int(last[1])
    body = "\n".join(lines[:-1]) + "\n"
    if zlib.crc32(body.encode("ascii")) != stated:
        raise ConsistencyError("lattice cache checksum mismatch")
    header = lines[0]
    if header.rpartition(" ")[0] != _CACHE_HEADER:
        raise ConsistencyError(f"unsupported lattice cache version: {header!r}")
    try:
        return _parse_lattice_body(header, lines[1:-1])
    except (ValueError, IndexError) as exc:
        raise ConsistencyError(f"malformed lattice cache: {type(exc).__name__}: {exc}") from exc


def _parse_lattice_body(header: str, lines: list[str]) -> SubgroupLattice:
    k = int(header.split("k=")[1])
    if not 1 <= k <= MAX_LATTICE_K:
        raise ConsistencyError(f"lattice cache width k={k} is out of range")

    split = lines.index("n:")
    types: dict[Perm, tuple[int, ...]] = {}   # each distinct permutation typed once
    rows = []
    for line in lines[:split]:
        nrm, gens_text = line.split("|")
        gens = tuple(tuple(map(int, t)) for t in gens_text.split(",")) if gens_text else ()
        if any(sorted(g) != list(range(k)) for g in gens):
            raise ConsistencyError(f"generators are not permutations of {k} points: {line!r}")
        rep = closure(list(gens), k)
        new = rep.difference(types)
        types.update(zip(new, map(cycle_type, new)))
        rows.append((class_key(int(nrm), gens, map(types.__getitem__, rep)), gens, rep))
    classes = _class_records(k, rows)
    # serialize_lattice writes each row once, in strictly increasing (L, H)
    # order, with n(L, H) > 0, |L| properly dividing |H|, and not derived
    n = len(classes)
    derived = _derived_rows(classes)
    n_table = {key: val for key, val in derived.items() if val}
    previous = (-1, -1)
    for line in lines[split + 1:]:
        li, hi, val = map(int, line.split())
        if (li, hi) <= previous:
            raise ConsistencyError(f"cached pair ({li}, {hi}) does not follow {previous}")
        previous = li, hi
        if not (0 <= li < n and 0 <= hi < n):
            raise ConsistencyError(f"cached pair ({li}, {hi}) names a class outside 0..{n - 1}")
        lo, ho = classes[li].order, classes[hi].order
        if val < 1 or ho % lo or lo == ho or (li, hi) in derived:
            raise ConsistencyError(f"cached row {li} {hi} {val} is not one the writer writes")
        n_table[(li, hi)] = val
    return SubgroupLattice(k=k, classes=classes, n_table=n_table)
