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
and golden's candidate filters read (counted once per class, in memory).
The builder and the cache reader both make their classes with
_class_records, which demands the class order (class_key) strictly and names
each class (class_name); the labels key the reported expansions.

The mark homomorphism mark_L(H) = n(L,H)|W(H)| (the table of marks) is an
injective ring map into integer vectors with the pointwise product, so a
BurnsideElement product is the pointwise product of the two mark vectors,
mapped back by the descending recursion

    n_L = (m_L - sum_{(Lt)>(L)} n(L,Lt) n_Lt |W(Lt)|) / |W(L)|

with every division asserted exact.  Direct orbit counting on G/H x G/K
(orbit_count_product) is the independent oracle for products.

Permutations are tuples of images on {0, ..., k-1}; subgroups are
frozensets of such tuples.  compose(p, q) maps q's images through p with
map, half the cost of a generator expression; closure calls it about 8,500
times on a warm k = 6 read.  SubgroupClass and SubgroupLattice are named
tuples: the package imports no dataclasses, whose import and per-class code
generation a warm `invariants` process would pay on every start (README,
Start-up).  Everything here is exact integer arithmetic.  Only lattice
construction uses numpy, for its index-space multiplication and inverse
tables (_GroupTables, build_lattice), from which conjugation is read as two
gathers, and imports it there: a warm read (load_lattice) and the ring
arithmetic run without it.  build_lattice closes all joins of one class with
the cyclic subgroups at once, as one breadth-first search over the right
cosets of the class representative (_GroupTables.close_indices), and
classifies each join by one lookup of its packed bit mask over the k!
indices in a registry that holds every conjugate of every class found.
"""

from __future__ import annotations

import collections
import itertools
import math
import zlib
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .errors import CapacityError, ConsistencyError, DomainError
from .symrep import centralizer_order, cycle_type

Perm = tuple[int, ...]

MAX_LATTICE_K = 6


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------

def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def compose(p: Perm, q: Perm) -> Perm:
    """(p*q)(i) = p(q(i)): apply q first."""
    return tuple(map(p.__getitem__, q))


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def closure(generators: list[Perm], k: int) -> frozenset[Perm]:
    """Subgroup generated by the given permutations (orbit algorithm).

    Stays apart from _GroupTables.close_indices: it needs no group tables,
    which keeps the oracle enumerate_all_subgroups off the production path
    and spares load_lattice the k!^2 table on a warm read."""
    ident = identity_perm(k)
    elems = {ident}
    frontier = [ident]
    gens = [g for g in generators if g != ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                x = compose(g, h)
                if x not in elems:
                    elems.add(x)
                    nxt.append(x)
        frontier = nxt
    return frozenset(elems)


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


class SubgroupLattice(NamedTuple):
    """All subgroup classes of S_k with the n(L,H) table."""

    k: int
    classes: list[SubgroupClass]
    # n_table[(i, j)] = n(L_i, H_j), zero entries omitted, so (i, j) is a key
    # iff some conjugate of class i is contained in class j
    n_table: dict[tuple[int, int], int]

    @property
    def full_index(self) -> int:
        return len(self.classes) - 1

    def n(self, li: int, hi: int) -> int:
        return self.n_table.get((li, hi), 0)

    def mark(self, li: int, hi: int) -> int:
        """|(G/H_hi)^{L_li}| = n(L,H)|W(H)| -- the table of marks."""
        return self.n(li, hi) * self.classes[hi].weyl_order

    def strictly_above(self, li: int) -> list[int]:
        return [j for j in range(len(self.classes))
                if j != li and (li, j) in self.n_table]

    def total_subgroups(self) -> int:
        return sum(c.n_conjugates for c in self.classes)


# ---------------------------------------------------------------------------
# lattice construction
# ---------------------------------------------------------------------------

def _all_perms(k: int) -> list[Perm]:
    return [tuple(p) for p in itertools.permutations(range(k))]


class _GroupTables:
    """Index-space group tables for S_k, as numpy int16 arrays.

    Permutations are numbered in lexicographic order, so the identity is
    index 0.  mul[i, j] indexes perms[i]*perms[j] and inv[i] indexes
    perms[i]^-1; mul is the one k! x k! table, and conjugates reads
    g h g^-1 from it as two gathers.  mul is filled a block of rows at a
    time, so no k! x k! x k temporary is ever allocated.  odd[i] is the
    parity of perms[i].  An int16 index holds at most 7! permutations; a
    wider k is refused (CapacityError) before anything is allocated.

    close_indices is the one subgroup closure: it joins a closed subgroup H
    with each of many extra generators in one breadth-first search over the
    right cosets of H, and returns each join as a packed bit mask over the
    k! indices, a bytes key that members() reads back.
    """

    ident = 0
    MAX_K = 7   # 7! = 5040 fits an int16 index, 8! = 40320 wraps
    _BLOCK = 128   # table rows filled or read per step, bounding temporaries

    def __init__(self, k: int):
        if k > self.MAX_K:
            raise CapacityError(f"int16 group tables index at most {self.MAX_K}! "
                                f"permutations, got k={k}")
        import numpy as np

        self.k = k
        self.perms = _all_perms(k)
        self.cycle_types = [cycle_type(p) for p in self.perms]
        n = len(self.perms)
        images = np.array(self.perms, dtype=np.intp).reshape(n, k)
        # a permutation read as k base-k digits; the codes sort like the perms
        weights = k ** np.arange(k - 1, -1, -1)
        rank = np.zeros(k ** k, dtype=np.int16)
        rank[images @ weights] = np.arange(n)
        inverse_images = np.argsort(images, axis=1)
        self.inv = rank[inverse_images @ weights]
        # code(p*q) = sum_t w_t p[q[t]] = sum_v p[v] w[q^-1[v]], one float
        # product per block of rows, exact below 2^53
        digits = images.astype(float)
        spread = weights[inverse_images].T.astype(float)
        self.mul = np.empty((n, n), dtype=np.int16)
        for lo in range(0, n, self._BLOCK):
            hi = min(lo + self._BLOCK, n)
            self.mul[lo:hi] = rank[(digits[lo:hi] @ spread).astype(np.intp)]
        self.odd = np.array([(k - len(t)) % 2 for t in self.cycle_types], dtype=bool)

    def conjugates(self, gs: Sequence[int], hs: Sequence[int]) -> np.ndarray:
        """[i, j] indexes gs[i] hs[j] gs[i]^-1, read as (g h) g^-1."""
        import numpy as np

        gs = np.asarray(gs, dtype=np.intp)
        return self.mul[self.mul[np.ix_(gs, hs)], self.inv[gs, None]]

    def conjugate_set(self, sub: Iterable[int]) -> np.ndarray:
        """Row g holds the indices of g sub g^-1, for every g in S_k."""
        return self.conjugates(range(len(self.perms)), sorted(sub))

    def right_cosets(self, sub: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """The right cosets sub*x of a subgroup, each named by its least
        element: those least elements, ascending, and coset[x], the number
        of the coset that holds x.  The identity leads sub itself, coset 0."""
        import numpy as np

        sub = np.fromiter(sub, dtype=np.intp)
        least = self.mul[sub[0]].copy()
        for lo in range(0, len(sub), self._BLOCK):
            np.minimum(least, self.mul[sub[lo:lo + self._BLOCK]].min(axis=0), out=least)
        return np.unique(least, return_inverse=True)

    def close_indices(self, gens: list[int], base: Iterable[int],
                      extras: list[int]) -> tuple[bytes, ...]:
        """<gens, e> for every e in extras, as packed membership masks.

        `base` must be a closed subgroup of <gens>, such as the trivial group
        or <gens> itself.  All rows grow at once in the space of right cosets
        base*x, each labelled by its least element: right multiplication by
        a generator permutes the cosets, and a row takes in every coset one
        step, by a gen or by its own extra, from its last layer until no row
        changes.
        A row lies in A_k when its generators are all even, else in S_k; once
        it holds more than half of that group it is the whole group
        (Lagrange) and stops growing.  Row r of the result is
        np.packbits(mask).tobytes() for the element mask of <gens, extras[r]>:
        hashable, a dict key, and read back with members().
        """
        import numpy as np

        mul = self.mul
        n = len(mul)
        gens = np.asarray(gens, dtype=np.intp)
        extras = np.asarray(extras, dtype=np.intp)
        leaders, coset = self.right_cosets(base)
        steps = coset[mul[leaders[:, None], gens]].T
        # row r's own step, as flat indices into the (rows, cosets) array
        m = len(leaders)
        extra_steps = coset[mul[leaders[:, None], extras]].T + m * np.arange(len(extras))[:, None]
        even = ~self.odd[extras] & ~self.odd[gens].any()
        # a row with more cosets than this is its whole group, A_k (of order
        # k!/2) or S_k
        half = np.where(even, n // 2, n) // (2 * len(base))
        member = np.zeros((len(extras), m), dtype=bool)
        member[:, 0] = True
        layer = member.copy()
        while layer.any():
            fresh = layer.ravel()[extra_steps]
            for step in steps:
                fresh |= layer[:, step]
            fresh &= ~member
            member |= fresh
            layer = fresh
            whole = np.count_nonzero(member, axis=1) > half
            if whole.any():
                member[whole] = ~self.odd[leaders] | ~even[whole, None]
                layer[whole] = False
        return tuple(row.tobytes() for row in np.packbits(member[:, coset], axis=1))

    def members(self, key: bytes) -> np.ndarray:
        """The sorted indices of a subgroup packed by close_indices."""
        import numpy as np

        bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=len(self.perms))
        return np.flatnonzero(bits)


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


def build_lattice(k: int) -> SubgroupLattice:
    """Enumerate all conjugacy classes of subgroups of S_k, 2 <= k <= 6.

    Classes are found by closing class representatives against every cyclic
    subgroup (joining a representative with all conjugates of a cyclic group
    reaches every class; subgroups are generated by their cyclic subgroups).
    The joins <H, c> and <H, n c n^-1> are conjugate for n in N(H), so only
    the first cyclic subgroup of each N(H)-orbit is closed; all of H's joins
    are closed in one close_indices call, over the right cosets of H, and
    classified in cyclic-subgroup order.  Every class registers the packed
    masks of all its distinct conjugates when it is made, so a join is
    classified by one lookup, and a miss is a new class, whose joins are
    closed once.
    """
    import numpy as np

    if not 2 <= k <= MAX_LATTICE_K:
        raise DomainError(f"lattice construction supports 2 <= k <= {MAX_LATTICE_K}, got {k}")

    tables = _GroupTables(k)
    n_g = len(tables.perms)
    ident = tables.ident

    # <g> for every g, read off its powers g, g^2, ..., g^order = identity
    orders = [math.lcm(*t) for t in tables.cycle_types]
    powers = [np.arange(n_g)]
    for _ in range(max(orders) - 1):
        powers.append(tables.mul[powers[-1], powers[0]])
    generated = [frozenset(col[:e]) for col, e in zip(np.array(powers).T.tolist(), orders)]
    # every cyclic subgroup, as index sets, with its first generator
    cyclic: dict[frozenset[int], int] = {}
    for g, c in enumerate(generated):
        cyclic.setdefault(c, g)
    cyclic_list = sorted(cyclic.items(), key=lambda it: (len(it[0]), sorted(it[0])))
    cyclic_gens = [cgen for _, cgen in cyclic_list]
    position = {csub: pos for pos, (csub, _) in enumerate(cyclic_list)}
    # cyclic_pos[g] = position of <g> in cyclic_list, and conjugated_pos[g, pos]
    # the position of g <c> g^-1 for the pos-th cyclic subgroup <c>
    cyclic_pos = np.array([position[c] for c in generated], dtype=np.int16)
    conjugated_pos = cyclic_pos[tables.conjugates(range(n_g), cyclic_gens)]

    # per class: representative, its generators and element mask, normalizer
    # and distinct conjugates (one row each)
    reps: list[frozenset[int]] = []
    rep_gens: list[list[int]] = []
    rep_masks: list[np.ndarray] = []
    normalizers: list[np.ndarray] = []
    conjugates: list[np.ndarray] = []
    # the registry: packed mask of every conjugate of every class -> class id
    set_to_class: dict[bytes, int] = {}
    # classes whose joins are not closed yet; classify pushes each one once
    frontier: list[int] = []

    def classify(key: bytes, gens: list[int]) -> int:
        known = set_to_class.get(key)
        if known is not None:
            return known
        ci = len(reps)
        sub = tables.members(key)
        mask = np.zeros(n_g, dtype=bool)
        mask[sub] = True
        # g normalizes H = <gens> iff g gens g^-1 lies in H
        normalizer = np.flatnonzero(mask[tables.conjugate_set(gens)].all(axis=1))
        # the distinct conjugates g^-1 H g, one per right coset N(H) g
        leaders, _ = tables.right_cosets(normalizer)
        distinct = tables.conjugates(tables.inv[leaders], sub)
        if len(normalizer) * len(distinct) != n_g:
            raise ConsistencyError("orbit-stabilizer mismatch in normalizer computation")
        conjugate_masks = np.zeros((len(distinct), n_g), dtype=bool)
        conjugate_masks[np.arange(len(distinct))[:, None], distinct] = True
        for row in np.packbits(conjugate_masks, axis=1):
            set_to_class[row.tobytes()] = ci
        reps.append(frozenset(sub.tolist()))
        rep_gens.append(list(gens))
        rep_masks.append(mask)
        normalizers.append(normalizer)
        conjugates.append(distinct)
        frontier.append(ci)
        return ci

    (trivial,) = tables.close_indices([], [ident], [ident])
    classify(trivial, [])
    while frontier:
        ci = frontier.pop()
        gens = rep_gens[ci]
        # <c> lies in H iff its generator does
        outside = [pos for pos, cgen in enumerate(cyclic_gens) if not rep_masks[ci][cgen]]
        # first cyclic_list position in each N(H)-orbit of cyclic subgroups
        firsts = conjugated_pos[np.ix_(normalizers[ci], outside)].min(axis=0)
        led = [pos for pos, first in zip(outside, firsts.tolist()) if first == pos]
        # the leaders' joins are closed at once
        if led:
            joined = tables.close_indices(gens, reps[ci], [cyclic_gens[pos] for pos in led])
            for pos, key in zip(led, joined):
                classify(key, gens + [cyclic_gens[pos]])

    # the class order, one key per class
    generators = [tuple(tables.perms[g] for g in _minimal_gens(tables, sub)) for sub in reps]
    keys = [class_key(len(nrm), gens, [tables.cycle_types[h] for h in sub])
            for nrm, gens, sub in zip(normalizers, generators, reps)]
    perm_order_ids = sorted(range(len(reps)), key=keys.__getitem__)
    classes = _class_records(k, ((keys[i], generators[i], frozenset(tables.perms[h] for h in reps[i]))
                                 for i in perm_order_ids))

    # n(L,H) via distinct conjugates of L inside H; its keys are the containment order
    n_table: dict[tuple[int, int], int] = {}
    for low, old_l in zip(classes, perm_order_ids):
        for high, old_h in zip(classes, perm_order_ids):
            if high.order % low.order:
                continue
            count = int(rep_masks[old_h][conjugates[old_l]].all(axis=1).sum())
            if count == 0:
                continue
            num, n_h = count * low.normalizer_order, high.normalizer_order
            if num % n_h:
                raise ConsistencyError("n(L,H) not integral")
            n_table[(low.index, high.index)] = num // n_h

    return SubgroupLattice(k=k, classes=classes, n_table=n_table)


def _minimal_gens(tables: _GroupTables, sub: frozenset[int]) -> list[int]:
    """Trim a generating list greedily; keeps serialization short."""
    gens: list[int] = []
    span: frozenset[int] = frozenset({tables.ident})
    for g in sorted(sub):
        if g in span:
            continue
        (key,) = tables.close_indices(gens, span, [g])
        gens.append(g)
        span = frozenset(tables.members(key).tolist())
        if span == sub:
            break
    return gens


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
        """mark_L(a) for every class L; the injective ring homomorphism."""
        lat = self.lattice
        n = len(lat.classes)
        out = [0] * n
        for li in range(n):
            out[li] = sum(c * lat.mark(li, hi) for hi, c in self.coeffs.items())
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
    order_desc = sorted(range(len(lattice.classes)),
                        key=lambda i: -lattice.classes[i].order)
    coeffs: dict[int, int] = {}
    for li in order_desc:
        acc = marks[li]
        for hi in lattice.strictly_above(li):
            c = coeffs.get(hi, 0)
            if c:
                acc -= c * lattice.mark(li, hi)
        w = lattice.classes[li].weyl_order
        if acc % w:
            raise ConsistencyError(
                f"non-integer coefficient at class {lattice.classes[li].label}: {acc}/{w}"
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
    rows = []
    for line in lines[:split]:
        nrm, gens_text = line.split("|")
        gens = tuple(tuple(map(int, t)) for t in gens_text.split(",")) if gens_text else ()
        if any(sorted(g) != list(range(k)) for g in gens):
            raise ConsistencyError(f"generators are not permutations of {k} points: {line!r}")
        rep = closure(list(gens), k)
        rows.append((class_key(int(nrm), gens, map(cycle_type, rep)), gens, rep))
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


# ---------------------------------------------------------------------------
# brute-force oracles (used by the test suite)
# ---------------------------------------------------------------------------

def orbit_count_product(lattice: SubgroupLattice, hi: int, ki: int) -> dict[int, int]:
    """Coefficients of (H)*(K) by direct orbit counting on G/H x G/K.

    For each pair of cosets the exact stabilizer aHa^-1 n bKb^-1 is computed;
    pairs whose stabilizer equals the class representative L are counted up
    to the N(L)-action.  Independent of the mark vectors and of the group
    tables; exponential-ish, keep to k <= 5.
    """
    k = lattice.k
    perms = _all_perms(k)
    inverses = {g: invert(g) for g in perms}

    def cosets(sub: frozenset[Perm]) -> tuple[list[Perm], dict[Perm, int]]:
        """One element a per left coset aS, and the coset index of every g."""
        reps: list[Perm] = []
        index: dict[Perm, int] = {}
        for g in perms:
            if g not in index:
                for h in sub:
                    index[compose(g, h)] = len(reps)
                reps.append(g)
        return reps, index

    def conjugate(sub: frozenset[Perm], a: Perm) -> frozenset[Perm]:
        ai = inverses[a]
        return frozenset(compose(a, compose(s, ai)) for s in sub)

    reps_h, index_h = cosets(lattice.classes[hi].representative)
    reps_k, index_k = cosets(lattice.classes[ki].representative)
    # the stabilizer of the coset aS under left translation is aSa^-1
    stab_h = [conjugate(lattice.classes[hi].representative, a) for a in reps_h]
    stab_k = [conjugate(lattice.classes[ki].representative, b) for b in reps_k]

    # group pairs by exact stabilizer set, keeping those whose stabilizer IS
    # a chosen class representative
    class_of = {c.representative: c.index for c in lattice.classes}
    matched: dict[int, list[tuple[int, int]]] = {}
    for ia, sa in enumerate(stab_h):
        for ib, sb in enumerate(stab_k):
            ci = class_of.get(sa & sb)
            if ci is not None:
                matched.setdefault(ci, []).append((ia, ib))

    # count the orbits of N(L) acting by left translation on both coordinates
    out: dict[int, int] = {}
    for ci in sorted(matched):
        rep = lattice.classes[ci].representative
        norm = [g for g in perms if conjugate(rep, g) == rep]
        seen_pairs: set[tuple[int, int]] = set()
        orbits = 0
        for ia, ib in matched[ci]:
            if (ia, ib) in seen_pairs:
                continue
            orbits += 1
            for g in norm:
                seen_pairs.add((index_h[compose(g, reps_h[ia])],
                                index_k[compose(g, reps_k[ib])]))
        out[ci] = orbits
    return out


def enumerate_all_subgroups(k: int) -> list[frozenset[Perm]]:
    """Exhaustive subgroup enumeration by closing joins with cyclic groups.

    Each subgroup keeps the generators it was closed from, so the join
    <base, c> is closed from those plus the generator of c.  Test oracle for
    build_lattice; practical for k <= 5.
    """
    cyclics: dict[frozenset[Perm], Perm] = {}
    for p in _all_perms(k):
        cyclics.setdefault(closure([p], k), p)
    subs: dict[frozenset[Perm], list[Perm]] = {c: [p] for c, p in cyclics.items()}
    frontier = list(cyclics)
    while frontier:
        base = frontier.pop()
        for c, p in cyclics.items():
            if c <= base:
                continue
            gens = subs[base] + [p]
            joined = closure(gens, k)
            if joined not in subs:
                subs[joined] = gens
                frontier.append(joined)
    return sorted(subs, key=lambda s: (len(s), sorted(s)))
