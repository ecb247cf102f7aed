"""Subgroup-class lattice construction for S_k, and brute-force oracles.

Only a cache miss, `verify` and the tests run this module; a warm read
(burnside.load_lattice) and the ring arithmetic never import it.  Only
lattice construction uses numpy, for its index-space multiplication and
inverse tables (_GroupTables, build_lattice), from which conjugation is read
as two gathers, and imports it there.  build_lattice closes all joins of one
class with the cyclic subgroups at once, as one breadth-first search over
the right cosets of the class representative (_GroupTables.close_indices),
and classifies each join by one lookup of its packed bit mask over the k!
indices in a registry that holds every conjugate of every class found.

Direct orbit counting on G/H x G/K (orbit_count_product) is the independent
oracle for products, and enumerate_all_subgroups the one for the class
list; neither reads the group tables.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

from . import burnside
from .burnside import (
    Perm,
    SubgroupLattice,
    _class_records,
    class_key,
    closure,
    compose,
)
from .errors import CapacityError, ConsistencyError, DomainError
from .symrep import cycle_type


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

    # burnside owns the cap, read at call time: raising it raises this one
    if not 2 <= k <= burnside.MAX_LATTICE_K:
        raise DomainError("lattice construction supports "
                          f"2 <= k <= {burnside.MAX_LATTICE_K}, got {k}")

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
# brute-force oracles (used by verify and the test suite)
# ---------------------------------------------------------------------------

def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


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
