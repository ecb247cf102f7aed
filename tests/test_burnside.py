import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_by_label
from symbreak.burnside import (
    BurnsideElement,
    _GroupTables,
    build_lattice,
    closure,
    compose,
    cycles_to_perm,
    enumerate_all_subgroups,
    identity_perm,
    invert,
    load_lattice,
    orbit_count_product,
    perm_to_cycles,
    serialize_lattice,
)
from symbreak import burnside
from symbreak.degrees import basic_degree
from symbreak.errors import CapacityError, ConsistencyError, DomainError


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_cycle_notation_round_trip():
    for k in (4, 5, 6):
        import itertools

        for p in itertools.islice(itertools.permutations(range(k)), 0, None, 7):
            assert cycles_to_perm(perm_to_cycles(p), k) == p


@pytest.mark.parametrize("text", ["(1 2 1)", "(0 1)", "(1 6)", "(1 2)x", "(1,2)", "(1 2", ""])
def test_cycles_to_perm_rejects_what_the_writer_never_writes(text):
    with pytest.raises(DomainError):
        cycles_to_perm(text, 5)


def test_compose_and_invert():
    p = (1, 2, 0, 3)
    q = (0, 1, 3, 2)
    pq = compose(p, q)
    assert pq == tuple(p[q[i]] for i in range(4))
    assert compose(p, invert(p)) == identity_perm(4)


# ---------------------------------------------------------------------------
# lattice construction
# ---------------------------------------------------------------------------

def test_class_counts(lattice4, lattice5):
    assert len(lattice4.classes) == 11
    assert len(lattice5.classes) == 19
    assert lattice4.total_subgroups() == 30
    assert lattice5.total_subgroups() == 156


def test_weyl_orders(lattice5):
    trivial = lattice5.classes[0]
    full = lattice5.classes[lattice5.full_index]
    assert trivial.order == 1 and trivial.weyl_order == math.factorial(5)
    assert full.order == 120 and full.weyl_order == 1
    for cls in lattice5.classes:
        assert cls.normalizer_order == cls.order * cls.weyl_order
        assert math.factorial(5) % cls.normalizer_order == 0
        assert cls.n_conjugates == math.factorial(5) // cls.normalizer_order


def test_weyl_sanity_sums(lattice4, lattice5):
    assert sum(math.factorial(4) // c.normalizer_order for c in lattice4.classes) == 30
    assert sum(math.factorial(5) // c.normalizer_order for c in lattice5.classes) == 156


def test_lattice_rejects_bad_k():
    with pytest.raises(DomainError):
        build_lattice(1)
    with pytest.raises(DomainError):
        build_lattice(7)


def test_exhaustive_enumeration_oracle_k4(lattice4):
    subs = enumerate_all_subgroups(4)
    assert len(subs) == 30
    # partition the exhaustive list into conjugacy classes by brute force
    import itertools

    perms = [tuple(p) for p in itertools.permutations(range(4))]
    classes = []
    seen = set()
    for sub in subs:
        if sub in seen:
            continue
        orbit = {frozenset(compose(g, compose(h, invert(g))) for h in sub) for g in perms}
        seen |= orbit
        classes.append(orbit)
    assert len(classes) == 11
    by_size = sorted(len(c) for c in classes)
    assert by_size == sorted(c.n_conjugates for c in lattice4.classes)


# ---------------------------------------------------------------------------
# n(L, H)
# ---------------------------------------------------------------------------

def test_n_table_basics(lattice5):
    full = lattice5.classes[lattice5.full_index]
    trivial = lattice5.classes[0]
    for cls in lattice5.classes:
        assert lattice5.n(cls.index, full.index) == 1
        assert lattice5.n(trivial.index, cls.index) == cls.n_conjugates
        assert lattice5.n(cls.index, cls.index) == 1
    # order must divide, else zero
    z5 = class_by_label(lattice5, "Z5")
    s4 = class_by_label(lattice5, "S4")
    assert lattice5.n(z5.index, s4.index) == 0


def test_partial_order_consistency(lattice5):
    for (li, hi) in lattice5.n_table:
        assert lattice5.n(li, hi) >= 1
    # antisymmetry on classes
    n = len(lattice5.classes)
    for i in range(n):
        for j in range(n):
            if i != j and (i, j) in lattice5.n_table and (j, i) in lattice5.n_table:
                raise AssertionError("order not antisymmetric")


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_unit_element(lattice5):
    one = BurnsideElement.one(lattice5)
    rng = random.Random(3)
    for _ in range(10):
        x = BurnsideElement(
            lattice5, {rng.randrange(19): rng.randint(-4, 4) for _ in range(6)}
        )
        assert one * x == x
        assert x * one == x


def test_free_orbit_square(lattice4, lattice5):
    for lat, k in ((lattice4, 4), (lattice5, 5)):
        triv = BurnsideElement.generator(lat, 0)     # class 0 is the trivial group
        assert (triv * triv).coeffs == {0: math.factorial(k)}


def test_commutativity_associativity(lattice5):
    rng = random.Random(17)

    def rand_elt():
        return BurnsideElement(
            lattice5, {rng.randrange(19): rng.randint(-3, 3) for _ in range(4)}
        )

    for _ in range(30):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_ring_distributivity(lattice5):
    rng = random.Random(41)

    def rand_elt():
        return BurnsideElement(
            lattice5, {rng.randrange(19): rng.randint(-3, 3) for _ in range(4)}
        )

    for _ in range(15):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        assert x * (y + z) == x * y + x * z
        assert (y - z) * x == y * x - z * x


def test_mark_vectors_multiplicative(lattice4, lattice5):
    for lat in (lattice4, lattice5):
        n = len(lat.classes)
        for hi in range(n):
            for ki in range(hi, n):
                x = BurnsideElement.generator(lat, hi)
                y = BurnsideElement.generator(lat, ki)
                lhs = (x * y).mark_vector()
                rhs = [a * b for a, b in zip(x.mark_vector(), y.mark_vector())]
                assert lhs == rhs, (lat.k, hi, ki)


def test_recursion_equals_orbit_counting_sample(lattice5):
    rng = random.Random(29)
    for _ in range(10):
        hi = rng.randrange(19)
        ki = rng.randrange(19)
        rec = (
            BurnsideElement.generator(lattice5, hi)
            * BurnsideElement.generator(lattice5, ki)
        ).coeffs
        brute = {c: v for c, v in orbit_count_product(lattice5, hi, ki).items() if v}
        assert rec == brute, (lattice5.classes[hi].label, lattice5.classes[ki].label)


def test_products_of_sums_equal_orbit_counting(lattice5):
    # the product of whole elements, not just generators, against the
    # independent oracle extended bilinearly over their terms
    count = functools.cache(lambda hi, ki: orbit_count_product(lattice5, hi, ki))
    std = basic_degree((4, 1), lattice5).element
    hook = basic_degree((3, 1, 1), lattice5).element
    rng = random.Random(7)
    mixed = BurnsideElement(lattice5, {rng.randrange(19): rng.choice([-3, -2, -1, 2, 5])
                                       for _ in range(6)})
    assert any(c < 0 for c in mixed.coeffs.values())
    for x, y in ((std, hook), (mixed, hook), (mixed, mixed)):
        want: dict[int, int] = {}
        for hi, ch in x.coeffs.items():
            for ki, ck in y.coeffs.items():
                for li, n in count(hi, ki).items():
                    want[li] = want.get(li, 0) + ch * ck * n
        assert (x * y).coeffs == {li: c for li, c in want.items() if c}


def test_finite_group_collapse(lattice5):
    # for a finite group every Weyl group is finite of dimension zero, so the
    # Euler/Burnside distinction is vacuous: no class may report otherwise
    for cls in lattice5.classes:
        assert cls.weyl_order >= 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_serialize_round_trip(k, request):
    # build and load are the two constructors of a lattice: they must agree
    lattice = request.getfixturevalue(f"lattice{k}") if k >= 4 else build_lattice(k)
    blob = serialize_lattice(lattice)
    again = load_lattice(blob)
    assert again.k == k
    assert again.classes == lattice.classes
    assert [c.representative for c in again.classes] == [
        c.representative for c in lattice.classes
    ]
    assert again.n_table == lattice.n_table
    assert serialize_lattice(again) == blob


# SHA-256 of serialize_lattice(build_lattice(k)): the class order, the
# generators, the labels and their primes are the cache format and the
# report keys, so no rewrite of build_lattice may move them
PINNED_LATTICE_SHA256 = {
    2: "bf54d840f1c130a9e23dd7326ead2be6382c622764172b3a3b2aafc951423aa8",
    3: "4848cdf5167a56bf4a6313c44b8f4892edaa7a515991052fe712b4edaddf24f0",
    4: "e70202459551ae7095727ed09c09485304bd00c808b44893b767cf2a107596a3",
    5: "2c8b53510af41b6e0bb78e57608e82b226dae9e23443c586d5b33cccd3cfba6e",
    6: "5c5e5f901ece79a98d7eccfce8916b9861a3fb62295ea57467ca5c54867c5186",
}


@pytest.mark.parametrize("k", sorted(PINNED_LATTICE_SHA256))
def test_serialized_lattice_pinned(k, request):
    lattice = request.getfixturevalue(f"lattice{k}") if k >= 4 else build_lattice(k)
    digest = hashlib.sha256(serialize_lattice(lattice)).hexdigest()
    assert digest == PINNED_LATTICE_SHA256[k]


def test_load_is_fast(lattice5):
    import time

    blob = serialize_lattice(lattice5)
    start = time.perf_counter()
    load_lattice(blob)
    assert time.perf_counter() - start < 0.1


def test_corrupted_cache_rejected(lattice5):
    blob = bytearray(serialize_lattice(lattice5))
    pos = blob.index(b"|") + 1
    blob[pos:pos + 1] = b"9"
    with pytest.raises(ConsistencyError):
        load_lattice(bytes(blob))


def test_version_mismatch_rejected(lattice5):
    blob = serialize_lattice(lattice5).decode()
    body = blob.replace("burnside-lattice v1", "burnside-lattice v2", 1)
    import zlib

    lines = body.splitlines()
    core = "\n".join(lines[:-1]) + "\n"
    fixed = core + f"checksum {zlib.crc32(core.encode())}\n"
    with pytest.raises(ConsistencyError, match="version"):
        load_lattice(fixed.encode())


# ---------------------------------------------------------------------------
# k = 6
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_k6_lattice(lattice6):
    assert len(lattice6.classes) == 56
    assert lattice6.total_subgroups() == 1455
    # spot marks: the product of two random generators stays mark-consistent
    rng = random.Random(5)
    for _ in range(8):
        hi = rng.randrange(56)
        ki = rng.randrange(56)
        x = BurnsideElement.generator(lattice6, hi)
        y = BurnsideElement.generator(lattice6, ki)
        assert (x * y).mark_vector() == [
            a * b for a, b in zip(x.mark_vector(), y.mark_vector())
        ]


@pytest.mark.slow
def test_k7_lattice_published_totals(monkeypatch):
    # OEIS A000638 and A005432 at n = 7: 96 conjugacy classes of subgroups
    # and 11,300 subgroups of S_7
    monkeypatch.setattr(burnside, "MAX_LATTICE_K", 7)
    lattice = build_lattice(7)
    assert len(lattice.classes) == 96
    assert lattice.total_subgroups() == 11300


@pytest.mark.parametrize("k, classes", [(4, 11), (5, 19), (6, 56)])
def test_conjugate_set_called_once_per_class(k, classes, monkeypatch):
    # a class registers all its conjugates when it is made, so every join is
    # classified by one lookup, with no conjugator search over S_k
    calls = []
    original = _GroupTables.conjugate_set
    monkeypatch.setattr(_GroupTables, "conjugate_set",
                        lambda self, sub: calls.append(sub) or original(self, sub))
    assert len(build_lattice(k).classes) == classes
    assert len(calls) == classes


@functools.cache
def _tables(k):
    return _GroupTables(k)


def test_group_tables_refuse_int16_overflow(monkeypatch):
    # 8! = 40320 permutations do not fit an int16 index: refused before the
    # permutations are listed or any table is allocated
    import tracemalloc

    def listed(k):
        raise AssertionError("permutations listed")

    monkeypatch.setattr(burnside, "_all_perms", listed)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="k=8"):
            _GroupTables(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_group_tables_match_compose():
    tables = _tables(4)
    perms = tables.perms
    assert perms == sorted(itertools.permutations(range(4)))
    for i, p in enumerate(perms):
        assert perms[tables.inv[i]] == invert(p)
        for j, q in enumerate(perms):
            assert perms[tables.mul[i, j]] == compose(p, q)
            assert perms[tables.conj[i, j]] == compose(p, compose(q, invert(p)))


def _close(tables, gens, base):
    """<gens>, grown from its closed subgroup base, as an index set."""
    (key,) = tables.close_indices(gens, base, [tables.ident])
    return frozenset(tables.members(key).tolist())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_close_indices_matches_closure(data):
    # the coset-by-coset closure against the independent tuple-space orbit
    # algorithm, grown from the identity and from a closed prefix
    k = data.draw(st.integers(4, 6), label="k")
    tables = _tables(k)
    gens = data.draw(st.lists(st.integers(0, len(tables.perms) - 1),
                              min_size=1, max_size=4), label="gens")
    cut = data.draw(st.integers(0, len(gens)), label="cut")
    want = frozenset(tables.perms.index(p)
                     for p in closure([tables.perms[g] for g in gens], k))
    assert _close(tables, gens, frozenset({0})) == want
    prefix = _close(tables, gens[:cut], frozenset({0}))
    assert _close(tables, gens, base=prefix) == want


@functools.cache
def _index(k):
    return {p: i for i, p in enumerate(_tables(k).perms)}


def _oracle(k, gens):
    """<gens> by the tuple-space orbit algorithm, as an index set."""
    tables = _tables(k)
    return frozenset(_index(k)[p] for p in closure([tables.perms[g] for g in gens], k))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_close_indices_matches_closure(data):
    # one batched call: a closed base <gens> (the trivial base has no gens)
    # joined with several extras, one of them already in the base; every row
    # against the tuple-space oracle
    k = data.draw(st.integers(4, 6), label="k")
    tables = _tables(k)
    n = len(tables.perms)
    gens = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="gens")
    base = _oracle(k, gens)
    extras = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5), label="extras")
    extras.insert(data.draw(st.integers(0, len(extras)), label="at"),
                  data.draw(st.sampled_from(sorted(base)), label="inside"))
    keys = tables.close_indices(gens, base, extras)
    hash(keys)   # perfbench/tracer.py keeps every result in a set
    for extra, key in zip(extras, keys, strict=True):
        assert frozenset(tables.members(key).tolist()) == _oracle(k, gens + [extra])


@pytest.mark.parametrize("k", [4, 5, 6])
def test_batched_close_indices_every_cyclic_subgroup(k):
    # the trivial base with no generators, joined with every element at once
    tables = _tables(k)
    keys = tables.close_indices([], [tables.ident], range(len(tables.perms)))
    for g, key in enumerate(keys):
        assert frozenset(tables.members(key).tolist()) == _oracle(k, [g])


def _extend_per_join(tables, base, gens):
    """The per-join closure build_lattice made before its joins were
    batched: union of the right cosets base*x reachable from base by gens,
    one layer at a time, stopped by Lagrange at more than half of A_k or
    S_k.  Kept here as the reference for every join."""
    import numpy as np

    mul = tables.mul
    n = len(mul)
    base = np.array(base)
    gens = np.asarray(gens, dtype=np.intp)
    group = np.arange(n) if tables.odd[gens].any() else np.flatnonzero(~tables.odd)
    member = np.zeros(n, dtype=bool)
    member[base] = True
    column = base[:, None]
    layer = np.array([tables.ident])
    while len(layer):
        products = mul[layer[:, None], gens].ravel()
        fresh = np.zeros(n, dtype=bool)
        fresh[products[~member[products]]] = True
        layer = np.flatnonzero(fresh)
        member[mul[column, layer]] = True
        if 2 * np.count_nonzero(member) > len(group):
            return group
    return np.flatnonzero(member)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_every_join_matches_per_join_reference(k, monkeypatch):
    # every closure build_lattice asks for -- class joins, generator
    # trimming, dihedral checks -- equals the per-join reference
    calls = []
    batched = _GroupTables.close_indices

    def recording(self, gens, base, extras):
        keys = batched(self, gens, base, extras)
        calls.append((self, list(gens), sorted(base), list(extras), keys))
        return keys

    monkeypatch.setattr(_GroupTables, "close_indices", recording)
    build_lattice(k)
    assert calls
    for tables, gens, base, extras, keys in calls:
        for extra, key in zip(extras, keys, strict=True):
            want = _extend_per_join(tables, base, gens + [extra])
            assert tables.members(key).tolist() == want.tolist()


def test_closure_helper():
    gens = [cycles_to_perm("(1 2 3 4 5)", 5), cycles_to_perm("(2 5)(3 4)", 5)]
    assert len(closure(gens, 5)) == 10
