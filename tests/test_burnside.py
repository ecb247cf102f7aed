import functools
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from symbreak.errors import ConsistencyError, DomainError


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_cycle_notation_round_trip():
    for k in (4, 5, 6):
        import itertools

        for p in itertools.islice(itertools.permutations(range(k)), 0, None, 7):
            assert cycles_to_perm(perm_to_cycles(p), k) == p


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
    trivial = lattice5.classes[lattice5.trivial_index]
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
    trivial = lattice5.classes[lattice5.trivial_index]
    for cls in lattice5.classes:
        assert lattice5.n(cls.index, full.index) == 1
        assert lattice5.n(trivial.index, cls.index) == cls.n_conjugates
        assert lattice5.n(cls.index, cls.index) == 1
    # order must divide, else zero
    z5 = lattice5.class_by_label("Z5")
    s4 = lattice5.class_by_label("S4")
    assert lattice5.n(z5.index, s4.index) == 0


def test_partial_order_consistency(lattice5):
    for (li, hi), flag in lattice5.leq.items():
        assert flag == (lattice5.n(li, hi) >= 1)
    # antisymmetry on classes
    n = len(lattice5.classes)
    for i in range(n):
        for j in range(n):
            if i != j and lattice5.leq.get((i, j)) and lattice5.leq.get((j, i)):
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
        triv = BurnsideElement.generator(lat, lat.trivial_index)
        assert (triv * triv).coeffs == {lat.trivial_index: math.factorial(k)}


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


def test_finite_group_collapse(lattice5):
    # for a finite group every Weyl group is finite of dimension zero, so the
    # Euler/Burnside distinction is vacuous: no class may report otherwise
    for cls in lattice5.classes:
        assert cls.weyl_order >= 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_round_trip(lattice5):
    blob = serialize_lattice(lattice5)
    again = load_lattice(blob)
    assert again.k == 5
    assert [c.label for c in again.classes] == [c.label for c in lattice5.classes]
    assert [c.order for c in again.classes] == [c.order for c in lattice5.classes]
    assert [c.normalizer_order for c in again.classes] == [
        c.normalizer_order for c in lattice5.classes
    ]
    assert again.leq == lattice5.leq
    assert again.n_table == lattice5.n_table
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


@functools.cache
def _tables(k):
    return _GroupTables(k)


def test_group_tables_match_compose():
    tables = _tables(4)
    perms = tables.perms
    assert perms == sorted(itertools.permutations(range(4)))
    for i, p in enumerate(perms):
        assert perms[tables.inv[i]] == invert(p)
        for j, q in enumerate(perms):
            assert perms[tables.mul[i, j]] == compose(p, q)
            assert perms[tables.conj[i, j]] == compose(p, compose(q, invert(p)))


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
    assert tables.close_indices(gens) == want
    prefix = tables.close_indices(gens[:cut])
    assert tables.close_indices(gens, base=prefix) == want


def test_closure_helper():
    gens = [cycles_to_perm("(1 2 3 4 5)", 5), cycles_to_perm("(2 5)(3 4)", 5)]
    assert len(closure(gens, 5)) == 10
