import collections
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
    SubgroupLattice,
    class_key,
    class_name,
    closure,
    compose,
    identity_perm,
    load_lattice,
    serialize_lattice,
    solve_from_marks,
)
from symbreak import burnside, subgroups
from symbreak.subgroups import (
    _GroupTables,
    build_lattice,
    enumerate_all_subgroups,
    invert,
    orbit_count_product,
)
from symbreak.degrees import basic_degree
from symbreak.errors import CapacityError, ConsistencyError, DomainError
from symbreak.symrep import cycle_type


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_compose_and_invert():
    p = (1, 2, 0, 3)
    q = (0, 1, 3, 2)
    pq = compose(p, q)
    assert pq == tuple(p[q[i]] for i in range(4))
    assert compose(p, invert(p)) == identity_perm(4)


def test_compose_equals_generator_reference():
    # compose reads q's images through p with map; the reference is the
    # generator expression it replaced, on every pair of S_5 x S_5
    def reference(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    perms = list(itertools.permutations(range(5)))
    pairs = 0
    for p in perms:
        for q in perms:
            got = compose(p, q)
            assert type(got) is tuple and got == reference(p, q)
            pairs += 1
    assert pairs == 14_400


# ---------------------------------------------------------------------------
# record semantics (named tuples and one plain class, no dataclasses)
# ---------------------------------------------------------------------------

def test_subgroup_class_is_frozen_and_equal_after_round_trip(lattice5):
    cls = class_by_label(lattice5, "S4")
    for name in ("index", "label", "representative", "weyl_order", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(cls, name, 0)
    with pytest.raises(AttributeError):
        del cls.label
    assert cls.label == "S4" and cls.index == lattice5.classes.index(cls)
    # a named tuple: a cache round trip gives equal records, field for
    # field, and one changed field an unequal one
    again = load_lattice(serialize_lattice(lattice5)).classes
    assert again == lattice5.classes
    assert [c._asdict() for c in again] == [c._asdict() for c in lattice5.classes]
    for field, value in (("index", cls.index + 1), ("order", 1), ("normalizer_order", 1),
                         ("label", "S4'"), ("generators", cls.generators[:1]),
                         ("representative", frozenset()), ("cycle_type_counts", {})):
        assert cls._replace(**{field: value}) != cls, field


def test_burnside_element_owns_its_nonzero_coefficients(lattice4):
    given = {0: 2, 1: 0, 3: -1}
    x = BurnsideElement(lattice4, given)
    assert x.coeffs == {0: 2, 3: -1}
    assert given == {0: 2, 1: 0, 3: -1}    # the argument is not aliased
    given[0] = 5
    assert x.coeffs[0] == 2
    empty, other = BurnsideElement(lattice4), BurnsideElement(lattice4)
    assert empty.coeffs == {} and empty.coeffs is not other.coeffs
    empty.coeffs[1] = 1
    assert other.coeffs == {}
    with pytest.raises(TypeError):
        hash(x)


def test_lattice_equality_compares_k_classes_and_n_table(lattice4):
    again = load_lattice(serialize_lattice(lattice4))
    assert again == lattice4 and again is not lattice4
    assert SubgroupLattice(3, lattice4.classes, lattice4.n_table) != lattice4
    assert SubgroupLattice(4, lattice4.classes[::-1], lattice4.n_table) != lattice4
    n_table = dict(lattice4.n_table)
    n_table[(0, lattice4.full_index)] += 1
    assert SubgroupLattice(4, lattice4.classes, n_table) != lattice4


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


def test_burnside_forwards_only_the_tracer_names():
    # the builder lives in subgroups, which a warm read never imports;
    # burnside forwards the two names the outside benchmark tracer wraps
    # through it, and no other
    assert burnside.build_lattice is subgroups.build_lattice
    assert burnside._GroupTables is subgroups._GroupTables
    for name in ("orbit_count_product", "enumerate_all_subgroups", "invert", "_all_perms",
                 "_minimal_gens"):
        with pytest.raises(AttributeError):
            getattr(burnside, name)


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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mark_vector_equals_the_table_of_marks(data, lattice4, lattice5, lattice6):
    # the per-lattice columns against the definition, sum_H c_H n(L, H) |W(H)|
    # for every L, read pair by pair from lattice.mark; the solve inverts it
    lattice = data.draw(st.sampled_from([lattice4, lattice5, lattice6]), label="lattice")
    n = len(lattice.classes)
    coeffs = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(-5, 5), max_size=8),
                       label="coeffs")
    x = BurnsideElement(lattice, coeffs)
    want = [sum(c * lattice.mark(li, hi) for hi, c in coeffs.items()) for li in range(n)]
    assert x.mark_vector() == want
    assert solve_from_marks(lattice, want) == x


def test_table_of_marks_is_made_with_the_lattice(lattice5):
    # every nonzero mark once, in its column and, off the diagonal, its row;
    # a lattice with a changed n table, made directly or by _replace, has
    # its own table
    cols = {(li, hi): m for hi, col in enumerate(lattice5.mark_columns) for li, m in col}
    rows = {(li, hi): m for li, row in enumerate(lattice5.mark_rows) for hi, m in row}
    assert cols == {key: lattice5.mark(*key) for key in lattice5.n_table}
    assert rows == {(li, hi): m for (li, hi), m in cols.items() if li != hi}
    assert sum(map(len, lattice5.mark_columns)) == len(lattice5.n_table)
    v4, a4 = class_by_label(lattice5, "V4").index, class_by_label(lattice5, "A4").index
    n_table = {**lattice5.n_table, (v4, a4): lattice5.n(v4, a4) + 1}
    for raised in (SubgroupLattice(5, lattice5.classes, n_table),
                   lattice5._replace(n_table=n_table)):
        assert type(raised) is SubgroupLattice and raised != lattice5
        assert (v4, raised.mark(v4, a4)) in raised.mark_columns[a4]
        assert (a4, raised.mark(v4, a4)) in raised.mark_rows[v4]
        assert BurnsideElement.generator(raised, a4).mark_vector()[v4] == raised.mark(v4, a4)


# the all-ones marks of (S_k) with class L's mark raised by 1 are the marks
# of no element: the descending recursion names the first class, in
# decreasing order, whose division is inexact
_RAISED_MARK_REFUSALS = {
    4: {"Z1": "Z1: 1/24", "D1": "D1: 1/2", "Z2": "Z2: 1/4", "Z3": "Z3: 1/2", "D2": "D2: 1/2",
        "V4": "V4: 1/6", "Z4": "Z4: 1/2", "S3": "Z3: -1/2", "D4": "D2: -1/2", "A4": "A4: 1/2",
        "S4": "A4: -1/2"},
    5: {"Z1": "Z1: 1/120", "D1": "D1: 1/6", "Z2": "Z2: 1/4", "Z3": "Z3: 1/4", "D2": "D2: 1/2",
        "V4": "V4: 1/6", "Z4": "Z4: 1/2", "Z5": "Z5: 1/4", "S3": "S3: 1/2", "Z6": "Z6: 1/2",
        "D3": "D3: 1/2", "D4": "D2: -1/2", "D5": "D5: 1/2", "D6": "S3: -1/2", "A4": "A4: 1/2",
        "F20": "D5: -1/2", "S4": "A4: -1/2", "A5": "A5: 1/2", "S5": "A5: -1/2"},
}


@pytest.mark.parametrize("k", [4, 5])
def test_solve_refuses_one_raised_mark(k, request):
    lattice = request.getfixturevalue(f"lattice{k}")
    ones = BurnsideElement.one(lattice).mark_vector()
    assert ones == [1] * len(lattice.classes)
    assert [c.label for c in lattice.classes] == list(_RAISED_MARK_REFUSALS[k])
    for cls in lattice.classes:
        marks = list(ones)
        marks[cls.index] += 1
        with pytest.raises(ConsistencyError) as refused:
            solve_from_marks(lattice, marks)
        assert str(refused.value) == (
            "non-integer coefficient at class " + _RAISED_MARK_REFUSALS[k][cls.label])


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
    assert [c.cycle_type_counts for c in again.classes] == [
        c.cycle_type_counts for c in lattice.classes
    ]
    assert again.n_table == lattice.n_table
    assert serialize_lattice(again) == blob
    _assert_each_fact_stated_once(lattice, blob)


def _assert_each_fact_stated_once(lattice, blob):
    # per class |N(H)| and generators as image strings, then the rows that
    # _derived_rows does not give; the index, order, label, n(H,H) = 1,
    # n(L,S_k) = 1 and every row of a cyclic L are derived on reading
    header, *body, checksum = blob.decode().splitlines()
    assert header == f"burnside-lattice v3 k={lattice.k}"
    assert checksum.startswith("checksum ")
    split = body.index("n:")
    assert split == len(lattice.classes)
    for c, line in zip(lattice.classes, body[:split]):
        images = ",".join("".join(map(str, g)) for g in c.generators)
        assert line == f"{c.normalizer_order}|{images}"
    rows = {(li, hi): n for li, hi, n in (map(int, line.split()) for line in body[split + 1:])}
    cyclic = {c.index for c in lattice.classes
              if any(math.lcm(*t) == c.order for t in c.cycle_type_counts)}

    def derived(li, hi):
        return li in cyclic or li == hi or hi == lattice.full_index

    assert rows == {key: n for key, n in lattice.n_table.items() if not derived(*key)}


def test_k6_file_states_194_of_467_rows_in_at_most_2800_bytes(lattice6):
    blob = serialize_lattice(lattice6)
    assert len(blob) <= 2800
    assert blob.decode().split("n:\n")[1].count("\n") - 1 == 194
    assert len(lattice6.n_table) - len(lattice6.classes) == 467


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_derived_rows_equal_the_builders_counts(k, request):
    # the builder counts the conjugates of L inside H on its bit masks; the
    # reader derives the rows of a cyclic L from the cycle-type counts, and
    # n(H,H) = n(L,S_k) = 1, each from the class lines alone
    lattice = request.getfixturevalue(f"lattice{k}") if k >= 4 else build_lattice(k)
    _assert_derived_rows_agree(lattice)


def test_writer_refuses_a_table_that_disagrees_with_its_derived_rows(lattice5):
    # the file leaves the derived rows out, so a table the reader would not
    # reproduce is never written
    for key, n in [((0, 1), 9), ((1, 4), 2), ((4, 18), 2)]:
        n_table = {**lattice5.n_table, key: n}
        with pytest.raises(ConsistencyError, match="derived rows"):
            serialize_lattice(SubgroupLattice(lattice5.k, lattice5.classes, n_table))
    n_table = dict(lattice5.n_table)
    del n_table[1, 4]
    with pytest.raises(ConsistencyError, match="derived rows"):
        serialize_lattice(SubgroupLattice(lattice5.k, lattice5.classes, n_table))


def _assert_derived_rows_agree(lattice):
    derived = burnside._derived_rows(lattice.classes)
    assert {key: lattice.n(*key) for key in derived} == derived
    full = lattice.full_index
    assert all(derived[i, i] == derived[i, full] == 1 for i in range(len(lattice.classes)))
    # the trivial class is cyclic, so its whole row is derived
    assert all((0, j) in derived for j in range(len(lattice.classes)))


# SHA-256 of serialize_lattice(build_lattice(k)): the class order, the
# generators, the normalizer orders and the n(L,H) table are the cache
# format, so no rewrite of build_lattice may move them
PINNED_LATTICE_SHA256 = {
    2: "33b7a2ed25980a9fca3f58c5f54c2d68c94cc9ba0ef764d74f8c1c557b9adac3",
    3: "e0b0320dc6ada25e3e66fea5feba384ec2b7808ff691ffdc03476b98e31e9371",
    4: "46ae3713872bbc739ab1b34df305c6e7ebd3ae08f7e034e346cddcc39f280ac4",
    5: "f5285929149fba41ab2abe820d1a8a04cd0079d5bc9fd4dc2c86d4fd5bec0c18",
    6: "56460cf72b8b29e6ce4720029036cda32df7e6dca341cdcce1bd543873c7dd25",
}

# SHA-256 of the class labels joined by single spaces: the labels and their
# primes are the report keys, and the cache file no longer holds them
PINNED_LABELS_SHA256 = {
    2: "ae212ae8cb3488c768bd2addd87d58ea99ed0eee8fa4fae76cd9fff0f3bfac0d",
    3: "40d6e62108945c45ebe0af6b23ab521d2d681e060da0091ad8dace39b5aee6b8",
    4: "765b79bdfbea86a23a363d460c106c8d6db747ac74e74aeefddb40361a2d8e75",
    5: "c329c0ebe1291fa74a9007b75163f8a569d65d35a396c7cfdfab5e1a65c81783",
    6: "a322159e6c84a8e350f5463b7f8a8a5664bd9bcee2f34ab7e5646d943f9d8bc4",
}


def _labels_digest(lattice) -> str:
    return hashlib.sha256(" ".join(c.label for c in lattice.classes).encode()).hexdigest()


@pytest.mark.parametrize("k", sorted(PINNED_LATTICE_SHA256))
def test_serialized_lattice_pinned(k, request):
    lattice = request.getfixturevalue(f"lattice{k}") if k >= 4 else build_lattice(k)
    digest = hashlib.sha256(serialize_lattice(lattice)).hexdigest()
    assert digest == PINNED_LATTICE_SHA256[k]


@pytest.mark.parametrize("k", sorted(PINNED_LABELS_SHA256))
def test_class_labels_pinned(k, request):
    lattice = request.getfixturevalue(f"lattice{k}") if k >= 4 else build_lattice(k)
    assert _labels_digest(lattice) == PINNED_LABELS_SHA256[k]


def _assert_class_keys_strictly_increase(lattice):
    # each key from the representative, whose moved points are its
    # generators'; a tie would leave the cache reader unable to tell two
    # classes, or their order, apart.  A file states |N(H)|, so the reader
    # tells classes apart by the other three fields alone
    keys = []
    for c in lattice.classes:
        types = [cycle_type(p) for p in c.representative]
        moved = len({i for p in c.representative for i, x in enumerate(p) if x != i})
        key = (c.order, tuple(sorted(types)), c.normalizer_order, moved)
        assert class_key(c.normalizer_order, c.generators, types) == key
        keys.append(key)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len({(order, types, moved) for order, types, _, moved in keys}) == len(keys)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_builder_class_keys_strictly_increase(k, request):
    lattice = request.getfixturevalue(f"lattice{k}") if k >= 4 else build_lattice(k)
    _assert_class_keys_strictly_increase(lattice)


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
    body = blob.replace("burnside-lattice v3", "burnside-lattice v2", 1)
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
    # k = 7 takes naming branches no smaller width reaches (Z7, D7, G21,
    # G168, F20', G12'), so its bytes and labels are pinned as k <= 6's are
    blob = serialize_lattice(lattice)
    assert hashlib.sha256(blob).hexdigest() == (
        "cb43128a5f26a96c444a9608e81beeb6a9ffaeacfa5aa3c7377015732ae13480")
    assert _labels_digest(lattice) == (
        "41e8da444fcacd964bc4acfceca0a7647b58e8e0d7ef8e2d3fd5f1509ce6a2f1")
    _assert_class_keys_strictly_increase(lattice)
    _assert_derived_rows_agree(lattice)
    _assert_each_fact_stated_once(lattice, blob)
    again = load_lattice(blob)
    assert again == lattice and again.n_table == lattice.n_table
    # the pin is not self-certifying: each A4 has A4's 8 elements of order 3
    a4 = [c for c in lattice.classes if c.label.rstrip("'") == "A4"]
    assert len(a4) == 3
    for c in a4:
        assert sum(n for t, n in c.cycle_type_counts.items() if math.lcm(*t) == 3) == 8


@pytest.mark.parametrize("gens, name", [
    # Z3 x V4: abelian, 2 elements of order 3
    # (4 5 6), (0 1)(2 3) and (0 2)(1 3), on the points 0..6
    ([(0, 1, 2, 3, 5, 6, 4), (1, 0, 3, 2, 4, 5, 6), (2, 3, 0, 1, 4, 5, 6)], "G12"),
    # six elements of order 4, which A4 lacks: (0 2 1 3)(5 6) in place of
    # (0 2)(1 3)
    ([(0, 1, 2, 3, 5, 6, 4), (1, 0, 3, 2, 4, 5, 6), (2, 3, 1, 0, 4, 6, 5)], "G12"),
    # A4 acting on {0, 1, 2, 3} and, through its quotient Z3, on {4, 5, 6}:
    # (1 2 3)(4 5 6) and (0 1)(2 3)
    ([(0, 2, 3, 1, 5, 6, 4), (1, 0, 3, 2, 4, 5, 6)], "A4"),
])
def test_order_twelve_named_a4_only_with_eight_elements_of_order_three(gens, name):
    # even order-12 groups on 7 points that are neither cyclic nor dihedral
    group = closure(gens, 7)
    assert len(group) == 12
    counts = collections.Counter(map(cycle_type, group))
    moved = len({i for g in gens for i, x in enumerate(g) if x != i})
    assert class_name(len(group), counts, moved) == name


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

    monkeypatch.setattr(subgroups, "_all_perms", listed)
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
    conj = tables.conjugates(range(24), range(24))
    for i, p in enumerate(perms):
        assert perms[tables.inv[i]] == invert(p)
        for j, q in enumerate(perms):
            assert perms[tables.mul[i, j]] == compose(p, q)
            assert perms[conj[i, j]] == compose(p, compose(q, invert(p)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_conjugates_match_compose(data):
    # the two-gather conjugation against the tuple arithmetic, on drawn lists
    k = data.draw(st.integers(4, 6), label="k")
    tables = _tables(k)
    index = st.integers(0, len(tables.perms) - 1)
    gs = data.draw(st.lists(index, min_size=1, max_size=5), label="gs")
    hs = data.draw(st.lists(index, min_size=1, max_size=5), label="hs")
    got = tables.conjugates(gs, hs)
    assert got.shape == (len(gs), len(hs))
    for i, g in enumerate(gs):
        p = tables.perms[g]
        for j, h in enumerate(hs):
            assert tables.perms[got[i, j]] == compose(p, compose(tables.perms[h], invert(p)))


def _close(tables, gens, base):
    """<gens>, grown from its closed subgroup base, as an index set."""
    (key,) = tables.close_indices(gens, base, [tables.ident])
    return frozenset(tables.members(key).tolist())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_close_indices_matches_closure(data):
    # the coset-by-coset closure against the independent tuple-space
    # closure, grown from the identity and from a closed prefix
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
    """<gens> by the tuple-space closure, as an index set."""
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


def _orbit_closure(generators, k):
    """The orbit search closure made before it grew by cosets: every element
    found times every generator, one layer at a time.  Kept here as its
    reference."""
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


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_closure_matches_orbit_search(data):
    # random generator lists, with one generator the group already holds
    # (the identity included) put in among them
    k = data.draw(st.integers(2, 7), label="k")
    gens = data.draw(st.lists(st.permutations(range(k)).map(tuple), max_size=4), label="gens")
    want = _orbit_closure(gens, k)
    inside = data.draw(st.sampled_from(sorted(want)), label="inside")
    gens.insert(data.draw(st.integers(0, len(gens)), label="at"), inside)
    assert closure(gens, k) == want


@pytest.mark.parametrize("fixture", ["lattice4", "lattice5", "lattice6"])
def test_closure_of_cached_generators_is_the_builders_representative(fixture, request):
    lattice = request.getfixturevalue(fixture)
    again = load_lattice(serialize_lattice(lattice))
    for cached, built in zip(again.classes, lattice.classes, strict=True):
        assert cached.generators == built.generators
        assert closure(list(cached.generators), lattice.k) == built.representative


def test_closure_helper():
    gens = [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]   # a 5-cycle and a reflection
    assert len(closure(gens, 5)) == 10
