"""Group table construction, validation, and structural maps."""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest

from prodone import groups
from prodone.errors import GroupTableError, ParseError
from prodone.groups import (GroupMap, GroupTable, abelian_invariants,
                            abelian_structure_label, alternating, cyclic,
                            dicyclic, dihedral, direct_product,
                            find_group_isomorphisms, from_table,
                            generating_sequence, order_profile,
                            parse_group_spec, symmetric)
from prodone.isolab import SMALL_GROUP_SPECS

from brute_force import (closure_by_products, commutator_subgroup_by_closure,
                         first_associativity_failure, greedy_generators_by_closure,
                         random_loop, relabeled_copy)


def assert_group_axioms(group):
    """Recheck the axioms directly, independent of constructor validation."""
    n = group.order
    t = group.table
    for a in range(n):
        assert t[0][a] == a and t[a][0] == a
        assert sorted(t[a]) == list(range(n))
        assert sorted(row[a] for row in t) == list(range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert t[t[a][b]][c] == t[a][t[b][c]]
    for a in range(n):
        assert t[a][group.inv(a)] == 0
        assert t[group.inv(a)][a] == 0


@pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 12])
def test_cyclic_axioms_and_orders(n):
    g = cyclic(n)
    assert_group_axioms(g)
    assert g.is_abelian
    census = g.order_census()
    for d, count in census.items():
        assert n % d == 0
        phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
        assert count == phi


@pytest.mark.parametrize("order", [6, 8, 10, 12])
def test_dihedral_structure(order):
    g = dihedral(order)
    assert_group_axioms(g)
    assert not g.is_abelian
    m = order // 2
    # reflections all have order 2
    census = g.order_census()
    assert census[2] >= m
    r, s = g.index_of("r"), g.index_of("s")
    assert g.element_order(r) == m
    assert g.element_order(s) == 2
    # s r s = r^-1
    assert g.mul(g.mul(s, r), s) == g.inv(r)


@pytest.mark.parametrize("order", [8, 12, 16])
def test_dicyclic_structure(order):
    g = dicyclic(order)
    assert_group_axioms(g)
    assert not g.is_abelian
    m = order // 2
    a, x = g.index_of("a"), g.index_of("x")
    assert g.element_order(a) == m
    assert g.element_order(x) == 4
    # x^2 = a^(m/2), the unique central involution
    assert g.mul(x, x) == g.power(a, m // 2)
    # x a x^-1 = a^-1
    assert g.mul(g.mul(x, a), g.inv(x)) == g.inv(a)


# sha256 over repr((table, names, label, table_hash())) of each group in turn;
# the disk catalogs are named by table hash, so these must never move
@pytest.mark.parametrize("family, build, digest", [
    ("cyclic 1-31", lambda: [cyclic(n) for n in range(1, 32)],
     "10831cdf3f02938c292d17bf740d2fed8f12db1cf48b640c904de3c6a46fa68e"),
    ("dihedral 2-32", lambda: [dihedral(o) for o in range(2, 33, 2)],
     "bd479f47af3952a54bc967da897df530c3ee1afc6c30ef1685abe7b8fda32c0c"),
    ("dicyclic 4-32", lambda: [dicyclic(o) for o in range(4, 33, 4)],
     "74b66fea61e701e4dac8637741c9540af4c104fdb03916a207618d7b99e43529"),
    ("Q8", lambda: [parse_group_spec("Q8")],
     "23aeee51f46ccc315d70091310fafdd69a76a1227cf7778b10bf865151f0d142"),
    ("catalog", lambda: [parse_group_spec(spec) for spec in SMALL_GROUP_SPECS],
     "2d106184c32271fab8ac4fdce6bd4921c4a02b9a54ddcbd58d95f98b98dcbceb"),
])
def test_family_tables_names_and_labels_are_pinned(family, build, digest):
    h = hashlib.sha256()
    for g in build():
        h.update(repr((g.table, g.names, g.label, g.table_hash())).encode())
    assert h.hexdigest() == digest


def test_quaternion_is_dicyclic_8():
    q8 = parse_group_spec("Q8")
    assert q8.order == 8
    assert sorted(q8.order_census().items()) == [(1, 1), (2, 1), (4, 6)]


@pytest.mark.parametrize("n, expected_order", [(2, 2), (3, 6), (4, 24)])
def test_symmetric_groups(n, expected_order):
    g = symmetric(n)
    assert_group_axioms(g)
    assert g.order == expected_order
    assert g.is_abelian == (n <= 2)


def test_symmetric_composition_convention():
    g = symmetric(3)
    r, s = g.index_of("r"), g.index_of("s")
    assert g.element_order(r) == 3
    assert g.element_order(s) == 2
    assert g.mul(r, s) != g.mul(s, r)


def test_alternating_4():
    g = alternating(4)
    assert_group_axioms(g)
    assert g.order == 12
    assert sorted(g.order_census().items()) == [(1, 1), (2, 3), (3, 8)]


def test_direct_product_census():
    g = direct_product(cyclic(3), cyclic(4))
    assert_group_axioms(g)
    assert g.order == 12
    # C3 x C4 is cyclic of order 12
    assert max(g.element_order(x) for x in g.elements()) == 12
    k4 = direct_product(cyclic(2), cyclic(2))
    assert sorted(k4.order_census().items()) == [(1, 1), (2, 3)]


@pytest.mark.parametrize("rows, message", [
    # left-translation table of C3 shifted so no row acts as identity
    ([[1, 2, 0], [2, 0, 1], [0, 1, 2]], "element 0 is not a left identity: 0*0 = 1"),
    # row 0 is the identity row, but column 0 is not the identity column
    ([[0, 1], [0, 1]], "element 0 is not a right identity: 1*0 = 0"),
])
def test_identity_must_exist(rows, message):
    with pytest.raises(GroupTableError) as err:
        GroupTable(rows)
    assert str(err.value) == message


def test_associativity_violation_reported():
    # latin square with identity that is not a group: order-5 quasigroup
    rows = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    with pytest.raises(GroupTableError) as err:
        GroupTable(rows)
    assert "associat" in str(err.value)
    _assert_light_test_matches_cubic_check(tuple(map(tuple, rows)))


# every family of parse_group_spec, from the trivial group up to A5, and products
LIGHT_TEST_SPECS = ["C1", "C2", "C9", "C16", "D2", "D10", "D16", "Dic12", "Dic16", "Q8",
                    "S1", "S3", "S4", "A3", "A4", "A5", "C2xQ8", "S3xC4",
                    "C2xC2xC2xC2"]


@pytest.mark.parametrize("view", ["table", "opposite", "relabeled"])
@pytest.mark.parametrize("spec", LIGHT_TEST_SPECS)
def test_light_test_accepts_what_the_cubic_check_accepts(spec, view):
    group = parse_group_spec(spec)
    if view == "opposite":
        group = group.opposite()
    elif view == "relabeled":
        group = relabeled_copy(group, random.Random(spec))
    assert first_associativity_failure(group.table) is None
    groups._validate_associative(group.table)


def _assert_light_test_matches_cubic_check(rows):
    failure = first_associativity_failure(rows)
    if failure is None:
        groups._validate_associative(rows)
        return
    with pytest.raises(GroupTableError, match="associativity fails at") as err:
        groups._validate_associative(rows)
    a, b, c = map(int, str(err.value).split("(", 1)[1].split(")", 1)[0].split(", "))
    assert rows[rows[a][b]][c] != rows[a][rows[b][c]]


@pytest.mark.parametrize("n", range(2, 10))
def test_light_test_matches_the_cubic_check_on_seeded_loops(n):
    # Latin squares with an identity: every one of order <= 4 is a group,
    # and most larger ones are not associative
    rng = random.Random(n)
    rejected = 0
    for _ in range(40):
        rows = random_loop(rng, n)
        _assert_light_test_matches_cubic_check(rows)
        rejected += first_associativity_failure(rows) is not None
    assert (rejected == 0) == (n <= 4)


@pytest.mark.parametrize("k", [2, 3])
def test_light_test_checks_more_than_the_first_generator(k):
    # in C_k x Q, with (c, q) numbered c + k*q, the first generator (1, e)
    # associates with everything, so every failure needs another generator
    rng = random.Random(k)
    rejected = 0
    for _ in range(10):
        loop = random_loop(rng, 6)
        rows = tuple(tuple((c + d) % k + k * loop[q][r] for r in range(6) for d in range(k))
                     for q in range(6) for c in range(k))
        assert (first_associativity_failure(rows) is None) == (
            first_associativity_failure(loop) is None)
        _assert_light_test_matches_cubic_check(rows)
        rejected += first_associativity_failure(rows) is not None
    assert rejected


def test_ragged_and_out_of_range_tables():
    with pytest.raises(GroupTableError):
        GroupTable([[0, 1], [1]])
    with pytest.raises(GroupTableError):
        GroupTable([[0, 2], [2, 0]])


def test_power_and_element_order():
    g = cyclic(6)
    x = 1
    assert g.power(x, 0) == 0
    assert g.power(x, 4) == 4
    assert g.power(x, -1) == g.inv(x)
    assert g.power(x, 601) == 1
    for a in g.elements():
        k = g.element_order(a)
        assert g.power(a, k) == 0
        for j in range(1, k):
            assert g.power(a, j) != 0


def test_opposite_group():
    s3 = symmetric(3)
    op = s3.opposite()
    assert_group_axioms(op)
    for a in range(6):
        for b in range(6):
            assert op.mul(a, b) == s3.mul(b, a)
    assert op.opposite() == s3
    ident = GroupMap.identity(s3)
    into_op = GroupMap(s3, op, ident.images)
    assert into_op.is_anti_homomorphism()
    assert not into_op.is_homomorphism()
    c6 = cyclic(6)
    assert c6.opposite() == c6


def test_commutator_subgroup_sizes():
    cases = [(symmetric(3), 3), (dihedral(8), 2), (parse_group_spec("Q8"), 2),
             (alternating(4), 4), (cyclic(12), 1), (dihedral(12), 3)]
    for group, size in cases:
        quotient = group.abelianization()
        assert group.order // quotient.order == size


def test_abelianization_structures():
    assert abelian_structure_label(parse_group_spec("Q8").abelianization()) == "C2xC2"
    assert abelian_structure_label(dihedral(8).abelianization()) == "C2xC2"
    assert abelian_structure_label(symmetric(3).abelianization()) == "C2"
    assert abelian_structure_label(alternating(4).abelianization()) == "C3"
    assert abelian_structure_label(dihedral(12).abelianization()) == "C2xC2"
    # x^2 = a^3 lies outside <a^2>, so the image of x has order 4
    assert abelian_structure_label(dicyclic(12).abelianization()) == "C4"
    assert abelian_structure_label(dicyclic(16).abelianization()) == "C2xC2"


def test_abelianization_map_is_onto_homomorphism():
    g = dicyclic(12)
    quotient, proj = g.abelianization_map()
    assert quotient.is_abelian
    assert proj[0] == 0
    assert set(proj) == set(quotient.elements())
    for a in range(g.order):
        for b in range(g.order):
            assert proj[g.mul(a, b)] == quotient.mul(proj[a], proj[b])


def test_abelian_invariants():
    assert abelian_invariants(cyclic(12)) == (12,)
    assert abelian_invariants(direct_product(cyclic(2), cyclic(2))) == (2, 2)
    assert abelian_invariants(parse_group_spec("C4xC2")) == (4, 2)
    assert abelian_invariants(cyclic(1)) == ()
    assert abelian_invariants(direct_product(cyclic(2), cyclic(3))) == (6,)


def test_table_hash_ignores_names_not_structure():
    g1 = cyclic(4)
    g2 = GroupTable([list(row) for row in g1.table],
                    names=["e", "a", "b", "c"], label="relabeled")
    assert g1.table_hash() == g2.table_hash()
    assert g1 == g2
    assert g1.table_hash() != dihedral(8).table_hash()


def test_from_table_round_trip():
    s3 = symmetric(3)
    lines = [str(s3.order)]
    lines += [" ".join(str(v) for v in row) for row in s3.table]
    lines += [f"name {i} {s3.name_of(i)}" for i in range(s3.order)]
    parsed = from_table("\n".join(lines))
    assert parsed == s3
    assert parsed.name_of(s3.index_of("rs")) == "rs"


def test_from_table_relocates_identity():
    # same C2 but with the identity listed second
    text = "2\n1 0\n0 1\nname 0 x\nname 1 e"
    g = from_table(text)
    assert g.name_of(0) == "e"
    assert g.mul(0, 1) == 1


def test_from_table_default_names():
    g = from_table("2\n0 1\n1 0")
    assert g.name_of(0) == "g0"
    assert g.name_of(1) == "g1"


def _table_text(rows, names=()) -> str:
    lines = [str(len(rows))] + [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines + [f"name {i} {s}" for i, s in names])


def test_from_table_relabels_with_names_for_only_some_elements():
    s3 = symmetric(3)
    # S3 with its elements 0 and 3 trading ids, so the identity is listed at index 3
    swap = [3, 1, 2, 0, 4, 5]
    rows = [[swap[s3.mul(swap[a], swap[b])] for b in range(6)] for a in range(6)]
    g = from_table(_table_text(rows, [(3, "e"), (1, "r")]), label="S3'")
    assert g.table == s3.table
    # an unnamed element keeps the default name of its index in the text
    assert g.names == ("e", "r", "g2", "g0", "g4", "g5")
    assert g.label == "S3'"
    # with no name lines the defaults follow the new ids
    assert from_table(_table_text(rows)).names == tuple(f"g{i}" for i in range(6))
    c2 = from_table("2\n1 0\n0 1")
    assert c2.table == ((0, 1), (1, 0)) and c2.names == ("g0", "g1")


@pytest.mark.parametrize("spec", ["C5", "S3", "D8", "Q8", "C2xC6", "A4"])
def test_from_table_moves_only_the_identity_on_seeded_relabelings(spec):
    group = parse_group_spec(spec)
    rng = random.Random(spec)
    n = group.order
    perm = rng.sample(range(n), n)  # the identity lands anywhere
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[perm[a]][perm[b]] = perm[group.mul(a, b)]
    e = perm[0]
    new = {x: x for x in range(n)}
    new[0], new[e] = e, 0
    expected = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            expected[new[a]][new[b]] = new[rows[a][b]]
    named = sorted(rng.sample(range(n), n // 2))
    g = from_table(_table_text(rows, [(i, f"x{i}") for i in named]))
    assert g.table == tuple(map(tuple, expected))
    assert g.names == tuple(f"x{new[i]}" if new[i] in named else f"g{new[i]}"
                            for i in range(n))
    assert find_group_isomorphisms(group, g, limit=1)


FROM_TABLE_REJECTIONS = [
    ("", ParseError, "empty table text"),
    ("# only a comment\n\n", ParseError, "empty table text"),
    ("two\n0 1\n1 0", ParseError, "first line must be the order, got 'two'"),
    ("0", ParseError, "order must be positive, got 0"),
    ("2\n0 1", ParseError, "expected 2 table rows, found 1"),
    ("2\n0 x\n1 0", ParseError, "bad table row '0 x'"),
    ("2\n0 1 1\n1 0", ParseError, "table row '0 1 1' has 3 entries, expected 2"),
    ("2\n0 1\n1 0\nlabel 0 e", ParseError,
     "bad trailing line 'label 0 e'; expected 'name <index> <label>'"),
    ("2\n0 1\n1 0\nname one e", ParseError, "bad element index in 'name one e'"),
    ("2\n0 1\n1 0\nname 2 e", ParseError, "name index 2 outside 0..1"),
    ("2\n0 2\n1 0", GroupTableError, "table entry 2 outside 0..1"),
    ("2\n0 1\n0 1", GroupTableError, "table has no two-sided identity element"),
]


@pytest.mark.parametrize("text, error, message", FROM_TABLE_REJECTIONS)
def test_from_table_rejections(text, error, message):
    with pytest.raises(error) as err:
        from_table(text)
    assert str(err.value) == message


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [1, 1]], "row 1 repeats element 1 at cell (1, 1)"),
    # every row a permutation; column 1 holds 2 twice
    ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 2, 1, 0]],
     "column 1 repeats element 2 at cell (3, 1)"),
    # columns 1 and 2 both repeat; the lower column is named, at its first repeat
    ([[0, 1, 2, 3], [1, 3, 0, 2], [2, 3, 0, 1], [3, 0, 1, 2]],
     "column 1 repeats element 3 at cell (2, 1)"),
    # a repeating row is named before any column, whatever their places
    ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 2, 1, 1]],
     "row 3 repeats element 1 at cell (3, 3)"),
])
def test_latin_check_names_the_first_repeat(rows, message):
    with pytest.raises(GroupTableError) as err:
        GroupTable(rows)
    assert str(err.value) == message


def test_parse_group_spec_families():
    for spec, order in [("C1", 1), ("C7", 7), ("D8", 8), ("Dic12", 12),
                        ("S4", 24), ("A4", 12), ("Q8", 8), ("C2xC3", 6),
                        ("C2xC2xC2", 8)]:
        g = parse_group_spec(spec)
        assert g.order == order
        assert g.label == spec
    assert parse_group_spec("A5").order == 60


def test_parse_group_spec_validates_each_table_once(monkeypatch):
    # three factors and two products: five tables, each checked once
    calls = []
    validate = groups._validate_associative

    def counted(rows):
        calls.append(len(rows))
        return validate(rows)

    monkeypatch.setattr(groups, "_validate_associative", counted)
    g = parse_group_spec("C2xC2xC2")
    assert calls == [2, 2, 2, 4, 8]
    assert g.label == "C2xC2xC2" and g.name_of(7) == "g.g.g"


def test_parse_group_spec_rejections():
    for bad in ["", "C0", "D7", "D0", "Dic10", "Dic4x", "S6", "A2", "Zoo",
                "C3x", "xC3", "Q16"]:
        with pytest.raises(ParseError):
            parse_group_spec(bad)


def test_index_of_accepts_names_and_ids():
    g = symmetric(3)
    assert g.index_of("4") == 4  # no element is named "4", so the id applies
    assert g.index_of("1") == 0  # but names win: "1" is the identity's name
    assert g.name_of(g.index_of("r2s")) == "r2s"
    with pytest.raises(ParseError):
        g.index_of("nope")
    with pytest.raises(ParseError):
        g.index_of("17")


def test_group_map_basics():
    g = cyclic(5)
    ident = GroupMap.identity(g)
    assert ident.is_bijective() and ident.is_homomorphism()
    invm = GroupMap.inversion(g)
    assert invm.is_homomorphism()  # abelian
    assert invm.inverse().images == invm.images  # inversion is an involution
    s3 = symmetric(3)
    ninv = GroupMap.inversion(s3)
    assert ninv.is_anti_homomorphism() and not ninv.is_homomorphism()
    with pytest.raises(ValueError):
        GroupMap(g, g, (0, 1, 2))
    with pytest.raises(ValueError):
        GroupMap(g, g, (0, 1, 2, 3, 9))
    # non-bijective maps are representable; the predicate reports them
    squash = GroupMap(g, g, (0, 0, 1, 2, 3))
    assert not squash.is_bijective()


def brute_automorphisms(group):
    """All bijections preserving the table, by unpruned enumeration."""
    n = group.order
    out = []
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(perm[group.mul(a, b)] == group.mul(perm[a], perm[b])
               for a in range(n) for b in range(n)):
            out.append(perm)
    return sorted(out)


def test_isomorphisms_match_brute_force():
    s3 = symmetric(3)
    found = find_group_isomorphisms(s3, s3)
    assert sorted(m.images for m in found) == brute_automorphisms(s3)
    assert len(found) == 6
    k4 = direct_product(cyclic(2), cyclic(2))
    assert len(find_group_isomorphisms(k4, k4)) == len(brute_automorphisms(k4)) == 6


def test_isomorphisms_between_distinct_presentations():
    c6 = cyclic(6)
    c2x3 = direct_product(cyclic(2), cyclic(3))
    maps = find_group_isomorphisms(c6, c2x3)
    assert len(maps) == 2  # |Aut(C6)| = 2
    for m in maps:
        assert m.is_homomorphism() and m.is_bijective()
    assert find_group_isomorphisms(cyclic(4), direct_product(cyclic(2), cyclic(2))) == []
    assert find_group_isomorphisms(cyclic(4), cyclic(5)) == []


def test_isomorphism_limit_and_determinism():
    # the early stop of ``limit`` keeps the head of the sorted full list, on
    # every ordered pair of equal order among the catalog and five more groups
    groups = [parse_group_spec(spec)
              for spec in SMALL_GROUP_SPECS + ("S4", "C4xC4", "D16", "Dic16", "C2xC8")]
    pairs = [(g1, g2) for g1, g2 in itertools.product(groups, repeat=2)
             if g1.order == g2.order]
    assert len(pairs) == 88
    for g1, g2 in pairs:
        full = [m.images for m in find_group_isomorphisms(g1, g2)]
        assert full == sorted(full)
        for k in (1, 2):
            assert [m.images for m in find_group_isomorphisms(g1, g2, limit=k)] == full[:k]


def test_order_profile_and_generators():
    assert order_profile(cyclic(4)) != order_profile(
        direct_product(cyclic(2), cyclic(2)))
    rng = random.Random(7)
    for g in [cyclic(9), dihedral(10), parse_group_spec("Q8"), alternating(4)]:
        gens = generating_sequence(g)
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = g.mul(x, h)
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == set(g.elements())
        # generating sequences are short: never longer than log2(order)
        assert len(gens) <= max(1, g.order.bit_length())
        rng.shuffle(list(gens))


@pytest.mark.parametrize("spec", SMALL_GROUP_SPECS + ("S4", "A5", "C2xA4", "D16", "Dic16",
                                                     "C2xC2xC2xC2"))
def test_generator_walk_matches_the_pairwise_closure(spec):
    g = parse_group_spec(spec)
    assert generating_sequence(g) == greedy_generators_by_closure(g)
    assert g.commutator_subgroup() == commutator_subgroup_by_closure(g)
    rng = random.Random(spec)
    for size in (1, 2, 3):
        seed = rng.sample(range(g.order), min(size, g.order))
        assert groups._subgroup_closure(g, seed) == closure_by_products(g, seed)


def test_frozen_attributes():
    g = cyclic(3)
    with pytest.raises(AttributeError):
        g.order = 5
