"""Group table construction, validation, and structural maps."""

from __future__ import annotations

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


def test_identity_must_exist():
    # left-translation table of C3 shifted so no row acts as identity
    rows = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    with pytest.raises(GroupTableError):
        GroupTable(rows)


def test_latin_violation_reported():
    rows = [[0, 1], [1, 1]]
    with pytest.raises(GroupTableError) as err:
        GroupTable(rows)
    assert "1" in str(err.value)


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


def test_frozen_attributes():
    g = cyclic(3)
    with pytest.raises(AttributeError):
        g.order = 5
