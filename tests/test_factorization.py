"""Atoms, Davenport constants, and sets of lengths against naive oracles."""

from __future__ import annotations

import functools
import gc
import itertools
import random
import weakref
from collections import Counter, OrderedDict
from math import comb

import pytest

from prodone import factorization
from prodone.errors import BudgetExceededError, CatalogError, ParseError
from prodone.factorization import (DEFAULT_SEARCH_BUDGET, AtomCatalog, _abelian_atoms,
                                   _atom_keys, _ball_atoms, _level_ball,
                                   _unpack, enumerate_atoms,
                                   factorizations, fingerprint, is_atom,
                                   large_davenport, length_system,
                                   product_one_vectors, set_of_lengths)
from prodone.groups import (GroupTable, cyclic, dihedral, direct_product, parse_group_spec,
                            symmetric)
from prodone.isolab import SMALL_GROUP_SPECS
from prodone.sequences import Sequence, parse_sequence

from brute_force import (length_system_by_factorizations, relabeled_copy, small_davenport,
                         sub_multisets)


def all_multisets(group, max_len, skip_identity=False):
    """Every multiset of nonzero length up to max_len, canonically ordered."""
    out = []
    first = 1 if skip_identity else 0

    def rec(last, rem, chosen):
        if chosen:
            out.append(Sequence.from_elements(group, chosen))
        if rem:
            for x in range(last, group.order):
                rec(x, rem - 1, chosen + [x])

    rec(first, max_len, [])
    return out


def naive_is_atom(seq):
    if seq.is_empty() or not seq.is_product_one():
        return False
    for part in sub_multisets(seq):
        if part.is_empty() or part == seq:
            continue
        if part.is_product_one() and seq.quotient(part).is_product_one():
            return False
    return True


def naive_atoms(group, max_len):
    found = {}
    for seq in all_multisets(group, max_len):
        if naive_is_atom(seq):
            found.setdefault(seq.length, set()).add(seq.exponents)
    return found


def naive_length_spectrum(seq, _memo=None):
    """All factorization lengths, by recursively peeling one atom."""
    if _memo is None:
        _memo = {}
    if seq.is_empty():
        return {0}
    key = seq.exponents
    if key in _memo:
        return _memo[key]
    _memo[key] = set()  # cycle guard; peeling shortens, so never revisited
    out = set()
    for part in sub_multisets(seq):
        if part.is_empty() or not naive_is_atom(part):
            continue
        rest = seq.quotient(part)
        if rest.is_empty() or rest.is_product_one():
            out |= {1 + k for k in naive_length_spectrum(rest, _memo)}
    _memo[key] = out
    return out


def test_identity_atom_is_the_only_one_containing_identity():
    g = symmetric(3)
    one = parse_sequence(g, "1")
    assert is_atom(one)
    assert not is_atom(parse_sequence(g, "1^2"))
    assert not is_atom(parse_sequence(g, "1,r,r2"))
    assert not is_atom(Sequence.empty(g))
    catalog = enumerate_atoms(g, 6)
    with_identity = [a for a in catalog.all_atoms() if a.exponents[0]]
    assert with_identity == [one]


def test_inverse_pairs_and_full_power_runs_are_atoms():
    for group in [cyclic(5), dihedral(8), parse_group_spec("Q8")]:
        for x in range(1, group.order):
            pair = Sequence.from_elements(group, [x, group.inv(x)])
            assert is_atom(pair)
            run = Sequence.from_elements(group, [x] * group.element_order(x))
            assert is_atom(run)


def test_quaternion_atom_with_product_one_proper_subsequence():
    q8 = parse_group_spec("Q8")
    seq = parse_sequence(q8, "a^4,x^2")
    assert is_atom(seq)
    inside = parse_sequence(q8, "a^4")
    assert inside.divides(seq) and inside.is_product_one()
    assert not seq.quotient(inside).is_product_one()
    # naive confirmation that no split exists at all
    assert naive_is_atom(seq)


def test_quaternion_six_squares_splits():
    q8 = parse_group_spec("Q8")
    seq = parse_sequence(q8, "a^2,x^2,ax^2")
    assert seq.is_product_one()
    assert not is_atom(seq)
    triple = parse_sequence(q8, "a,x,ax")
    assert triple.is_product_one()
    assert seq.quotient(triple) == triple


@pytest.mark.parametrize("spec, max_len", [("C4", 4), ("C2xC2", 4), ("C5", 5),
                                           ("S3", 5), ("D8", 4)])
def test_enumerate_atoms_matches_naive(spec, max_len):
    group = parse_group_spec(spec)
    catalog = enumerate_atoms(group, max_len)
    assert catalog.exhaustive
    mine = {ln: set(atoms) for ln, atoms in catalog.atoms_by_length.items() if atoms}
    assert mine == naive_atoms(group, max_len)


def holds_exponent_tuples(catalog):
    """Whether the catalog holds each atom as a tuple of ints, and no Sequence."""
    return all(type(atoms) is tuple and all(type(vec) is tuple and
                                            all(type(x) is int for x in vec)
                                            for vec in atoms)
               for atoms in catalog.atoms_by_length.values())


def test_atom_catalog_is_sorted_and_consistent():
    catalog = enumerate_atoms(symmetric(3), 6)
    assert holds_exponent_tuples(catalog)
    for ln, atoms in catalog.atoms_by_length.items():
        assert list(atoms) == sorted(atoms)
        assert all(len(a) == 6 and sum(a) == ln for a in atoms)
    assert catalog.max_atom_length() == 6
    assert sum(catalog.counts().values()) == sum(
        len(v) for v in catalog.atoms_by_length.values())


@pytest.mark.parametrize("n", range(2, 7))
def test_davenport_cyclic_matches_naive(n):
    group = cyclic(n)
    assert large_davenport(group) == n
    assert max(naive_atoms(group, n + 1)) == n


def test_davenport_known_small_values():
    assert large_davenport(cyclic(1)) == 1
    assert large_davenport(parse_group_spec("C2xC2")) == 3
    assert large_davenport(symmetric(3)) == 6
    assert large_davenport(parse_group_spec("C2xC2xC2")) == 4


@pytest.mark.parametrize("spec, m, n", [("C10", 1, 10), ("C11", 1, 11), ("C2xC6", 2, 6)])
def test_davenport_of_the_rank_two_catalog_additions_is_olsons(spec, m, n):
    # D(C_n) = n, and Olson: D(C_m x C_n) = m + n - 1 for m | n
    assert large_davenport(parse_group_spec(spec)) == m + n - 1


@pytest.mark.parametrize("spec, davenport", [
    ("C8xC2", 8 + 2 - 1),  # Olson, rank two: n1 + n2 - 1
    ("C4xC4", 4 + 4 - 1),
    ("C4xC2xC2", 1 + 3 + 1 + 1),  # Olson, a 2-group: 1 + sum(ni - 1)
    ("C2xC2xC2xC2", 1 + 4 * 1),
])
def test_davenport_of_the_abelian_order_16_groups_is_olsons_at_the_default_budget(spec,
                                                                                 davenport):
    # the budget admits lengths 1..12 of the 16, and an empty length in 2..12
    # proves the atoms complete
    assert factorization._budget_cap(parse_group_spec(spec), 16, None)[0] == 12
    assert large_davenport(parse_group_spec(spec)) == davenport


@pytest.mark.parametrize("spec", ["C2xD8", "C2xQ8"])
def test_davenport_of_c2_times_d8_and_q8_is_pinned_at_7(spec):
    # no cyclic subgroup of index 2, so no closed form above covers them
    assert large_davenport(parse_group_spec(spec)) == 7


@pytest.mark.parametrize("spec, d", [("S3", 3), ("D8", 4), ("Q8", 4), ("D10", 5),
                                     ("D12", 6), ("Dic12", 6)])
def test_davenport_of_a_group_with_a_cyclic_index_two_subgroup_is_d_plus_commutator(spec, d):
    # Geroldinger-Grynkiewicz (2013): D(G) = d(G) + |G'| when G has a cyclic
    # subgroup of index 2; d(G) comes from a walk that never reads the ball
    group = parse_group_spec(spec)
    assert small_davenport(group) == d
    assert large_davenport(group) == d + len(group.commutator_subgroup())


@pytest.mark.parametrize("spec", [spec for spec in SMALL_GROUP_SPECS
                                  if parse_group_spec(spec).is_abelian])
def test_davenport_of_an_abelian_group_is_d_plus_one(spec):
    group = parse_group_spec(spec)
    assert large_davenport(group) == small_davenport(group) + 1


def test_davenport_of_a4_is_below_d_plus_commutator():
    # A4 has no cyclic subgroup of index 2, and the closed form misses by one
    a4 = parse_group_spec("A4")
    assert small_davenport(a4) == 4 and len(a4.commutator_subgroup()) == 4
    assert large_davenport(a4) == 7


def test_factorizations_examples():
    c2 = cyclic(2)
    catalog = enumerate_atoms(c2, 6)
    b = parse_sequence(c2, "g^4")
    factors = factorizations(b, catalog)
    assert len(factors) == 1
    assert [a.text() for a in factors[0]] == ["g^2", "g^2"]
    assert set_of_lengths(b, catalog) == (2,)
    assert set_of_lengths(parse_sequence(c2, "1,g^2"), catalog) == (2,)
    assert set_of_lengths(parse_sequence(c2, "1^3"), catalog) == (3,)
    assert set_of_lengths(Sequence.empty(c2), catalog) == (0,)
    assert set_of_lengths(parse_sequence(c2, "g^2"), catalog) == (1,)


def test_factorizations_require_product_one_and_coverage():
    c3 = cyclic(3)
    catalog = enumerate_atoms(c3, 3)
    with pytest.raises(ValueError):
        factorizations(parse_sequence(c3, "g"), catalog)
    long_b = parse_sequence(c3, "g^6")
    with pytest.raises(CatalogError):
        factorizations(long_b, catalog)
    with pytest.raises(CatalogError):
        factorizations(parse_sequence(cyclic(2), "g^2"), catalog)


def test_set_of_lengths_matches_spectrum_oracle_on_dihedral_example():
    d8 = dihedral(8)
    catalog = enumerate_atoms(d8, 6)
    b = parse_sequence(d8, "r^2,r2^2,r3^2")
    expected = tuple(sorted(naive_length_spectrum(b)))
    assert set_of_lengths(b, catalog) == expected
    assert len(expected) >= 2  # a genuinely non-singleton set of lengths


def test_set_of_lengths_random_against_oracle():
    rng = random.Random(424242)
    s3 = symmetric(3)
    catalog = enumerate_atoms(s3, 5)
    pool = [s for s in all_multisets(s3, 5) if s.is_product_one()]
    for seq in rng.sample(pool, 25):
        assert set_of_lengths(seq, catalog) == tuple(sorted(naive_length_spectrum(seq)))


def test_length_system_small_cyclic():
    system = length_system(cyclic(2), 4)
    assert system.sets == ((1,), (2,), (3,), (4,))
    assert [1] in system
    assert (5,) not in system


def test_length_system_matches_naive_collection():
    s3 = symmetric(3)
    bound = 4
    naive = set()
    for seq in all_multisets(s3, bound):
        if seq.is_product_one():
            naive.add(tuple(sorted(naive_length_spectrum(seq))))
    assert set(length_system(s3, bound).sets) == naive


@pytest.mark.parametrize("spec", ["C1", "S3", "D8", "Q8", "C6", "C3xC3", "C2xC2xC2",
                                  "relabeled D8"])
def test_length_system_matches_the_factorization_oracle_to_the_davenport_bound(spec):
    group = (relabeled_copy(dihedral(8), random.Random(21)) if spec == "relabeled D8"
             else parse_group_spec(spec))
    for bound in range(1, large_davenport(group) + 1):
        assert length_system(group, bound) == length_system_by_factorizations(group, bound)


@pytest.mark.parametrize("spec", ["D10", "Dic12"])
def test_length_system_matches_the_factorization_oracle_to_bound_5(spec):
    group = parse_group_spec(spec)
    for bound in range(1, 6):
        assert length_system(group, bound) == length_system_by_factorizations(group, bound)
    # to bound 5 every set is a singleton. {2, 3} first comes from an
    # identity-free sequence of length 6, where the oracle takes 3.5 s (D10)
    # and 5.8 s (Dic12), so the sets at bound 6 are pinned from one run of it
    assert length_system(group, 6).sets == ((1,), (2,), (2, 3), (3,), (4,), (5,), (6,))


def test_c3_and_klein_four_have_equal_length_systems_at_bounds_1_to_14():
    """Pins the measured equality of the truncated systems as a regression
    check, not as the theorem.

    L(C3) = L(C2 + C2) holds for the untruncated systems (A. Geroldinger,
    "Sets of lengths", Amer. Math. Monthly 123 (2016)). That a truncation
    at a common bound keeps the equality is what was measured, at every
    bound from 1 to 14.
    """
    c3, klein = parse_group_spec("C3"), parse_group_spec("C2xC2")
    for bound in range(1, 15):
        assert length_system(c3, bound) == length_system(klein, bound), bound
    assert (4, 5, 6) in length_system(c3, 14)  # not only singletons


@pytest.mark.parametrize("spec", SMALL_GROUP_SPECS)
def test_sets_of_lengths_at_the_davenport_bound_have_elasticity_at_most_d_over_2(spec):
    # (1) has length 1 and every other atom length 2 to D, so a sequence of
    # length n with p identities has between p + (n - p)/D and p + (n - p)/2
    # atoms in each factorization, and p + (n - p)/2 <= (D/2)(p + (n - p)/D)
    group = parse_group_spec(spec)
    d = large_davenport(group)
    system = length_system(group, d)
    assert system.bound == d and (d,) in system
    for lengths in system.sets:
        assert 1 <= min(lengths) and 2 * max(lengths) <= d * min(lengths), (lengths, d)


def naive_ball(group, max_len):
    """Identity-free product-one multisets -> length, by trying every ordering."""
    out = {}
    for seq in all_multisets(group, max_len, skip_identity=True):
        for order in itertools.permutations(seq.terms()):
            acc = 0
            for x in order:
                acc = group.mul(acc, x)
            if acc == 0:
                out[seq.exponents] = seq.length
                break
    return out


def test_product_one_vectors_counts_match_naive():
    # element-id order drives the append-a-larger-element rule of the level
    # DP, so a relabeled copy runs it on a different order
    groups = [symmetric(3), cyclic(6), dihedral(8), parse_group_spec("Q8"),
              parse_group_spec("C3xC3"), relabeled_copy(dihedral(8), random.Random(9))]
    for group in groups:
        ball = product_one_vectors(group, 5)
        mine = {_unpack(key, group.order): ln for key, ln in ball.items()}
        assert mine == naive_ball(group, 5)


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "relabeled D8", "C6", "C3xC3",
                                  "C2xC2xC2", "relabeled C4xC2"])
def test_level_ball_matches_naive_at_every_cap(spec):
    # the top length of each cap is settled by the rotation bit test, so
    # every length from 1 to 6 goes through that branch once
    group = (relabeled_copy(parse_group_spec(spec.split()[1]), random.Random(12))
             if spec.startswith("relabeled") else parse_group_spec(spec))
    naive = naive_ball(group, 6)
    for cap in range(1, 7):
        mine = {_unpack(key, group.order): ln
                for ln, keys in enumerate(_level_ball(group, cap), 1) for key in keys}
        assert mine == {vec: ln for vec, ln in naive.items() if ln <= cap}


@pytest.mark.parametrize("spec", ["D10", "D12", "Dic12", "A4", "S4", "relabeled D12"])
def test_a_product_set_lies_in_one_coset_of_the_commutator_subgroup(spec):
    # the lemma behind the level DP's early stop: pi(S) has at most |G'|
    # elements, all with one image in G/G'
    group = (relabeled_copy(dihedral(12), random.Random(14)) if spec == "relabeled D12"
             else parse_group_spec(spec))
    quotient, proj = group.abelianization_map()
    size = group.order // quotient.order
    assert size == len(group.commutator_subgroup()) > 1
    rng = random.Random(f"coset {spec}")
    filled = 0
    for _ in range(300):
        terms = [rng.randrange(group.order) for _ in range(rng.randint(1, 7))]
        products = Sequence.from_elements(group, terms).product_set()
        assert len(products) <= size
        assert len({proj[p] for p in products}) == 1
        filled += len(products) == size
    assert filled  # the stop is reached, not only bounded


@pytest.mark.parametrize("spec", ["D10", "Dic12", "C10"])
def test_level_ball_at_a_cap_is_the_next_cap_cut_short(spec):
    group = parse_group_spec(spec)
    balls = {cap: list(_level_ball(group, cap)) for cap in range(1, 10)}
    for cap in range(1, 9):
        assert len(balls[cap]) == cap
        assert balls[cap] == balls[cap + 1][:cap]


# Identity-free product-one multisets and atoms per length 1..cap, as the
# level DP that visited every key with its full product mask counted them.
PINNED_COUNTS = [
    ("C2", 2, [0, 1], [0, 1]),
    ("C3", 3, [0, 1, 2], [0, 1, 2]),
    ("C4", 4, [0, 2, 2, 5], [0, 2, 2, 2]),
    ("C2xC2", 4, [0, 3, 1, 6], [0, 3, 1, 0]),
    ("C5", 5, [0, 2, 4, 7, 12], [0, 2, 4, 4, 4]),
    ("C6", 6, [0, 3, 6, 12, 20, 38], [0, 3, 6, 6, 2, 2]),
    ("S3", 6, [0, 4, 8, 28, 50, 100], [0, 4, 8, 18, 18, 9]),
    ("C7", 7, [0, 3, 8, 18, 36, 66, 114], [0, 3, 8, 12, 12, 6, 6]),
    ("C8", 8, [0, 4, 10, 28, 56, 118, 212, 381], [0, 4, 10, 18, 16, 8, 4, 4]),
    ("C4xC2", 8, [0, 5, 9, 31, 53, 123, 207, 390], [0, 5, 9, 16, 8, 0, 0, 0]),
    ("C2xC2xC2", 8, [0, 7, 7, 35, 49, 133, 197, 406], [0, 7, 7, 7, 0, 0, 0, 0]),
    ("D8", 8, [0, 6, 12, 50, 93, 226, 388, 745], [0, 6, 12, 29, 21, 4, 0, 0]),
    ("Q8", 8, [0, 4, 14, 48, 95, 222, 392, 741], [0, 4, 14, 38, 39, 24, 0, 0]),
    ("C9", 9, [0, 4, 14, 36, 88, 192, 380, 715, 1274], [0, 4, 14, 26, 32, 18, 12, 6, 6]),
    ("C3xC3", 9, [0, 4, 16, 34, 88, 196, 376, 715, 1280], [0, 4, 16, 24, 24, 0, 0, 0, 0]),
    ("C10", 10, [0, 5, 16, 51, 128, 303, 640, 1294, 2424, 4390],
     [0, 5, 16, 36, 48, 32, 12, 8, 4, 4]),
    ("D10", 10, [0, 7, 24, 137, 452, 1301, 2944, 6178, 11784, 21554],
     [0, 7, 24, 109, 284, 420, 320, 150, 60, 30]),
    ("C11", 11, [0, 5, 20, 65, 182, 455, 1040, 2210, 4420, 8398, 15270],
     [0, 5, 20, 50, 82, 70, 50, 30, 20, 10, 10]),
    ("C12", 12, [0, 6, 24, 85, 248, 674, 1614, 3658, 7690, 15414, 29372, 53934],
     [0, 6, 24, 64, 104, 84, 36, 20, 12, 8, 4, 4]),
    ("C2xC6", 12, [0, 7, 23, 88, 245, 684, 1604, 3678, 7670, 15456, 29330, 54010],
     [0, 7, 23, 60, 84, 54, 24, 0, 0, 0, 0, 0]),
    ("D12", 12, [0, 9, 33, 192, 617, 1858, 4556, 10660, 22510, 45718, 87158, 160938],
     [0, 9, 33, 147, 320, 278, 102, 18, 6, 0, 0, 0]),
    ("Dic12", 12, [0, 6, 36, 183, 626, 1830, 4584, 10600, 22570, 45592, 87284, 160712],
     [0, 6, 36, 162, 410, 524, 276, 72, 12, 0, 0, 0]),
    ("A4", 12, [0, 7, 41, 250, 899, 2562, 6338, 14436, 30629, 61383, 117353, 215341],
     [0, 7, 41, 222, 612, 582, 132, 0, 0, 0, 0, 0]),
    ("S4", 6, [0, 16, 170, 2425, 24710, 159247], [0, 16, 170, 2289, 21990, 112618]),
]


def test_pinned_counts_cover_the_catalog():
    assert [spec for spec, _, _, _ in PINNED_COUNTS] == list(SMALL_GROUP_SPECS) + ["S4"]


@pytest.mark.parametrize("spec, cap, balls, atoms", PINNED_COUNTS,
                         ids=[spec for spec, _, _, _ in PINNED_COUNTS])
def test_ball_and_atom_counts_per_length_are_pinned(spec, cap, balls, atoms, monkeypatch):
    # no ball is kept between calls, so the test shares one between its two
    levels = functools.cache(lambda group, cap: list(_level_ball(group, cap)))
    monkeypatch.setattr(factorization, "_level_ball", lambda group, cap: iter(levels(group, cap)))
    group = parse_group_spec(spec)
    ball = Counter(product_one_vectors(group, cap).values())
    found = Counter(_atom_keys(group, cap, None).values())
    assert [ball[ln] for ln in range(1, cap + 1)] == balls
    assert [found[ln] for ln in range(1, cap + 1)] == atoms
    # the catalog groups, at cap |G|: atoms at every length 2..D(G) and none above
    d = large_davenport(group) if cap == group.order else cap
    assert d > 1 and all(atoms[1:d]) and not any(atoms[d:])


def test_atom_search_stops_at_the_first_length_without_atoms(monkeypatch):
    # D(A4) = 7: the search reads level 8, finds no atom there, and builds
    # none of the levels 9 to 12, the largest of the ball
    monkeypatch.setattr(factorization, "_ATOM_CACHE", OrderedDict())
    built = []

    def level_ball(group, cap):
        for ln, keys in enumerate(_level_ball(group, cap), 1):
            built.append(ln)
            yield keys

    monkeypatch.setattr(factorization, "_level_ball", level_ball)
    found = Counter(_atom_keys(parse_group_spec("A4"), 12, None).values())
    assert built == list(range(1, 9))
    pinned = {spec: atoms for spec, _, _, atoms in PINNED_COUNTS}
    assert [found[ln] for ln in range(1, 13)] == pinned["A4"]


def is_atom_filter(group, ball):
    """The atoms of a ball, by the per-sequence split search of ``is_atom``."""
    return {key: ln for key, ln in ball.items()
            if is_atom(Sequence(group, _unpack(key, group.order)))}


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "C6", "C3xC3", "C2xC2xC2",
                                  "relabeled D8"])
def test_ball_atoms_match_is_atom(spec):
    group = (relabeled_copy(dihedral(8), random.Random(3)) if spec == "relabeled D8"
             else parse_group_spec(spec))
    cap = 6
    expected = is_atom_filter(group, product_one_vectors(group, cap))
    assert _ball_atoms(_level_ball(group, cap)) == expected
    # smaller caps read the length prefix of the cached atoms
    for c in range(1, cap + 1):
        assert _atom_keys(group, c, None) == {k: ln for k, ln in expected.items() if ln <= c}


ABELIAN_SPECS = [spec for spec in SMALL_GROUP_SPECS if parse_group_spec(spec).is_abelian]


@pytest.mark.parametrize("spec, relabeled", [(spec, relabeled) for spec in ABELIAN_SPECS
                                             for relabeled in (False, True)]
                         + [("C2xC8", False), ("C4xC4", True)])
def test_abelian_atoms_match_the_lookup_atoms_and_is_atom(spec, relabeled):
    group = parse_group_spec(spec)
    if relabeled:
        group = relabeled_copy(group, random.Random(group.order))
    top = group.order if group.order <= 12 else 8
    lookup = _ball_atoms(_level_ball(group, top))
    for cap in range(top + 1):
        atoms = _abelian_atoms(group, cap)
        assert atoms == {k: ln for k, ln in lookup.items() if ln <= cap}
        assert list(atoms.values()) == sorted(atoms.values())  # by increasing length
    # the walk's atoms pass the per-sequence split search, and at a small cap
    # nothing else in the ball does
    assert all(is_atom(Sequence(group, _unpack(k, group.order))) for k in atoms)
    assert _abelian_atoms(group, 5) == is_atom_filter(group, product_one_vectors(group, 5))


def test_ball_atoms_of_the_partial_ball_of_a_budget_trip():
    group = relabeled_copy(parse_group_spec("Q8"), random.Random(8))
    trips = []
    for _ in range(2):  # no call keeps a ball, so the second trip builds it again
        with pytest.raises(BudgetExceededError) as err:
            product_one_vectors(group, 6, budget=300)
        trips.append((err.value.attempted, err.value.partial))
    assert trips[0] == trips[1]
    ball = trips[0][1]
    assert max(ball.values()) == 3  # 7 + 28 + 84 multisets fit, 210 more do not
    expected = is_atom_filter(group, ball)
    levels = [[k for k, ln in ball.items() if ln == top] for top in (1, 2, 3)]
    assert _ball_atoms(levels) == expected
    with pytest.raises(BudgetExceededError) as err:
        enumerate_atoms(group, 6, budget=300)
    identity_atom = (1,) + (0,) * 7
    assert ({a.exponents for a in err.value.partial.all_atoms()}
            == {_unpack(k, 8) for k in expected} | {identity_atom})


def test_trivial_group_answers_any_cap_at_once():
    # C1 has no identity-free multisets: no packing limit, no budget spent,
    # and no per-length work, however large the cap
    trivial = parse_group_spec("C1")
    catalog = enumerate_atoms(trivial, 10**6, budget=1)
    assert [a.exponents for a in catalog.all_atoms()] == [(1,)]
    assert product_one_vectors(trivial, 10**6, budget=1) == {}
    assert large_davenport(trivial) == 1


def test_catalog_save_load_round_trip(tmp_path):
    s3 = symmetric(3)
    catalog = enumerate_atoms(s3, 6)
    path = tmp_path / "s3.atoms"
    catalog.save(path)
    loaded = AtomCatalog.load(path, s3)
    assert loaded.atoms_by_length == catalog.atoms_by_length
    assert holds_exponent_tuples(loaded)
    assert loaded.max_length == 6 and loaded.exhaustive
    # Sequences made on demand, equal on both sides, by length and then vector
    atoms = list(loaded.all_atoms())
    assert atoms == list(catalog.all_atoms())
    assert all(type(a) is Sequence and a.group == s3 for a in atoms)
    assert [a.exponents for a in atoms] == sorted((a.exponents for a in atoms),
                                                  key=lambda vec: (sum(vec), vec))
    assert len(atoms) == sum(catalog.counts().values()) == 58
    with pytest.raises(CatalogError):
        AtomCatalog.load(path, dihedral(8))


def test_catalog_load_rejects_corruption(tmp_path):
    path = tmp_path / "x.atoms"
    path.write_text("not a catalog\n")
    with pytest.raises(ParseError):
        AtomCatalog.load(path, cyclic(2))
    catalog = enumerate_atoms(cyclic(2), 2)
    catalog.save(path)
    text = path.read_text().replace("atom 2 0 2", "atom 2 0 3")
    path.write_text(text)
    with pytest.raises(ParseError):
        AtomCatalog.load(path, cyclic(2))


def test_catalog_restrict():
    catalog = enumerate_atoms(symmetric(3), 6)
    small = catalog.restrict(3)
    assert small.max_length == 3 and small.exhaustive
    assert holds_exponent_tuples(small)
    assert set(small.counts()) == {1, 2, 3}
    with pytest.raises(CatalogError):
        small.restrict(5)


def test_budget_exhaustion_yields_partial_catalog():
    # a shuffled table sidesteps the per-table enumeration cache
    group = relabeled_copy(dihedral(8), random.Random(2))
    with pytest.raises(BudgetExceededError) as err:
        enumerate_atoms(group, 6, budget=300)
    partial = err.value.partial
    assert isinstance(partial, AtomCatalog)
    assert not partial.exhaustive
    full = enumerate_atoms(group, 6)
    full_keys = {a.exponents for a in full.all_atoms()}
    assert {a.exponents for a in partial.all_atoms()} <= full_keys


@pytest.mark.parametrize("group, budget, attempted", [
    # multisets of length 1..4 over the 7 non-identity elements: 7+28+84+210
    (dihedral(8), 300, 329),
    # over the 8 non-identity elements of C3xC3: 8+36+120+330
    (parse_group_spec("C3xC3"), 200, 494),
])
def test_budget_trip_keeps_the_exact_ball_below_the_tripped_length(group, budget, attempted):
    fresh = relabeled_copy(group, random.Random(5))
    with pytest.raises(BudgetExceededError) as err:
        product_one_vectors(fresh, 6, budget=budget)
    assert err.value.attempted == attempted
    assert err.value.budget == budget
    assert err.value.partial == {k: ln for k, ln in product_one_vectors(fresh, 6).items()
                                 if ln <= 3}


def test_default_budget_stops_order_16_before_two_gigabytes():
    # the engine checks these level sizes before it builds a level
    def level_sizes(n):
        # identity-free multisets of each length 1..n over a group of order n
        return [comb(n + ln - 2, ln) for ln in range(1, n + 1)]

    # order 14 still fits at cap 14
    assert sum(level_sizes(14)) == 20_058_299 <= DEFAULT_SEARCH_BUDGET
    # order 16 admits lengths 1..12 and trips at 13
    sizes = level_sizes(16)
    admitted = 0
    while sum(sizes[:admitted + 1]) <= DEFAULT_SEARCH_BUDGET:
        admitted += 1
    assert admitted == 12 < 16
    # the top admitted length is settled by rotation and never stored, so
    # the largest levels alive at once are the two below it; at 210 bytes
    # per stored state (179 measured on D12 at cap 12 and 203 on A4, the
    # ball they build included) they stay below 1.5 GiB
    assert (sizes[admitted - 2] + sizes[admitted - 3]) * 210 < 1.5 * 2 ** 30


def test_length_cap_beyond_the_packing_limit_is_a_value_error():
    with pytest.raises(ValueError, match="31"):
        product_one_vectors(cyclic(32), 32)


def test_product_one_vectors_budget_and_cache():
    fresh = relabeled_copy(symmetric(3), random.Random(4))
    with pytest.raises(BudgetExceededError) as err:
        product_one_vectors(fresh, 6, budget=20)
    assert err.value.attempted > 20
    assert isinstance(err.value.partial, dict)
    ball6 = product_one_vectors(fresh, 6)
    ball4 = product_one_vectors(fresh, 4)
    assert set(ball4) == {k for k, ln in ball6.items() if ln <= 4}


@pytest.mark.parametrize("spec, cap", [("S3", 6), ("Q8", 8), ("D10", 10), ("C12", 8)])
def test_a_cut_below_the_cap_is_the_filtered_ball(spec, cap, monkeypatch):
    cache = OrderedDict()
    monkeypatch.setattr(factorization, "_ATOM_CACHE", cache)
    group = parse_group_spec(spec)
    atoms = _atom_keys(group, cap, None)
    assert cache[group] == (cap, atoms)
    for compute in (product_one_vectors, lambda g, c: _atom_keys(g, c, None)):
        whole = list(compute(group, cap).items())
        for upto in range(cap):
            # a fresh ball below the cap, or the prefix of the cached atoms
            assert list(compute(group, upto).items()) == [(k, ln) for k, ln in whole
                                                          if ln <= upto]
    assert _atom_keys(group, cap, None) is atoms


# each answer reads the atom cache or builds a ball, at a cap below |G| and at |G|
BALL_QUERIES = (
    lambda g: list(product_one_vectors(g, 4).items()),
    lambda g: list(product_one_vectors(g, g.order).items()),
    lambda g: enumerate_atoms(g, 3),
    lambda g: enumerate_atoms(g, g.order),
    large_davenport,
    lambda g: length_system(g, 5),
)


@pytest.mark.parametrize("state", ["cold", "warm", "evicted"])
def test_no_ball_cache_state_changes_an_answer(state, monkeypatch):
    cache = OrderedDict()
    monkeypatch.setattr(factorization, "_ATOM_CACHE", cache)
    # D8 reads its atoms off the ball, C6 finds them by the zero-sum-free walk
    groups = [parse_group_spec(spec) for spec in ("S3", "D8", "C6", "Q8")]
    expected = []
    for query in BALL_QUERIES:
        for group in groups:
            cache.clear()
            expected.append(query(group))
    cache.clear()
    if state == "warm":
        for query in BALL_QUERIES:
            for group in groups:
                query(group)
    elif state == "evicted":
        monkeypatch.setattr(factorization, "_ATOM_CACHE_SIZE", 1)
    assert [query(group) for query in BALL_QUERIES for group in groups] == expected
    assert len(cache) == (1 if state == "evicted" else len(groups))


def test_ball_cache_evicts_the_least_recently_used_group(monkeypatch):
    cache = OrderedDict()
    monkeypatch.setattr(factorization, "_ATOM_CACHE", cache)
    monkeypatch.setattr(factorization, "_ATOM_CACHE_SIZE", 2)
    a, b, c = (parse_group_spec(spec) for spec in ("C3", "C4", "C5"))
    for group in (a, b, a, c):
        enumerate_atoms(group, 3)
    assert list(cache) == [a, c]
    product_one_vectors(b, 3)  # a ball is not cached
    assert list(cache) == [a, c]
    monkeypatch.undo()
    # the catalog sweep of the benchmark meets 17 groups; none may be evicted
    assert factorization._ATOM_CACHE_SIZE >= 32


class _Referable(list):
    """A ball level that a weak reference can point at."""


def test_no_ball_outlives_the_call_that_built_it(monkeypatch):
    monkeypatch.setattr(factorization, "_ATOM_CACHE", OrderedDict())
    builds, refs = [], []

    def level_ball(group, cap):
        levels = _level_ball(group, cap)
        builds.append(weakref.ref(levels))
        for keys in levels:
            keys = _Referable(keys)
            refs.append(weakref.ref(keys))
            yield keys

    monkeypatch.setattr(factorization, "_level_ball", level_ball)
    d8 = parse_group_spec("D8")
    assert large_davenport(d8) == 6
    enumerate_atoms(parse_group_spec("Q8"), 6)
    length_system(symmetric(3), 6)
    ball = product_one_vectors(dihedral(10), 6)
    assert len(ball) == sum([0, 7, 24, 137, 452, 1301])  # D10 in PINNED_COUNTS
    del ball
    gc.collect()
    assert len(builds) == 4 and len(refs) > 4
    assert [ref() for ref in builds + refs] == [None] * len(builds + refs)
    # an equal table reads the cached atoms and builds no ball
    assert large_davenport(GroupTable(d8.table)) == 6
    assert len(builds) == 4


@pytest.mark.parametrize("spec, budget, trips", [
    ("D8", 100, True),  # lengths 1..2 admitted
    ("D8", 1715, True),  # lengths 1..6 admitted, and D(D8) = 6
    ("D8", 3431, False),  # length 7 admitted, and it has no atom
    ("C3xC3", 1286, True),  # lengths 1..5, and D(C3xC3) = 5
    ("C3xC3", 3002, False),  # length 6 admitted and empty
    ("C4xC4", None, False),  # lengths 1..12 at the default, and D(C4xC4) = 7
    ("C16", None, True),  # lengths 1..12 at the default, and D(C16) = 16
])
def test_a_budget_trips_iff_no_admitted_length_is_empty(spec, budget, trips):
    group = relabeled_copy(parse_group_spec(spec), random.Random(43))
    upto = factorization._budget_cap(group, group.order, budget)[0]
    every = _atom_keys(group, group.order, 10 ** 12)  # all the atoms
    admitted = {key: ln for key, ln in every.items() if ln <= upto}
    assert trips == set(admitted.values()).issuperset(range(2, upto + 1))
    if trips:
        attempted, partial = _trip(lambda: _atom_keys(group, group.order, budget))
        assert attempted > (budget or DEFAULT_SEARCH_BUDGET)
        assert not partial.exhaustive
        assert partial.atoms_by_length == enumerate_atoms(group, upto).atoms_by_length
    else:
        assert _atom_keys(group, group.order, budget) == every == admitted


@pytest.mark.parametrize("spec, bound", [("C4xC4", 16), ("C2xC2xC2xC2", 20)])
def test_length_system_trips_past_the_budget_even_with_every_atom_found(spec, bound):
    # the DP walks the whole ball to the bound, so the budget caps it
    group = parse_group_spec(spec)
    upto = factorization._budget_cap(group, bound, None)[0]
    assert upto == 12 and max(_atom_keys(group, group.order, None).values()) < upto
    attempted, partial = _trip(lambda: length_system(group, bound))
    assert attempted == 37442159  # the arithmetic of order 16 at the default budget
    assert not partial.exhaustive and partial.max_length == bound
    assert partial.atoms_by_length == enumerate_atoms(group, group.order).atoms_by_length


def _trip(call):
    with pytest.raises(BudgetExceededError) as err:
        call()
    return err.value.attempted, err.value.partial


@pytest.mark.parametrize("compute", [product_one_vectors, enumerate_atoms, length_system])
def test_budget_trips_alike_whatever_the_cache_holds(compute):
    # D8 reads its atoms off the ball, C4xC2 finds them by the zero-sum-free walk
    for spec in ("D8", "C4xC2"):
        group = relabeled_copy(parse_group_spec(spec), random.Random(41))  # not cached yet
        cold = _trip(lambda: compute(group, 6, budget=100))
        assert cold[0] == 7 + 28 + 84  # lengths 1 and 2 fit, length 3 does not
        compute(group, 6)
        enumerate_atoms(group, 6)  # the default budget caches the atoms to length 6
        assert factorization._ATOM_CACHE[group][0] == 6
        warm = _trip(lambda: compute(group, 6, budget=100))
        twin = GroupTable(group.table)  # equal table, so it reads the same cache entry
        assert twin == group and twin is not group
        assert cold == warm == _trip(lambda: compute(twin, 6, budget=100))


def test_fingerprint_is_relabel_invariant():
    rng = random.Random(17)
    for spec in ["S3", "C6", "D8"]:
        group = parse_group_spec(spec)
        twin = relabeled_copy(group, rng)
        assert fingerprint(group) == fingerprint(twin)


def test_fingerprint_separates_cyclic4_from_klein():
    fp_c4 = fingerprint(cyclic(4))
    fp_k4 = fingerprint(direct_product(cyclic(2), cyclic(2)))
    assert fp_c4.davenport == 4
    assert fp_k4.davenport == 3
    assert fp_c4 != fp_k4
