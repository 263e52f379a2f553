"""Sequences as multisets: products, witnesses, parsing."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from prodone.errors import BudgetExceededError, ParseError
from prodone.factorization import is_atom
from prodone.groups import (GroupMap, GroupTable, cyclic, dihedral, dicyclic,
                            direct_product, find_group_isomorphisms, parse_group_spec,
                            symmetric)
from prodone.sequences import Sequence, _submultiset_products, apply_map, parse_sequence

from brute_force import (is_atom_by_splits, is_product_one_by_orderings,
                         least_product_one_ordering, products_by_orderings,
                         sub_multisets, submultiset_products_by_union)


def random_sequence(rng, group, max_len):
    length = rng.randint(0, max_len)
    return Sequence.from_elements(
        group, [rng.randrange(group.order) for _ in range(length)])


def test_product_set_matches_oracle_randomized():
    rng = random.Random(20260823)
    groups = [cyclic(6), symmetric(3), dihedral(8), parse_group_spec("Q8"),
              direct_product(cyclic(3), cyclic(4))]
    for group in groups:
        for _ in range(60):
            seq = random_sequence(rng, group, 6)
            assert seq.product_set() == products_by_orderings(group, seq.terms())
    # orders 16 and 24 take the same product memos as the small groups
    for group in [dihedral(16), symmetric(4)]:
        for _ in range(60):
            seq = random_sequence(rng, group, 5)
            assert seq.product_set() == products_by_orderings(group, seq.terms())


def test_product_memos_hold_no_more_than_the_dp_reads():
    group = dihedral(16)  # a new instance, so its memos start empty
    seq = parse_sequence(group, "r,r3^2,s")
    states = math.prod(v + 1 for v in seq.exponents)
    assert seq.product_set() == products_by_orderings(group, seq.terms())
    memos = group._mul_mask_tables()
    assert all(len(memo) <= states for memo in memos)
    assert {h for h, memo in enumerate(memos) if memo} <= set(seq.support())


def test_product_set_examples():
    s3 = symmetric(3)
    seq = parse_sequence(s3, "r,s")
    products = seq.product_set()
    assert len(products) == 2
    assert products == {s3.mul(s3.index_of("r"), s3.index_of("s")),
                        s3.mul(s3.index_of("s"), s3.index_of("r"))}
    c4 = cyclic(4)
    assert parse_sequence(c4, "g,g3").product_set() == {0}
    assert parse_sequence(c4, "g,g3").is_product_one()


def test_empty_sequence_conventions():
    g = cyclic(3)
    empty = Sequence.empty(g)
    assert empty.is_empty()
    assert empty.length == 0
    assert empty.product_set() == {0}
    assert empty.is_product_one()
    assert empty.product_one_witness() == ()


def test_identity_padding_never_changes_products():
    rng = random.Random(11)
    g = dihedral(8)
    for _ in range(40):
        seq = random_sequence(rng, g, 5)
        padded = seq.concat(Sequence.from_elements(g, [0, 0]))
        assert padded.product_set() == seq.product_set()
        assert padded.is_product_one() == seq.is_product_one()


def test_is_product_one_matches_product_set():
    rng = random.Random(7)
    for group in [cyclic(8), dicyclic(12), symmetric(4)]:
        for _ in range(40):
            seq = random_sequence(rng, group, 5)
            assert seq.is_product_one() == (0 in seq.product_set())


def test_witness_is_valid_and_lexicographically_first():
    rng = random.Random(99)
    for group in [symmetric(3), dihedral(8), cyclic(6), dihedral(16), symmetric(4)]:
        for _ in range(80):
            seq = random_sequence(rng, group, 5)
            witness = seq.product_one_witness()
            po_orders = sorted(perm
                               for perm in set(itertools.permutations(seq.terms()))
                               if _product(group, perm) == 0)
            if witness is None:
                assert not po_orders
            else:
                assert sorted(witness) == sorted(seq.terms())
                assert _product(group, witness) == 0
                assert witness == po_orders[0]


def _product(group, elements):
    p = 0
    for x in elements:
        p = group.mul(p, x)
    return p


def test_witness_example():
    c2 = cyclic(2)
    seq = parse_sequence(c2, "g^2")
    assert seq.product_one_witness() == (1, 1)
    assert [c2.name_of(x) for x in seq.product_one_witness()] == ["g", "g"]
    assert parse_sequence(c2, "g").product_one_witness() is None


def test_parse_sequence_round_trip():
    s3 = symmetric(3)
    for text in ["r", "1^2,r,s^3", "r^2,rs", "s"]:
        seq = parse_sequence(s3, text)
        assert parse_sequence(s3, seq.text()) == seq
    assert parse_sequence(s3, "r,r,r") == parse_sequence(s3, "r^3")


def test_parse_sequence_rejects_bad_tokens():
    s3 = symmetric(3)
    # "²" passes str.isdigit but not int(); it is a bad token like "r^0"
    for bad in ["zz", "r^0", "r^-1", "r^", "^2", "r,,s", ",", "r^²", "r^2²"]:
        with pytest.raises(ParseError):
            parse_sequence(s3, bad)
    assert parse_sequence(s3, "").is_empty()
    assert parse_sequence(s3, "  ").is_empty()


def test_sequence_text_canonical():
    g = symmetric(3)
    seq = Sequence.from_elements(g, [g.index_of("s"), 0, g.index_of("s"), 0, 0])
    assert seq.text() == "1^3,s^2"
    assert Sequence.empty(g).text() == ""


def test_concat_power_divides_quotient():
    g = cyclic(5)
    a = parse_sequence(g, "g,g2")
    b = parse_sequence(g, "g2^2")
    ab = a.concat(b)
    assert ab.multiplicity(g.index_of("g2")) == 3
    assert a.power(3).length == 6
    assert a.power(0).is_empty()
    assert a.divides(ab)
    assert not ab.divides(a)
    assert ab.quotient(a) == b
    with pytest.raises(ValueError):
        b.quotient(a)
    other = cyclic(7)
    with pytest.raises(ValueError):
        a.concat(parse_sequence(other, "g"))


def test_product_set_of_concat_contains_pairwise_products():
    rng = random.Random(5)
    g = symmetric(3)
    for _ in range(40):
        a = random_sequence(rng, g, 3)
        b = random_sequence(rng, g, 3)
        pa, pb = a.product_set(), b.product_set()
        pab = a.concat(b).product_set()
        assert {g.mul(x, y) for x in pa for y in pb} <= pab


def test_sub_multisets_graded_order_and_count():
    g = cyclic(4)
    seq = parse_sequence(g, "1,g^2")
    subs = sub_multisets(seq)
    assert len(subs) == 6  # (1+1) * (2+1)
    lengths = [s.length for s in subs]
    assert lengths == sorted(lengths)
    assert subs[0].is_empty()
    assert subs[-1] == seq


def test_apply_map_commutes_with_products():
    c6 = cyclic(6)
    c2x3 = direct_product(cyclic(2), cyclic(3))
    iso = find_group_isomorphisms(c6, c2x3)[0]
    rng = random.Random(3)
    for _ in range(40):
        seq = random_sequence(rng, c6, 5)
        image = apply_map(iso, seq)
        assert image.product_set() == {iso(x) for x in seq.product_set()}
    squash = GroupMap(c6, cyclic(1), (0,) * 6)
    assert apply_map(squash, parse_sequence(c6, "g^3")).length == 3


def test_budget_error_reports_attempted_states():
    g = cyclic(6)
    seq = Sequence.from_elements(g, [1] * 4 + [2] * 4 + [3] * 4)
    with pytest.raises(BudgetExceededError) as err:
        seq.product_set(max_states=10)
    assert err.value.attempted is not None
    assert err.value.attempted > 10
    assert err.value.budget == 10
    # the same sequence fits in the default budget
    assert seq.product_set()


def test_sequences_hash_and_compare_by_content():
    g = cyclic(3)
    a = parse_sequence(g, "g,g2")
    b = Sequence.from_elements(g, [2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != parse_sequence(g, "g^2")
    with pytest.raises(AttributeError):
        a.exponents = (0, 0, 0)


def test_large_abelian_products_use_folding():
    # 30 terms would be hopeless for the factorial oracle; the fold is exact
    g = cyclic(12)
    seq = Sequence.from_elements(g, [1] * 30)
    assert seq.is_product_one() == (30 % 12 == 0)
    assert Sequence.from_elements(g, [1] * 36).is_product_one()
    total = sum(x * m for x, m in [(5, 7), (7, 5)])
    seq2 = parse_sequence(g, "g5^7,g7^5")
    assert seq2.is_product_one() == (total % 12 == 0)


# groups whose commutator subgroup G' ranges from trivial to half the group,
# so that the coset stop of the product-set DP fires at different depths
COSET_STOP_GROUPS = ["S4", "Dic12", "A4", "D12", "Dic16", "C2xQ8", "C12", "C2xC2xC2"]


def _seeded_sequences(group, seed, count, max_len):
    """``count`` seeded sequences of 1..max_len terms; every other one is
    closed to product-one by the inverse of the product of its other terms."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        terms = [rng.randrange(group.order) for _ in range(rng.randint(1, max_len))]
        if i % 2 == 0 and len(terms) > 1:
            terms[-1] = group.inv(_product(group, terms[:-1]))
        out.append(Sequence.from_elements(group, terms))
    return out


@pytest.mark.parametrize("spec", COSET_STOP_GROUPS)
def test_products_witness_and_atoms_match_every_ordering(spec):
    group = parse_group_spec(spec)
    for seq in _seeded_sequences(group, 23, 24, 7):
        terms = seq.terms()
        assert seq.product_set() == products_by_orderings(group, terms)
        assert seq.is_product_one() == is_product_one_by_orderings(group, terms)
        assert seq.product_one_witness() == least_product_one_ordering(group, terms)
        assert is_atom(seq) == is_atom_by_splits(seq)


@pytest.mark.parametrize("spec", COSET_STOP_GROUPS)
def test_product_set_dp_masks_are_the_full_unions(spec):
    # the coset stop drops predecessor reads, never a bit of any mask
    group = parse_group_spec(spec)
    for seq in _seeded_sequences(group, 29, 12, 8):
        dp, supp = _submultiset_products(seq)
        reference = submultiset_products_by_union(seq)
        assert dp.keys() == reference.keys()
        assert all(_mask_elements(dp[key]) == reference[key] for key in dp)


def _mask_elements(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_coset_stop_reads_fewer_memo_entries(monkeypatch):
    reads = []

    class Counted:
        def __init__(self, memo):
            self.memo = memo

        def __getitem__(self, mask):
            reads.append(mask)
            return self.memo[mask]

    tables = GroupTable._mul_mask_tables
    monkeypatch.setattr(GroupTable, "_mul_mask_tables",
                        lambda self: tuple(Counted(m) for m in tables(self)))
    group = dicyclic(12)  # |G'| = 3
    seq = Sequence.from_elements(group, range(1, 10))  # the pattern (1^9)
    dp, supp = _submultiset_products(seq)
    assert len(seq.product_set()) == 3 and len(dp) == 2 ** 9
    # the full union reads one memo entry per support element of each state
    unions = sum(1 for key in dp for v in key if v)
    assert unions == 9 * 2 ** 8
    reads.clear()
    _submultiset_products(seq)
    assert len(reads) < unions < len(dp) * len(supp)
