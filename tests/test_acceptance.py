"""Acceptance gate: nine oracle-backed criteria, one [PASS]/[FAIL] line each.

Every derived value is recomputed here by an independent brute-force oracle:
products by full permutation enumeration, atoms by filtering all multisets,
length spectra by trying all splits. Nothing numeric is taken on faith.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from prodone.factorization import enumerate_atoms, large_davenport, set_of_lengths
from prodone.groups import cyclic, find_group_isomorphisms, parse_group_spec
from prodone.isolab import SMALL_GROUP_SPECS, small_group_catalog, verify_theorem
from prodone.sequences import Sequence

from brute_force import automorphisms_and_twists


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


# -- independent oracles ----------------------------------------------------------


def make_po_oracle(group):
    """Memoized product-one test by enumerating every ordering of the multiset."""

    memo = {}

    def po(ms: tuple) -> bool:
        got = memo.get(ms)
        if got is None:
            got = False
            for perm in set(itertools.permutations(ms)):
                acc = 0
                for x in perm:
                    acc = group.mul(acc, x)
                if acc == 0:
                    got = True
                    break
            memo[ms] = got
        return got

    return po


def all_multisets(order: int, max_len: int):
    for k in range(max_len + 1):
        yield from itertools.combinations_with_replacement(range(order), k)


def sub_multisets(ms: tuple):
    counts = sorted(set(ms))
    mults = [ms.count(x) for x in counts]
    for picks in itertools.product(*(range(m + 1) for m in mults)):
        yield tuple(x for x, k in zip(counts, picks) for _ in range(k))


def subtract(ms: tuple, part: tuple) -> tuple:
    rest = list(ms)
    for x in part:
        rest.remove(x)
    return tuple(rest)


def naive_atoms(group, max_len: int, po) -> set:
    atoms = set()
    for ms in all_multisets(group.order, max_len):
        if not ms or not po(ms):
            continue
        splittable = any(
            part and len(part) < len(ms) and po(part) and po(subtract(ms, part))
            for part in sub_multisets(ms))
        if not splittable:
            atoms.add(ms)
    return atoms


def make_spectrum_oracle(group, po):
    """Factorization lengths by trying every atom that uses the first term."""

    memo = {}

    def is_atom(ms: tuple) -> bool:
        if not ms or not po(ms):
            return False
        return not any(
            part and len(part) < len(ms) and po(part) and po(subtract(ms, part))
            for part in sub_multisets(ms))

    def spectrum(ms: tuple) -> frozenset:
        got = memo.get(ms)
        if got is None:
            if not ms:
                got = frozenset({0})
            elif not po(ms):
                got = frozenset()
            else:
                lengths = set()
                for part in sub_multisets(ms):
                    if part and ms[0] in part and is_atom(part):
                        lengths.update(1 + x for x in spectrum(subtract(ms, part)))
                got = frozenset(lengths)
            memo[ms] = got
        return got

    return spectrum


def catalog_atom_set(group, max_len: int) -> set:
    catalog = enumerate_atoms(group, max_len)
    return {tuple(a.terms()) for a in catalog.all_atoms()}


# -- shared theorem run (criteria 4, 5, 6) ----------------------------------------


@pytest.fixture(scope="module")
def catalog_verdicts():
    groups = small_group_catalog()
    started = time.monotonic()
    verdicts = {}
    for i, g1 in enumerate(groups):
        for j in range(i, len(groups)):
            key = (SMALL_GROUP_SPECS[i], SMALL_GROUP_SPECS[j])
            verdicts[key] = verify_theorem(g1, groups[j])
    return verdicts, time.monotonic() - started


# -- the nine criteria ------------------------------------------------------------


def test_criterion_1_product_set_matches_permutation_oracle():
    started = time.monotonic()
    rng = random.Random(20260823)
    checked = 0
    for spec in ["C6", "S3", "D8", "Q8", "C3xC4"]:
        group = parse_group_spec(spec)
        for _ in range(500):
            length = rng.randint(0, 6)
            ids = [rng.randrange(group.order) for _ in range(length)]
            vec = [0] * group.order
            for x in ids:
                vec[x] += 1
            got = Sequence(group, tuple(vec)).product_set()
            expected = set()
            for perm in set(itertools.permutations(sorted(ids))):
                acc = 0
                for x in perm:
                    acc = group.mul(acc, x)
                expected.add(acc)
            assert got == expected, (spec, sorted(ids), sorted(got), sorted(expected))
            checked += 1
    elapsed = time.monotonic() - started
    report(1, checked == 2500 and elapsed < 60,
           f"product sets match the orderings oracle on {checked} random "
           f"sequences over 5 groups ({elapsed:.1f}s < 60s)")


def test_criterion_2_atom_enumeration_matches_multiset_filter():
    started = time.monotonic()
    groups = [cyclic(1)] + [g for g in small_group_catalog() if g.order <= 8]
    checked = 0
    for group in groups:
        max_len = min(group.order, 6)
        po = make_po_oracle(group)
        expected = naive_atoms(group, max_len, po)
        got = catalog_atom_set(group, max_len)
        assert got == expected, (group.label, max_len,
                                 sorted(got - expected), sorted(expected - got))
        checked += 1
    elapsed = time.monotonic() - started
    report(2, checked == 14 and elapsed < 300,
           f"atom enumeration equals the filter-all-multisets oracle on "
           f"{checked} groups of order <= 8 ({elapsed:.1f}s < 300s)")


def test_criterion_3_cyclic_davenport_constants():
    by_search = {n: large_davenport(cyclic(n)) for n in range(2, 9)}
    assert by_search == {n: n for n in range(2, 9)}, by_search
    for n in range(2, 7):
        group = cyclic(n)
        po = make_po_oracle(group)
        window = n + 1 if n <= 5 else n
        lengths = {len(a) for a in naive_atoms(group, window, po)}
        assert max(lengths) == n, (n, sorted(lengths))
    report(3, True,
           "large Davenport constant of C2..C8 equals n by search, "
           "confirmed by the multiset oracle for n <= 6")


def test_criterion_4_theorem_holds_across_the_catalog(catalog_verdicts):
    verdicts, elapsed = catalog_verdicts
    assert len(verdicts) == 276
    bad = [key for key, v in verdicts.items() if not v.consistent]
    assert not bad, bad
    matched = sum(1 for v in verdicts.values() if v.groups_isomorphic)
    assert matched == 23  # exactly the self-pairs; the catalog has no duplicates
    report(4, elapsed < 1800,
           f"preserving bijections exist iff groups are isomorphic on all "
           f"276 catalog pairs ({elapsed:.1f}s < 1800s)")


def test_criterion_5_every_bijection_classifies(catalog_verdicts):
    verdicts, _ = catalog_verdicts
    total = 0
    for key, verdict in verdicts.items():
        for b, rep in zip(verdict.bijections, verdict.reports):
            assert b.verified_bound >= verdict.bound, key
            statuses = {o.name: o.status for o in rep.outcomes}
            assert set(statuses) == {f"A{i}" for i in range(1, 8)}, key
            assert all(s in ("pass", "vacuous") for s in statuses.values()), (
                key, b.map.images, statuses)
            assert rep.classification in ("isomorphism", "anti_isomorphism"), key
            total += 1
    report(5, total > 0,
           f"all {total} bijections pass the seven assertions and classify "
           f"as isomorphism or anti-isomorphism")


def test_self_pair_verdicts_are_the_automorphisms_and_their_twists(catalog_verdicts):
    verdicts, _ = catalog_verdicts
    for spec, group in zip(SMALL_GROUP_SPECS, small_group_catalog()):
        found = {b.map.images for b in verdicts[(spec, spec)].bijections}
        assert found == automorphisms_and_twists(group), spec


def test_criterion_6_theorem_sees_past_the_abelianization(catalog_verdicts):
    verdicts, _ = catalog_verdicts
    ab1 = parse_group_spec("D8").abelianization()
    ab2 = parse_group_spec("Q8").abelianization()
    assert ab1.order == ab2.order == 4
    assert all(ab1.element_order(x) <= 2 for x in range(4))
    assert find_group_isomorphisms(ab1, ab2, limit=1)
    verdict = verdicts[("D8", "Q8")]
    assert verdict.bijections_found == 0 and not verdict.groups_isomorphic
    report(6, True,
           "D8 and Q8 share the Klein-four abelianization yet admit no "
           "preserving bijection")


def test_criterion_7_non_abelian_groups_have_order_at_least_6():
    floor = min(g.order for g in small_group_catalog() if not g.is_abelian)
    report(7, floor >= 6,
           f"smallest non-abelian group in the catalog has order {floor}")


def test_criterion_8_witness_rotations_and_opposite_groups():
    rng = random.Random(8128)
    groups = small_group_catalog()
    opposites = [g.opposite() for g in groups]
    for trial in range(1000):
        group = groups[trial % len(groups)]
        op = opposites[trial % len(groups)]
        ids = [rng.randrange(group.order) for _ in range(rng.randint(0, 5))]
        acc = 0
        for x in ids:
            acc = group.mul(acc, x)
        ids.append(group.inv(acc))  # close up: the multiset is product-one
        vec = [0] * group.order
        for x in ids:
            vec[x] += 1
        seq = Sequence(group, tuple(vec))
        witness = seq.product_one_witness()
        assert witness is not None, (group.label, ids)
        for shift in range(len(witness)):
            acc = 0
            for x in witness[shift:] + witness[:shift]:
                acc = group.mul(acc, x)
            assert acc == 0, (group.label, witness, shift)
        assert Sequence(op, tuple(vec)).is_product_one(), (group.label, ids)
        # the equivalence also holds for arbitrary, possibly non-product-one draws
        other = [rng.randrange(group.order) for _ in range(rng.randint(0, 6))]
        vec = [0] * group.order
        for x in other:
            vec[x] += 1
        assert (Sequence(group, tuple(vec)).is_product_one()
                == Sequence(op, tuple(vec)).is_product_one()), (group.label, other)
    report(8, True,
           "1000 product-one witnesses stay product-one under every rotation "
           "and over the opposite group")


def test_criterion_9_sets_of_lengths_match_the_splitting_oracle():
    checked = 0
    for spec in ["C2", "C3", "S3"]:
        group = parse_group_spec(spec)
        po = make_po_oracle(group)
        spectrum = make_spectrum_oracle(group, po)
        catalog = enumerate_atoms(group, 5)
        for ms in all_multisets(group.order, 5):
            vec = [0] * group.order
            for x in ms:
                vec[x] += 1
            seq = Sequence(group, tuple(vec))
            assert seq.is_product_one() == po(ms), (spec, ms)
            if not po(ms):
                continue
            got = set_of_lengths(seq, catalog)
            assert set(got) == set(spectrum(ms)), (spec, ms, got, spectrum(ms))
            checked += 1
    report(9, checked > 0,
           f"sets of lengths equal the all-splits oracle on {checked} "
           f"product-one sequences over C2, C3, S3")
