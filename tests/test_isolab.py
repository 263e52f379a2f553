"""Preserving-bijection search, the assertion suite, and theorem verification."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest

from prodone import factorization, isolab
from prodone.errors import BudgetExceededError
from prodone.factorization import (AtomCatalog, _unpack, enumerate_atoms,
                                   large_davenport, product_one_vectors)
from prodone.groups import (GroupMap, cyclic, dihedral,
                            direct_product, find_group_isomorphisms,
                            parse_group_spec, symmetric)
from prodone.isolab import (SMALL_GROUP_SPECS, BasisBijection, check_assertions,
                            compare_invariants, opposite_transport,
                            search_bijections, small_group_catalog,
                            verify_preserving, verify_theorem)
from prodone.sequences import Sequence, apply_map

from brute_force import (assertion_outcomes, automorphisms_and_twists, relabeled_copy,
                         search_bijections_by_full_check)


def brute_automorphisms(group):
    n = group.order
    out = []
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if all(perm[group.mul(a, b)] == group.mul(perm[a], perm[b])
               for a in range(n) for b in range(n)):
            out.append(perm)
    return out


def test_search_on_s3_finds_automorphisms_and_their_inversion_twists():
    s3 = symmetric(3)
    found = search_bijections(s3, s3, 6)
    assert len(found) == 12
    auts = brute_automorphisms(s3)
    inv = [s3.inv(x) for x in range(6)]
    expected = {tuple(a) for a in auts}
    expected |= {tuple(a[inv[x]] for x in range(6)) for a in auts}
    assert {b.map.images for b in found} == expected
    assert all(b.verified_bound == 6 for b in found)
    # deterministic and sorted output
    images = [b.map.images for b in found]
    assert images == sorted(images)
    assert [b.map.images for b in search_bijections(s3, s3, 6)] == images


def test_search_rejects_mismatched_orders_and_profiles():
    assert search_bijections(cyclic(4), cyclic(5), 4) == []
    assert search_bijections(cyclic(4), direct_product(cyclic(2), cyclic(2)), 4) == []


def test_search_d8_q8_empty_at_davenport_bound():
    d8, q8 = dihedral(8), parse_group_spec("Q8")
    bound = max(large_davenport(d8), large_davenport(q8))
    assert search_bijections(d8, q8, bound) == []


def test_low_bounds_relax_the_prunes():
    c4 = cyclic(4)
    # at bound 1 no identity-free sequence is product-one, so every
    # identity-fixing bijection preserves
    assert len(search_bijections(c4, c4, 1)) == 6
    # bound 2 pins inverse pairs: g2 stays, {g, g3} permute
    assert len(search_bijections(c4, c4, 2)) == 2
    assert len(search_bijections(c4, c4, 4)) == 2


# at bound 1 every identity-fixing bijection preserves, (n - 1)! of them,
# which at order 10 costs seconds per search; bound 1 stops at order 9
SMALL_SPECS = [spec for spec in SMALL_GROUP_SPECS if parse_group_spec(spec).order <= 10]


def bounds_to_check(group):
    return [b for b in (1, 2, 3) if b > 1 or group.order <= 9] + [large_davenport(group)]


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_self_pair_search_scans_only_what_a7_cannot_certify(spec, monkeypatch):
    group = parse_group_spec(spec)
    expected = {}
    for bound in bounds_to_check(group):
        # up to bound 3 the prunes are exact; above it every survivor passes A7
        expected[bound] = [b.map.images
                           for b in search_bijections_by_full_check(group, group, bound)]
        assert [b.map.images for b in search_bijections(group, group, bound)] == expected[bound]

    # with A7 failing everywhere, a survivor above bound 3 stops the search
    monkeypatch.setattr(GroupMap, "is_homomorphism", lambda self: False)
    monkeypatch.setattr(GroupMap, "is_anti_homomorphism", lambda self: False)
    for bound in bounds_to_check(group):
        if bound > 3:
            with pytest.raises(RuntimeError, match="neither a homomorphism"):
                search_bijections(group, group, bound)
        else:
            found = search_bijections(group, group, bound)
            assert [b.map.images for b in found] == expected[bound]


@pytest.mark.parametrize("spec", ["C4xC4", "C2xC8", "C16", "C2xC2xC4",
                                  "D16", "Dic16", "C2xD8", "C2xQ8"])
def test_order_16_self_pairs_find_the_automorphisms_and_their_twists(spec):
    group = parse_group_spec(spec)
    assert ({b.map.images for b in search_bijections(group, group, 4)}
            == automorphisms_and_twists(group))


# every relabeling of C2, C3 and C2xC2 is an automorphism, so it keeps the table
@pytest.mark.parametrize("spec", [s for s in SMALL_SPECS if s not in ("C2", "C3", "C2xC2")])
def test_search_on_a_relabeled_copy_checks_every_survivor(spec):
    group = parse_group_spec(spec)
    rng = random.Random(f"twin {spec}")
    twin = relabeled_copy(group, rng)
    while twin == group:
        twin = relabeled_copy(group, rng)
    for bound in bounds_to_check(group):
        assert ([b.map.images for b in search_bijections(group, twin, bound)]
                == [b.map.images for b in search_bijections_by_full_check(group, twin, bound)])


def test_verify_preserving_identity_and_inversion():
    s3 = symmetric(3)
    ident = BasisBijection(GroupMap.identity(s3))
    assert verify_preserving(ident, 5)
    assert ident.verified_bound == 5
    inv = BasisBijection(GroupMap.inversion(s3))
    assert verify_preserving(inv, 3)
    assert inv.verified_bound == 3
    # verified bound never decreases
    assert verify_preserving(inv, 2)
    assert inv.verified_bound == 3


def test_verify_preserving_rejects_and_witnesses():
    s3 = symmetric(3)
    images = list(range(6))
    r, s = s3.index_of("r"), s3.index_of("s")
    images[r], images[s] = images[s], images[r]
    bad = GroupMap(s3, s3, tuple(images))
    b = BasisBijection(bad)
    assert verify_preserving(b, 3) is False
    assert b.verified_bound == 0
    # a product-one triple whose image is not
    witnesses = [seq for seq in (Sequence.from_elements(s3, t) for t in
                                 itertools.combinations_with_replacement(range(1, 6), 3))
                 if seq.is_product_one() and not apply_map(bad, seq).is_product_one()]
    assert witnesses


def test_verify_preserving_identity_must_fix_identity():
    c3 = cyclic(3)
    shift = GroupMap(c3, c3, (1, 2, 0))
    b = BasisBijection(shift)
    assert verify_preserving(b, 2) is False


def test_verify_preserving_builds_no_ball(monkeypatch):
    def level_ball(group, cap):
        raise AssertionError(f"ball of {group.label} built to {cap}")

    def davenport(group, budget=None):
        raise AssertionError(f"D({group.label}) computed")

    monkeypatch.setattr(factorization, "_level_ball", level_ball)
    monkeypatch.setattr(isolab, "large_davenport", davenport)
    # a relabeled copy misses the per-group ball cache
    g = relabeled_copy(dihedral(8), random.Random(31))
    inv = BasisBijection(GroupMap.inversion(g))
    assert verify_preserving(inv, 6)
    assert inv.verified_bound == 6
    swapped = list(range(8))
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert not verify_preserving(BasisBijection(GroupMap(g, g, tuple(swapped))), 6)


def full_ball_preserves(m, cap):
    """Whether m maps the whole product-one ball of its source onto its target's."""
    n = m.source.order

    def vectors(group):
        return {_unpack(key, n) for key in product_one_vectors(group, cap)}

    def image(vec):
        out = [0] * n
        for e, v in enumerate(vec):
            out[m.images[e]] += v
        return tuple(out)

    return {image(v) for v in vectors(m.source)} == vectors(m.target)


def pair_keeping_maps(g1, g2, rng, count):
    """Random bijections g1 -> g2 that map involutions to involutions and
    inverse pairs to inverse pairs, so that they pass every length-2 check."""
    for _ in range(count):
        images = [0] * g1.order
        free = set(range(1, g2.order))
        for x in range(1, g1.order):
            if x > g1.inv(x):
                continue
            pool = sorted(y for y in free if (g2.inv(y) == y) == (g1.inv(x) == x))
            y = rng.choice(pool)
            images[x], images[g1.inv(x)] = y, g2.inv(y)
            free -= {y, g2.inv(y)}
        yield GroupMap(g1, g2, tuple(images))


def identity_fixing_maps(rng):
    """Isomorphisms, their inversion twists, and random bijections fixing 1,
    from each group to itself and to a relabeled copy; and random bijections
    fixing 1 between non-isomorphic groups of equal order, both ways."""
    for spec in ("S3", "D8", "Q8", "C6"):
        g = parse_group_spec(spec)
        inv = GroupMap.inversion(g).images
        for target in (g, relabeled_copy(g, rng)):
            for f in find_group_isomorphisms(g, target)[:3]:
                yield f
                yield GroupMap(g, target, tuple(f.images[inv[x]] for x in range(g.order)))
            for _ in range(6):
                perm = [0] + rng.sample(range(1, g.order), g.order - 1)
                yield GroupMap(g, target, tuple(perm))
    for spec1, spec2 in (("C4xC2", "D8"), ("C8", "Q8"), ("C6", "S3")):
        g1, g2 = parse_group_spec(spec1), parse_group_spec(spec2)
        for source, target in ((g1, g2), (g2, g1)):
            for _ in range(3):
                perm = [0] + rng.sample(range(1, source.order), source.order - 1)
                yield GroupMap(source, target, tuple(perm))
    yield from pair_keeping_maps(parse_group_spec("C8"), parse_group_spec("Q8"), rng, 3)


def test_verify_preserving_agrees_with_a_full_ball_scan():
    outcomes = Counter()
    for m in identity_fixing_maps(random.Random(41)):
        top = max(large_davenport(m.source), large_davenport(m.target))
        for cap in range(1, top + 1):
            b = BasisBijection(m)
            ok = verify_preserving(b, cap)
            assert ok == full_ball_preserves(m, cap), (m.images, cap)
            assert b.verified_bound == (cap if ok else 0)
            outcomes[ok] += 1
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("spec1, spec2, cap, keep_pairs", [
    ("D8", "Q8", 5, False), ("Q8", "D8", 5, False), ("C8", "Q8", 5, True),
    ("Q8", "C8", 5, True), ("C4xC2", "D8", 5, False), ("D8", "D8", 5, True),
    ("D10", "D10", 5, True), ("S3", "C6", 6, False)])
def test_verify_preserving_decides_random_and_pair_keeping_maps(spec1, spec2, cap,
                                                                keep_pairs):
    # Random maps mostly fail on an inverse pair; maps that keep inverse pairs
    # (where the two groups have as many involutions) pass length 2 and must
    # be rejected deeper in the backtracking.
    g1, g2 = parse_group_spec(spec1), parse_group_spec(spec2)
    rng = random.Random(cap)
    maps = [GroupMap(g1, g2, tuple([0] + rng.sample(range(1, g2.order), g2.order - 1)))
            for _ in range(4)]
    if keep_pairs:
        maps += pair_keeping_maps(g1, g2, rng, 4)
    failures = 0
    for m in maps:
        ok = verify_preserving(BasisBijection(m), cap)
        assert ok == full_ball_preserves(m, cap), (m.images, cap)
        failures += not ok
    assert failures >= len(maps) - 1


@pytest.mark.parametrize("spec, automorphisms", [("C12", 4), ("C4xC2", 8)])
def test_abelian_pairs_build_no_ball(spec, automorphisms, monkeypatch):
    def level_ball(group, cap):
        raise AssertionError(f"ball of {group.label} built to {cap}")

    monkeypatch.setattr(factorization, "_level_ball", level_ball)
    rng = random.Random(automorphisms)
    # relabeled copies miss the per-group ball cache
    g1 = relabeled_copy(parse_group_spec(spec), rng)
    g2 = relabeled_copy(parse_group_spec(spec), rng)
    verdict = verify_theorem(g1, g2)
    assert verdict.consistent and verdict.bijections_found == automorphisms


def test_verify_theorem_labels_a_davenport_trip_and_keeps_its_catalog():
    # a relabeled copy misses the per-group ball cache
    d12 = relabeled_copy(dihedral(12), random.Random(12))
    with pytest.raises(BudgetExceededError) as err:
        verify_theorem(d12, parse_group_spec("A4"), budget=10000)
    partial = err.value.partial
    assert partial["stage"] == "davenport"
    assert (partial["group1"], partial["group2"]) == (d12.label, "A4")
    catalog = partial["catalog"]
    assert isinstance(catalog, AtomCatalog) and not catalog.exhaustive
    # lengths 1..5 fit in the budget (4367 multisets), length 6 does not
    exact = enumerate_atoms(d12, 5)
    assert catalog.atoms_by_length == exact.atoms_by_length


def test_check_assertions_requires_verification():
    s3 = symmetric(3)
    b = BasisBijection(GroupMap.identity(s3))
    with pytest.raises(ValueError):
        check_assertions(b)
    verify_preserving(b, 3)
    report = check_assertions(b)
    assert report.classification == "isomorphism"
    assert report.all_passed


def test_check_assertions_accepts_small_davenport_bound():
    c2 = cyclic(2)
    b = BasisBijection(GroupMap.identity(c2))
    verify_preserving(b, 2)  # the Davenport bound of the pair
    report = check_assertions(b)
    assert report.classification == "isomorphism"


@pytest.mark.parametrize("order", [12, 16])
def test_check_assertions_rejects_without_a_davenport_constant(order, monkeypatch):
    def level_ball(group, cap):
        raise AssertionError(f"ball of {group.label} built to {cap}")

    monkeypatch.setattr(factorization, "_level_ball", level_ball)
    # a relabeled copy misses the per-group ball cache
    group = relabeled_copy(dihedral(order), random.Random(order))
    for bound in (0, 1, 2):
        with pytest.raises(ValueError, match="verified to length 3"):
            check_assertions(BasisBijection(GroupMap.identity(group), bound))


@pytest.mark.parametrize("order", [1, 2])
def test_check_assertions_accepts_the_davenport_bound_below_3(order):
    # D(C1) = 1 and D(C2) = 2 are below 3, and they are the bounds needed
    group = cyclic(order)
    with pytest.raises(ValueError, match=f"verified to length {order}"):
        check_assertions(BasisBijection(GroupMap.identity(group), order - 1))
    report = check_assertions(BasisBijection(GroupMap.identity(group), order))
    assert report.classification == "isomorphism" and report.all_passed


def test_assertions_on_automorphism_and_inversion():
    s3 = symmetric(3)
    auto = find_group_isomorphisms(s3, s3)[1]
    b = BasisBijection(auto)
    verify_preserving(b, 6)
    report = check_assertions(b)
    assert report.classification == "isomorphism"
    assert report.is_isomorphism and not report.is_anti_isomorphism
    assert all(o.status in ("pass", "vacuous") for o in report.outcomes)

    inv = BasisBijection(GroupMap.inversion(s3))
    verify_preserving(inv, 6)
    rinv = check_assertions(inv)
    assert rinv.classification == "anti_isomorphism"
    assert rinv.is_anti_isomorphism and not rinv.is_isomorphism


def test_assertions_both_flags_on_abelian():
    c6 = cyclic(6)
    b = BasisBijection(GroupMap.inversion(c6))
    verify_preserving(b, 6)
    report = check_assertions(b)
    assert report.classification == "isomorphism"
    assert report.is_isomorphism and report.is_anti_isomorphism


def test_assertions_fail_loudly_on_a_non_preserving_map():
    # lie about the verification bound; the checks still tell the truth
    s3 = symmetric(3)
    images = list(range(6))
    r, s = s3.index_of("r"), s3.index_of("s")
    images[r], images[s] = images[s], images[r]
    liar = BasisBijection(GroupMap(s3, s3, tuple(images)), verified_bound=6)
    report = check_assertions(liar)
    assert report.classification == "neither"
    a1 = report.outcome("A1")
    assert a1.status == "fail" and a1.counterexample is not None
    a7 = report.outcome("A7")
    assert a7.status == "fail"
    assert not report.all_passed


def test_assertion_counterexamples_name_real_elements():
    s3 = symmetric(3)
    images = list(range(6))
    r, s = s3.index_of("r"), s3.index_of("s")
    images[r], images[s] = images[s], images[r]
    report = check_assertions(BasisBijection(GroupMap(s3, s3, tuple(images)), 6))
    g, = report.outcome("A1").counterexample
    assert s3.element_order(g) != s3.element_order(images[g])


def seeded_assertion_maps():
    """Seeded maps, verified_bound=6, over the catalog and S4, D16, Dic16 and
    C2xA4. Per group: two automorphisms and their twists x -> f(x^-1), each
    into the group and into its opposite; each of those with the images of
    a·c and c·a swapped for a random noncommuting pair (a, c), or of two
    random non-identity elements in an abelian group; and three random
    bijections, of which the first moves the identity."""
    rng = random.Random(2304)
    for spec in SMALL_GROUP_SPECS + ("S4", "D16", "Dic16", "C2xA4"):
        group = parse_group_spec(spec)
        n = group.order
        inv = [group.inv(x) for x in range(n)]
        swaps = ([(group.mul(a, c), group.mul(c, a)) for a in range(n) for c in range(a)
                  if group.mul(a, c) != group.mul(c, a)]
                 or list(itertools.combinations(range(1, n), 2)) or [(0, 1)])
        images = []
        for f in rng.sample([m.images for m in find_group_isomorphisms(group, group)],
                            min(2, n - 1)):
            images += [f, tuple(f[i] for i in inv)]
        for f in list(images):
            swapped = list(f)
            x, y = rng.choice(swaps)
            swapped[x], swapped[y] = swapped[y], swapped[x]
            images.append(tuple(swapped))
        for k in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            if k == 0 and perm[0] == 0:
                perm[0], perm[1] = perm[1], perm[0]
            images.append(tuple(perm))
        for target in (group, group.opposite()):
            for f in images:
                yield BasisBijection(GroupMap(group, target, f), verified_bound=6)


def test_assertion_suite_agrees_with_its_definitions():
    reports = []
    for b in seeded_assertion_maps():
        report = check_assertions(b)
        assert report == assertion_outcomes(b.map), b.map.images
        reports.append(report)
    failed = {o.name for r in reports for o in r.outcomes if o.status == "fail"}
    assert failed == {f"A{i}" for i in range(1, 8)}
    assert {r.classification for r in reports} == {"isomorphism", "anti_isomorphism",
                                                    "neither"}
    assert {r.outcome("A6").status for r in reports} == {"pass", "fail", "vacuous"}
    # pinned, so that a changed status, counterexample, classification or flag shows
    digest = hashlib.sha256(repr(reports).encode("ascii")).hexdigest()
    assert digest == "1a00602b8dd97402ba6d50b6bc94e3f8232c98507d40b404816eea9a27da8d32"


def test_theorem_s3_self_pair():
    s3 = symmetric(3)
    verdict = verify_theorem(s3, s3)
    assert verdict.bound == 6
    assert verdict.bijections_found == 12
    assert verdict.groups_isomorphic and verdict.all_classified and verdict.consistent
    assert sorted(verdict.classifications).count("isomorphism") == 6
    assert sorted(verdict.classifications).count("anti_isomorphism") == 6


def test_theorem_on_non_isomorphic_pairs():
    for spec1, spec2 in [("S3", "C6"), ("D8", "Q8"), ("C4", "C2xC2")]:
        verdict = verify_theorem(parse_group_spec(spec1), parse_group_spec(spec2))
        assert verdict.bijections_found == 0
        assert not verdict.groups_isomorphic
        assert verdict.consistent


def test_theorem_across_presentations():
    verdict = verify_theorem(cyclic(6), direct_product(cyclic(2), cyclic(3)))
    assert verdict.groups_isomorphic
    assert verdict.bijections_found == 2  # |Aut(C6)| = 2, inversion twist coincides
    assert verdict.consistent


def test_classification_partition_non_abelian():
    d8 = dihedral(8)
    verdict = verify_theorem(d8, d8)
    iso = [b for b, c in zip(verdict.bijections, verdict.classifications)
           if c == "isomorphism"]
    anti = [b for b, c in zip(verdict.bijections, verdict.classifications)
            if c == "anti_isomorphism"]
    assert len(iso) == len(anti) > 0
    # composing with inversion swaps the classes
    inv = [d8.inv(x) for x in range(8)]
    twisted = {tuple(b.map.images[inv[x]] for x in range(8)) for b in iso}
    assert twisted == {b.map.images for b in anti}


def test_abelian_self_pair_all_both():
    k4 = direct_product(cyclic(2), cyclic(2))
    verdict = verify_theorem(k4, k4)
    assert verdict.bijections_found == 6
    assert all(c == "isomorphism" for c in verdict.classifications)
    assert all(r.is_anti_isomorphism for r in verdict.reports)


def test_search_symmetry_by_inversion_of_maps():
    d8, q8 = dihedral(8), parse_group_spec("Q8")
    for g1, g2 in [(d8, q8), (symmetric(3), symmetric(3))]:
        f12 = search_bijections(g1, g2, 6)
        f21 = search_bijections(g2, g1, 6)
        assert (len(f12) > 0) == (len(f21) > 0)
        assert {b.map.inverse().images for b in f12} == {b.map.images for b in f21}


def test_preservation_soundness_beyond_the_davenport_bound():
    for spec in ["S3", "Q8"]:
        group = parse_group_spec(spec)
        bound = large_davenport(group)
        found = search_bijections(group, group, bound)
        for b in found:
            assert verify_preserving(b, bound + 1)
            assert verify_preserving(b, bound + 2)
            assert b.verified_bound == bound + 2


def test_opposite_transport_swaps_classification():
    s3 = symmetric(3)
    inv = BasisBijection(GroupMap.inversion(s3))
    verify_preserving(inv, 4)
    moved = opposite_transport(inv)
    assert moved.verified_bound == 4
    assert moved.map.target == s3.opposite()
    assert moved.map.is_homomorphism()
    back = opposite_transport(moved)
    assert back.map.images == inv.map.images
    assert back.map.target == s3
    # preservation carries to the transported map at the same bound
    assert verify_preserving(moved, 4)


def test_small_group_catalog_contents():
    groups = small_group_catalog()
    assert len(groups) == len(SMALL_GROUP_SPECS) == 23
    orders = [g.order for g in groups]
    assert max(orders) == 12
    # one entry per isomorphism class: all pairs distinguished
    for i, g1 in enumerate(groups):
        for g2 in groups[i + 1:]:
            assert not find_group_isomorphisms(g1, g2, limit=1)


def test_small_group_catalog_has_every_group_of_order_2_to_12():
    # OEIS A000001, the number of groups of each order n = 2..12; with the
    # pairwise non-isomorphism above, the catalog holds each class once
    known = [1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5]
    orders = Counter(g.order for g in small_group_catalog())
    assert [orders[n] for n in range(2, 13)] == known
    assert sum(orders.values()) == sum(known) == 23


def test_compare_invariants_statuses():
    c6 = cyclic(6)
    twin = direct_product(cyclic(2), cyclic(3))
    report = compare_invariants(c6, twin, 6)
    assert not report.distinguishes
    assert {c.status for c in report.comparisons} == {"matches"}

    report = compare_invariants(cyclic(4), direct_product(cyclic(2), cyclic(2)), 4)
    by_name = {c.name: c for c in report.comparisons}
    assert by_name["davenport"].status == "distinguishes"
    assert by_name["davenport"].value1 == 4
    assert by_name["davenport"].value2 == 3

    report = compare_invariants(dihedral(8), parse_group_spec("Q8"), 6)
    by_name = {c.name: c for c in report.comparisons}
    assert by_name["abelianization"].status == "matches"
    assert by_name["atom_counts"].status == "distinguishes"


def test_compare_invariants_inconclusive_on_budget():
    rng = random.Random(53)
    g1 = relabeled_copy(dihedral(8), rng)
    g2 = relabeled_copy(parse_group_spec("Q8"), rng)
    report = compare_invariants(g1, g2, 6, budget=500)
    statuses = {c.name: c.status for c in report.comparisons}
    assert statuses["davenport"] == "inconclusive"
    assert statuses["length_system"] == "inconclusive"
    assert statuses["abelianization"] == "matches"
