"""Metamorphic properties of atoms, balls, sets of lengths and theorem
verdicts under random relabeling and under passing to the opposite group."""

from __future__ import annotations

import functools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from prodone.factorization import (_atom_keys, large_davenport, length_system,
                                   product_one_vectors)
from prodone.groups import cyclic, direct_product, parse_group_spec
from prodone.isolab import check_assertions, search_bijections

from brute_force import relabeled_copy, relabeling

# C_m x C_n with m | n and mn <= 16
RANK_TWO = [(m, n) for n in range(1, 17) for m in range(1, n + 1)
            if n % m == 0 and m * n <= 16]


@st.composite
def relabeled_rank_two(draw):
    m, n = draw(st.sampled_from(RANK_TWO))
    group = direct_product(cyclic(m), cyclic(n))
    return m, n, group, relabeled_copy(group, draw(st.randoms(use_true_random=False)))


@settings(max_examples=40, deadline=None)
@given(relabeled_rank_two(), st.integers(min_value=1, max_value=8))
def test_relabeling_keeps_atom_counts_and_olson_davenport(case, cap):
    m, n, group, twin = case
    counts = Counter(_atom_keys(group, cap, None).values())
    assert Counter(_atom_keys(twin, cap, None).values()) == counts
    # Olson: D(C_m x C_n) = m + n - 1 for m | n
    if m + n - 1 <= cap:
        assert max(counts, default=1) == m + n - 1


NON_ABELIAN = ["S3", "D8", "Q8", "D10", "Dic12", "A4"]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(NON_ABELIAN), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=7))
def test_relabeling_keeps_ball_counts_and_the_opposite_group_keeps_the_ball(spec, rng, cap):
    group = parse_group_spec(spec)
    twin = relabeled_copy(group, rng)
    ball = product_one_vectors(twin, cap)
    assert Counter(ball.values()) == Counter(product_one_vectors(group, cap).values())
    # reversing an ordering of S reverses its product in G^op, and 1 reversed is 1
    assert product_one_vectors(twin.opposite(), cap) == ball


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(NON_ABELIAN), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=7))
def test_relabeling_and_the_opposite_group_keep_the_length_system(spec, rng, bound):
    # an isomorphism carries factorizations to factorizations, and so does
    # reversal, which keeps product-one and atoms in the opposite group
    group = parse_group_spec(spec)
    system = length_system(group, bound)
    assert length_system(relabeled_copy(group, rng), bound) == system
    assert length_system(group.opposite(), bound) == system


VERDICT_SPECS = ["S3", "D8", "Q8", "D10", "C2xC2xC2", "C3xC3"]


@functools.lru_cache(maxsize=None)
def self_pair_verdict(spec):
    """The group, its D(G) and the reports of its self-pair bijections at
    that bound, keyed by image tuple; each is computed once, on the
    original table."""
    group = parse_group_spec(spec)
    bound = large_davenport(group)
    return group, bound, {b.map.images: check_assertions(b)
                          for b in search_bijections(group, group, bound)}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(VERDICT_SPECS), st.randoms(use_true_random=False))
def test_relabeling_the_source_relabels_the_image_lists(spec, rng):
    # f on the group is f' on the twin with f'(perm[a]) = f(a)
    group, bound, reports = self_pair_verdict(spec)
    perm, twin = relabeling(group, rng)
    expected = set()
    for images in reports:
        moved = [0] * group.order
        for a, y in enumerate(images):
            moved[perm[a]] = y
        expected.add(tuple(moved))
    found = search_bijections(twin, group, bound)
    assert {b.map.images for b in found} == expected
    assert (Counter(check_assertions(b).classification for b in found)
            == Counter(r.classification for r in reports.values()))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(VERDICT_SPECS), st.randoms(use_true_random=False))
def test_an_opposite_target_swaps_isomorphisms_and_anti_isomorphisms(spec, rng):
    # composing with a relabeling of the target keeps both flags, and
    # reversing the target's product swaps them
    group, bound, reports = self_pair_verdict(spec)
    perm, twin = relabeling(group, rng)
    expected = {tuple(perm[y] for y in images): (r.is_anti_isomorphism, r.is_isomorphism)
                for images, r in reports.items()}
    found = search_bijections(group, twin.opposite(), bound)
    flags = {}
    for b in found:
        report = check_assertions(b)
        flags[b.map.images] = (report.is_isomorphism, report.is_anti_isomorphism)
    assert flags == expected
    if group.is_abelian:
        assert all(iso and anti for iso, anti in flags.values())
