"""Metamorphic properties of atoms, balls and sets of lengths under random
relabeling and under passing to the opposite group."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from prodone.factorization import _atom_keys, length_system, product_one_vectors
from prodone.groups import cyclic, direct_product, parse_group_spec

from brute_force import relabeled_copy

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
    twin = relabeled_copy(group, rng)  # a new table, so it misses the ball cache
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
