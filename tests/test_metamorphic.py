"""Metamorphic properties of abelian atoms under random relabeling."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from prodone.factorization import _atom_keys
from prodone.groups import cyclic, direct_product

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
