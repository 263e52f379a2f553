"""Brute-force helpers shared by the test modules."""

from __future__ import annotations

import itertools

from prodone.groups import GroupTable
from prodone.sequences import Sequence


def sub_multisets(seq):
    """All sub-multisets of ``seq`` in graded-lexicographic order (length, then vector)."""
    ranges = [range(v + 1) for v in seq.exponents]
    vecs = sorted(itertools.product(*ranges), key=lambda t: (sum(t), t))
    return [Sequence(seq.group, v) for v in vecs]


def relabeled_copy(group, rng):
    """The same abstract group on shuffled element ids."""
    perm = [0] + rng.sample(range(1, group.order), group.order - 1)
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            table[perm[a]][perm[b]] = perm[group.mul(a, b)]
    return GroupTable(table)
