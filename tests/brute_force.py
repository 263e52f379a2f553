"""Brute-force helpers shared by the test modules."""

from __future__ import annotations

import itertools

from prodone.factorization import (LengthSystem, _unpack, enumerate_atoms,
                                   product_one_vectors, set_of_lengths)
from prodone.groups import GroupMap, GroupTable
from prodone.isolab import BasisBijection
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


def is_product_one_by_orderings(group, terms):
    """Whether some ordering of ``terms`` multiplies to the identity, trying each."""
    for order in set(itertools.permutations(terms)):
        acc = 0
        for x in order:
            acc = group.mul(acc, x)
        if acc == 0:
            return True
    return False


def least_failing_atom(m, cap, shift):
    """The identity-free atom of ``m.source`` of length <= cap whose image is
    not product-one, least by (length, packed key), with ``shift`` bits per
    packed slot; None if there is none. Product-one is decided by trying
    every ordering, and atomicity by trying every split into two parts."""
    src = m.source
    for ln in range(1, cap + 1):
        vecs = [Sequence.from_elements(src, c).exponents
                for c in itertools.combinations_with_replacement(range(1, src.order), ln)]
        for vec in sorted(vecs, key=lambda v: sum(x << (shift * e) for e, x in enumerate(v))):
            seq = Sequence(src, vec)
            terms = seq.terms()
            if (not is_product_one_by_orderings(src, terms)
                    or is_product_one_by_orderings(m.target, [m.images[x] for x in terms])):
                continue
            if not any(is_product_one_by_orderings(src, part.terms())
                       and is_product_one_by_orderings(src, seq.quotient(part).terms())
                       for part in sub_multisets(seq)[1:-1]):
                return seq
    return None


def length_system_by_factorizations(group, bound, budget=None):
    """L(G) to ``bound`` from every factorization of every ball vector: each
    identity-free product-one T (and the empty one) gets ``set_of_lengths``,
    shifted by every identity padding that keeps the length <= bound."""
    catalog = enumerate_atoms(group, bound, budget)
    ball = product_one_vectors(group, bound, budget)
    collected = set()
    entries = [(0, 0)] + sorted((ln, key) for key, ln in ball.items())
    for ln, key in entries:
        base = set_of_lengths(Sequence(group, _unpack(key, group.order)), catalog)
        start = 1 if ln == 0 else 0  # identity padding; skip the fully empty sequence
        for pad in range(start, bound - ln + 1):
            collected.add(tuple(x + pad for x in base))
    return LengthSystem(bound, tuple(sorted(collected)))


def search_bijections_by_full_check(g1, g2, bound, budget=None):
    """The bijections g1 -> g2 preserving product-one up to ``bound``, each
    identity-fixing candidate scanned in full: it must send every
    identity-free atom of g1 to a vector of the product-one ball of g2, and
    pull every one of g2 back into the ball of g1, both to ``bound``.

    The candidates keep element orders up to the bound and, from bound 2,
    send inverses to inverses; both are lossless, since (x^k) and (x, x^-1)
    are product-one. Sorted by image tuple, as ``search_bijections`` returns
    them.
    """
    n = g1.order
    if n != g2.order:
        return []
    atoms, balls = [], []
    for group in (g1, g2):
        catalog = enumerate_atoms(group, bound, budget)
        atoms.append([a.exponents for a in catalog.all_atoms() if not a.exponents[0]])
        balls.append({_unpack(key, n) for key in product_one_vectors(group, bound, budget)})

    def into(vectors, f, ball):
        for vec in vectors:
            image = [0] * n
            for e, v in enumerate(vec):
                image[f[e]] += v
            if tuple(image) not in ball:
                return False
        return True

    def capped(group, x):
        k = group.element_order(x)
        return k if k <= bound else 0

    found = []
    images = [0] * n
    used = {0}

    def extend(x):
        if x == n:
            inverse = [0] * n
            for a, b in enumerate(images):
                inverse[b] = a
            if into(atoms[0], images, balls[1]) and into(atoms[1], inverse, balls[0]):
                found.append(BasisBijection(GroupMap(g1, g2, tuple(images)), bound))
            return
        xi = g1.inv(x)
        for y in range(1, n):
            if y in used or capped(g1, x) != capped(g2, y):
                continue
            if bound >= 2 and xi <= x and (images[xi] if xi < x else y) != g2.inv(y):
                continue
            images[x] = y
            used.add(y)
            extend(x + 1)
            used.discard(y)

    extend(1)
    return found


def small_davenport(group):
    """d(G), the largest length of a product-one free sequence over ``group``.

    A walk over the non-decreasing identity-free multisets that keeps only
    the product-one free ones: S·g is product-one free iff S is and T·g is
    product-one for no sub-multiset T of S, decided by ``Sequence.product_set``.
    The empty sequence is product-one free, so d(C1) = 0.
    """
    best = 0

    def walk(seq, top):
        nonlocal best
        best = max(best, seq.length)
        for g in range(top, group.order):
            single = Sequence.from_elements(group, [g])
            if all(0 not in part.concat(single).product_set() for part in sub_multisets(seq)):
                walk(seq.concat(single), g)

    walk(Sequence.empty(group), 1)
    return best
