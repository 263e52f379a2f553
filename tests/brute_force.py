"""Brute-force helpers shared by the test modules."""

from __future__ import annotations

import itertools

from prodone.factorization import (LengthSystem, _unpack, enumerate_atoms,
                                   product_one_vectors, set_of_lengths)
from prodone.groups import GroupMap, GroupTable, find_group_isomorphisms
from prodone.isolab import AssertionOutcome, AssertionReport, BasisBijection
from prodone.sequences import Sequence


def sub_multisets(seq):
    """All sub-multisets of ``seq`` in graded-lexicographic order (length, then vector)."""
    ranges = [range(v + 1) for v in seq.exponents]
    vecs = sorted(itertools.product(*ranges), key=lambda t: (sum(t), t))
    return [Sequence(seq.group, v) for v in vecs]


def relabeling(group, rng):
    """A seeded permutation ``perm`` of the element ids that fixes the
    identity, and the same abstract group on the shuffled ids, in which
    perm[a]·perm[b] = perm[a·b]."""
    perm = [0] + rng.sample(range(1, group.order), group.order - 1)
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            table[perm[a]][perm[b]] = perm[group.mul(a, b)]
    return perm, GroupTable(table)


def relabeled_copy(group, rng):
    """The same abstract group on shuffled element ids."""
    return relabeling(group, rng)[1]


def is_product_one_by_orderings(group, terms):
    """Whether some ordering of ``terms`` multiplies to the identity, trying each."""
    for order in set(itertools.permutations(terms)):
        acc = 0
        for x in order:
            acc = group.mul(acc, x)
        if acc == 0:
            return True
    return False


def products_by_orderings(group, terms):
    """The set of products of every ordering of ``terms``."""
    out = set()
    for order in set(itertools.permutations(terms)):
        acc = 0
        for x in order:
            acc = group.mul(acc, x)
        out.add(acc)
    return frozenset(out)


def least_product_one_ordering(group, terms):
    """The lexicographically least ordering of ``terms`` with product 1, or None."""
    for order in sorted(set(itertools.permutations(terms))):
        acc = 0
        for x in order:
            acc = group.mul(acc, x)
        if acc == 0:
            return order
    return None


def is_atom_by_splits(seq):
    """Whether ``seq`` is nonempty, product-one, and splits into no two
    nonempty product-one parts; every test tries every ordering."""
    group = seq.group
    return (not seq.is_empty() and is_product_one_by_orderings(group, seq.terms())
            and not any(is_product_one_by_orderings(group, part.terms())
                        and is_product_one_by_orderings(group, seq.quotient(part).terms())
                        for part in sub_multisets(seq)[1:-1]))


def submultiset_products_by_union(seq):
    """pi(T) for every sub-multiset T of ``seq``, keyed like the product-set
    DP (exponents over the support): the union of pi(T - e)·e over every
    support element e of T, with no early stop."""
    group = seq.group
    supp = seq.support()
    dp = {}
    for key in sorted(itertools.product(*(range(seq.exponents[e] + 1) for e in supp)),
                      key=sum):
        if not any(key):
            dp[key] = frozenset([0])
            continue
        dp[key] = frozenset(group.mul(p, e) for pos, e in enumerate(supp) if key[pos]
                            for p in dp[key[:pos] + (key[pos] - 1,) + key[pos + 1:]])
    return dp


def first_associativity_failure(rows):
    """The least (a, b, c) with (a·b)·c != a·(b·c) in the table, or None."""
    n = len(rows)
    for a, b, c in itertools.product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return a, b, c
    return None


def random_loop(rng, n):
    """A seeded Latin square of order ``n`` whose row and column 0 are the
    identity: cells are filled row by row with shuffled candidates, with
    backtracking."""
    rows = [list(range(n))] + [[a] + [None] * (n - 1) for a in range(1, n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            return True
        a, b = cells[i]
        used = set(rows[a][:b]) | {rows[x][b] for x in range(a)}
        options = [x for x in range(n) if x not in used]
        rng.shuffle(options)
        for x in options:
            rows[a][b] = x
            if fill(i + 1):
                return True
        rows[a][b] = None
        return False

    fill(0)
    return tuple(tuple(row) for row in rows)


def closure_by_products(group, seed):
    """The least set holding 1 and ``seed`` and closed under products, found
    by multiplying every pair of members until nothing new appears."""
    members = {0, *seed}
    while True:
        new = {group.mul(a, b) for a in members for b in members} - members
        if not new:
            return frozenset(members)
        members |= new


def greedy_generators_by_closure(group):
    """Each element, in increasing order, that lies outside the closure of
    the ones taken before it."""
    gens, covered = [], frozenset([0])
    for g in group.elements():
        if g not in covered:
            gens.append(g)
            covered = closure_by_products(group, gens)
    return gens


def commutator_subgroup_by_closure(group):
    """The closure of every commutator a·b·a^-1·b^-1."""
    inv = group.inv
    return closure_by_products(group, {group.mul(group.mul(a, b), group.mul(inv(a), inv(b)))
                                       for a in group.elements() for b in group.elements()})


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
            if (not is_product_one_by_orderings(m.target, [m.images[x] for x in seq.terms()])
                    and is_atom_by_splits(seq)):
                return seq
    return None


def assertion_outcomes(m):
    """The ``AssertionReport`` of A1-A7 on ``m``, each assertion checked by
    its definition in ``check_assertions`` over every element, pair (a, c)
    or triple (a, c2, c3), and failing at the first in row-major order.
    Orders, inverses and powers come from repeated multiplication, and A3
    checks every power g^k, k <= ord(g), once its pairs pass."""
    g1, g2, f = m.source, m.target, m.images
    n = g1.order
    mul1, mul2 = g1.mul, g2.mul

    def power(mul, x, k):
        acc = 0
        for _ in range(k):
            acc = mul(acc, x)
        return acc

    def order(mul, x):
        k = 1
        while power(mul, x, k) != 0:
            k += 1
        return k

    def inverse(mul, x):
        return next(y for y in range(n) if mul(x, y) == 0)

    def first(cases, fails):
        return next((case for case in cases if fails(*case)), None)

    def commute(mul, x, y):
        return mul(x, y) == mul(y, x)

    def hom(a, c):
        return f[mul1(a, c)] == mul2(f[a], f[c])

    def anti(a, c):
        return f[mul1(a, c)] == mul2(f[c], f[a])

    def pinned(a, c2, c3):  # the hypothesis of A5 and A6
        return (not commute(mul1, a, c2) and hom(a, c2)
                and not commute(mul1, a, c3) and anti(a, c3))

    def inverse_partners(a, c2, c3):  # the conclusion of A6
        i2, i3 = inverse(mul1, c2), inverse(mul1, c3)
        return hom(a, i2) and hom(i2, a) and anti(a, i3) and anti(i3, a)

    elements = [(g,) for g in range(n)]
    pairs = list(itertools.product(range(n), repeat=2))
    triples = [t for t in itertools.product(range(n), repeat=3) if pinned(*t)]
    a1 = first(elements, lambda g: (g == 0 and f[g] != 0)
               or order(mul1, g) != order(mul2, f[g]))
    a2 = first(elements, lambda g: f[inverse(mul1, g)] != inverse(mul2, f[g]))
    a3 = first(pairs, lambda a, c: not hom(a, c) and not anti(a, c))
    if a3 is None:
        a3 = first([(g, k) for g in range(n) for k in range(1, order(mul1, g) + 1)],
                   lambda g, k: f[power(mul1, g, k)] != power(mul2, f[g], k))
    a4 = first(pairs, lambda a, c: commute(mul1, a, c) != commute(mul2, f[a], f[c]))
    a5 = first(triples, lambda a, c2, c3: commute(mul1, c2, c3))
    a6 = first(triples, lambda a, c2, c3: not inverse_partners(a, c2, c3))
    hom_bad = first(pairs, lambda a, c: not hom(a, c))
    anti_bad = first(pairs, lambda a, c: not anti(a, c))
    a7 = None if hom_bad is None or anti_bad is None else (hom_bad, anti_bad)

    def outcome(name, bad, vacuous=False):
        if bad is not None:
            return AssertionOutcome(name, "fail", bad)
        return AssertionOutcome(name, "vacuous" if vacuous else "pass")

    outcomes = (outcome("A1", a1), outcome("A2", a2), outcome("A3", a3), outcome("A4", a4),
                outcome("A5", a5), outcome("A6", a6, vacuous=not triples), outcome("A7", a7))
    classification = ("isomorphism" if hom_bad is None
                      else "anti_isomorphism" if anti_bad is None else "neither")
    return AssertionReport(outcomes, classification, hom_bad is None, anti_bad is None)


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


def automorphisms_and_twists(group):
    """Iso(G, G) together with each automorphism f twisted by inversion,
    x -> f(x^-1), as image tuples; the isomorphisms come from
    ``find_group_isomorphisms``."""
    inv = [group.inv(x) for x in range(group.order)]
    auts = [m.images for m in find_group_isomorphisms(group, group)]
    return set(auts) | {tuple(f[i] for i in inv) for f in auts}


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
