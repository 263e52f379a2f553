"""Product-one-preserving bijections between groups, and what they imply.

A bijection between two groups extends elementwise to sequences. When it
preserves the product-one property in both directions up to the larger of the
two Davenport constants, it preserves it at every length: each product-one
sequence splits into atoms of length at most the Davenport constant, images
of product-one factors are product-one, and concatenation keeps the property.
The checks here quantify that reasoning and classify every surviving
bijection as a group isomorphism or anti-isomorphism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceededError
from .factorization import (_SHIFT, _atom_keys, _items, _unpack, fingerprint,
                            large_davenport, length_system, product_one_vectors)
from .groups import (GroupMap, GroupTable, abelian_structure_label,
                     find_group_isomorphisms, parse_group_spec)
from .sequences import Sequence

__all__ = [
    "SMALL_GROUP_SPECS",
    "small_group_catalog",
    "BasisBijection",
    "AssertionOutcome",
    "AssertionReport",
    "TheoremVerdict",
    "InvariantComparison",
    "ComparisonReport",
    "verify_preserving",
    "search_bijections",
    "check_assertions",
    "verify_theorem",
    "opposite_transport",
    "compare_invariants",
]

SMALL_GROUP_SPECS = (
    "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7", "C8", "C4xC2",
    "C2xC2xC2", "D8", "Q8", "C9", "C3xC3", "C10", "D10", "C11", "C12", "C2xC6",
    "D12", "Dic12", "A4")


def small_group_catalog() -> tuple:
    """The groups of order 2 to 12, one per isomorphism class (23 in all)."""
    return tuple(parse_group_spec(spec) for spec in SMALL_GROUP_SPECS)


@dataclass
class BasisBijection:
    """A bijection of group elements, tracked with its verified length bound."""

    map: GroupMap
    verified_bound: int = 0

    def __post_init__(self):
        if not self.map.is_bijective():
            raise ValueError("basis bijection requires bijective images")
        if self.verified_bound < 0:
            raise ValueError(f"negative verified_bound {self.verified_bound}")


def _identity_counterexample(group: GroupTable) -> Sequence:
    exps = [0] * group.order
    exps[0] = 1
    return Sequence(group, exps)


def _image_key(items, images) -> int:
    key = 0
    for e, v in items:
        key += v << (_SHIFT * images[e])
    return key


def _image_test(group: GroupTable, cap: int, budget):
    """A test ``(items, images) -> bool`` of whether a map into ``group``
    sends an identity-free multiset of length <= cap, given as its
    (element, multiplicity) items, to a product-one one.

    Over an abelian group every ordering has the same product, so the test
    multiplies the image terms out; otherwise it looks the image up in the
    product-one ball of ``group``.
    """
    if not group.is_abelian:
        ball = product_one_vectors(group, cap, budget)
        return lambda items, images: _image_key(items, images) in ball
    tab = group.table
    powers = []  # powers[y][v] = y^v
    for y in range(group.order):
        row = [0]
        for _ in range(cap):
            row.append(tab[row[-1]][y])
        powers.append(row)

    def test(items, images):
        acc = 0
        for e, v in items:
            acc = tab[acc][powers[images[e]][v]]
        return acc == 0

    return test


def _decoded_atoms(group: GroupTable, cap: int, budget):
    """(packed key, items) of the identity-free atoms of ``group`` to ``cap``,
    by (length, packed key), each decoded when it is read. The atoms are
    looked up at the call, so a budget trip raises there."""
    return ((k, _items(k)) for k in _atom_keys(group, cap, budget))


def _join(subgroup: set, gens: list) -> set:
    """The permutation group generated by ``gens``, given its ``subgroup``
    generated by all of them but the last (Dimino's algorithm).

    Permutations are image tuples, multiplied left to right:
    (r·t)[x] = t[r[x]]. The result is a union of right cosets H·r of
    H = ``subgroup``, starting from H itself. A product r·t of a coset
    representative with a generator that lies outside the union so far
    brings its whole coset as a new representative. The union is then closed
    under right multiplication by every generator and holds the identity, so
    it is the generated group, at one product per new element and one per
    (representative, generator) pair.
    """
    out = set(subgroup)
    reps = [tuple(range(len(gens[-1])))]
    for r in reps:  # grows while it is read
        for t in gens:
            rt = tuple([t[i] for i in r])
            if rt not in out:
                reps.append(rt)
                out.update(tuple([rt[i] for i in h]) for h in subgroup)
    return out


def _forward_failure(decoded1, images, test2):
    """First vector of ``decoded1`` whose image is not product-one, if any.

    Lemma B: for a bijection f with f(1) = 1 it is enough to scan the source's
    identity-free atoms of length <= cap, not its whole ball. Proof: f acts
    on multisets additively and keeps lengths. Every identity-free
    product-one T of length <= cap is a concatenation of such atoms, each
    image of which is product-one, and a concatenation of product-one
    sequences is product-one; f(T) is identity-free because only 1 maps to 1.
    So f(ball1) ⊆ ball2 iff f(atoms1) ⊆ ball2. The atoms come by (length,
    packed key), so the failure returned is the least failing atom in that
    order, and a shortest one.

    The reverse direction is this check for f^-1, which fixes 1 as well:
    f^-1(ball2) ⊆ ball1 iff f^-1(atoms2) ⊆ ball1, by Lemma B applied to f^-1.
    The two inclusions together say f(ball1) = ball2. When the two groups
    have one table the forward inclusion already does: f is injective on
    multisets, so it cannot map the finite ball1 onto a proper part of itself.
    """
    for key, items in decoded1:
        if not test2(items, images):
            return key
    return None


def _check_preserving_at(m: GroupMap, cap: int, budget):
    """(preserves, counterexample) for all sequence lengths <= cap.

    Identity-free product-one vectors carry the whole question: padding with
    identities changes nothing once the identity is known to map to the
    identity. Each direction is checked on its source's atoms (see
    ``_forward_failure``). A forward counterexample is the (length, packed
    key)-least failing atom of the source, a product-one sequence whose image
    is not. A reverse counterexample is the pull-back of the least failing
    atom of the target, a sequence that is not product-one although its image
    is an atom. Either is a shortest failure of its kind.
    """
    if m.images[0] != 0:
        return False, _identity_counterexample(m.source)
    if cap == 0:
        return True, None
    n = m.source.order
    bad = _forward_failure(_decoded_atoms(m.source, cap, budget), m.images,
                           _image_test(m.target, cap, budget))
    if bad is not None:
        return False, Sequence(m.source, _unpack(bad, n))
    if m.source == m.target:
        return True, None
    inverse = m.inverse().images
    bad = _forward_failure(_decoded_atoms(m.target, cap, budget), inverse,
                           _image_test(m.source, cap, budget))
    if bad is None:
        return True, None
    return False, Sequence(m.source, _unpack(_image_key(_items(bad), inverse), n))


def verify_preserving(b: BasisBijection, bound: int, budget: int | None = None) -> bool:
    """Whether b.map sends product-one to product-one both ways, up to ``bound``.

    On a completed positive check, ``verified_bound`` is raised to ``bound``.
    On budget exhaustion the error propagates after staging down through
    smaller bounds to the first that fits the budget, so ``verified_bound``
    still records the largest one that can be completed. The trip left its
    exact partial ball in the ball cache, so the bounds that trip again cost
    no enumeration, and the one that fits reads the ball from that cache.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    try:
        ok, _ = _check_preserving_at(b.map, bound, budget)
    except BudgetExceededError as err:
        for cap in range(bound - 1, 0, -1):
            try:
                ok, _ = _check_preserving_at(b.map, cap, budget)
            except BudgetExceededError:
                continue
            if not ok:
                return False
            b.verified_bound = max(b.verified_bound, cap)
            break
        raise err
    if ok:
        b.verified_bound = max(b.verified_bound, bound)
    return ok


def _po3(table, a, b, c) -> bool:
    """Whether the multiset {a, b, c} is product-one.

    Cyclic rotations of a product-one ordering stay product-one, so the six
    orderings collapse to the two classes tested here.
    """
    return table[table[a][b]][c] == 0 or table[table[a][c]][b] == 0


def _capped_order_census(group: GroupTable, bound: int) -> Counter:
    # orders above the bound are indistinguishable at this bound; 0 marks them
    return Counter(o if o <= bound else 0
                   for o in (group.element_order(x) for x in group.elements()))


def search_bijections(g1: GroupTable, g2: GroupTable, bound: int,
                      budget: int | None = None) -> list:
    """All bijections g1 -> g2 preserving product-one up to ``bound``.

    Backtracking over images in increasing element order. Prunes are applied
    only where the bound makes them lossless: identity to identity always,
    element orders capped at the bound, inverse compatibility from length-2
    sequences once bound >= 2, and length-3 product-one agreement once
    bound >= 3. Surviving assignments get the full sequence check, which by
    Lemma B (see ``_forward_failure``) scans only the atoms of g1 forward and
    those of g2 backward. Results are sorted by image tuple.

    On a self-pair (g1 == g2) the preserving bijections form a group: each
    maps the finite ball onto itself, and so does a composition of two. So a
    survivor in the group generated by the identity and the maps that
    passed a scan is preserving without one, and a survivor outside it that
    passes becomes a new generator. Each generator at least doubles the
    generated group (Lagrange), so k preserving maps take at most
    floor(log2 k) scans. The atoms and the image test of the group are
    built once, at the first scan.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if g1.order != g2.order:
        return []
    if _capped_order_census(g1, bound) != _capped_order_census(g2, bound):
        return []
    n = g1.order
    tab1, tab2 = g1.table, g2.table
    ord1 = [g1.element_order(x) for x in range(n)]
    ord2 = [g2.element_order(y) for y in range(n)]
    inv1 = [g1.inv(x) for x in range(n)]
    inv2 = [g2.inv(y) for y in range(n)]
    cands = []
    for x in range(n):
        row = []
        for y in range(n):
            if ord1[x] <= bound or ord2[y] <= bound:
                if ord1[x] != ord2[y]:
                    continue
            row.append(y)
        cands.append(row)

    same = g1 == g2
    prep: list = []  # (atoms, image test) forward, then backward unless same
    generators: list = []
    generated = {tuple(range(n))}  # on a self-pair, the group of the generators

    def full_check(images) -> bool:
        nonlocal generated
        if same:
            f = tuple(images)
            if f in generated:
                return True
        if not prep:
            prep.append((list(_decoded_atoms(g1, bound, budget)),
                         _image_test(g2, bound, budget)))
            if not same:
                prep.append((list(_decoded_atoms(g2, bound, budget)),
                             _image_test(g1, bound, budget)))
        atoms1, test2 = prep[0]
        if _forward_failure(atoms1, images, test2) is not None:
            return False
        if same:
            generators.append(f)
            generated = _join(generated, generators)
            return True
        atoms2, test1 = prep[1]
        inverse = [0] * n
        for x, y in enumerate(images):
            inverse[y] = x
        return _forward_failure(atoms2, inverse, test1) is None

    images = [-1] * n
    used = [False] * n
    images[0] = 0
    used[0] = True
    results = []

    def admissible(x, y) -> bool:
        if bound >= 2:
            xi, yi = inv1[x], inv2[y]
            if xi == x:
                if yi != y:
                    return False
            elif xi < x:
                if images[xi] != yi:
                    return False
            elif yi == y or used[yi]:
                return False
        if bound >= 3:
            for a in range(x):
                fa = images[a]
                if _po3(tab1, x, x, a) != _po3(tab2, y, y, fa):
                    return False
                for c in range(a, x):
                    if _po3(tab1, x, a, c) != _po3(tab2, y, fa, images[c]):
                        return False
        return True

    def extend(x):
        if x == n:
            if full_check(images):
                results.append(BasisBijection(GroupMap(g1, g2, tuple(images)), bound))
            return
        for y in cands[x]:
            if used[y] or not admissible(x, y):
                continue
            images[x] = y
            used[y] = True
            extend(x + 1)
            images[x] = -1
            used[y] = False

    extend(1)
    results.sort(key=lambda b: b.map.images)
    return results


# -- the assertion suite ----------------------------------------------------------


@dataclass(frozen=True)
class AssertionOutcome:
    name: str
    status: str  # "pass" | "fail" | "vacuous"
    counterexample: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class AssertionReport:
    outcomes: tuple
    classification: str  # "isomorphism" | "anti_isomorphism" | "neither"
    is_isomorphism: bool
    is_anti_isomorphism: bool

    def outcome(self, name: str) -> AssertionOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(o.passed for o in self.outcomes)


def check_assertions(b: BasisBijection) -> AssertionReport:
    """Run the seven structural checks a preserving bijection must satisfy.

    A1: orders are preserved and the identity maps to the identity.
    A2: images of inverses are inverses of images.
    A3: the image of a product is one of the two one-sided products, and
        powers map to powers.
    A4: commuting pairs correspond exactly.
    A5: no triple mixes the two orientations of A3 on a commuting pair of
        noncommuting partners.
    A6: when one element takes both orientations against two partners, the
        four inverse-partner identities hold.
    A7: the map is globally a homomorphism or anti-homomorphism.

    The consequences are only meaningful for preserving maps, so the
    bijection must have been verified to length 3, or to the full Davenport
    bound of the pair when that is smaller.
    """
    m = b.map
    g1, g2 = m.source, m.target
    if b.verified_bound < 3:
        needed = max(large_davenport(g1), large_davenport(g2))
        if b.verified_bound < needed:
            raise ValueError(
                f"assertions need preservation verified to length 3 "
                f"(or the Davenport bound {needed}); have {b.verified_bound}")
    f = m.images
    n = g1.order
    tab1, tab2 = g1.table, g2.table
    inv1 = [g1.inv(x) for x in range(n)]
    inv2 = [g2.inv(y) for y in range(n)]
    outcomes = []

    def record(name, counterexample=None, vacuous=False):
        if counterexample is not None:
            outcomes.append(AssertionOutcome(name, "fail", counterexample))
        else:
            outcomes.append(AssertionOutcome(name, "vacuous" if vacuous else "pass"))

    # A1: orders, identity to identity
    bad = None
    if f[0] != 0:
        bad = (0,)
    else:
        for g in range(n):
            if g1.element_order(g) != g2.element_order(f[g]):
                bad = (g,)
                break
    record("A1", bad)

    # A2: inverses
    bad = None
    for g in range(n):
        if f[inv1[g]] != inv2[f[g]]:
            bad = (g,)
            break
    record("A2", bad)

    # A3: two-sided products and powers
    bad = None
    for a in range(n):
        for c in range(n):
            fp = f[tab1[a][c]]
            if fp != tab2[f[a]][f[c]] and fp != tab2[f[c]][f[a]]:
                bad = (a, c)
                break
        if bad:
            break
    if bad is None:
        for g in range(n):
            p1, p2 = 0, 0
            for k in range(1, g1.element_order(g) + 1):
                p1 = tab1[p1][g]
                p2 = tab2[p2][f[g]]
                if f[p1] != p2:
                    bad = (g, k)
                    break
            if bad:
                break
    record("A3", bad)

    # A4: commutation correspondence
    bad = None
    for a in range(n):
        for c in range(n):
            if (tab1[a][c] == tab1[c][a]) != (tab2[f[a]][f[c]] == tab2[f[c]][f[a]]):
                bad = (a, c)
                break
        if bad:
            break
    record("A4", bad)

    # shared scan for the A5/A6 hypotheses: pairs where an orientation is pinned
    left = []   # (x, y) noncommuting with f(xy) = f(x)f(y)
    right = []  # (x, y) noncommuting with f(xy) = f(y)f(x)
    for a in range(n):
        for c in range(n):
            if tab1[a][c] == tab1[c][a]:
                continue
            fp = f[tab1[a][c]]
            if fp == tab2[f[a]][f[c]]:
                left.append((a, c))
            if fp == tab2[f[c]][f[a]]:
                right.append((a, c))

    # A5: no g1 with f(g1 g2) = f(g1)f(g2), f(g1 g3) = f(g3)f(g1),
    # both pairs noncommuting, and g2 g3 = g3 g2
    bad = None
    by_first_left: dict[int, list] = {}
    for a, c in left:
        by_first_left.setdefault(a, []).append(c)
    by_first_right: dict[int, list] = {}
    for a, c in right:
        by_first_right.setdefault(a, []).append(c)
    for a in range(n):
        for c2 in by_first_left.get(a, ()):
            for c3 in by_first_right.get(a, ()):
                if tab1[c2][c3] == tab1[c3][c2]:
                    bad = (a, c2, c3)
                    break
            if bad:
                break
        if bad:
            break
    record("A5", bad)

    # A6: same hypothesis without the commuting requirement on (g2, g3);
    # the four displayed conclusions must then hold
    bad = None
    hypothesis_seen = False
    for a in range(n):
        lefts = by_first_left.get(a, ())
        rights = by_first_right.get(a, ())
        if not lefts or not rights:
            continue
        for c2 in lefts:
            for c3 in rights:
                hypothesis_seen = True
                i2, i3 = inv1[c2], inv1[c3]
                checks = (
                    f[tab1[a][i2]] == tab2[f[a]][f[i2]],
                    f[tab1[i2][a]] == tab2[f[i2]][f[a]],
                    f[tab1[a][i3]] == tab2[f[i3]][f[a]],
                    f[tab1[i3][a]] == tab2[f[a]][f[i3]],
                )
                if not all(checks):
                    bad = (a, c2, c3)
                    break
            if bad:
                break
        if bad:
            break
    record("A6", bad, vacuous=not hypothesis_seen and bad is None)

    # A7: global dichotomy
    is_hom = m.is_homomorphism()
    is_anti = m.is_anti_homomorphism()
    if is_hom or is_anti:
        record("A7")
    else:
        hom_bad = anti_bad = None
        for a in range(n):
            for c in range(n):
                if hom_bad is None and f[tab1[a][c]] != tab2[f[a]][f[c]]:
                    hom_bad = (a, c)
                if anti_bad is None and f[tab1[a][c]] != tab2[f[c]][f[a]]:
                    anti_bad = (a, c)
            if hom_bad and anti_bad:
                break
        record("A7", (hom_bad, anti_bad))

    if is_hom:
        classification = "isomorphism"
    elif is_anti:
        classification = "anti_isomorphism"
    else:
        classification = "neither"
    return AssertionReport(tuple(outcomes), classification, is_hom, is_anti)


# -- end-to-end verification ------------------------------------------------------


@dataclass(frozen=True)
class TheoremVerdict:
    group1: str
    group2: str
    bound: int
    bijections_found: int
    all_classified: bool
    groups_isomorphic: bool
    consistent: bool
    classifications: tuple
    bijections: tuple
    reports: tuple


def verify_theorem(g1: GroupTable, g2: GroupTable, budget: int | None = None) -> TheoremVerdict:
    """Exhaustively test: preserving bijections exist iff the groups are isomorphic.

    Searches at the Davenport bound of the pair, runs the assertion suite on
    each surviving bijection, and compares against direct isomorphism search.
    A budget trip is re-raised with ``partial`` naming the pair and the stage:
    ``"davenport"``, with the partial atom catalog under ``"catalog"``, or
    ``"search"``.
    """
    try:
        bound = max(large_davenport(g1, budget), large_davenport(g2, budget))
    except BudgetExceededError as err:
        err.partial = {"group1": g1.label, "group2": g2.label, "stage": "davenport",
                       "catalog": err.partial}
        raise
    try:
        bijections = tuple(search_bijections(g1, g2, bound, budget))
        reports = tuple(check_assertions(b) for b in bijections)
    except BudgetExceededError as err:
        err.partial = {"group1": g1.label, "group2": g2.label, "stage": "search"}
        raise
    classifications = tuple(r.classification for r in reports)
    all_classified = all(c != "neither" for c in classifications)
    isomorphic = bool(find_group_isomorphisms(g1, g2, limit=1))
    consistent = ((len(bijections) > 0) == isomorphic) and all_classified
    return TheoremVerdict(
        group1=g1.label, group2=g2.label, bound=bound,
        bijections_found=len(bijections), all_classified=all_classified,
        groups_isomorphic=isomorphic, consistent=consistent,
        classifications=classifications, bijections=bijections, reports=reports)


def opposite_transport(b: BasisBijection) -> BasisBijection:
    """The same images viewed into the opposite of the target group.

    Product-one survives reversal, so preservation carries over at the same
    bound, while isomorphism and anti-isomorphism trade places.
    """
    transported = GroupMap(b.map.source, b.map.target.opposite(), b.map.images)
    return BasisBijection(transported, b.verified_bound)


# -- invariant comparison ---------------------------------------------------------


@dataclass(frozen=True)
class InvariantComparison:
    name: str
    status: str  # "matches" | "distinguishes" | "inconclusive"
    value1: object
    value2: object


@dataclass(frozen=True)
class ComparisonReport:
    group1: str
    group2: str
    bound: int
    comparisons: tuple

    @property
    def distinguishes(self) -> bool:
        return any(c.status == "distinguishes" for c in self.comparisons)


def compare_invariants(g1: GroupTable, g2: GroupTable, bound: int,
                       budget: int | None = None) -> ComparisonReport:
    """Side-by-side arithmetic invariants; each row matches, distinguishes,
    or is inconclusive when its computation exhausts the budget."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    rows = []

    def add(name, value1, value2):
        rows.append(InvariantComparison(
            name, "matches" if value1 == value2 else "distinguishes", value1, value2))

    add("abelianization",
        abelian_structure_label(g1.abelianization()),
        abelian_structure_label(g2.abelianization()))
    try:
        fp1, fp2 = fingerprint(g1, budget), fingerprint(g2, budget)
    except BudgetExceededError:
        rows.append(InvariantComparison("davenport", "inconclusive", None, None))
        rows.append(InvariantComparison("atom_counts", "inconclusive", None, None))
    else:
        add("davenport", fp1.davenport, fp2.davenport)
        add("atom_counts", fp1.atom_counts, fp2.atom_counts)
    try:
        ls1 = length_system(g1, bound, budget)
        ls2 = length_system(g2, bound, budget)
    except BudgetExceededError:
        rows.append(InvariantComparison("length_system", "inconclusive", None, None))
    else:
        add("length_system", ls1.sets, ls2.sets)
    return ComparisonReport(g1.label, g2.label, bound, tuple(rows))
