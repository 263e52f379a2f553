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

from dataclasses import dataclass

from .errors import BudgetExceededError
from .factorization import fingerprint, large_davenport, length_system
from .groups import (GroupMap, GroupTable, abelian_structure_label,
                     find_group_isomorphisms, parse_group_spec)

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


def _po3(table, a, b, c) -> bool:
    """Whether the multiset {a, b, c} is product-one.

    Cyclic rotations of a product-one ordering stay product-one, so the six
    orderings collapse to the two classes tested here.
    """
    return table[table[a][b]][c] == 0 or table[table[a][c]][b] == 0


def _preserving_maps(g1: GroupTable, g2: GroupTable, bound: int, only=None) -> list:
    """The bijections g1 -> g2 fixing 1 that preserve product-one both ways
    up to ``bound``, by increasing image tuple, each with ``verified_bound``
    set to ``bound``. With ``only``, an image tuple, x may take only the
    image ``only[x]``, so the list holds that one map or nothing.

    Backtracking over images in increasing element order, with the identity
    fixed and each element's candidates in increasing order, so the maps
    come out by increasing image tuple. Only identity-free multisets
    matter, since 1 maps to 1 and padding with it changes no product. The
    prunes are exact up to length 3, so at bound <= 3 every survivor is
    accepted as it stands:

    - Orders: (x^i) is product-one iff ord(x) divides i. So a map that
      preserves these sequences for every i <= bound keeps ord(x) whenever
      it or ord(f(x)) is at most the bound, and the prune asks no more.
      So no map survives between groups whose numbers of elements of some
      order k <= bound differ, and none are counted: the prune sends the
      elements of order k into those of order k and lets only those map
      onto them, so a bijection would match the two sets one to one.
    - Length 1: no identity-free (x) is product-one, so bound 1 constrains
      nothing.
    - Length 2: (x, y) is product-one iff y = x^-1, so from bound 2 the
      inverse-pair rule f(x^-1) = f(x)^-1 is exactly preservation. From
      bound 2 the order prune already makes x an involution iff f(x) is
      one, so an involution x needs no test. Placing any other x tests
      f(x^-1) = f(x)^-1 when x^-1 < x has its image, and asks that f(x)^-1
      be still free when x^-1 > x.
    - Length 3: {a, b, c} is product-one iff one of its two cyclic classes
      of orderings is (see ``_po3``). From bound 3, {x, x, x} agrees both
      ways through the order-3 prune. Placing x, the greatest element so
      far, tests {x, x, a} and {x, a, c} for every a <= c < x, the identity
      included. So every triple is compared once its greatest element has
      an image, and agreement on all triples is preservation both ways.

    Above bound 3 a survivor is a homomorphism or an anti-homomorphism
    (A7), and then it preserves product-one at every length, both ways: a
    homomorphism f sends an ordering with product 1 to one with product
    f(1) = 1, and its inverse is one too; an anti-homomorphism does the same
    for the reversed ordering. Proof that every survivor is one of the two:
    for a, b != 1 with ab != 1, the triple {a, b, (ab)^-1} is product-one,
    so its image {f(a), f(b), f((ab)^-1)} is; the inverse-pair rule makes
    f((ab)^-1) = f(ab)^-1, so f(ab) is f(a)f(b) or f(b)f(a). When a = 1,
    b = 1 or ab = 1, f(ab) = f(a)f(b) by f(1) = 1 and the inverse-pair rule.
    So f is a half-homomorphism, and W. R. Scott, "Half-homomorphisms of
    groups", Proc. AMS 8 (1957), shows that every half-homomorphism of
    groups is a homomorphism or an anti-homomorphism. A survivor that is
    neither would refute that theorem; it raises ``RuntimeError`` naming
    its images, so no answer rests on the theorem.
    """
    n = g1.order
    tab1, tab2 = g1.table, g2.table
    ord1, ord2 = g1.orders, g2.orders
    inv1, inv2 = g1.inverses, g2.inverses
    cands = []
    for x in range(n):
        row = []
        for y in (range(n) if only is None else (only[x],)):
            if ord1[x] <= bound or ord2[y] <= bound:
                if ord1[x] != ord2[y]:
                    continue
            row.append(y)
        cands.append(row)

    images = [-1] * n
    used = [False] * n
    images[0] = 0
    used[0] = True
    results = []

    def admissible(x, y) -> bool:
        if bound >= 2:
            xi, yi = inv1[x], inv2[y]
            if xi < x and images[xi] != yi or xi > x and used[yi]:
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
            m = GroupMap(g1, g2, tuple(images))
            if bound > 3 and not (m.is_homomorphism() or m.is_anti_homomorphism()):
                raise RuntimeError(
                    f"the map with images {m.images} passes every check to length 3 "
                    f"but is neither a homomorphism nor an anti-homomorphism")
            results.append(BasisBijection(m, bound))
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
    return results


def verify_preserving(b: BasisBijection, bound: int) -> bool:
    """Whether b.map sends product-one to product-one both ways, up to ``bound``.

    True when b.map survives the backtracking of ``search_bijections`` with
    its own image as each element's only candidate; ``_preserving_maps``
    proves that exact. The walk fixes 1, so a map that moves 1 fails where
    it sends some x != 1 to 1, which is taken. No atom, ball or Davenport
    constant is computed. On a positive answer ``verified_bound`` is raised
    to ``bound``; it never decreases.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    m = b.map
    ok = bool(_preserving_maps(m.source, m.target, bound, m.images))
    if ok:
        b.verified_bound = max(b.verified_bound, bound)
    return ok


def search_bijections(g1: GroupTable, g2: GroupTable, bound: int) -> list:
    """All bijections g1 -> g2 preserving product-one up to ``bound``.

    Results are sorted by image tuple, each with ``verified_bound`` set to
    ``bound``. Groups of different orders have none. Otherwise the maps
    come from the backtracking of ``_preserving_maps``, whose docstring
    proves it exact: up to bound 3 its prunes are, and above it every
    survivor is a homomorphism or an anti-homomorphism, which preserves
    product-one at every length. Its order prune also finds no map between
    groups with different element-order counts among the orders up to
    ``bound``.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if g1.order != g2.order:
        return []
    return _preserving_maps(g1, g2, bound)


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
    """Run the seven structural checks a preserving bijection f must satisfy.

    A1: orders are preserved and the identity maps to the identity.
    A2: images of inverses are inverses of images.
    A3: the image of a product is one of the two one-sided products,
        f(ac) in {f(a)f(c), f(c)f(a)}, and powers map to powers,
        f(g^k) = f(g)^k.
    A4: commuting pairs correspond exactly.
    A5: no triple (a, c2, c3) mixes the two orientations of A3, with a
        commuting with neither partner, f(a c2) = f(a)f(c2) and
        f(a c3) = f(c3)f(a), on a commuting pair (c2, c3).
    A6: for every such triple, commuting partners or not, the four
        inverse-partner identities hold: with i2 = c2^-1 and i3 = c3^-1,
        f(a i2) = f(a)f(i2), f(i2 a) = f(i2)f(a), f(a i3) = f(i3)f(a) and
        f(i3 a) = f(a)f(i3). With no such triple A6 is vacuous.
    A7: the map is globally a homomorphism or anti-homomorphism; a failure
        names the first pair that breaks each.

    Every counterexample is the first in row-major order: elements by
    index, pairs (a, c) and triples (a, c2, c3) lexicographically. One scan
    of the ordered pairs decides A3, A4 and A7 and lists, for each a, the
    partners c that pin each orientation; one walk over those lists visits
    the triples of A5 and A6. Powers need no pass of their own: once every
    pair passes A3, f(g^k) = f(g^(k-1) g) is f(g^(k-1))f(g) or
    f(g)f(g^(k-1)), and both are f(g)^k when f(g^(k-1)) = f(g)^(k-1), so
    by induction on k every power passes too.

    The consequences are only meaningful for preserving maps, so the
    bijection must have been verified to length min(3, |G|). That is length
    3, or the Davenport bound of the pair when it is smaller, since
    D(G) >= 3 whenever |G| >= 3: an element g of order k >= 3 gives the
    atom (g, ..., g) of length k, and otherwise G is elementary abelian of
    rank >= 2, with the atom {e1, e2, e1e2}; D(C1) = 1 and D(C2) = 2. So no Davenport constant
    is computed to reject a map.
    """
    m = b.map
    g1, g2 = m.source, m.target
    needed = min(3, g1.order)
    if b.verified_bound < needed:
        raise ValueError(f"assertions need preservation verified to length {needed}; "
                         f"have {b.verified_bound}")
    f = m.images
    n = g1.order
    tab1, tab2 = g1.table, g2.table
    inv1, inv2 = g1.inverses, g2.inverses

    # the identity is the only element of order 1, so a moved identity fails at g = 0
    a1 = next(((g,) for g in range(n) if g1.orders[g] != g2.orders[f[g]]), None)
    a2 = next(((g,) for g in range(n) if f[inv1[g]] != inv2[f[g]]), None)

    a3 = a4 = hom_bad = anti_bad = None
    left = [[] for _ in range(n)]   # left[a]: c with ac != ca and f(ac) = f(a)f(c)
    right = [[] for _ in range(n)]  # right[a]: c with ac != ca and f(ac) = f(c)f(a)
    for a in range(n):
        row, fa = tab1[a], f[a]
        for c in range(n):
            fp, fc = f[row[c]], f[c]
            fl, fr = tab2[fa][fc], tab2[fc][fa]
            if fp != fl and hom_bad is None:
                hom_bad = (a, c)
            if fp != fr and anti_bad is None:
                anti_bad = (a, c)
            if fp != fl and fp != fr and a3 is None:
                a3 = (a, c)
            commute = row[c] == tab1[c][a]
            if commute != (fl == fr) and a4 is None:
                a4 = (a, c)
            if not commute:
                if fp == fl:
                    left[a].append(c)
                if fp == fr:
                    right[a].append(c)

    a5 = a6 = None
    for a in range(n):
        fa, row = f[a], tab1[a]
        for c2 in left[a]:
            i2 = inv1[c2]
            holds2 = f[row[i2]] == tab2[fa][f[i2]] and f[tab1[i2][a]] == tab2[f[i2]][fa]
            for c3 in right[a]:
                i3 = inv1[c3]
                if a5 is None and tab1[c2][c3] == tab1[c3][c2]:
                    a5 = (a, c2, c3)
                if a6 is None and not (holds2 and f[row[i3]] == tab2[f[i3]][fa]
                                       and f[tab1[i3][a]] == tab2[fa][f[i3]]):
                    a6 = (a, c2, c3)
    triples = any(left[a] and right[a] for a in range(n))

    is_hom, is_anti = hom_bad is None, anti_bad is None

    def outcome(name, bad, vacuous=False):
        if bad is not None:
            return AssertionOutcome(name, "fail", bad)
        return AssertionOutcome(name, "vacuous" if vacuous else "pass")

    outcomes = (outcome("A1", a1), outcome("A2", a2), outcome("A3", a3), outcome("A4", a4),
                outcome("A5", a5), outcome("A6", a6, vacuous=not triples),
                outcome("A7", None if is_hom or is_anti else (hom_bad, anti_bad)))
    if is_hom:
        classification = "isomorphism"
    elif is_anti:
        classification = "anti_isomorphism"
    else:
        classification = "neither"
    return AssertionReport(outcomes, classification, is_hom, is_anti)


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
    Only the Davenport constants use the budget: the search builds no ball.
    A budget trip is re-raised with ``partial`` naming the pair and the
    stage, ``"davenport"``, with the partial atom catalog under
    ``"catalog"``.
    """
    try:
        bound = max(large_davenport(g1, budget), large_davenport(g2, budget))
    except BudgetExceededError as err:
        err.partial = {"group1": g1.label, "group2": g2.label, "stage": "davenport",
                       "catalog": err.partial}
        raise
    bijections = tuple(search_bijections(g1, g2, bound))
    reports = tuple(check_assertions(b) for b in bijections)
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
