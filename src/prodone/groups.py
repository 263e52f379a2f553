"""Finite groups as validated Cayley tables, standard families, and structure maps.

Elements are the integers ``0..n-1`` and ``0`` is always the identity;
constructors relabel their input if needed to enforce this.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass

from .errors import GroupTableError, ParseError

__all__ = [
    "GroupTable",
    "GroupMap",
    "cyclic",
    "dihedral",
    "dicyclic",
    "symmetric",
    "alternating",
    "direct_product",
    "from_table",
    "parse_group_spec",
    "find_group_isomorphisms",
    "order_profile",
    "generating_sequence",
    "abelian_invariants",
    "abelian_structure_label",
]


class GroupTable:
    """A finite group given by its full multiplication table.

    The table is validated eagerly: row/column 0 must realize the identity,
    every row and column must be a permutation (Latin square), and
    associativity must hold. Instances are immutable once constructed and are
    compared and hashed by their table alone (names and label are display
    metadata).
    """

    __slots__ = ("order", "table", "names", "label", "_inverses", "_orders",
                 "_name_index", "_abelian", "_hash", "_mul_masks", "_abelmap")

    def __init__(self, table, names=None, label: str | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        n = len(rows)
        if n == 0:
            raise GroupTableError("empty multiplication table")
        for a, row in enumerate(rows):
            if len(row) != n:
                raise GroupTableError(f"row {a} has length {len(row)}, expected {n}")
            for b, x in enumerate(row):
                if not 0 <= x < n:
                    raise GroupTableError(f"cell ({a}, {b}) holds {x}, outside 0..{n - 1}")
        _validate_identity(rows)
        _validate_latin(rows)
        _validate_associative(rows)

        self.order = n
        self.table = rows
        if names is None:
            names = tuple(f"g{i}" for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise GroupTableError(f"got {len(names)} element names for order {n}")
            if len(set(names)) != n:
                raise GroupTableError("element names are not pairwise distinct")
        self.names = names
        self.label = label if label is not None else f"G{n}"
        self._inverses = None
        self._orders = None
        self._name_index = None
        self._abelian = None
        self._hash = None
        self._mul_masks = None
        self._abelmap = None

    # -- basic element arithmetic -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        if self._inverses is None:
            inv = [0] * self.order
            for x in range(self.order):
                inv[x] = self.table[x].index(0)
            self._inverses = tuple(inv)
        return self._inverses[a]

    def element_order(self, a: int) -> int:
        if self._orders is None:
            orders = []
            for x in range(self.order):
                k, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[a]

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k (negative powers via the inverse)."""
        if k < 0:
            a, k = self.inv(a), -k
        k %= self.element_order(a)
        out = 0
        for _ in range(k):
            out = self.table[out][a]
        return out

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.table
            self._abelian = all(t[a][b] == t[b][a]
                                for a in range(self.order) for b in range(a + 1, self.order))
        return self._abelian

    # -- names ---------------------------------------------------------------------

    def name_of(self, a: int) -> str:
        return self.names[a]

    def index_of(self, token: str) -> int:
        """Resolve an element label, falling back to a numeric index."""
        if self._name_index is None:
            self._name_index = {s: i for i, s in enumerate(self.names)}
        idx = self._name_index.get(token)
        if idx is not None:
            return idx
        try:
            idx = int(token)
        except ValueError:
            raise ParseError(f"unknown element {token!r} in group {self.label}") from None
        if not 0 <= idx < self.order:
            raise ParseError(f"element index {idx} outside 0..{self.order - 1} in group {self.label}")
        return idx

    # -- structure -----------------------------------------------------------------

    def opposite(self) -> "GroupTable":
        """The opposite group: same elements, reversed multiplication."""
        n = self.order
        t = self.table
        rows = tuple(tuple(t[b][a] for b in range(n)) for a in range(n))
        return GroupTable(rows, names=self.names, label=f"{self.label}^op")

    def commutator_subgroup(self) -> frozenset:
        """Subgroup generated by all commutators a*b*inv(a)*inv(b)."""
        t = self.table
        gens = set()
        for a in range(self.order):
            ia = self.inv(a)
            for b in range(self.order):
                gens.add(t[t[t[a][b]][ia]][self.inv(b)])
        return _subgroup_closure(self, gens)

    def abelianization_map(self):
        """Quotient by the commutator subgroup, with the projection.

        Returns ``(quotient, proj)`` where ``proj[g]`` is the image of ``g``.
        """
        if self._abelmap is None:
            comm = self.commutator_subgroup()
            self._abelmap = _quotient_by_normal(self, comm)
        return self._abelmap

    def abelianization(self) -> "GroupTable":
        return self.abelianization_map()[0]

    def order_census(self) -> dict:
        """Map from element order to the number of elements of that order."""
        census: dict[int, int] = {}
        for a in range(self.order):
            k = self.element_order(a)
            census[k] = census.get(k, 0) + 1
        return dict(sorted(census.items()))

    def table_hash(self) -> str:
        """Canonical content hash of the Cayley table (labels excluded)."""
        text = f"{self.order}\n" + "\n".join(" ".join(str(x) for x in row) for row in self.table)
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def _mul_mask_tables(self):
        """Per-element memos turning a product-set bitmask M into M*h.

        ``self._mul_mask_tables()[h][M]`` is the mask of {m*h : m in M}. The
        memos start empty and each entry is computed by bit iteration on
        first use, so a caller pays only for the masks it reads, at any
        order. They are a pure function of the immutable table. (The name
        is older than the memos; perfbench's tracer wraps it by name.)
        """
        if self._mul_masks is None:
            self._mul_masks = tuple(_ProductMemo(tuple(row[h] for row in self.table))
                                    for h in range(self.order))
        return self._mul_masks

    # -- dunder --------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, GroupTable) and self.table == other.table

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.table)
        return self._hash

    def __repr__(self):
        return f"GroupTable({self.label}, order={self.order})"

    def __setattr__(self, name, value):
        # Immutable public surface; private caches may be filled in lazily.
        if name in ("order", "table", "names", "label") and hasattr(self, "label"):
            raise AttributeError(f"GroupTable is immutable; cannot set {name}")
        object.__setattr__(self, name, value)


class _ProductMemo(dict):
    """M -> M*h for product-set bitmasks M, one column ``col[m] = m*h`` of
    the table; filled on lookup."""

    __slots__ = ("col",)

    def __init__(self, col):
        super().__init__()
        self.col = col

    def __missing__(self, mask):
        col = self.col
        out = 0
        m = mask
        while m:
            low = m & -m
            out |= 1 << col[low.bit_length() - 1]
            m ^= low
        self[mask] = out
        return out


# -- validation helpers -----------------------------------------------------------


def _validate_identity(rows) -> None:
    n = len(rows)
    for b in range(n):
        if rows[0][b] != b:
            raise GroupTableError(f"element 0 is not a left identity: 0*{b} = {rows[0][b]}")
    for a in range(n):
        if rows[a][0] != a:
            raise GroupTableError(f"element 0 is not a right identity: {a}*0 = {rows[a][0]}")


def _validate_latin(rows) -> None:
    n = len(rows)
    full = list(range(n))
    for a, row in enumerate(rows):
        if sorted(row) != full:
            seen = set()
            for b, x in enumerate(row):
                if x in seen:
                    raise GroupTableError(f"row {a} repeats element {x} at cell ({a}, {b})")
                seen.add(x)
    for b in range(n):
        col = [rows[a][b] for a in range(n)]
        if sorted(col) != full:
            seen = set()
            for a, x in enumerate(col):
                if x in seen:
                    raise GroupTableError(f"column {b} repeats element {x} at cell ({a}, {b})")
                seen.add(x)


def _validate_associative(rows) -> None:
    n = len(rows)
    for a in range(n):
        ta = rows[a]
        for b in range(n):
            left = rows[ta[b]]
            tb = rows[b]
            right = tuple(ta[x] for x in tb)
            if left != right:
                for c in range(n):
                    if left[c] != right[c]:
                        raise GroupTableError(
                            f"associativity fails at ({a}, {b}, {c}): "
                            f"({a}*{b})*{c} = {left[c]} but {a}*({b}*{c}) = {right[c]}")


def _subgroup_closure(group: GroupTable, seed) -> frozenset:
    """Smallest subgroup containing ``seed`` (work-list closure under products)."""
    t = group.table
    members = {0}
    members.update(seed)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            for x in (t[a][b], t[b][a]):
                if x not in members:
                    members.add(x)
                    frontier.append(x)
    # closure under products in a finite group already gives inverses
    return frozenset(members)


def _quotient_by_normal(group: GroupTable, sub: frozenset):
    """Quotient of ``group`` by a normal subgroup ``sub``.

    Returns ``(quotient, proj)``. Coset representatives are the smallest
    element of each coset; the identity coset becomes element 0.
    """
    t = group.table
    for h in sub:
        for a in range(group.order):
            if t[t[a][h]][group.inv(a)] not in sub:
                raise GroupTableError(f"subgroup is not normal: conjugate of {h} by {a} escapes")
    coset_of = [-1] * group.order
    reps = []
    for a in range(group.order):
        if coset_of[a] >= 0:
            continue
        idx = len(reps)
        reps.append(a)
        for h in sub:
            coset_of[t[a][h]] = idx
    # reps are discovered in increasing order, so rep list is sorted and the
    # identity coset (containing 0) sits at index 0
    k = len(reps)
    qrows = tuple(tuple(coset_of[t[reps[i]][reps[j]]] for j in range(k)) for i in range(k))
    names = tuple(group.names[r] for r in reps)
    quotient = GroupTable(qrows, names=names, label=f"{group.label}/~")
    return quotient, tuple(coset_of)


# -- family constructors ----------------------------------------------------------


def cyclic(n: int, label: str | None = None) -> GroupTable:
    """Cyclic group of order n, generator named ``g``."""
    if n < 1:
        raise GroupTableError(f"cyclic group needs order >= 1, got {n}")
    rows = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    names = tuple("1" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(n))
    return GroupTable(rows, names=names, label=label or f"C{n}")


def dihedral(order: int, label: str | None = None) -> GroupTable:
    """Dihedral group of the given (even) order: rotations r^i, reflections r^i s."""
    if order < 2 or order % 2:
        raise GroupTableError(f"dihedral group needs even order >= 2, got {order}")
    n = order // 2

    def mul(a, b):
        i, e = a % n, a // n
        j, f = b % n, b // n
        if e == 0:
            return (i + j) % n + n * f
        return (i - j) % n + n * (1 - f)

    rows = tuple(tuple(mul(a, b) for b in range(order)) for a in range(order))
    names = []
    for e in (0, 1):
        for i in range(n):
            rot = "" if i == 0 else ("r" if i == 1 else f"r{i}")
            if e == 0:
                names.append(rot or "1")
            else:
                names.append(rot + "s")
    return GroupTable(rows, names=names, label=label or f"D{order}")


def dicyclic(order: int, label: str | None = None) -> GroupTable:
    """Dicyclic group of order 4n: <a, x | a^(2n) = 1, x^2 = a^n, x a x^-1 = a^-1>."""
    if order < 4 or order % 4:
        raise GroupTableError(f"dicyclic group needs order divisible by 4, got {order}")
    m = order // 2  # order of a
    half = m // 2   # x^2 = a^half

    def mul(a, b):
        i, e = a % m, a // m
        j, f = b % m, b // m
        if e == 0:
            return (i + j) % m + m * f
        if f == 0:
            return (i - j) % m + m
        return (i - j + half) % m

    rows = tuple(tuple(mul(a, b) for b in range(order)) for a in range(order))
    names = []
    for e in (0, 1):
        for i in range(m):
            pw = "" if i == 0 else ("a" if i == 1 else f"a{i}")
            if e == 0:
                names.append(pw or "1")
            else:
                names.append(pw + "x")
    return GroupTable(rows, names=names, label=label or f"Dic{order}")


def _perm_mul(p, q):
    """Composition: apply q first, then p."""
    return tuple(p[x] for x in q)


def _perm_cycle_name(p) -> str:
    n = len(p)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        parts.append("(" + "".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "1"


def _symmetric_names(perms) -> tuple:
    n = len(perms[0])
    if n != 3:
        return tuple(_perm_cycle_name(p) for p in perms)
    # S3 is dihedral of order 6; word names keep CLI examples short
    r = (1, 2, 0)
    s = (1, 0, 2)
    words = {}
    cur = tuple(range(3))
    for i in range(3):
        rot = "" if i == 0 else ("r" if i == 1 else f"r{i}")
        words[cur] = rot or "1"
        words[_perm_mul(cur, s)] = rot + "s"
        cur = _perm_mul(r, cur)
    return tuple(words[p] for p in perms)


def symmetric(n: int, label: str | None = None) -> GroupTable:
    """Symmetric group on n letters, n <= 5 (order n! tables only)."""
    if not 1 <= n <= 5:
        raise GroupTableError(f"symmetric group constructor supports 1 <= n <= 5, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    rows = tuple(tuple(index[_perm_mul(p, q)] for q in perms) for p in perms)
    return GroupTable(rows, names=_symmetric_names(perms), label=label or f"S{n}")


def alternating(n: int, label: str | None = None) -> GroupTable:
    """Alternating group on n letters, 3 <= n <= 5."""
    if not 3 <= n <= 5:
        raise GroupTableError(f"alternating group constructor supports 3 <= n <= 5, got {n}")

    def parity(p):
        inv = 0
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                inv += p[i] > p[j]
        return inv % 2

    perms = sorted(p for p in itertools.permutations(range(n)) if parity(p) == 0)
    index = {p: i for i, p in enumerate(perms)}
    rows = tuple(tuple(index[_perm_mul(p, q)] for q in perms) for p in perms)
    names = tuple(_perm_cycle_name(p) for p in perms)
    return GroupTable(rows, names=names, label=label or f"A{n}")


def direct_product(g1: GroupTable, g2: GroupTable, label: str | None = None) -> GroupTable:
    """Direct product; element (a, b) gets index a*|G2| + b and name ``a.b``."""
    n1, n2 = g1.order, g2.order
    t1, t2 = g1.table, g2.table
    n = n1 * n2
    rows = []
    for a1 in range(n1):
        for b1 in range(n2):
            row = [0] * n
            for a2 in range(n1):
                ra = t1[a1][a2]
                base = ra * n2
                tb = t2[b1]
                for b2 in range(n2):
                    row[a2 * n2 + b2] = base + tb[b2]
            rows.append(tuple(row))
    names = []
    for a in range(n1):
        for b in range(n2):
            if a == 0 and b == 0:
                names.append("1")
            else:
                names.append(f"{g1.names[a]}.{g2.names[b]}")
    return GroupTable(tuple(rows), names=names, label=label or f"{g1.label}x{g2.label}")


def from_table(text: str, label: str | None = None) -> GroupTable:
    """Build a group from a text table.

    Line 1 is the order n; the next n lines are table rows of element indices;
    optional trailing lines ``name <index> <label>`` attach element names.
    The identity is located and relabeled to index 0 if necessary.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty table text")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the order, got {lines[0]!r}") from None
    if n < 1:
        raise ParseError(f"order must be positive, got {n}")
    if len(lines) < 1 + n:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:1 + n]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise ParseError(f"bad table row {ln!r}") from None
        if len(row) != n:
            raise ParseError(f"table row {ln!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    names = None
    name_map = {}
    for ln in lines[1 + n:]:
        toks = ln.split()
        if len(toks) != 3 or toks[0] != "name":
            raise ParseError(f"bad trailing line {ln!r}; expected 'name <index> <label>'")
        try:
            idx = int(toks[1])
        except ValueError:
            raise ParseError(f"bad element index in {ln!r}") from None
        if not 0 <= idx < n:
            raise ParseError(f"name index {idx} outside 0..{n - 1}")
        name_map[idx] = toks[2]
    for row in rows:
        for x in row:
            if not 0 <= x < n:
                raise GroupTableError(f"table entry {x} outside 0..{n - 1}")

    ident = None
    for e in range(n):
        if all(rows[e][b] == b for b in range(n)) and all(rows[a][e] == a for a in range(n)):
            ident = e
            break
    if ident is None:
        raise GroupTableError("table has no two-sided identity element")
    perm = list(range(n))
    if ident != 0:
        perm[0], perm[ident] = perm[ident], perm[0]
    # perm maps old index -> new index after the swap applied both ways
    old_of_new = perm  # swapping is an involution
    new_of_old = perm
    relabeled = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabeled[new_of_old[a]][new_of_old[b]] = new_of_old[rows[a][b]]
    if name_map:
        names = tuple(name_map.get(old_of_new[i], f"g{old_of_new[i]}") for i in range(n))
    else:
        names = tuple(f"g{i}" for i in range(n))
    return GroupTable(tuple(tuple(r) for r in relabeled), names=names, label=label or f"G{n}")


_SPEC_FACTOR = re.compile(r"^(C|D|Dic|S|A)(\d+)$|^(Q8)$")


def parse_group_spec(spec: str) -> GroupTable:
    """Parse shorthand like ``C6``, ``D8``, ``Dic12``, ``Q8``, ``S4``, ``A4``, ``C3xC4``."""
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group spec")
    factors = []
    for token in spec.split("x"):
        token = token.strip()
        m = _SPEC_FACTOR.match(token)
        if not m:
            raise ParseError(f"unrecognized group spec token {token!r}")
        if m.group(3) == "Q8":
            factors.append(dicyclic(8, label="Q8"))
            continue
        family, num = m.group(1), int(m.group(2))
        try:
            if family == "C":
                factors.append(cyclic(num))
            elif family == "D":
                factors.append(dihedral(num))
            elif family == "Dic":
                factors.append(dicyclic(num))
            elif family == "S":
                factors.append(symmetric(num))
            else:
                factors.append(alternating(num))
        except GroupTableError as exc:
            raise ParseError(f"invalid group spec token {token!r}: {exc}")
    out = factors[0]
    for g in factors[1:]:
        out = direct_product(out, g, label=spec)
    return out


# -- maps between groups ----------------------------------------------------------


@dataclass(frozen=True)
class GroupMap:
    """A set map between two groups, given by the image of every element."""

    source: GroupTable
    target: GroupTable
    images: tuple

    def __post_init__(self):
        images = tuple(int(x) for x in self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.source.order:
            raise ValueError(f"map needs {self.source.order} images, got {len(images)}")
        for g, y in enumerate(images):
            if not 0 <= y < self.target.order:
                raise ValueError(f"image of {g} is {y}, outside 0..{self.target.order - 1}")

    def __call__(self, g: int) -> int:
        return self.images[g]

    def is_bijective(self) -> bool:
        return (self.source.order == self.target.order
                and len(set(self.images)) == self.source.order)

    def is_homomorphism(self) -> bool:
        t1, t2, f = self.source.table, self.target.table, self.images
        return all(f[t1[a][b]] == t2[f[a]][f[b]]
                   for a in range(self.source.order) for b in range(self.source.order))

    def is_anti_homomorphism(self) -> bool:
        t1, t2, f = self.source.table, self.target.table, self.images
        return all(f[t1[a][b]] == t2[f[b]][f[a]]
                   for a in range(self.source.order) for b in range(self.source.order))

    def inverse(self) -> "GroupMap":
        if not self.is_bijective():
            raise ValueError("cannot invert a non-bijective map")
        inv = [0] * self.target.order
        for g, y in enumerate(self.images):
            inv[y] = g
        return GroupMap(self.target, self.source, tuple(inv))

    @classmethod
    def identity(cls, group: GroupTable) -> "GroupMap":
        return cls(group, group, tuple(range(group.order)))

    @classmethod
    def inversion(cls, group: GroupTable) -> "GroupMap":
        """g -> g^-1 (an anti-automorphism; a homomorphism iff abelian)."""
        return cls(group, group, tuple(group.inv(g) for g in group.elements()))


# -- isomorphism search -----------------------------------------------------------


def order_profile(group: GroupTable) -> tuple:
    """Sorted multiset of element orders; an isomorphism invariant."""
    return tuple(sorted(group.element_order(a) for a in group.elements()))


def generating_sequence(group: GroupTable) -> list:
    """Greedy generating set: repeatedly adjoin the smallest uncovered element."""
    gens: list[int] = []
    covered = frozenset({0})
    while len(covered) < group.order:
        g = min(a for a in group.elements() if a not in covered)
        gens.append(g)
        covered = _subgroup_closure(group, covered | {g})
    return gens


def find_group_isomorphisms(g1: GroupTable, g2: GroupTable, limit: int | None = None):
    """All group isomorphisms g1 -> g2, sorted by image tuple.

    Backtracks over images of a greedy generating sequence (candidates must
    match element orders), extends each assignment to the whole group along a
    BFS word tree, then verifies the homomorphism law in full. With ``limit``
    set, the search stops after the first ``limit`` maps.

    The maps come out already sorted, so stopping early keeps the first
    ``limit`` of the full list. The generators g_0 < g_1 < ... are each the
    smallest element outside the subgroup H_j = <g_0, ..., g_{j-1}>, so every
    element below g_j lies in H_j, and the BFS reaches g_j first as 1*g_j,
    so g_j gets the image ``choice[j]``. An isomorphism is fixed on H_j by
    ``choice[:j]``. Two isomorphisms whose choices first differ at j thus
    agree on every element below g_j and differ at g_j, by ``choice[j]``.
    Candidates are ascending, so ``itertools.product`` visits the choices in
    sorted image order.
    """
    if g1.order != g2.order or order_profile(g1) != order_profile(g2):
        return []
    n = g1.order
    gens = generating_sequence(g1)
    # BFS expressions: every element is (earlier element) * (generator)
    expr = [None] * n
    bfs = [0]
    seen = [False] * n
    seen[0] = True
    for a in bfs:
        for gi, g in enumerate(gens):
            x = g1.table[a][g]
            if not seen[x]:
                seen[x] = True
                expr[x] = (a, gi)
                bfs.append(x)
    by_order: dict[int, list[int]] = {}
    for y in range(n):
        by_order.setdefault(g2.element_order(y), []).append(y)
    candidates = [by_order.get(g1.element_order(g), []) for g in gens]

    t1, t2 = g1.table, g2.table
    found = []
    for choice in itertools.product(*candidates):
        if len(found) == limit:
            break
        images = [0] * n
        ok = True
        for x in bfs[1:]:
            a, gi = expr[x]
            images[x] = t2[images[a]][choice[gi]]
        if len(set(images)) != n:
            continue
        for a in range(n):
            ta, ra = t1[a], t2[images[a]]
            if any(images[ta[b]] != ra[images[b]] for b in range(n)):
                ok = False
                break
        if ok:
            found.append(tuple(images))
    return [GroupMap(g1, g2, images) for images in found]


# -- abelian structure ------------------------------------------------------------


def abelian_invariants(group: GroupTable) -> tuple:
    """Invariant factors (d1 >= d2 >= ..., each dividing the previous) of an abelian group."""
    if not group.is_abelian:
        raise ValueError(f"{group.label} is not abelian")
    out = []
    cur = group
    while cur.order > 1:
        a = max(cur.elements(), key=lambda e: (cur.element_order(e), -e))
        out.append(cur.element_order(a))
        sub = _subgroup_closure(cur, {a})
        cur, _ = _quotient_by_normal(cur, sub)
    return tuple(out)


def abelian_structure_label(group: GroupTable) -> str:
    """Display string like ``C4xC2`` for an abelian group (``C1`` when trivial)."""
    invs = abelian_invariants(group)
    if not invs:
        return "C1"
    return "x".join(f"C{d}" for d in invs)
