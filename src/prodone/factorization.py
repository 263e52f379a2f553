"""Atoms of the product-one monoid, Davenport constant, and sets of lengths.

The workhorse is an exhaustive enumeration of all product-one sequences up to
a length cap, as packed exponent vectors. Identity-free sequences suffice:
inserting copies of the identity never changes the set of products, so a
sequence is product-one iff its identity-free part is, and the only atom
containing the identity is the length-1 sequence (1).

Atoms searched up to length cap |G| are exhaustive: in any product-one
ordering of an atom the partial products before the end must be pairwise
distinct (a repeat would cut out a proper product-one segment whose
complement is product-one as well), so atoms never exceed length |G|.

The atoms are cached per group; no ball is. Over a non-abelian group they
are read off a ball built level by level for the purpose, up to the first
length with no atom, and dropped once they are known: a ball vector is an
atom unless subtracting a shorter atom leaves another ball vector. Over an
abelian group they come from a walk over the zero-sum-free sequences, and
the ball is never built for them.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import takewhile
from math import comb

from .errors import BudgetExceededError, CatalogError, ParseError
from .groups import GroupTable
from .sequences import Sequence, _submultiset_products

__all__ = [
    "AtomCatalog",
    "Fingerprint",
    "LengthSystem",
    "is_atom",
    "enumerate_atoms",
    "large_davenport",
    "factorizations",
    "set_of_lengths",
    "length_system",
    "fingerprint",
    "product_one_vectors",
    "DEFAULT_SEARCH_BUDGET",
]

DEFAULT_SEARCH_BUDGET = 25_000_000

_SHIFT = 5          # bits per exponent slot in packed vectors
_SLOT = (1 << _SHIFT) - 1

_CACHE_LOCK = threading.Lock()
# group -> (cap, its atoms to that cap), least recently used first. A
# GroupTable is equal and hashed by its table alone, so tables that differ
# only in names share an entry. The bound keeps every group of the catalog
# sweep (17) resident.
_ATOM_CACHE: OrderedDict = OrderedDict()
_ATOM_CACHE_SIZE = 32


_SHIFTS: dict = {}  # order -> the bit offsets of its slots


def _unpack(key: int, order: int) -> tuple:
    shifts = _SHIFTS.get(order)
    if shifts is None:
        shifts = _SHIFTS[order] = tuple(range(0, _SHIFT * order, _SHIFT))
    return tuple([(key >> s) & _SLOT for s in shifts])


class _Decimals(dict):
    """Token -> ``int(token)``, read off the table for the spellings of 0..31."""

    def __missing__(self, token):
        return int(token)


# every length and multiplicity that ``save`` writes is within the packing limit
_DECIMALS = _Decimals({str(v): v for v in range(_SLOT + 1)})


# -- exhaustive product-one enumeration -------------------------------------------


def _abelian_atoms(group: GroupTable, cap: int) -> dict:
    """Identity-free atoms of an abelian group to ``cap``, by (length, packed key).

    Over an abelian group a product-one sequence is a zero-sum sequence and
    an atom is a minimal zero-sum sequence. The walk is a DFS over the
    non-decreasing identity-free zero-sum-free S', carrying the mask of the
    subset sums Sigma(S') of its nonempty subsequences. A child S'g keeps
    Sigma(S'g) = Sigma(S') | Sigma(S')·g | {g}, and is walked iff bit 0 (the
    identity) is clear in it. Each S' of length < cap is closed with
    c = sigma(S')^-1 when c >= max(S').

    Every S'c found is an atom: it is zero-sum, and a nonempty proper
    zero-sum part U would leave a zero-sum part inside S', U itself if it
    misses c and S'c - U otherwise. Every atom T arises exactly once: |T| >= 2
    since T is identity-free, S' = T - max T is zero-sum-free because a
    zero-sum part of it would be a proper one of T, each of its prefixes is
    zero-sum-free too, so the walk reaches it, and it closes with
    c = max T >= max S'. Any other S'' = T - c' closes only with c' < max T.
    """
    n = group.order
    tab = group.table
    masks = group._mul_mask_tables()
    inv = tuple(group.inv(x) for x in range(n))
    bits = tuple(1 << (_SHIFT * e) for e in range(n))
    found: dict = {}  # length -> the atoms of that length

    def walk(top, key, ln, acc, sums):
        c = inv[acc]
        if c >= top:
            found.setdefault(ln + 1, []).append(key + bits[c])
        if ln + 1 < cap:
            row = tab[acc]
            for g in range(top, n):
                child = sums | masks[g][sums] | (1 << g)
                if not child & 1:
                    walk(g, key + bits[g], ln + 1, row[g], child)

    walk(1, 0, 0, 0, 0)  # the empty S' closes with the identity, which top 1 excludes
    return {key: ln for ln in sorted(found) for key in sorted(found[ln])}


def _level_ball(group: GroupTable, cap: int):
    """Level-wise product-set DP over all identity-free multisets.

    Yields, for each length l = 1..cap in turn, the packed keys of the
    product-one multisets of length l, each level built only when asked
    for. C1 has no identity-free multisets and cap 0 allows none, so both
    yield nothing at once, whatever the cap.

    Level l maps each multiset T of length l to its product mask
    pi(T) = U_{h in supp T} pi(T - h)·h, built from level l-1 by appending an
    element g >= the largest one of the key. Each level also groups its keys
    by support, so no key is decoded, and the (bit, memo) pairs of the other
    support elements are fetched once per (support, g), not once per key.

    The top level, l = cap, is settled by rotation and never stored. A
    cyclic rotation of a product-one ordering is product-one again, since
    x1···xk = 1 implies x(i+1)···xk·x1···xi = (x1···xi)^-1·(x1···xi) = 1. So
    for any term g of T some product-one ordering of T ends with g, and
    T = S·g is product-one iff g^-1 is in pi(S): one bit test per child, no
    mask, no lookup. Only the two levels below the top are alive at once.

    A product set stops growing once it fills a coset of the commutator
    subgroup G'. Every ordering of T has the same image in the abelian G/G',
    so pi(T) lies in one coset of G', of |G'| = n / |G/G'| elements. Thus
    when pi(T - g)·g, a part of pi(T), already has |G'| elements it is all of
    pi(T), and the other support elements are not read. Over an abelian
    group G' is trivial, so every key reads one memo.
    """
    n = group.order
    if cap == 0 or n == 1:
        return
    full = len(group.commutator_subgroup())
    masks = group._mul_mask_tables()
    bits = tuple(1 << (_SHIFT * e) for e in range(n))
    inv_bits = tuple(1 << group.inv(e) for e in range(n))
    level = {0: 1}  # the empty multiset achieves exactly the identity
    by_support: dict = {(): [0]}  # identity-free, so appends start at 1 or max(supp)
    for _ in range(1, cap):
        nxt: dict[int, int] = {}
        nxt_support: dict = {}
        found = []
        for supp, keys in by_support.items():
            for g in range(supp[-1] if supp else 1, n):
                bg, mg = bits[g], masks[g]
                others = [(bits[h], masks[h]) for h in supp if h != g]
                children = nxt_support.setdefault(supp if g in supp else supp + (g,), [])
                for key in keys:
                    nk = key + bg
                    acc = mg[level[key]]
                    if acc.bit_count() != full:
                        for bh, mh in others:
                            acc |= mh[level[nk - bh]]
                    nxt[nk] = acc
                    children.append(nk)
                    if acc & 1:
                        found.append(nk)
        level, by_support = nxt, nxt_support
        yield found
    found = []
    for supp, keys in by_support.items():
        for g in range(supp[-1] if supp else 1, n):
            bg, ig = bits[g], inv_bits[g]
            for key in keys:
                if level[key] & ig:
                    found.append(key + bg)
    yield found


def _budget_cap(group: GroupTable, max_len: int, budget: int | None) -> tuple:
    """(upto, trip): the length to which a request is answered exactly.

    The budget caps the identity-free multisets of length <= upto. The
    arithmetic depends on the group's order alone, so a request trips with
    the same ``attempted`` and partial whatever the cache holds. ``trip`` is
    None when ``upto == max_len``, and otherwise the unraised
    ``BudgetExceededError`` for the caller to complete with its partial
    result and raise.
    """
    if max_len < 0:
        raise ValueError(f"negative length bound {max_len}")
    budget = DEFAULT_SEARCH_BUDGET if budget is None else budget
    n = group.order
    # there are C(n + l - 2, l) identity-free multisets at each length l
    total = cap = 0
    if n == 1:
        cap = max_len  # the trivial group has no identity-free multisets
    elif max_len > _SLOT:
        raise ValueError(
            f"length cap {max_len} exceeds the packed-multiplicity limit {_SLOT}")
    while cap < max_len and total + comb(n + cap - 1, cap + 1) <= budget:
        total += comb(n + cap - 1, cap + 1)
        cap += 1
    if cap == max_len:
        return cap, None
    return cap, BudgetExceededError(
        f"product-one enumeration exceeded budget of {budget} states "
        f"at length {cap + 1}", attempted=total + comb(n + cap - 1, cap + 1),
        budget=budget)


def product_one_vectors(group: GroupTable, max_len: int, budget: int | None = None) -> dict:
    """Packed exponent vectors of all identity-free product-one sequences.

    Maps packed vector -> length, for lengths 1..max_len, by increasing
    length. Each call builds the ball afresh and keeps nothing of it. The
    budget is checked level by level before any enumeration, so a trip at
    length l allocates nothing for that level and carries the exact ball up
    to length l - 1.
    """
    upto, trip = _budget_cap(group, max_len, budget)
    ball = {key: ln for ln, keys in enumerate(_level_ball(group, upto), 1) for key in keys}
    if trip is not None:
        trip.partial = ball
        raise trip
    return ball


# -- atoms ------------------------------------------------------------------------


def is_atom(seq: Sequence, max_states: int | None = None) -> bool:
    """Whether ``seq`` is an atom: product-one, nonempty, and unsplittable.

    A split is a proper nonempty sub-multiset that is product-one with a
    product-one complement.
    """
    if seq.is_empty():
        return False
    if seq.exponents[0]:
        return seq.length == 1
    dp, supp = _submultiset_products(seq, max_states)
    full = tuple(seq.exponents[e] for e in supp)
    if not dp[full] & 1:
        return False
    zero = (0,) * len(supp)
    for key, mask in dp.items():
        if key == zero or key == full or not mask & 1:
            continue
        comp = tuple(f - k for f, k in zip(full, key))
        if dp[comp] & 1:
            return False
    return True


def _ball_atoms(levels) -> dict:
    """The atoms of a product-one ball given level by level, by (length, packed key).

    ``levels`` yields the ball's packed keys of each length 1, 2, ..., as
    ``_level_ball`` does. They are read up to the cap the ball is exact to,
    or up to the first length >= 2 with no atom if that comes first.

    Lemma A: a product-one T is not an atom iff T = a·p with a an atom and p
    a nonempty product-one sequence with |p| >= |a|. Proof: if T splits into
    two product-one parts, factor both into atoms and let a be a shortest
    one; p = T - a is the concatenation of the others, so it is product-one
    and |p| >= |a|. Conversely a·p is such a split.

    So the ball is settled by increasing length l, and T of length l is an
    atom iff T - a is in the ball for none of the atoms a of length <= l/2,
    all known by then. The packed difference is exact: a ball vector q with
    q + a = T adds slotwise, since a carry between 5-bit slots would make
    |q| = |T| - |a| + 31k > 31, longer than any ball vector. Group structure
    plays no part, and a partial ball gives every atom to the cap it is
    exact to.

    The stop is exact, since the identity-free atom lengths form an
    interval, and no level above it is asked for. Proof: let T be an identity-free atom of length k >= 3
    with a product-one ordering x1·x2···xk = 1, and merge x1 and x2 into the
    one term x1x2. If x1x2 = 1, T would split into (x1, x2) and
    (x3, ..., xk), both product-one. Otherwise the merged sequence T' is
    identity-free of length k - 1 and product-one by the same ordering. A
    split of T' into product-one parts U·V, with x1x2 in U, un-merges into a
    split of T: writing x1, x2 in place of x1x2 in a product-one ordering of
    U leaves its product unchanged. So T' is an atom, every length in
    2..k has an atom when k does, and none lies above a length that has none.
    """
    ball: set = set()
    found: list = [[]]  # the atoms of each length; none of length 0
    short: list = []  # the atoms of length <= ln/2
    for ln, keys in enumerate(levels, 1):
        if ln % 2 == 0:
            short += found[ln // 2]
        found.append(sorted(key for key in keys if ball.isdisjoint(map(key.__sub__, short))))
        if ln >= 2 and not found[ln]:
            break
        ball.update(keys)
    return {key: ln for ln, atoms in enumerate(found) for key in atoms}


def _atom_keys(group: GroupTable, max_len: int, budget: int | None) -> dict:
    """Identity-free atoms of length <= max_len, packed vector -> length.

    Cached per group at the largest cap computed so far; a request below
    that cap takes the length prefix of the cached atoms, which come by
    (length, packed key). A non-abelian group's ball is built level by
    level, read by ``_ball_atoms`` up to the first length with no atom, and
    dropped. A budget trip caches the atoms to the cap it reached, which are
    exact there, and carries a non-exhaustive catalog that holds every atom
    shorter than the length where it tripped.
    """
    upto, trip = _budget_cap(group, max_len, budget)
    with _CACHE_LOCK:
        hit = _ATOM_CACHE.get(group)
        if hit is not None:
            _ATOM_CACHE.move_to_end(group)
    if hit is None or hit[0] < upto:
        hit = (upto, _abelian_atoms(group, upto) if group.is_abelian
               else _ball_atoms(_level_ball(group, upto)))
        with _CACHE_LOCK:
            old = _ATOM_CACHE.get(group)
            if old is None or old[0] < upto:
                _ATOM_CACHE[group] = hit
                _ATOM_CACHE.move_to_end(group)
                while len(_ATOM_CACHE) > _ATOM_CACHE_SIZE:
                    _ATOM_CACHE.popitem(last=False)
    cap, atoms = hit
    if upto < cap:
        atoms = dict(takewhile(lambda item: item[1] <= upto, atoms.items()))
    if trip is not None:
        trip.partial = _catalog_from_keys(group, atoms, max_len, exhaustive=False)
        raise trip
    return atoms


@dataclass(frozen=True)
class AtomCatalog:
    """All atoms over a group up to a length bound.

    ``atoms_by_length`` maps each length to the exponent tuples of its
    atoms, sorted; ``all_atoms`` makes a ``Sequence`` of each on demand.
    """

    group: GroupTable
    max_length: int
    exhaustive: bool
    atoms_by_length: dict

    def counts(self) -> dict:
        return {ln: len(atoms) for ln, atoms in sorted(self.atoms_by_length.items())}

    def all_atoms(self):
        for ln in sorted(self.atoms_by_length):
            for vec in self.atoms_by_length[ln]:
                yield Sequence(self.group, vec)

    def max_atom_length(self) -> int:
        lengths = [ln for ln, atoms in self.atoms_by_length.items() if atoms]
        return max(lengths) if lengths else 0

    def restrict(self, max_length: int) -> "AtomCatalog":
        if max_length > self.max_length:
            raise CatalogError(
                f"cannot restrict catalog of bound {self.max_length} up to {max_length}")
        kept = {ln: atoms for ln, atoms in self.atoms_by_length.items() if ln <= max_length}
        return AtomCatalog(self.group, max_length, self.exhaustive, kept)

    # -- persistence ---------------------------------------------------------------

    FORMAT_HEADER = "prodone-atoms 1"

    def save(self, path) -> None:
        """Write the catalog as stable text; atomic via temp-file rename.

        The ``digest`` field is the sha256 of every other line, header
        included, so that a file that lost, gained, changed or reordered a
        line fails to load.
        """
        atom_lines = [f"atom {ln} {' '.join(map(str, vec))}"
                      for ln in sorted(self.atoms_by_length)
                      for vec in self.atoms_by_length[ln]]
        head = [self.FORMAT_HEADER,
                f"group {self.group.table_hash()}",
                f"order {self.group.order}",
                f"max_length {self.max_length}",
                f"exhaustive {int(self.exhaustive)}"]
        lines = head + [f"digest {_lines_digest(head + atom_lines)}"] + atom_lines
        text = "\n".join(lines) + "\n"
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".atoms-")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path, group: GroupTable) -> "AtomCatalog":
        """Read a catalog written by ``save``.

        Raises ``ParseError`` for a file that is not one, whatever is wrong
        with it, and ``CatalogError`` for one built for another group. One
        pass over the lines files every field and parses every atom record
        into its exponent tuple. A record that fails a check is reported
        only after the digest and header checks, as the first failing record.
        """
        try:
            with open(os.fspath(path), "r", encoding="ascii") as fh:
                lines = [ln for ln in map(str.strip, fh) if ln]
        except UnicodeDecodeError:
            raise ParseError(f"catalog is not ASCII text: {path}") from None
        if not lines or lines[0] != cls.FORMAT_HEADER:
            raise ParseError(f"not a prodone atom catalog: {path}")
        fields = {}
        covered = lines[:1]  # every line but the digest
        atoms_by_length: dict[int, list] = {}
        width = group.order + 1  # a record is a length and the exponents
        non_integer = False
        fault = None  # the message of the first record that fails a check
        for ln in lines[1:]:
            tokens = ln.split()
            if tokens[0] != "digest":
                covered.append(ln)
            if tokens[0] != "atom":
                if len(tokens) != 2 or tokens[0] in fields:
                    raise ParseError(f"bad or repeated catalog line {ln!r}")
                fields[tokens[0]] = tokens[1]
                continue
            try:
                record = tuple(map(_DECIMALS.__getitem__, tokens[1:]))
            except ValueError:
                non_integer = True
                continue
            if fault is not None:
                continue
            vec = record[1:]
            if len(record) != width:
                fault = (f"atom record has {len(record)} fields, "
                         f"expected a length and {group.order} exponents")
            elif min(vec) < 0:
                fault = f"atom record has a negative multiplicity: {list(vec)}"
            elif sum(vec) != record[0]:
                fault = f"atom record length {record[0]} does not match its vector"
            else:
                atoms_by_length.setdefault(record[0], []).append(vec)
        for need in ("group", "order", "max_length", "exhaustive", "digest"):
            if need not in fields:
                raise ParseError(f"catalog missing field {need!r}")
        if fields["digest"] != _lines_digest(covered):
            raise ParseError(f"catalog lines do not match their digest: {path}")
        if fields["group"] != group.table_hash():
            raise CatalogError("catalog was built for a different group table")
        try:
            order, max_length, exhaustive = (
                int(fields[k]) for k in ("order", "max_length", "exhaustive"))
        except ValueError:
            non_integer = True
        if non_integer:
            raise ParseError(f"non-integer field in catalog {path}")
        if order != group.order:
            raise CatalogError(f"catalog order {order} != group order {group.order}")
        if exhaustive not in (0, 1):
            raise ParseError(f"catalog exhaustive flag {exhaustive} is not 0 or 1")
        if fault is not None:
            raise ParseError(fault)
        final = {ln: tuple(sorted(atoms)) for ln, atoms in atoms_by_length.items()}
        return cls(group, max_length, bool(exhaustive), final)


def _lines_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def _catalog_from_keys(group: GroupTable, keys: dict, max_length: int,
                       exhaustive: bool) -> AtomCatalog:
    n = group.order
    by_length: dict[int, list] = {}
    for key, ln in keys.items():
        by_length.setdefault(ln, []).append(_unpack(key, n))
    if max_length >= 1:
        by_length.setdefault(1, []).append((1,) + (0,) * (n - 1))
    # bytes compare like the vectors, since every multiplicity fits in a slot
    final = {ln: tuple(sorted(vecs, key=bytes)) for ln, vecs in by_length.items()}
    return AtomCatalog(group, max_length, exhaustive, final)


def enumerate_atoms(group: GroupTable, max_length: int, budget: int | None = None) -> AtomCatalog:
    """Exhaustive atom catalog up to ``max_length``.

    Over a non-abelian group the atoms are the vectors of the product-one
    ball from which no atom of at most half their length splits off (see
    ``_ball_atoms``), and the ball is dropped once they are read. Over an
    abelian group they come from the zero-sum-free walk of
    ``_abelian_atoms``. On budget exhaustion the raised error carries a
    non-exhaustive catalog that holds every atom shorter than the length
    where the budget tripped.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    return _catalog_from_keys(group, _atom_keys(group, max_length, budget), max_length,
                              exhaustive=True)


def large_davenport(group: GroupTable, budget: int | None = None) -> int:
    """Largest length of an atom (1 for the trivial group).

    Exhaustive search up to the proven cap |G|; see the module docstring for
    the termination argument.
    """
    return max(_atom_lengths(group, budget))


def _atom_lengths(group: GroupTable, budget: int | None) -> Counter:
    """Atom counts by length up to |G|, the identity atom (1) included."""
    lengths = Counter(_atom_keys(group, group.order, budget).values())
    lengths[1] += 1
    return lengths


# -- factorizations and lengths ---------------------------------------------------


def factorizations(b: Sequence, catalog: AtomCatalog):
    """All multisets of atoms concatenating to ``b``.

    Each factorization is a tuple of atoms in a fixed canonical order; the
    list of factorizations is itself deterministic. Requires an exhaustive
    catalog covering length(b).
    """
    if catalog.group != b.group:
        raise CatalogError("catalog and sequence use different groups")
    if not catalog.exhaustive or catalog.max_length < b.length:
        raise CatalogError(
            f"need an exhaustive catalog to length {b.length}, "
            f"have bound {catalog.max_length} (exhaustive={catalog.exhaustive})")
    if not b.is_product_one():
        raise ValueError("cannot factor a sequence that is not product-one")
    target = b.exponents
    atoms = [(vec, ln) for ln in sorted(catalog.atoms_by_length) if ln <= b.length
             for vec in catalog.atoms_by_length[ln]
             if all(x <= t for x, t in zip(vec, target))]
    found = []  # each factorization as the indices of its atoms
    chosen: list = []

    def rec(rem, max_idx, rem_len):
        if rem_len == 0:
            found.append(tuple(chosen))
            return
        for i in range(max_idx, -1, -1):
            vec, ln = atoms[i]
            if ln <= rem_len and all(x <= r for x, r in zip(vec, rem)):
                chosen.append(i)
                rec(tuple(r - x for r, x in zip(rem, vec)), i, rem_len - ln)
                chosen.pop()

    rec(target, len(atoms) - 1, b.length)
    made = {i: Sequence(b.group, atoms[i][0]) for i in set().union(*found)}
    return [tuple(made[i] for i in f) for f in found]


def set_of_lengths(b: Sequence, catalog: AtomCatalog) -> tuple:
    """Sorted factorization lengths L(b); {0} for the empty sequence."""
    return tuple(sorted({len(f) for f in factorizations(b, catalog)}))


@dataclass(frozen=True)
class LengthSystem:
    """All sets of lengths realized by nonempty product-one sequences up to a bound."""

    bound: int
    sets: tuple

    def __contains__(self, lengths) -> bool:
        return tuple(sorted(lengths)) in self.sets


def length_system(group: GroupTable, bound: int, budget: int | None = None) -> LengthSystem:
    """L(G) truncated to sequences of length <= bound (empty sequence excluded).

    One forward DP over the packed identity-free atoms to ``bound``. Level l
    maps each identity-free product-one T of length l to a mask whose bit i
    is set iff T factors into i atoms; level 0 holds the empty sequence with
    {0}. Each R, by increasing length, and each atom a with |R| + |a| <= bound
    add 1 + L(R) to L(R + a). This is exact:

    - Every identity-free product-one T of length <= bound is a concatenation
      of identity-free atoms, each no longer than T, so each factorization
      T = R·a has a catalog atom a and a product-one (or empty) R settled
      before T. A concatenation of product-one sequences is product-one, so
      the DP reaches exactly the product-one ball and needs no ball of its own.
    - (1) is the only atom that contains the identity, so
      L(T·1^p) = L(T) + p: the identity paddings are shifts of the masks.
    - The packed addition R + a is exact, because no slot passes 31 within
      the cap, which ``_budget_cap`` keeps at most 31.

    A budget trip comes from ``_atom_keys`` and carries its partial catalog.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    atoms: list = [[] for _ in range(bound + 1)]
    for key, ln in _atom_keys(group, bound, budget).items():
        atoms[ln].append(key)
    levels: list = [{0: 1}] + [{} for _ in range(bound)]
    for ln in range(bound):
        for r, mask in levels[ln].items():
            mask <<= 1
            for la in range(2, bound - ln + 1):  # identity-free atoms have length >= 2
                level = levels[ln + la]
                for a in atoms[la]:
                    t = r + a
                    level[t] = level.get(t, 0) | mask
    collected = {mask << pad for ln, level in enumerate(levels)
                 for mask in set(level.values())
                 for pad in range(1 if ln == 0 else 0, bound - ln + 1)}
    return LengthSystem(bound, tuple(sorted(
        tuple(i for i in range(m.bit_length()) if m >> i & 1) for m in collected)))


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism invariants of the product-one monoid."""

    atom_counts: tuple
    davenport: int
    abelianization_profile: tuple

    def __post_init__(self):
        if len(self.atom_counts) != self.davenport or (
                self.atom_counts and self.atom_counts[-1] == 0):
            raise ValueError("atom_counts must extend exactly to the Davenport constant")


def fingerprint(group: GroupTable, budget: int | None = None) -> Fingerprint:
    """Atom counts per length, the Davenport constant, and the abelianization profile."""
    lengths = _atom_lengths(group, budget)
    d = max(lengths)
    counts = tuple(lengths[ln] for ln in range(1, d + 1))
    quotient = group.abelianization()
    profile = tuple(sorted(quotient.element_order(a) for a in quotient.elements()))
    return Fingerprint(atom_counts=counts, davenport=d, abelianization_profile=profile)
