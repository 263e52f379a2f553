"""Sequences (finite unordered multisets) over a finite group and their products.

A sequence is stored as an exponent vector over the group's elements. The set
of products pi(S) collects the value of every ordering of S; it is computed by
a dynamic program over sub-multisets, never by enumerating all orderings.
"""

from __future__ import annotations

from .errors import BudgetExceededError, ParseError
from .groups import GroupMap, GroupTable

__all__ = [
    "Sequence",
    "parse_sequence",
    "apply_map",
    "DEFAULT_STATE_BUDGET",
]

DEFAULT_STATE_BUDGET = 2_000_000


class Sequence:
    """An unordered finite multiset of group elements.

    Immutable; equal (and hashed) by group and exponent vector.
    """

    __slots__ = ("group", "exponents", "_hash")

    def __init__(self, group: GroupTable, exponents):
        exps = tuple(int(v) for v in exponents)
        if len(exps) != group.order:
            raise ValueError(f"exponent vector has length {len(exps)}, group order is {group.order}")
        if any(v < 0 for v in exps):
            raise ValueError(f"negative multiplicity in {exps}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "_hash", None)

    # -- constructors --------------------------------------------------------------

    @classmethod
    def empty(cls, group: GroupTable) -> "Sequence":
        return cls(group, (0,) * group.order)

    @classmethod
    def from_elements(cls, group: GroupTable, elements) -> "Sequence":
        exps = [0] * group.order
        for e in elements:
            e = int(e)
            if not 0 <= e < group.order:
                raise ValueError(f"element {e} outside 0..{group.order - 1}")
            exps[e] += 1
        return cls(group, exps)

    # -- basics --------------------------------------------------------------------

    @property
    def length(self) -> int:
        return sum(self.exponents)

    def __len__(self) -> int:
        return self.length

    def is_empty(self) -> bool:
        return self.length == 0

    def support(self) -> tuple:
        return tuple(e for e, v in enumerate(self.exponents) if v)

    def multiplicity(self, e: int) -> int:
        return self.exponents[e]

    def terms(self) -> tuple:
        """All terms with multiplicity, in increasing element order."""
        out = []
        for e, v in enumerate(self.exponents):
            out.extend([e] * v)
        return tuple(out)

    def text(self) -> str:
        """Canonical text form, e.g. ``1^2,r,s^3``; empty sequence renders as ''."""
        parts = []
        for e, v in enumerate(self.exponents):
            if not v:
                continue
            name = self.group.names[e]
            parts.append(name if v == 1 else f"{name}^{v}")
        return ",".join(parts)

    # -- monoid operations ---------------------------------------------------------

    def _require_same_group(self, other: "Sequence") -> None:
        if self.group != other.group:
            raise ValueError("sequences live over different groups")

    def concat(self, other: "Sequence") -> "Sequence":
        self._require_same_group(other)
        return Sequence(self.group, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def power(self, k: int) -> "Sequence":
        if k < 0:
            raise ValueError(f"negative power {k}")
        return Sequence(self.group, tuple(v * k for v in self.exponents))

    def divides(self, other: "Sequence") -> bool:
        self._require_same_group(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def quotient(self, other: "Sequence") -> "Sequence":
        """Remove ``other`` from this sequence (other must divide self)."""
        self._require_same_group(other)
        if not other.divides(self):
            raise ValueError("quotient by a non-divisor")
        return Sequence(self.group, tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    # -- products ------------------------------------------------------------------

    def product_set(self, max_states: int | None = None) -> frozenset:
        """The set pi(S) of all ordered products of S; {identity} when empty."""
        dp, supp = _submultiset_products(self, max_states)
        full = tuple(self.exponents[e] for e in supp)
        return _mask_to_set(dp[full])

    def is_product_one(self, max_states: int | None = None) -> bool:
        """Whether some ordering of S multiplies to the identity."""
        if self.group.is_abelian:
            acc = 0
            t = self.group.table
            for e, v in enumerate(self.exponents):
                for _ in range(v):
                    acc = t[acc][e]
            return acc == 0
        dp, supp = _submultiset_products(self, max_states)
        full = tuple(self.exponents[e] for e in supp)
        return bool(dp[full] & 1)

    def product_one_witness(self, max_states: int | None = None):
        """Lexicographically smallest ordering with product 1, or None.

        The ordering is a tuple of element ids whose multiset equals S.
        """
        if self.is_empty():
            return ()
        group = self.group
        if group.is_abelian:
            # every ordering has the same product, and sorted terms are lex-least
            return self.terms() if self.is_product_one() else None
        dp, supp = _submultiset_products(self, max_states)
        full = tuple(self.exponents[e] for e in supp)
        if not dp[full] & 1:
            return None
        inv = [group.inv(x) for x in range(group.order)]
        t = group.table
        rem = list(full)
        prod = 0
        out = []
        for _ in range(self.length):
            for pos, g in enumerate(supp):
                if not rem[pos]:
                    continue
                np = t[prod][g]
                rem[pos] -= 1
                # feasible iff the rest can multiply to the inverse of the prefix
                if (dp[tuple(rem)] >> inv[np]) & 1:
                    out.append(g)
                    prod = np
                    break
                rem[pos] += 1
        return tuple(out)

    # -- dunder --------------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Sequence) and self.group == other.group
                and self.exponents == other.exponents)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.group, self.exponents))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Sequence({self.group.label}, {self.text() or 'empty'!r})"

    def __setattr__(self, name, value):
        raise AttributeError("Sequence is immutable")


# -- parsing ----------------------------------------------------------------------


def parse_sequence(group: GroupTable, text: str) -> Sequence:
    """Parse comma-separated ``element`` or ``element^multiplicity`` tokens.

    Elements may be labels (looked up first) or numeric indices. Whitespace
    around tokens is ignored; empty text denotes the empty sequence.
    """
    exps = [0] * group.order
    text = text.strip()
    if not text:
        return Sequence(group, exps)
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            raise ParseError(f"empty token in sequence text {text!r}")
        mult = 1
        if "^" in token:
            head, _, tail = token.rpartition("^")
            if not head or not tail.isdigit() or int(tail) == 0:
                raise ParseError(f"bad sequence token {token!r}")
            token, mult = head.strip(), int(tail)
        exps[group.index_of(token)] += mult
    return Sequence(group, exps)


def apply_map(m: GroupMap, s: Sequence) -> Sequence:
    """Push a sequence forward along a map, summing multiplicities of merged images."""
    if s.group != m.source:
        raise ValueError("sequence is not over the map's source group")
    exps = [0] * m.target.order
    for e, v in enumerate(s.exponents):
        if v:
            exps[m.images[e]] += v
    return Sequence(m.target, exps)


# -- product-set dynamic program --------------------------------------------------


def _mask_to_set(mask: int) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _submultiset_products(seq: Sequence, max_states: int | None = None):
    """Achievable-products bitmask for every sub-multiset of ``seq``.

    Returns ``(dp, supp)`` where ``dp`` maps an exponent tuple over ``supp``
    to the bitmask of products realizable by ordering that sub-multiset.
    The state count is the product of (multiplicity + 1) over the support;
    exceeding the budget raises a BudgetExceededError up front.
    """
    budget = DEFAULT_STATE_BUDGET if max_states is None else max_states
    group = seq.group
    supp = seq.support()
    mults = tuple(seq.exponents[e] for e in supp)
    total = 1
    for v in mults:
        total *= v + 1
    if total > budget:
        raise BudgetExceededError(
            f"product-set DP needs {total} states, budget is {budget}",
            attempted=total, budget=budget)
    masks = group._mul_mask_tables()
    k = len(supp)
    zero = (0,) * k
    dp = {zero: 1}
    layer = [zero]
    while layer:
        nxt = set()
        for key in layer:
            for pos in range(k):
                if key[pos] < mults[pos]:
                    nxt.add(key[:pos] + (key[pos] + 1,) + key[pos + 1:])
        for key in nxt:
            acc = 0
            for pos in range(k):
                if key[pos]:
                    prev = dp[key[:pos] + (key[pos] - 1,) + key[pos + 1:]]
                    acc |= masks[supp[pos]][prev]
            dp[key] = acc
        layer = list(nxt)
    return dp, supp
