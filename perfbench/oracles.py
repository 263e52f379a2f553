"""Independent oracles for the prodone benchmark.

Nothing here imports prodone. A group is a Cayley table (a list of rows over
the elements 0..n-1, with 0 the identity); a sequence is a sorted tuple of
elements. The oracles are:

- closed forms for |Aut(G)| and for the large Davenport constant D(G);
- a memoized DP for the set of products pi(S), as a bit mask;
- a splitting oracle for atoms and for sets of lengths;
- small group constructors written apart from prodone's, for the self-test.

Run ``python3 perfbench/oracles.py --self-test`` to check the oracles against
brute force over all orderings on every group of order <= 6.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

# -- closed forms -----------------------------------------------------------------

# |Aut(G)|: phi(n) for Cn, m*phi(m) for the dihedral group of order 2m (m >= 3),
# and the listed values for Q8 and the non-cyclic abelian groups of the sweep.
_AUT_FIXED = {"Q8": 24, "C2xC2xC2": 168, "C3xC3": 48, "C4xC2": 8, "C2xC2": 6}

# D(G) for the non-abelian groups of order 2n with a cyclic subgroup of index 2
# is n + |G'| (Geroldinger-Grynkiewicz, "The large Davenport constant I",
# 2013). The commutator subgroup is <r^2> in D_2n (order n for odd n, n/2 for
# even n), {1, -1} in Q8 and <a^2> of order 3 in Dic12.
_NONABELIAN_HALF_AND_COMMUTATOR = {
    "S3": (3, 3), "D8": (4, 2), "Q8": (4, 2), "D10": (5, 5),
    "D12": (6, 3), "Dic12": (6, 3),
}


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _cyclic_factors(spec: str):
    """[n1, n2, ...] for a spec like ``C4xC2``, else None."""
    parts = spec.split("x")
    if all(p.startswith("C") and p[1:].isdigit() for p in parts):
        return [int(p[1:]) for p in parts]
    return None


def aut_order(spec: str) -> int:
    """|Aut(G)| from the closed forms; KeyError for a group not covered."""
    if spec in _AUT_FIXED:
        return _AUT_FIXED[spec]
    factors = _cyclic_factors(spec)
    if factors is not None and len(factors) == 1:
        return _phi(factors[0])
    if spec == "S3":
        spec = "D6"
    if spec.startswith("D") and spec[1:].isdigit() and int(spec[1:]) >= 6:
        m = int(spec[1:]) // 2
        return m * _phi(m)
    raise KeyError(spec)


def davenport(spec: str) -> int:
    """D(G) from the closed forms; KeyError for a group not covered.

    Abelian groups: 1 + sum(n_i - 1) over the invariant factors, which holds
    for the p-groups and rank-2 groups of the sweep and gives n for Cn.
    """
    factors = _cyclic_factors(spec)
    if factors is not None:
        return 1 + sum(n - 1 for n in factors)
    n, commutator = _NONABELIAN_HALF_AND_COMMUTATOR[spec]
    return n + commutator


# -- small group constructors -----------------------------------------------------


def cyclic_table(n: int):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def direct_table(t1, t2):
    n1, n2 = len(t1), len(t2)
    return [[t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(n1 * n2)]
            for a in range(n1 * n2)]


def _permutation_table(perms):
    """Cayley table of a list of permutations closed under composition.

    The identity must come first; (p*q)(x) = p(q(x)).
    """
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def symmetric_table(n: int):
    perms = list(itertools.permutations(range(n)))
    return _permutation_table(perms)


def oracle_table(spec: str):
    """Cayley table for a catalog spec, built without prodone."""
    factors = _cyclic_factors(spec)
    if factors is not None:
        table = cyclic_table(factors[0])
        for n in factors[1:]:
            table = direct_table(table, cyclic_table(n))
        return table
    if spec.startswith("S"):
        return symmetric_table(int(spec[1:]))
    raise KeyError(spec)


# -- maps -------------------------------------------------------------------------


def classify(images, t1, t2) -> str:
    """"isomorphism", "anti_isomorphism" (both for abelian targets: the former
    wins), or "neither" for a bijection given by its images."""
    n = len(t1)
    if sorted(images) != list(range(n)):
        return "neither"
    if all(images[t1[a][b]] == t2[images[a]][images[b]] for a in range(n) for b in range(n)):
        return "isomorphism"
    if all(images[t1[a][b]] == t2[images[b]][images[a]] for a in range(n) for b in range(n)):
        return "anti_isomorphism"
    return "neither"


# -- products, atoms and lengths --------------------------------------------------


def sub_multisets(ms: tuple):
    """Every sub-multiset of a sorted tuple, as sorted tuples."""
    values = sorted(set(ms))
    mults = [ms.count(v) for v in values]
    for picks in itertools.product(*(range(k + 1) for k in mults)):
        yield tuple(v for v, k in zip(values, picks) for _ in range(k))


def subtract(ms: tuple, part: tuple) -> tuple:
    rest = list(ms)
    for x in part:
        rest.remove(x)
    return tuple(rest)


class Oracle:
    """Memoized pi(S), atoms and sets of lengths over one Cayley table."""

    def __init__(self, table):
        self.n = len(table)
        # right multiplication by h as a permutation of the elements
        self._right = [tuple(table[x][h] for x in range(self.n)) for h in range(self.n)]
        self._pi = {(): 1}
        self._lengths = {(): frozenset({0})}

    def _mask_mul(self, mask: int, h: int) -> int:
        right = self._right[h]
        out = 0
        x = 0
        while mask:
            if mask & 1:
                out |= 1 << right[x]
            mask >>= 1
            x += 1
        return out

    def pi(self, ms: tuple) -> int:
        """Bit mask of pi(S): pi(S) is the union over g in S of pi(S - g) * g."""
        got = self._pi.get(ms)
        if got is None:
            got = 0
            for i, g in enumerate(ms):
                if i and ms[i - 1] == g:
                    continue
                got |= self._mask_mul(self.pi(ms[:i] + ms[i + 1:]), g)
            self._pi[ms] = got
        return got

    def product_set(self, ms: tuple) -> frozenset:
        mask = self.pi(ms)
        return frozenset(x for x in range(self.n) if mask >> x & 1)

    def is_po(self, ms: tuple) -> bool:
        return bool(self.pi(ms) & 1)

    def splits(self, ms: tuple) -> bool:
        """Whether S has a proper nonempty product-one part with product-one rest."""
        return any(0 < len(t) < len(ms) and self.is_po(t) and self.is_po(subtract(ms, t))
                   for t in sub_multisets(ms))

    def is_atom(self, ms: tuple) -> bool:
        return bool(ms) and self.is_po(ms) and not self.splits(ms)

    def lengths(self, ms: tuple) -> frozenset:
        """L(S) for a product-one S: the atom holding the first term is split off
        in every possible way, and the rest is factored recursively."""
        got = self._lengths.get(ms)
        if got is None:
            out = set()
            first, rest = ms[0], ms[1:]
            for t in sub_multisets(rest):
                atom = (first,) + t
                if self.is_atom(atom):
                    remainder = subtract(rest, t)
                    if self.is_po(remainder):
                        out.update(1 + k for k in self.lengths(remainder))
            got = frozenset(out)
            self._lengths[ms] = got
        return got

def _brute_pi(table, ms: tuple) -> frozenset:
    out = set()
    for perm in set(itertools.permutations(ms)):
        acc = 0
        for x in perm:
            acc = table[acc][x]
        out.add(acc)
    return frozenset(out)


def _brute_factorization_lengths(table, ms: tuple) -> frozenset:
    """Block counts over all set partitions of the positions into atoms."""

    def po(part):
        return 0 in _brute_pi(table, part)

    def atom(part):
        if not part or not po(part):
            return False
        positions = range(len(part))
        for r in range(1, len(part)):
            for pick in itertools.combinations(positions, r):
                left = tuple(part[i] for i in pick)
                right = tuple(part[i] for i in positions if i not in pick)
                if po(left) and po(right):
                    return False
        return True

    def rec(rest):
        if not rest:
            return {0}
        out = set()
        others = range(1, len(rest))
        for r in range(len(rest)):
            for pick in itertools.combinations(others, r):
                block = (rest[0],) + tuple(rest[i] for i in pick)
                if atom(block):
                    remainder = tuple(rest[i] for i in others if i not in pick)
                    out.update(1 + k for k in rec(remainder))
        return out

    return frozenset(rec(ms))


def _brute_aut_order(table) -> int:
    n = len(table)
    count = 0
    for rest in itertools.permutations(range(1, n)):
        f = (0,) + rest
        if all(f[table[a][b]] == table[f[a]][f[b]] for a in range(n) for b in range(n)):
            count += 1
    return count


SELF_TEST_SPECS = ("C2", "C3", "C4", "C2xC2", "C5", "C6", "S3")


def self_test(max_len: int = 5) -> list:
    """Check every oracle against brute force on the groups of order <= 6.

    Returns a list of failure messages (empty when all checks pass).
    """
    failures = []
    for spec in SELF_TEST_SPECS:
        table = oracle_table(spec)
        n = len(table)
        oracle = Oracle(table)
        if _brute_aut_order(table) != aut_order(spec):
            failures.append(f"{spec}: |Aut| closed form {aut_order(spec)} is wrong")
        longest = max((len(ms) for k in range(1, n + 1)
                       for ms in itertools.combinations_with_replacement(range(n), k)
                       if oracle.is_atom(ms)), default=0)
        if longest != davenport(spec):
            failures.append(f"{spec}: D(G) closed form {davenport(spec)}, oracle {longest}")
        for k in range(max_len + 1):
            for ms in itertools.combinations_with_replacement(range(n), k):
                if oracle.product_set(ms) != _brute_pi(table, ms):
                    failures.append(f"{spec}: pi{ms} differs from brute force")
                if ms and oracle.is_po(ms) and (
                        oracle.lengths(ms) != _brute_factorization_lengths(table, ms)):
                    failures.append(f"{spec}: L{ms} differs from brute force")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    code = 0
    if args.self_test:
        failures = self_test()
        for line in failures:
            print(line)
        print("self-test", "FAILED" if failures else "passed")
        code = 1 if failures else 0
    return code


if __name__ == "__main__":
    sys.exit(main())
