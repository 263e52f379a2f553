"""Atoms, Davenport constants, and sets of lengths against naive oracles."""

from __future__ import annotations

import itertools
import random
from math import comb

import pytest

from prodone.errors import BudgetExceededError, CatalogError, ParseError
from prodone.factorization import (DEFAULT_SEARCH_BUDGET, AtomCatalog, _atom_keys,
                                   _ball_atoms, _unpack, enumerate_atoms,
                                   factorizations, fingerprint, is_atom,
                                   large_davenport, length_system,
                                   product_one_vectors, set_of_lengths)
from prodone.groups import (GroupTable, cyclic, dihedral, direct_product, parse_group_spec,
                            symmetric)
from prodone.sequences import Sequence, parse_sequence

from brute_force import relabeled_copy, sub_multisets


def all_multisets(group, max_len, skip_identity=False):
    """Every multiset of nonzero length up to max_len, canonically ordered."""
    out = []
    first = 1 if skip_identity else 0

    def rec(last, rem, chosen):
        if chosen:
            out.append(Sequence.from_elements(group, chosen))
        if rem:
            for x in range(last, group.order):
                rec(x, rem - 1, chosen + [x])

    rec(first, max_len, [])
    return out


def naive_is_atom(seq):
    if seq.is_empty() or not seq.is_product_one():
        return False
    for part in sub_multisets(seq):
        if part.is_empty() or part == seq:
            continue
        if part.is_product_one() and seq.quotient(part).is_product_one():
            return False
    return True


def naive_atoms(group, max_len):
    found = {}
    for seq in all_multisets(group, max_len):
        if naive_is_atom(seq):
            found.setdefault(seq.length, set()).add(seq.exponents)
    return found


def naive_length_spectrum(seq, _memo=None):
    """All factorization lengths, by recursively peeling one atom."""
    if _memo is None:
        _memo = {}
    if seq.is_empty():
        return {0}
    key = seq.exponents
    if key in _memo:
        return _memo[key]
    _memo[key] = set()  # cycle guard; peeling shortens, so never revisited
    out = set()
    for part in sub_multisets(seq):
        if part.is_empty() or not naive_is_atom(part):
            continue
        rest = seq.quotient(part)
        if rest.is_empty() or rest.is_product_one():
            out |= {1 + k for k in naive_length_spectrum(rest, _memo)}
    _memo[key] = out
    return out


def test_identity_atom_is_the_only_one_containing_identity():
    g = symmetric(3)
    one = parse_sequence(g, "1")
    assert is_atom(one)
    assert not is_atom(parse_sequence(g, "1^2"))
    assert not is_atom(parse_sequence(g, "1,r,r2"))
    assert not is_atom(Sequence.empty(g))
    catalog = enumerate_atoms(g, 6)
    with_identity = [a for a in catalog.all_atoms() if a.exponents[0]]
    assert with_identity == [one]


def test_inverse_pairs_and_full_power_runs_are_atoms():
    for group in [cyclic(5), dihedral(8), parse_group_spec("Q8")]:
        for x in range(1, group.order):
            pair = Sequence.from_elements(group, [x, group.inv(x)])
            assert is_atom(pair)
            run = Sequence.from_elements(group, [x] * group.element_order(x))
            assert is_atom(run)


def test_quaternion_atom_with_product_one_proper_subsequence():
    q8 = parse_group_spec("Q8")
    seq = parse_sequence(q8, "a^4,x^2")
    assert is_atom(seq)
    inside = parse_sequence(q8, "a^4")
    assert inside.divides(seq) and inside.is_product_one()
    assert not seq.quotient(inside).is_product_one()
    # naive confirmation that no split exists at all
    assert naive_is_atom(seq)


def test_quaternion_six_squares_splits():
    q8 = parse_group_spec("Q8")
    seq = parse_sequence(q8, "a^2,x^2,ax^2")
    assert seq.is_product_one()
    assert not is_atom(seq)
    triple = parse_sequence(q8, "a,x,ax")
    assert triple.is_product_one()
    assert seq.quotient(triple) == triple


@pytest.mark.parametrize("spec, max_len", [("C4", 4), ("C2xC2", 4), ("C5", 5),
                                           ("S3", 5), ("D8", 4)])
def test_enumerate_atoms_matches_naive(spec, max_len):
    group = parse_group_spec(spec)
    catalog = enumerate_atoms(group, max_len)
    assert catalog.exhaustive
    mine = {ln: {a.exponents for a in atoms}
            for ln, atoms in catalog.atoms_by_length.items() if atoms}
    assert mine == naive_atoms(group, max_len)


def test_atom_catalog_is_sorted_and_consistent():
    catalog = enumerate_atoms(symmetric(3), 6)
    for ln, atoms in catalog.atoms_by_length.items():
        assert list(atoms) == sorted(atoms, key=lambda s: s.exponents)
        assert all(a.length == ln for a in atoms)
    assert catalog.max_atom_length() == 6
    assert sum(catalog.counts().values()) == sum(
        len(v) for v in catalog.atoms_by_length.values())


@pytest.mark.parametrize("n", range(2, 7))
def test_davenport_cyclic_matches_naive(n):
    group = cyclic(n)
    assert large_davenport(group) == n
    assert max(naive_atoms(group, n + 1)) == n


def test_davenport_known_small_values():
    assert large_davenport(cyclic(1)) == 1
    assert large_davenport(parse_group_spec("C2xC2")) == 3
    assert large_davenport(symmetric(3)) == 6
    assert large_davenport(parse_group_spec("C2xC2xC2")) == 4


def test_factorizations_examples():
    c2 = cyclic(2)
    catalog = enumerate_atoms(c2, 6)
    b = parse_sequence(c2, "g^4")
    factors = factorizations(b, catalog)
    assert len(factors) == 1
    assert [a.text() for a in factors[0]] == ["g^2", "g^2"]
    assert set_of_lengths(b, catalog) == (2,)
    assert set_of_lengths(parse_sequence(c2, "1,g^2"), catalog) == (2,)
    assert set_of_lengths(parse_sequence(c2, "1^3"), catalog) == (3,)
    assert set_of_lengths(Sequence.empty(c2), catalog) == (0,)
    assert set_of_lengths(parse_sequence(c2, "g^2"), catalog) == (1,)


def test_factorizations_require_product_one_and_coverage():
    c3 = cyclic(3)
    catalog = enumerate_atoms(c3, 3)
    with pytest.raises(ValueError):
        factorizations(parse_sequence(c3, "g"), catalog)
    long_b = parse_sequence(c3, "g^6")
    with pytest.raises(CatalogError):
        factorizations(long_b, catalog)
    with pytest.raises(CatalogError):
        factorizations(parse_sequence(cyclic(2), "g^2"), catalog)


def test_set_of_lengths_matches_spectrum_oracle_on_dihedral_example():
    d8 = dihedral(8)
    catalog = enumerate_atoms(d8, 6)
    b = parse_sequence(d8, "r^2,r2^2,r3^2")
    expected = tuple(sorted(naive_length_spectrum(b)))
    assert set_of_lengths(b, catalog) == expected
    assert len(expected) >= 2  # a genuinely non-singleton set of lengths


def test_set_of_lengths_random_against_oracle():
    rng = random.Random(424242)
    s3 = symmetric(3)
    catalog = enumerate_atoms(s3, 5)
    pool = [s for s in all_multisets(s3, 5) if s.is_product_one()]
    for seq in rng.sample(pool, 25):
        assert set_of_lengths(seq, catalog) == tuple(sorted(naive_length_spectrum(seq)))


def test_length_system_small_cyclic():
    system = length_system(cyclic(2), 4)
    assert system.sets == ((1,), (2,), (3,), (4,))
    assert [1] in system
    assert (5,) not in system


def test_length_system_matches_naive_collection():
    s3 = symmetric(3)
    bound = 4
    naive = set()
    for seq in all_multisets(s3, bound):
        if seq.is_product_one():
            naive.add(tuple(sorted(naive_length_spectrum(seq))))
    assert set(length_system(s3, bound).sets) == naive


def naive_ball(group, max_len):
    """Identity-free product-one multisets -> length, by trying every ordering."""
    out = {}
    for seq in all_multisets(group, max_len, skip_identity=True):
        for order in itertools.permutations(seq.terms()):
            acc = 0
            for x in order:
                acc = group.mul(acc, x)
            if acc == 0:
                out[seq.exponents] = seq.length
                break
    return out


def test_product_one_vectors_counts_match_naive():
    # element-id order drives both the append-a-larger-element rule of the
    # level DP and the closing-term rule of the abelian DFS, so a relabeled
    # copy runs both on a different order
    groups = [symmetric(3), cyclic(6), dihedral(8), parse_group_spec("Q8"),
              parse_group_spec("C3xC3"), relabeled_copy(dihedral(8), random.Random(9))]
    for group in groups:
        ball = product_one_vectors(group, 5)
        mine = {_unpack(key, group.order): ln for key, ln in ball.items()}
        assert mine == naive_ball(group, 5)


def is_atom_filter(group, ball):
    """The atoms of a ball, by the per-sequence split search of ``is_atom``."""
    return {key: ln for key, ln in ball.items()
            if is_atom(Sequence(group, _unpack(key, group.order)))}


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "C6", "C3xC3", "C2xC2xC2",
                                  "relabeled D8"])
def test_ball_atoms_match_is_atom(spec):
    group = (relabeled_copy(dihedral(8), random.Random(3)) if spec == "relabeled D8"
             else parse_group_spec(spec))
    cap = 6
    ball = product_one_vectors(group, cap)
    expected = is_atom_filter(group, ball)
    assert _ball_atoms(ball) == expected
    # smaller caps read the atoms cached with the ball, filtered by length
    for c in range(1, cap + 1):
        assert _atom_keys(group, c, None) == {k: ln for k, ln in expected.items() if ln <= c}


def test_ball_atoms_of_the_partial_ball_of_a_budget_trip():
    group = relabeled_copy(parse_group_spec("Q8"), random.Random(8))
    trips = []
    for _ in range(2):  # the second trip reads the partial ball the first one cached
        with pytest.raises(BudgetExceededError) as err:
            product_one_vectors(group, 6, budget=300)
        trips.append((err.value.attempted, err.value.partial))
    assert trips[0] == trips[1]
    ball = trips[0][1]
    assert max(ball.values()) == 3  # 7 + 28 + 84 multisets fit, 210 more do not
    expected = is_atom_filter(group, ball)
    assert _ball_atoms(ball) == expected
    with pytest.raises(BudgetExceededError) as err:
        enumerate_atoms(group, 6, budget=300)
    identity_atom = (1,) + (0,) * 7
    assert ({a.exponents for a in err.value.partial.all_atoms()}
            == {_unpack(k, 8) for k in expected} | {identity_atom})


def test_trivial_group_answers_any_cap_at_once():
    # C1 has no identity-free multisets: no packing limit, no budget spent,
    # and no per-length work, however large the cap
    trivial = parse_group_spec("C1")
    catalog = enumerate_atoms(trivial, 10**6, budget=1)
    assert [a.exponents for a in catalog.all_atoms()] == [(1,)]
    assert product_one_vectors(trivial, 10**6, budget=1) == {}
    assert large_davenport(trivial) == 1


def test_catalog_save_load_round_trip(tmp_path):
    s3 = symmetric(3)
    catalog = enumerate_atoms(s3, 6)
    path = tmp_path / "s3.atoms"
    catalog.save(path)
    loaded = AtomCatalog.load(path, s3)
    assert loaded.atoms_by_length == catalog.atoms_by_length
    assert loaded.max_length == 6 and loaded.exhaustive
    with pytest.raises(CatalogError):
        AtomCatalog.load(path, dihedral(8))


def test_catalog_load_rejects_corruption(tmp_path):
    path = tmp_path / "x.atoms"
    path.write_text("not a catalog\n")
    with pytest.raises(ParseError):
        AtomCatalog.load(path, cyclic(2))
    catalog = enumerate_atoms(cyclic(2), 2)
    catalog.save(path)
    text = path.read_text().replace("atom 2 0 2", "atom 2 0 3")
    path.write_text(text)
    with pytest.raises(ParseError):
        AtomCatalog.load(path, cyclic(2))


def test_catalog_restrict():
    catalog = enumerate_atoms(symmetric(3), 6)
    small = catalog.restrict(3)
    assert small.max_length == 3 and small.exhaustive
    assert set(small.counts()) == {1, 2, 3}
    with pytest.raises(CatalogError):
        small.restrict(5)


def test_budget_exhaustion_yields_partial_catalog():
    # a shuffled table sidesteps the per-table enumeration cache
    group = relabeled_copy(dihedral(8), random.Random(2))
    with pytest.raises(BudgetExceededError) as err:
        enumerate_atoms(group, 6, budget=300)
    partial = err.value.partial
    assert isinstance(partial, AtomCatalog)
    assert not partial.exhaustive
    full = enumerate_atoms(group, 6)
    full_keys = {a.exponents for a in full.all_atoms()}
    assert {a.exponents for a in partial.all_atoms()} <= full_keys


@pytest.mark.parametrize("group, budget, attempted", [
    # multisets of length 1..4 over the 7 non-identity elements: 7+28+84+210
    (dihedral(8), 300, 329),
    # over the 8 non-identity elements of C3xC3: 8+36+120+330
    (parse_group_spec("C3xC3"), 200, 494),
])
def test_budget_trip_keeps_the_exact_ball_below_the_tripped_length(group, budget, attempted):
    fresh = relabeled_copy(group, random.Random(5))
    with pytest.raises(BudgetExceededError) as err:
        product_one_vectors(fresh, 6, budget=budget)
    assert err.value.attempted == attempted
    assert err.value.budget == budget
    assert err.value.partial == {k: ln for k, ln in product_one_vectors(fresh, 6).items()
                                 if ln <= 3}


def test_default_budget_stops_order_16_before_two_gigabytes():
    # the engine checks these level sizes before it builds a level
    def level_sizes(n):
        # identity-free multisets of each length 1..n over a group of order n
        return [comb(n + ln - 2, ln) for ln in range(1, n + 1)]

    # order 14 still fits at cap 14
    assert sum(level_sizes(14)) == 20_058_299 <= DEFAULT_SEARCH_BUDGET
    # order 16 trips at a length whose two predecessors, the largest levels
    # alive at once, stay below 2 GiB at 150 bytes per state (141 measured
    # on D12 at cap 12)
    sizes = level_sizes(16)
    admitted = 0
    while sum(sizes[:admitted + 1]) <= DEFAULT_SEARCH_BUDGET:
        admitted += 1
    assert admitted < 16
    assert (sizes[admitted - 1] + sizes[admitted - 2]) * 150 < 2 * 2 ** 30


def test_length_cap_beyond_the_packing_limit_is_a_value_error():
    with pytest.raises(ValueError, match="31"):
        product_one_vectors(cyclic(32), 32)


def test_product_one_vectors_budget_and_cache():
    fresh = relabeled_copy(symmetric(3), random.Random(4))
    with pytest.raises(BudgetExceededError) as err:
        product_one_vectors(fresh, 6, budget=20)
    assert err.value.attempted > 20
    assert isinstance(err.value.partial, dict)
    ball6 = product_one_vectors(fresh, 6)
    ball4 = product_one_vectors(fresh, 4)
    assert set(ball4) == {k for k, ln in ball6.items() if ln <= 4}


def _trip(call):
    with pytest.raises(BudgetExceededError) as err:
        call()
    return err.value.attempted, err.value.partial


@pytest.mark.parametrize("compute", [product_one_vectors, enumerate_atoms])
def test_budget_trips_alike_whatever_the_cache_holds(compute):
    group = relabeled_copy(dihedral(8), random.Random(41))  # not cached yet
    cold = _trip(lambda: compute(group, 6, budget=100))
    assert cold[0] == 7 + 28 + 84  # lengths 1 and 2 fit, length 3 does not
    compute(group, 6)  # the default budget caches the ball to length 6
    warm = _trip(lambda: compute(group, 6, budget=100))
    twin = GroupTable(group.table)  # equal table, so it reads the same cache entry
    assert twin == group and twin is not group
    assert cold == warm == _trip(lambda: compute(twin, 6, budget=100))


def test_fingerprint_is_relabel_invariant():
    rng = random.Random(17)
    for spec in ["S3", "C6", "D8"]:
        group = parse_group_spec(spec)
        twin = relabeled_copy(group, rng)
        assert fingerprint(group) == fingerprint(twin)


def test_fingerprint_separates_cyclic4_from_klein():
    fp_c4 = fingerprint(cyclic(4))
    fp_k4 = fingerprint(direct_product(cyclic(2), cyclic(2)))
    assert fp_c4.davenport == 4
    assert fp_k4.davenport == 3
    assert fp_c4 != fp_k4
