"""Command-line front end: batch computations with catalog caching.

Exit codes: 0 success (and, for verify, consistency); 1 a verify run found an
inconsistency; 2 resource budget exhausted; 3 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

from .errors import BudgetExceededError, CatalogError, GroupTableError, ParseError
from .factorization import (AtomCatalog, enumerate_atoms, factorizations,
                            large_davenport, length_system)
from .groups import (GroupTable, abelian_structure_label, from_table,
                     parse_group_spec)
from .isolab import compare_invariants, verify_theorem
from .sequences import parse_sequence

__all__ = ["main", "entrypoint"]

DEFAULT_CACHE_DIR = ".prodone-cache"
CACHE_ENV_VAR = "PRODONE_CACHE_DIR"


@dataclass
class CommandResult:
    payload: dict
    human: str
    code: int = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _load_group(spec: str) -> GroupTable:
    """Shorthand like C6, D8, Dic12, S4, A4, C2xC3; else a table file path."""
    try:
        return parse_group_spec(spec)
    except ParseError:
        if os.path.exists(spec):
            try:
                with open(spec, "r", encoding="ascii") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read group table file {spec!r}: {exc}")
            group = from_table(text)
            return group
        raise


def _cache_dir(args) -> str:
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR


def _catalog_for(group: GroupTable, needed: int, cache_dir: str,
                 budget: int | None) -> AtomCatalog:
    """Load a cached exhaustive catalog when it covers the request, else
    compute and store the larger one."""
    path = os.path.join(cache_dir, f"{group.table_hash()}.atoms")
    try:
        stored = AtomCatalog.load(path, group)
    except (OSError, ParseError, CatalogError):  # absent, unreadable, corrupt or stale
        stored = None
    if stored is not None and stored.exhaustive and stored.max_length >= needed:
        return stored.restrict(needed) if stored.max_length > needed else stored
    catalog = enumerate_atoms(group, needed, budget)
    if stored is None or needed > stored.max_length:
        try:
            catalog.save(path)
        except OSError as exc:
            print(f"warning: could not write catalog cache {path!r}: {exc}",
                  file=sys.stderr)
    return catalog


def _listify(value):
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    return value


def _table(rows) -> str:
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [str(v).ljust(w) for v, w in zip(row, widths)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


# -- subcommand handlers ----------------------------------------------------------


def _cmd_group_info(args) -> CommandResult:
    group = _load_group(args.group)
    census = sorted(group.order_census().items())
    quotient = group.abelianization()
    ab_label = abelian_structure_label(quotient)
    payload = {
        "command": "group-info",
        "group": group.label,
        "order": group.order,
        "abelian": group.is_abelian,
        "order_census": _listify(census),
        "commutator_size": group.order // quotient.order,
        "abelianization": ab_label,
    }
    rows = [["group", group.label],
            ["order", group.order],
            ["abelian", "yes" if group.is_abelian else "no"],
            ["order census", "  ".join(f"{o}:{c}" for o, c in census)],
            ["commutator size", group.order // quotient.order],
            ["abelianization", ab_label]]
    return CommandResult(payload, _table(rows))


def _cmd_pi(args) -> CommandResult:
    group = _load_group(args.group)
    seq = parse_sequence(group, args.sequence)
    products = sorted(seq.product_set(max_states=args.budget))
    names = [group.name_of(p) for p in products]
    payload = {"command": "pi", "group": group.label, "sequence": seq.text(),
               "products": names, "product_one": 0 in products}
    human = _table([["sequence", seq.text()],
                    ["products", " ".join(names)],
                    ["product-one", "yes" if 0 in products else "no"]])
    return CommandResult(payload, human)


def _cmd_witness(args) -> CommandResult:
    group = _load_group(args.group)
    seq = parse_sequence(group, args.sequence)
    witness = seq.product_one_witness(max_states=args.budget)
    names = None if witness is None else [group.name_of(x) for x in witness]
    payload = {"command": "witness", "group": group.label, "sequence": seq.text(),
               "witness": names}
    if names is None:
        human = "none"
    elif not names:
        human = "(empty)"
    else:
        human = " ".join(names)
    return CommandResult(payload, human)


def _cmd_atoms(args) -> CommandResult:
    group = _load_group(args.group)
    bound = args.max if args.max is not None else group.order
    if bound < 1:
        raise ParseError(f"--max must be >= 1, got {bound}")
    catalog = _catalog_for(group, bound, _cache_dir(args), args.budget)
    counts = sorted(catalog.counts().items())
    payload = {"command": "atoms", "group": group.label, "max_length": bound,
               "exhaustive": catalog.exhaustive, "counts": _listify(counts),
               "total": sum(c for _, c in counts)}
    rows = [["length", "atoms"]] + [[ln, c] for ln, c in counts]
    tail = (f"total {sum(c for _, c in counts)}  "
            f"({'exhaustive' if catalog.exhaustive else 'partial'} to length {bound})")
    return CommandResult(payload, _table(rows) + "\n" + tail)


def _cmd_davenport(args) -> CommandResult:
    group = _load_group(args.group)
    catalog = _catalog_for(group, group.order, _cache_dir(args), args.budget)
    value = catalog.max_atom_length()
    payload = {"command": "davenport", "group": group.label, "davenport": value,
               "bound_searched": group.order}
    return CommandResult(payload, str(value))


def _cmd_lengths(args) -> CommandResult:
    group = _load_group(args.group)
    seq = parse_sequence(group, args.sequence)
    needed = max(seq.length, 1)
    catalog = _catalog_for(group, needed, _cache_dir(args), args.budget)
    factors = factorizations(seq, catalog)
    lengths = tuple(sorted({len(f) for f in factors}))
    count = len(factors)
    payload = {"command": "lengths", "group": group.label, "sequence": seq.text(),
               "lengths": _listify(lengths), "factorizations": count}
    human = _table([["sequence", seq.text()],
                    ["lengths", " ".join(str(x) for x in lengths)],
                    ["factorizations", count]])
    return CommandResult(payload, human)


def _cmd_length_system(args) -> CommandResult:
    group = _load_group(args.group)
    bound = args.bound if args.bound is not None else large_davenport(group, args.budget)
    system = length_system(group, bound, args.budget)
    payload = {"command": "length-system", "group": group.label, "bound": bound,
               "sets": _listify(system.sets)}
    lines = [" ".join(str(x) for x in s) for s in system.sets]
    return CommandResult(payload, "\n".join(lines))


def _cmd_verify(args) -> CommandResult:
    g1 = _load_group(args.group1)
    g2 = _load_group(args.group2)
    verdict = verify_theorem(g1, g2, args.budget)
    bijections = []
    for b, report in zip(verdict.bijections, verdict.reports):
        assertions = {}
        for outcome in report.outcomes:
            entry = {"status": outcome.status}
            if outcome.counterexample is not None:
                entry["counterexample"] = _listify(outcome.counterexample)
            assertions[outcome.name] = entry
        bijections.append({
            "images": [g2.name_of(y) for y in b.map.images],
            "verified_bound": b.verified_bound,
            "classification": report.classification,
            "assertions": assertions,
        })
    payload = {
        "command": "verify",
        "groups": [verdict.group1, verdict.group2],
        "bound": verdict.bound,
        "bijections_found": verdict.bijections_found,
        "all_classified": verdict.all_classified,
        "groups_isomorphic": verdict.groups_isomorphic,
        "consistent": verdict.consistent,
        "bijections": bijections,
    }
    tally: dict[str, int] = {}
    for c in verdict.classifications:
        tally[c] = tally.get(c, 0) + 1
    rows = [["groups", f"{verdict.group1}, {verdict.group2}"],
            ["bound", verdict.bound],
            ["bijections", verdict.bijections_found],
            ["isomorphic", "yes" if verdict.groups_isomorphic else "no"],
            ["consistent", "yes" if verdict.consistent else "no"]]
    if tally:
        rows.append(["classes", "  ".join(f"{k}:{v}" for k, v in sorted(tally.items()))])
    return CommandResult(payload, _table(rows), 0 if verdict.consistent else 1)


def _cmd_compare(args) -> CommandResult:
    g1 = _load_group(args.group1)
    g2 = _load_group(args.group2)
    if args.bound is not None:
        bound = args.bound
    else:
        bound = max(large_davenport(g1, args.budget), large_davenport(g2, args.budget))
    report = compare_invariants(g1, g2, bound, args.budget)
    payload = {
        "command": "compare",
        "groups": [report.group1, report.group2],
        "bound": bound,
        "distinguishes": report.distinguishes,
        "comparisons": [{"invariant": c.name, "status": c.status,
                         "value1": _listify(c.value1), "value2": _listify(c.value2)}
                        for c in report.comparisons],
    }
    rows = [["invariant", "status", report.group1, report.group2]]
    for c in report.comparisons:
        rows.append([c.name, c.status,
                     "?" if c.value1 is None else c.value1,
                     "?" if c.value2 is None else c.value2])
    return CommandResult(payload, _table(rows))


# -- parser and dispatch ----------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("human", "structured"), default="human",
                        help="output as aligned text or as JSON")
    common.add_argument("--budget", type=int, default=None, metavar="STATES",
                        help="override the enumeration state budget")
    common.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"atom catalog cache (default ${CACHE_ENV_VAR} "
                             f"or ./{DEFAULT_CACHE_DIR})")
    parser = _Parser(prog="prodone",
                     description="Product-one sequences over finite groups: "
                                 "atoms, Davenport constants, sets of lengths, "
                                 "and preserving-bijection verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    p = sub.add_parser("group-info", parents=[common],
                       help="order, censuses, commutator, abelianization")
    p.add_argument("group")
    p.set_defaults(func=_cmd_group_info)

    p = sub.add_parser("pi", parents=[common], help="set of products of a sequence")
    p.add_argument("group")
    p.add_argument("sequence")
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("witness", parents=[common],
                       help="a product-one ordering, if any")
    p.add_argument("group")
    p.add_argument("sequence")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("atoms", parents=[common], help="atom counts per length")
    p.add_argument("group")
    p.add_argument("--max", type=int, default=None, metavar="LEN",
                   help="length bound (default: group order)")
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("davenport", parents=[common],
                       help="largest atom length over the group")
    p.add_argument("group")
    p.set_defaults(func=_cmd_davenport)

    p = sub.add_parser("lengths", parents=[common],
                       help="set of factorization lengths of a sequence")
    p.add_argument("group")
    p.add_argument("sequence")
    p.set_defaults(func=_cmd_lengths)

    p = sub.add_parser("length-system", parents=[common],
                       help="all sets of lengths up to a bound")
    p.add_argument("group")
    p.add_argument("--bound", type=int, default=None,
                   help="sequence length bound (default: Davenport constant)")
    p.set_defaults(func=_cmd_length_system)

    p = sub.add_parser("verify", parents=[common],
                       help="bijections exist iff the groups are isomorphic")
    p.add_argument("group1")
    p.add_argument("group2")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", parents=[common],
                       help="arithmetic invariants side by side")
    p.add_argument("group1")
    p.add_argument("group2")
    p.add_argument("--bound", type=int, default=None,
                   help="length-system bound (default: max Davenport constant)")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GroupTableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        detail = "" if exc.attempted is None else f" (attempted {exc.attempted} states)"
        print(f"resource error: {exc}{detail}", file=sys.stderr)
        return 2
    except CatalogError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    if args.format == "structured":
        print(json.dumps(result.payload, indent=2, sort_keys=True))
    else:
        print(result.human)
    return result.code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
