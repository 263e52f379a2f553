"""Checks of one round's program outputs against the oracles.

Each ``check_<workload>`` returns a list of failure messages; an empty list
means every check passed. Group tables come from the outputs, since the
checked answers are indexed by the program's element labels; every
label-free number is also compared with the closed forms.
"""

from __future__ import annotations

import json

import oracles


def check_catalog_sweep(out) -> list:
    errors = []
    tables = out["tables"]
    total = 0
    for row in out["verdicts"]:
        s1, s2 = row["pair"]
        tag = f"{s1}x{s2}"
        if "error" in row:
            errors.append(f"{tag}: raised {row['error']}")
            continue
        if not (row["consistent"] and row["all_classified"]):
            errors.append(f"{tag}: inconsistent verdict")
        want_bound = max(oracles.davenport(s1), oracles.davenport(s2))
        if row["bound"] != want_bound:
            errors.append(f"{tag}: bound {row['bound']}, closed form {want_bound}")
        if row["isomorphic"] != (s1 == s2):
            errors.append(f"{tag}: isomorphic={row['isomorphic']}")
        images = row["images"]
        total += len(images)
        if s1 != s2:
            if images:
                errors.append(f"{tag}: {len(images)} bijections between distinct groups")
            continue
        table = tables[s1]
        kinds = [oracles.classify(im, table, table) for im in images]
        aut = oracles.aut_order(s1)
        abelian = all(table[a][b] == table[b][a] for a in range(len(table))
                      for b in range(len(table)))
        want = aut if abelian else 2 * aut
        if len(images) != want or len({tuple(im) for im in images}) != want:
            errors.append(f"{tag}: {len(images)} bijections, closed form {want}")
        if "neither" in kinds:
            errors.append(f"{tag}: a bijection is neither iso- nor anti-isomorphism")
        if kinds.count("isomorphism") != aut:
            errors.append(f"{tag}: {kinds.count('isomorphism')} isomorphisms, |Aut| = {aut}")
    if total != 377:
        errors.append(f"{total} bijections in all, expected 377")
    if len(out["verdicts"]) != 153:
        errors.append(f"{len(out['verdicts'])} verdicts, expected 153")
    return errors


def check_sequence_queries(out) -> list:
    errors = []
    groups = out["groups"]
    orcs = {s: oracles.Oracle(g["table"]) for s, g in groups.items()}
    for (kind, spec, elems), text in zip(out["queries"], out["results"]):
        ms = tuple(elems)
        names = groups[spec]["names"]
        index = {name: i for i, name in enumerate(names)}
        orc = orcs[spec]
        tag = f"{kind} {spec} {ms}"
        try:
            payload = json.loads(text)
        except ValueError:
            errors.append(f"{tag}: output is not JSON")
            continue
        if kind == "pi":
            got = frozenset(index[x] for x in payload["products"])
            if got != orc.product_set(ms) or payload["product_one"] != orc.is_po(ms):
                errors.append(f"{tag}: product set differs from the oracle's")
        elif kind == "witness":
            witness = payload["witness"]
            if witness is None:
                if orc.is_po(ms):
                    errors.append(f"{tag}: no witness, but 1 is in pi(S)")
                continue
            order = [index[x] for x in witness]
            acc = 0
            for x in order:
                acc = groups[spec]["table"][acc][x]
            if sorted(order) != list(ms) or acc != 0:
                errors.append(f"{tag}: witness {witness} is not a product-one ordering")
        else:
            if tuple(payload["lengths"]) != tuple(sorted(orc.lengths(ms))):
                errors.append(f"{tag}: lengths {payload['lengths']}, oracle "
                              f"{sorted(orc.lengths(ms))}")
        if len(errors) > 20:
            break
    return errors


CHECKS = {
    "catalog_sweep": check_catalog_sweep,
    "sequence_queries": check_sequence_queries,
}
