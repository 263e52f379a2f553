"""Spans around the calls into prodone's public functions, and the per-layer
metrics derived from them.

The tracer replaces a function at the place its callers look it up (for
example ``prodone.isolab.large_davenport``, which ``verify_theorem`` calls by
its module-global name) with a wrapper that records a span: name, start, end,
parent and a few attributes. Spans stay in memory and are written out when
the round ends. Nothing under ``src/`` is edited; the wrappers live only in
the traced worker process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name): every lookup site a caller uses
FUNCTION_SITES = (
    ("prodone.groups", "parse_group_spec", "groups.parse_group_spec"),
    ("prodone.cli", "parse_group_spec", "groups.parse_group_spec"),
    ("prodone.isolab", "find_group_isomorphisms", "groups.find_group_isomorphisms"),
    ("prodone.factorization", "product_one_vectors", "factorization.product_one_vectors"),
    ("prodone.isolab", "product_one_vectors", "factorization.product_one_vectors"),
    ("prodone.factorization", "enumerate_atoms", "factorization.enumerate_atoms"),
    ("prodone.cli", "enumerate_atoms", "factorization.enumerate_atoms"),
    ("prodone.factorization", "large_davenport", "factorization.large_davenport"),
    ("prodone.isolab", "large_davenport", "factorization.large_davenport"),
    ("prodone.factorization", "set_of_lengths", "factorization.set_of_lengths"),
    ("prodone.cli", "set_of_lengths", "factorization.set_of_lengths"),
    ("prodone.factorization", "factorizations", "factorization.factorizations"),
    ("prodone.cli", "factorizations", "factorization.factorizations"),
    ("prodone.isolab", "search_bijections", "isolab.search_bijections"),
    ("prodone.isolab", "check_assertions", "isolab.check_assertions"),
    ("prodone.isolab", "verify_theorem", "isolab.verify_theorem"),
    ("prodone.cli", "verify_theorem", "isolab.verify_theorem"),
    ("prodone.cli", "main", "cli.main"),
)
# (module, class, method, span name); methods are looked up on the class
METHOD_SITES = (
    ("prodone.sequences", "Sequence", "product_set", "sequences.product_set"),
    ("prodone.sequences", "Sequence", "is_product_one", "sequences.is_product_one"),
    ("prodone.sequences", "Sequence", "product_one_witness", "sequences.product_one_witness"),
    ("prodone.factorization", "AtomCatalog", "load", "factorization.AtomCatalog.load"),
    ("prodone.factorization", "AtomCatalog", "save", "factorization.AtomCatalog.save"),
    # private, but it is where every CLI call rebuilds the 2^n-entry mask tables
    ("prodone.groups", "GroupTable", "_mul_mask_tables", "groups.mask_tables"),
)

# span name -> per-layer self-time metric
SELF_TIME = {
    "groups.parse_group_spec": "groups.build_s",
    "groups.find_group_isomorphisms": "groups.isomorphism_s",
    "groups.mask_tables": "groups.mask_tables_s",
    "sequences.product_set": "sequences.product_set_s",
    "sequences.is_product_one": "sequences.product_set_s",
    "sequences.product_one_witness": "sequences.witness_s",
    "factorization.product_one_vectors": "factorization.ball_s",
    "factorization.enumerate_atoms": "factorization.split_s",
    "factorization.large_davenport": "factorization.davenport_s",
    "factorization.set_of_lengths": "factorization.lengths_s",
    "factorization.factorizations": "factorization.lengths_s",
    "factorization.AtomCatalog.load": "factorization.catalog_load_s",
    "factorization.AtomCatalog.save": "factorization.catalog_save_s",
    "isolab.verify_theorem": "isolab.verify_s",
    "isolab.search_bijections": "isolab.search_s",
    "isolab.check_assertions": "isolab.assertions_s",
    "cli.main": "cli.self_s",
}
SLOW_PATH_SPANS = ("sequences.product_set", "sequences.is_product_one",
                   "sequences.product_one_witness")
SLOW_PATH_ORDER = 16        # prodone's mask tables stop at this order
PER_GROUP = ("D10", "C12")   # the two groups whose balls dominate the sweep

COUNTS = ("sequences.dp_states", "factorization.ball_vectors", "factorization.atoms",
          "isolab.bijections", "cli.commands", "trace.spans")
PER_LAYER = tuple(sorted(set(SELF_TIME.values()))) + (
    "sequences.slow_path_s", "factorization.ball_vectors_per_s") + tuple(
    f"factorization.{m}.{g}" for m in ("ball_s", "split_s") for g in PER_GROUP) + COUNTS + (
    "trace.overhead_s",)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "count"


def _attrs(name, args, result):
    """A few attributes per span: the group, and the size of what came back."""
    if name.startswith("sequences."):
        return {"order": args[0].group.order}
    if name == "factorization.product_one_vectors":
        return {"group": args[0].label, "cap": args[1], "vectors": len(result)}
    if name == "factorization.enumerate_atoms":
        return {"group": args[0].label, "atoms": sum(result.counts().values())}
    if name == "isolab.search_bijections":
        return {"found": len(result)}
    return None


class Tracer:
    """In-memory spans: [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            spans[idx][4] = _attrs(name, args, result)
            return result

        return traced

    def install(self) -> list:
        """Wrap every site; returns the sites that no longer exist, whose
        metrics then read 0."""
        missing = []
        for modname, attr, name in FUNCTION_SITES:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                missing.append(f"{modname}.{attr}")
                continue
            self._restore.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        for modname, clsname, attr, name in METHOD_SITES:
            cls = getattr(importlib.import_module(modname), clsname)
            raw = cls.__dict__.get(attr)
            if raw is None:
                missing.append(f"{modname}.{clsname}.{attr}")
                continue
            self._restore.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = self._wrap(raw.__func__, name)
                setattr(cls, attr, classmethod(wrapped))
            else:
                setattr(cls, attr, self._wrap(raw, name))
        return missing

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Self times and counts of one round; every PER_LAYER key but the
        overhead and the input-derived counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out = {m: 0.0 for m in PER_LAYER if unit_of(m) == "s"}
        out.update({"factorization.ball_vectors": 0, "factorization.atoms": 0,
                    "isolab.bijections": 0, "cli.commands": 0, "trace.spans": len(spans)})
        balls = set()
        for i, (name, start, end, _, attrs) in enumerate(spans):
            self_s = end - start - child[i]
            out[SELF_TIME[name]] += self_s
            if name == "cli.main":
                out["cli.commands"] += 1
            if attrs is None:   # the call raised, or its span has no attributes
                continue
            if name in SLOW_PATH_SPANS:
                if attrs["order"] > SLOW_PATH_ORDER:
                    out["sequences.slow_path_s"] += self_s
            elif name == "factorization.product_one_vectors":
                if attrs["group"] in PER_GROUP:
                    out[f"factorization.ball_s.{attrs['group']}"] += self_s
                if (attrs["group"], attrs["cap"]) not in balls:
                    balls.add((attrs["group"], attrs["cap"]))
                    out["factorization.ball_vectors"] += attrs["vectors"]
            elif name == "factorization.enumerate_atoms":
                if attrs["group"] in PER_GROUP:
                    out[f"factorization.split_s.{attrs['group']}"] += self_s
                out["factorization.atoms"] += attrs["atoms"]
            elif name == "isolab.search_bijections":
                out["isolab.bijections"] += attrs["found"]
        ball_s = out["factorization.ball_s"]
        out["factorization.ball_vectors_per_s"] = (
            out["factorization.ball_vectors"] / ball_s if ball_s > 0 else 0.0)
        return out
