"""The two workloads: their seeded inputs, set-up and timed phase.

Each workload runs in a fresh worker process (``worker.py``), one round per
process, so every round starts from empty in-memory caches. The timed phase
is closed loop: one client, each operation issued after the previous one
returns. Library calls go through module attributes (``isolab.verify_theorem``,
not a name imported from it) so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import tempfile
import time

# -- inputs -----------------------------------------------------------------------

SWEEP_GROUPS = (
    "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7", "C8", "C4xC2",
    "C2xC2xC2", "D8", "Q8", "C9", "C3xC3", "D10", "C12")

# (group, multiplicity pattern) cells; the seed picks the elements. Patterns end
# in a 1 so that the last support element can close a sequence to product-one.
PRODUCT_CELLS = (
    ("S4", (1, 1, 1, 1, 1, 1)), ("S4", (2, 1, 1, 1, 1, 1)),
    ("Dic12", (1,) * 9), ("Dic12", (2, 2, 1, 1, 1, 1)),
    ("D12", (1,) * 8), ("D12", (3, 2, 1, 1, 1)),
    ("A4", (1,) * 8), ("A4", (2, 2, 2, 1, 1)),
    ("D10", (1,) * 8), ("C12", (1,) * 7),
    ("Q8", (2, 2, 1, 1, 1)), ("D8", (1,) * 6),
    ("S3", (2, 2, 1, 1)), ("C3xC3", (2, 1, 1, 1, 1)),
)
# lengths queries: always product-one, answered from the catalog filled in set-up
LENGTH_CELLS = (
    ("S3", (2, 1, 1, 1)), ("S3", (2, 2, 1, 1, 1)),
    ("D8", (2, 1, 1, 1)), ("D8", (1, 1, 1, 1, 1, 1)),
    ("Q8", (2, 2, 1, 1)), ("Q8", (1, 1, 1, 1, 1)),
    ("C3xC3", (2, 2, 1, 1)), ("C2xC2xC2", (2, 1, 1, 1, 1)),
    ("C6", (3, 1, 1, 1)),
)
LENGTHS_CAP = 8
QUERIES_PER_ROUND = 540     # 200 pi, 200 witness (half of each product-one), 140 lengths

class Op:
    """One timed operation: its latency and whether it failed."""

    __slots__ = ("ms", "failed")

    def __init__(self, ms: float, failed: bool):
        self.ms = ms
        self.failed = failed


def _timed(fn, *args):
    t = time.perf_counter()
    try:
        value = fn(*args)
        failed = False
    except Exception as exc:  # a failing operation is counted, not fatal
        value = repr(exc)
        failed = True
    return Op((time.perf_counter() - t) * 1e3, failed), value


class Workload:
    name = ""
    # wall_s is a median over at least this many rounds; on sequence_queries
    # two rounds also give query_p99_ms the 1000 queries it needs
    min_rounds = 2
    # when set, the latency percentiles are taken over whole rounds, not over
    # single operations
    round_is_query = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Everything before the first timed operation."""

    def run(self) -> list:
        """The timed phase: a list of Op."""
        raise NotImplementedError

    def outputs(self) -> dict:
        """Program outputs for the checks, gathered after the timed phase.

        The run's first round is checked against the oracles; later rounds
        are compared with it.
        """
        raise NotImplementedError

    def work_counts(self) -> dict:
        """Per-layer counts computed from the inputs alone."""
        return {}

    def close(self) -> None:
        pass


class CatalogSweep(Workload):
    """verify_theorem on all 153 pairs of the 17 sweep groups.

    The pairs run in the acceptance fixture's order, whatever the seed: the
    first pair that meets a group pays for its D(G), so shuffling would move
    that cost between pairs. The query is the whole sweep, since most single
    calls are cache hits of about 10 microseconds whose median is timer noise.
    """

    name = "catalog_sweep"
    round_is_query = True

    def setup(self):
        from prodone import groups, isolab
        self.isolab = isolab
        self.groups = [groups.parse_group_spec(s) for s in SWEEP_GROUPS]
        n = len(SWEEP_GROUPS)
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]

    def run(self):
        ops = []
        self.verdicts = []
        for i, j in self.pairs:
            op, verdict = _timed(self.isolab.verify_theorem, self.groups[i], self.groups[j])
            ops.append(op)
            self.verdicts.append(verdict)
        return ops

    def outputs(self):
        rows = []
        for (i, j), v in zip(self.pairs, self.verdicts):
            if isinstance(v, str):
                rows.append({"pair": [SWEEP_GROUPS[i], SWEEP_GROUPS[j]], "error": v})
                continue
            rows.append({
                "pair": [SWEEP_GROUPS[i], SWEEP_GROUPS[j]], "bound": v.bound,
                "found": v.bijections_found, "consistent": v.consistent,
                "isomorphic": v.groups_isomorphic, "all_classified": v.all_classified,
                "images": [list(b.map.images) for b in v.bijections]})
        rows.sort(key=lambda r: r["pair"])
        return {"tables": {s: [list(r) for r in g.table]
                           for s, g in zip(SWEEP_GROUPS, self.groups)},
                "verdicts": rows}


def _capture_cli(cli, argv):
    """prodone.cli.main in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def _timed_cli(cli, argv):
    """(Op, stdout) for one CLI call; a nonzero exit code counts as failed."""
    op, value = _timed(_capture_cli, cli, argv)
    if op.failed:
        return op, value
    code, text = value
    op.failed = code != 0
    return op, text


def _random_sequence(rng, group, pattern, closed):
    """Element tuple with the given multiplicity pattern over distinct
    non-identity elements; when ``closed``, the last support element is the
    inverse of the product of a random ordering of the others."""
    n = group.order
    k = len(pattern)
    while True:
        support = rng.sample(range(1, n), k)
        if closed:
            rest = [e for e, m in zip(support[:-1], pattern[:-1]) for _ in range(m)]
            rng.shuffle(rest)
            acc = 0
            for e in rest:
                acc = group.table[acc][e]
            last = group.inv(acc)
            if last == 0 or last in support[:-1]:
                continue
            support[-1] = last
        return tuple(sorted(e for e, m in zip(support, pattern) for _ in range(m)))


def _sequence_text(group, elems) -> str:
    counts = {}
    for e in elems:
        counts[e] = counts.get(e, 0) + 1
    return ",".join(group.names[e] if m == 1 else f"{group.names[e]}^{m}"
                    for e, m in sorted(counts.items()))


class SequenceQueries(Workload):
    """Seeded pi / witness / lengths queries through prodone.cli.main."""

    name = "sequence_queries"

    def setup(self):
        from prodone import cli, groups
        self.cli = cli
        self.cache = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        specs = sorted({s for s, _ in PRODUCT_CELLS + LENGTH_CELLS})
        # the benchmark's own copy, used only to generate inputs and for the checks
        self.groups = {s: groups.parse_group_spec(s) for s in specs}
        rng = random.Random(self.seed)
        queries = []
        for i in range(200):
            spec, pattern = PRODUCT_CELLS[i % len(PRODUCT_CELLS)]
            closed = (i // len(PRODUCT_CELLS)) % 2 == 0
            for kind in ("pi", "witness"):
                elems = _random_sequence(rng, self.groups[spec], pattern, closed)
                queries.append((kind, spec, elems))
        for i in range(QUERIES_PER_ROUND - 400):
            spec, pattern = LENGTH_CELLS[i % len(LENGTH_CELLS)]
            queries.append(("lengths", spec, _random_sequence(rng, self.groups[spec],
                                                              pattern, True)))
        rng.shuffle(queries)
        self.queries = queries
        self.argvs = [[kind, spec, _sequence_text(self.groups[spec], elems),
                       "--format", "structured", "--cache-dir", self.cache]
                      for kind, spec, elems in queries]
        for spec in sorted({s for s, _ in LENGTH_CELLS}):
            code, _ = _capture_cli(self.cli, ["atoms", spec, "--max", str(LENGTHS_CAP),
                                              "--cache-dir", self.cache])
            if code != 0:
                raise RuntimeError(f"filling the {spec} catalog exited {code}")

    def run(self):
        ops = []
        self.results = []
        for argv in self.argvs:
            op, text = _timed_cli(self.cli, argv)
            ops.append(op)
            self.results.append(text)
        return ops

    def outputs(self):
        used = sorted({spec for _, spec, _ in self.queries})
        return {
            "groups": {s: {"table": [list(r) for r in self.groups[s].table],
                           "names": list(self.groups[s].names)} for s in used},
            "queries": [[kind, spec, list(elems)] for kind, spec, elems in self.queries],
            "results": self.results}

    def work_counts(self):
        states = 0
        for _, _, elems in self.queries:
            prod = 1
            for e in set(elems):
                prod *= elems.count(e) + 1
            states += prod
        return {"sequences.dp_states": states}

    def close(self):
        shutil.rmtree(self.cache, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CatalogSweep, SequenceQueries)}
