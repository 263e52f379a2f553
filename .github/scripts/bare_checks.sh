#!/usr/bin/env bash
# The checks that need only a bare interpreter and this checkout, no pytest:
# the benchmark oracles' self-test, a short run of each benchmark workload,
# two CLI runs in fresh processes, a cold and a warm `atoms S4 --max 6` on
# one cache directory, the golden CLI runs of
# tests/golden_cli.json replayed byte for byte in fresh processes, the
# C2xC2xC2xC2 self-pair oracle and the theorem on every pair of the 23-group
# catalog.
#
# Run from the repository root: bash .github/scripts/bare_checks.sh
# Each check prints its name before it runs. Every check runs; the script
# exits 1 after naming each one that failed.
set -uo pipefail

failed=()

check() {
  local name=$1
  shift
  echo "== $name"
  if ! "$@"; then
    echo "FAILED: $name"
    failed+=("$name")
  fi
}

oracle_self_test() {
  python3 perfbench/oracles.py --self-test
}

short_run() {
  python3 perfbench/run.py --workload "$1" --seed 1 --seconds 5 --trace 0 \
    | tail -n 1 \
    | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); print(r);
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)'
}

compare_d10() {
  local cache
  cache=$(mktemp -d)
  PYTHONPATH=src timeout 120 python3 -m prodone.cli compare D10 D10 --format structured --cache-dir "$cache" \
    | python3 -c 'import json, sys; r = json.load(sys.stdin); print(r["bound"], [(c["invariant"], c["status"]) for c in r["comparisons"]]); sys.exit(0 if r["bound"] == 10 and all(c["status"] == "matches" for c in r["comparisons"]) else 1)'
}

verify_d12() {
  local cache
  cache=$(mktemp -d)
  PYTHONPATH=src timeout 120 python3 -m prodone.cli verify D12 D12 --format structured --cache-dir "$cache" \
    | python3 -c 'import json, sys; r = json.load(sys.stdin); print(r["bijections_found"], r["consistent"], r["all_classified"]); sys.exit(0 if r["bijections_found"] == 24 and r["consistent"] is True and r["all_classified"] is True else 1)'
}

atoms_s4_cold_warm() {
  local cache
  cache=$(mktemp -d)
  PYTHONPATH=src timeout 120 python3 -c '
import glob, hashlib, json, os, subprocess, sys, time
cache = sys.argv[1]
argv = [sys.executable, "-m", "prodone.cli", "atoms", "S4", "--max", "6",
        "--format", "structured", "--cache-dir", cache]
totals, files = [], []
for run in ("cold", "warm"):
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)  # the usage of this run alone
    proc.returncode = os.waitstatus_to_exitcode(status)
    totals.append(json.loads(out)["total"] if proc.returncode == 0 else None)
    [path] = glob.glob(os.path.join(cache, "*.atoms"))
    with open(path, "rb") as fh:
        files.append((hashlib.sha256(fh.read()).hexdigest(), os.stat(path).st_mtime_ns))
    print(f"{run}: total {totals[-1]}, {time.monotonic() - started:.2f} s, "
          f"ru_maxrss {usage.ru_maxrss // 1024} MiB")
sys.exit(0 if totals == [137084, 137084] and files[0] == files[1] else 1)' "$cache"
}

golden_cli() {
  timeout 300 python3 tests/golden_cli.py --replay
}

c2_4_self_pair() {
  PYTHONPATH=src:tests timeout 120 python3 -c '
import sys
from brute_force import automorphisms_and_twists
from prodone.groups import parse_group_spec
from prodone.isolab import check_assertions, search_bijections
group = parse_group_spec("C2xC2xC2xC2")
bijections = search_bijections(group, group, 4)
found = {b.map.images for b in bijections}
expected = automorphisms_and_twists(group)
reports = [check_assertions(b) for b in bijections]
passed = sum(r.all_passed and r.is_isomorphism and r.is_anti_isomorphism for r in reports)
print(len(found), len(expected), passed)
sys.exit(0 if found == expected and passed == len(reports) else 1)'
}

catalog_theorem() {
  PYTHONPATH=src timeout 120 python3 -c '
import resource, sys, time
from prodone.groups import parse_group_spec
from prodone.isolab import SMALL_GROUP_SPECS, verify_theorem
started = time.monotonic()
groups = [parse_group_spec(spec) for spec in SMALL_GROUP_SPECS]
pairs = [(i, j) for i in range(len(groups)) for j in range(i, len(groups))]
verdicts = [verify_theorem(groups[i], groups[j]) for i, j in pairs]
inconsistent = sum(not v.consistent for v in verdicts)
with_maps = {pair for pair, v in zip(pairs, verdicts) if v.bijections_found}
print(f"{len(pairs)} pairs, {inconsistent} inconsistent, maps found on {len(with_maps)}, "
      f"{time.monotonic() - started:.1f} s, "
      f"ru_maxrss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024} MiB")
self_pairs = {(i, i) for i in range(len(groups))}
sys.exit(0 if len(pairs) == 276 and inconsistent == 0 and with_maps == self_pairs else 1)'
}

check "Benchmark oracle self-test" oracle_self_test
check "Short benchmark run, checked against its oracles" short_run catalog_sweep
check "Short sequence-query run, checked against its oracles" short_run sequence_queries
check "compare D10 D10 answers at its default bound in a fresh process" compare_d10
check "verify D12 D12 finds its 24 maps in a fresh process" verify_d12
check "atoms S4 --max 6 reports 137084 atoms cold and warm on one cache, and the warm run leaves the catalog file as it was" atoms_s4_cold_warm
check "Every golden CLI run gives the same exit code, stdout and stderr in a fresh process" golden_cli
check "C2xC2xC2xC2 self-pair search finds its automorphisms and their twists, and every map passes the assertions" c2_4_self_pair
check "verify_theorem is consistent on all 276 catalog pairs, and only the 23 self-pairs find maps" catalog_theorem

if ((${#failed[@]})); then
  printf 'failed check: %s\n' "${failed[@]}"
  exit 1
fi
echo "every check passed"
