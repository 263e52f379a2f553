#!/usr/bin/env bash
# The checks that need only a bare interpreter and this checkout, no pytest:
# the benchmark oracles' self-test, a short run of each benchmark workload,
# two CLI runs in fresh processes and the C2xC2xC2xC2 self-pair oracle.
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

check "Benchmark oracle self-test" oracle_self_test
check "Short benchmark run, checked against its oracles" short_run catalog_sweep
check "Short sequence-query run, checked against its oracles" short_run sequence_queries
check "compare D10 D10 answers at its default bound in a fresh process" compare_d10
check "verify D12 D12 finds its 24 maps in a fresh process" verify_d12
check "C2xC2xC2xC2 self-pair search finds its automorphisms and their twists, and every map passes the assertions" c2_4_self_pair

if ((${#failed[@]})); then
  printf 'failed check: %s\n' "${failed[@]}"
  exit 1
fi
echo "every check passed"
