"""Golden outputs of the ``prodone`` command line.

``golden_cli.json`` holds one record per run: the argv, the exit code, and
stdout and stderr as text. Each run is ``prodone <argv> --cache-dir <dir>``
with a fresh empty ``<dir>``, so every catalog is computed cold. The runs
cover every subcommand in both formats, plus the empty witness, ``compare
--bound``, a usage error (exit 3) and two budget trips (exit 2).

The file is a byte-identity gate: a change that should leave every output
as it is must pass it unedited. ``tests/test_golden_cli.py`` replays it in
process; ``--replay`` replays it here through ``python3 -m prodone.cli``,
one fresh process per run:

    python3 tests/golden_cli.py --replay   # exit 1 naming each run that differs
    python3 tests/golden_cli.py --write    # regenerate the file from this checkout
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_cli.json")
SRC = os.path.join(os.path.dirname(HERE), "src")
RUN_TIMEOUT = 60  # seconds per run

RUNS = [
    argv + fmt
    for argv in (
        ["group-info", "Dic12"],
        ["pi", "S3", "r,s,s"],
        ["witness", "D8", "r,r3,s^2"],
        ["witness", "C1", ""],
        ["atoms", "S3", "--max", "4"],
        ["davenport", "D8"],
        ["lengths", "C6", "g^6,g5^6"],
        ["length-system", "S3"],
        ["verify", "S3", "S3"],
        ["compare", "D8", "Q8"],
        ["compare", "C4", "C2xC2", "--bound", "3"],
    )
    for fmt in ([], ["--format", "structured"])
] + [
    ["verify", "C4", "C2xC2"],
    ["group-info", "Zoo"],
    ["davenport", "D8", "--budget", "100"],
    ["verify", "A4", "D12", "--budget", "1000", "--format", "structured"],
]


def run_fresh(argv) -> dict:
    """One run of ``python3 -m prodone.cli`` in a new process with an empty cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory(prefix="prodone-golden-") as cache:
        done = subprocess.run([sys.executable, "-m", "prodone.cli", *argv, "--cache-dir", cache],
                              capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT)
    return {"argv": list(argv), "code": done.returncode, "stdout": done.stdout,
            "stderr": done.stderr}


def load() -> list:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate golden_cli.json")
    mode.add_argument("--replay", action="store_true", help="check every run against it")
    args = parser.parse_args()
    if args.write:
        records = [run_fresh(argv) for argv in RUNS]
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(records)} runs to {GOLDEN_PATH}")
        return 0
    differ = []
    records = load()
    for record in records:
        if run_fresh(record["argv"]) != record:
            differ.append(record["argv"])
            print(f"differs: {record['argv']}")
    print(f"{len(records) - len(differ)} of {len(records)} runs match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
