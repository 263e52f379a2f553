"""Every run of ``golden_cli.json``, replayed in process, byte for byte."""

from __future__ import annotations

import pytest

from prodone.cli import main

from golden_cli import RUNS, load

GOLDEN = load()


def test_the_golden_file_holds_every_run_once():
    assert [record["argv"] for record in GOLDEN] == RUNS


@pytest.mark.parametrize("record", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_cli_output_matches_the_golden_run(capsys, tmp_path, record):
    code = main(record["argv"] + ["--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (record["code"], record["stdout"],
                                                 record["stderr"])
