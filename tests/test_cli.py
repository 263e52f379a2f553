"""Command-line interface: output shapes, exit codes, and the catalog cache."""

from __future__ import annotations

import json
import random
import re

import pytest

from prodone import cli
from prodone.cli import main
from prodone.errors import CatalogError, ParseError
from prodone.factorization import AtomCatalog, _lines_digest
from prodone.groups import GroupTable, dihedral, symmetric


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    payload = json.loads(out)
    # structured output must round-trip exactly
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")
    return code, payload, err


def test_group_info_human(capsys):
    code, out, _ = run(capsys, "group-info", "S3")
    assert code == 0
    assert "order" in out and "6" in out
    assert "abelian" in out and "no" in out


def test_group_info_structured(capsys):
    code, payload, _ = run_json(capsys, "group-info", "S3")
    assert code == 0
    assert payload["order"] == 6
    assert payload["abelian"] is False
    assert payload["commutator_size"] == 3
    assert payload["abelianization"] == "C2"
    assert payload["order_census"] == [[1, 1], [2, 3], [3, 2]]


def test_pi_lists_both_products(capsys):
    code, payload, _ = run_json(capsys, "pi", "S3", "r,s")
    assert code == 0
    assert len(payload["products"]) == 2
    assert payload["product_one"] is False


def test_witness_ordering(capsys):
    code, out, _ = run(capsys, "witness", "C2", "g^2")
    assert code == 0
    assert out.strip() == "g g"


def test_witness_absent(capsys):
    code, out, _ = run(capsys, "witness", "C2", "g")
    assert code == 0
    assert out.strip() == "none"
    _, payload, _ = run_json(capsys, "witness", "C2", "g")
    assert payload["witness"] is None


def test_davenport_c5(capsys, tmp_path):
    code, out, _ = run(capsys, "davenport", "C5", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.strip() == "5"


def test_atoms_c2(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "atoms", "C2", "--max", "3",
                                "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["counts"] == [[1, 1], [2, 1]]
    assert payload["total"] == 2
    assert payload["exhaustive"] is True


def test_lengths_of_a_fourth_power(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "lengths", "C2", "g^4",
                                "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["lengths"] == [2]
    assert payload["factorizations"] == 1


LENGTHS_C6 = """{
  "command": "lengths",
  "factorizations": 2,
  "group": "C6",
  "lengths": [
    2,
    6
  ],
  "sequence": "g^6,g5^6"
}
"""


def test_lengths_factorizes_once_per_query(capsys, tmp_path, monkeypatch):
    calls = []
    factorizations = cli.factorizations

    def counted(b, catalog):
        calls.append(b.text())
        return factorizations(b, catalog)

    monkeypatch.setattr(cli, "factorizations", counted)
    for _ in range(2):  # from an empty catalog cache, then from the stored one
        code, out, _ = run(capsys, "lengths", "C6", "g^6,g5^6", "--format", "structured",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == LENGTHS_C6
    assert calls == ["g^6,g5^6"] * 2


LENGTH_SYSTEM_S3 = {"bound": 6, "command": "length-system", "group": "S3",
                    "sets": [[1], [2], [2, 3], [3], [4], [5], [6]]}


def test_length_system_takes_its_default_bound_without_the_disk_catalog(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, out, _ = run(capsys, "length-system", "S3", "--format", "structured",
                       "--cache-dir", str(cache))
    assert code == 0
    assert out == json.dumps(LENGTH_SYSTEM_S3, indent=2, sort_keys=True) + "\n"
    assert not cache.exists()


def test_compare_d10_d10_answers_at_its_default_bound(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "compare", "D10", "D10",
                                "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["bound"] == 10  # D(D10)
    assert {c["invariant"]: c["status"] for c in payload["comparisons"]} == {
        name: "matches" for name in
        ("abelianization", "davenport", "atom_counts", "length_system")}


def test_length_system_c2(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "length-system", "C2", "--bound", "4",
                                "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["sets"] == [[1], [2], [3], [4]]


def test_verify_s3_self(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "verify", "S3", "S3",
                                "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["bijections_found"] == 12
    assert payload["groups_isomorphic"] is True
    assert payload["consistent"] is True
    for b in payload["bijections"]:
        assert b["verified_bound"] >= 6
        assert b["classification"] in ("isomorphism", "anti_isomorphism")
        assert b["assertions"]["A7"]["status"] == "pass"
        assert b["assertions"]["A5"]["status"] in ("pass", "vacuous")


def test_verify_d8_q8(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "verify", "D8", "Q8",
                                "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["bijections_found"] == 0
    assert payload["groups_isomorphic"] is False
    assert payload["consistent"] is True


def test_compare_c4_k4(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "compare", "C4", "C2xC2",
                                "--cache-dir", str(tmp_path))
    assert code == 0
    assert payload["distinguishes"] is True
    by_name = {c["invariant"]: c for c in payload["comparisons"]}
    assert by_name["davenport"]["status"] == "distinguishes"
    assert by_name["davenport"]["value1"] == 4
    assert by_name["davenport"]["value2"] == 3


def test_compare_reports_a_length_system_past_the_budget_as_inconclusive(capsys, tmp_path):
    code, payload, _ = run_json(capsys, "compare", "C4xC4", "C2xC8", "--bound", "16",
                                "--cache-dir", str(tmp_path))
    assert code == 0
    by_name = {c["invariant"]: c for c in payload["comparisons"]}
    assert (by_name["davenport"]["value1"], by_name["davenport"]["value2"]) == (7, 9)
    assert by_name["length_system"]["status"] == "inconclusive"


def test_usage_errors_exit_3(capsys):
    assert run(capsys, "no-such-command")[0] == 3
    assert run(capsys, "group-info", "Zoo")[0] == 3
    assert run(capsys, "pi", "S3", "r^x")[0] == 3
    assert run(capsys, "pi", "S3", "q")[0] == 3
    assert run(capsys, "atoms", "C2", "--max", "0")[0] == 3
    _, _, err = run(capsys, "group-info", "Zoo")
    assert "error" in err


def test_one_parser_answers_alike_after_errors(capsys, tmp_path):
    argv = ("pi", "S4", "(01),(012),(0123),(13)", "--format", "structured")
    first = run(capsys, *argv)
    assert first[0] == 0
    assert run(capsys, "pi", "S4")[0] == 3  # usage error: no sequence
    assert run(capsys, "atoms", "D8", "--max", "0", "--cache-dir", str(tmp_path))[0] == 3
    assert run(capsys, *argv) == first
    # options of one call do not leak into the next
    assert not run(capsys, "pi", "S3", "r,s")[1].startswith("{")


def test_budget_exhaustion_exits_2(capsys, tmp_path):
    rng = random.Random(77)
    group = dihedral(8)
    perm = [0] + rng.sample(range(1, 8), 7)
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            table[perm[a]][perm[b]] = perm[group.mul(a, b)]
    lines = ["8"] + [" ".join(str(x) for x in row) for row in table]
    path = tmp_path / "relabeled.tbl"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, _, err = run(capsys, "davenport", str(path),
                       "--cache-dir", str(tmp_path), "--budget", "50")
    assert code == 2
    assert "resource error" in err


@pytest.mark.parametrize("argv", [("atoms", "S3"), ("pi", "S3", "r,s")])
def test_negative_budget_is_a_usage_error(capsys, tmp_path, argv):
    for value in ("-1", "x"):
        code, _, err = run(capsys, *argv, "--budget", value, "--cache-dir", str(tmp_path))
        assert code == 3
        assert "--budget" in err and "resource error" not in err
    # a budget of 0 is legal and trips at once
    code, _, err = run(capsys, *argv, "--budget", "0", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "budget" in err and "resource error" in err


def test_packing_limit_exits_3_and_order_16_budget_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "davenport", "C32", "--cache-dir", str(tmp_path))
    assert code == 3
    assert "31" in err and "resource error" not in err
    # multisets of length 1..7 over the 15 non-identity elements of D16
    code, _, err = run(capsys, "davenport", "D16", "--cache-dir", str(tmp_path),
                       "--budget", "100000")
    assert code == 2
    assert "attempted 170543 states" in err
    # C16 has atoms at every admitted length 2..12, since D(C16) = 16
    code, out, err = run(capsys, "davenport", "C16", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert "at length 13 (attempted 37442159 states)" in err


def test_group_from_table_file(capsys, tmp_path):
    lines = ["3", "0 1 2", "1 2 0", "2 0 1", "name 1 a", "name 2 b"]
    path = tmp_path / "c3.tbl"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, payload, _ = run_json(capsys, "group-info", str(path))
    assert code == 0
    assert payload["order"] == 3
    assert payload["abelian"] is True
    code, out, _ = run(capsys, "pi", str(path), "a,b")
    assert code == 0
    assert "yes" in out


def test_cache_file_reused_and_survives_corruption(capsys, tmp_path):
    args = ("davenport", "C6", "--cache-dir", str(tmp_path))
    assert run(capsys, *args)[0] == 0
    cached = list(tmp_path.glob("*.atoms"))
    assert len(cached) == 1
    first = cached[0].read_text(encoding="ascii")
    assert first.startswith("prodone-atoms 1")
    # reuse leaves the file untouched and still answers correctly
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.strip() == "6"
    assert cached[0].read_text(encoding="ascii") == first
    # a corrupted cache is ignored and rewritten
    cached[0].write_text("prodone-atoms 1\ngarbage\n", encoding="ascii")
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.strip() == "6"
    assert cached[0].read_text(encoding="ascii") == first


CORRUPT_CATALOGS = {
    "atom record without fields": lambda text: text.replace("atom 2 ", "atom\natom 2 ", 1),
    "non-integer exponent": lambda text: text.replace("atom 1 1 ", "atom 1 one ", 1),
    "non-integer header field": lambda text: text.replace("max_length 6", "max_length six"),
    "exhaustive flag out of range": lambda text: text.replace("exhaustive 1", "exhaustive 7"),
    "negative multiplicity": lambda text: text.replace("atom 1 1 0 ", "atom 1 2 -1 ", 1),
    "non-ASCII byte": lambda text: text.replace("atom 2 ", "atom 2 é", 1),
    "deleted atom line": lambda text: re.sub(r"^atom 6 .*\n", "", text, count=1, flags=re.M),
    "duplicated atom line": lambda text: re.sub(r"^(atom 6 .*\n)", r"\1\1", text, count=1,
                                                flags=re.M),
    "swapped atom lines": lambda text: re.sub(r"^(atom 6 .*\n)(atom 6 .*\n)", r"\2\1", text,
                                              count=1, flags=re.M),
    "edited max_length": lambda text: text.replace("max_length 6", "max_length 7"),
    "flipped exhaustive flag": lambda text: text.replace("exhaustive 1", "exhaustive 0"),
    "duplicated field line": lambda text: re.sub(r"^(order .*\n)", r"\1\1", text, count=1,
                                                 flags=re.M),
    "unknown field line": lambda text: text.replace("exhaustive 1\n",
                                                    "exhaustive 1\nsource cli\n"),
}


@pytest.mark.parametrize("corrupt", list(CORRUPT_CATALOGS.values()),
                         ids=list(CORRUPT_CATALOGS))
def test_corrupt_cache_file_is_ignored_and_rewritten(capsys, tmp_path, corrupt):
    args = ("atoms", "S3", "--cache-dir", str(tmp_path))
    code, cold, _ = run(capsys, *args)
    assert code == 0
    [path] = tmp_path.glob("*.atoms")
    text = path.read_text(encoding="ascii")
    broken = corrupt(text)
    assert broken != text
    path.write_bytes(broken.encode("utf-8"))
    with pytest.raises(ParseError):
        AtomCatalog.load(path, symmetric(3))
    assert run(capsys, *args)[:2] == (0, cold)
    assert path.read_text(encoding="ascii") == text
    AtomCatalog.load(path, symmetric(3))


def _with_digest(text: str, edit) -> str:
    """``edit`` applied to the lines of a saved catalog, with the digest of the
    edited lines recomputed, so the file passes the digest check."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("digest ")]
    lines = edit(lines)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("atom "))
    return "\n".join(lines[:at] + [f"digest {_lines_digest(lines)}"] + lines[at:]) + "\n"


def _replace_line(old, new):
    return lambda lines: [new if ln == old else ln for ln in lines]


def _both(first, second):
    return lambda lines: second(first(lines))


# each one is caught by a check after the digest, with this error and message
DIGESTED_CORRUPTIONS = {
    "missing field": (lambda lines: [ln for ln in lines if ln != "order 6"],
                      ParseError, "catalog missing field 'order'"),
    "non-integer field": (_replace_line("max_length 6", "max_length six"),
                          ParseError, "non-integer field in catalog {path}"),
    "order mismatch": (_replace_line("order 6", "order 7"),
                       CatalogError, "catalog order 7 != group order 6"),
    "exhaustive 2": (_replace_line("exhaustive 1", "exhaustive 2"),
                     ParseError, "catalog exhaustive flag 2 is not 0 or 1"),
    "wrong record width": (_replace_line("atom 1 1 0 0 0 0 0", "atom 1 1 0 0 0 0"),
                           ParseError,
                           "atom record has 6 fields, expected a length and 6 exponents"),
    "negative multiplicity": (_replace_line("atom 1 1 0 0 0 0 0", "atom 1 2 -1 0 0 0 0"),
                              ParseError,
                              "atom record has a negative multiplicity: [2, -1, 0, 0, 0, 0]"),
    "length not matching its vector": (_replace_line("atom 1 1 0 0 0 0 0", "atom 2 1 0 0 0 0 0"),
                                       ParseError,
                                       "atom record length 2 does not match its vector"),
    # with two faults, the check that comes first names the error
    "non-integer after a bad record": (_both(_replace_line("atom 1 1 0 0 0 0 0", "atom 1 1 0 0 0 0"),
                                             _replace_line("atom 2 0 0 0 0 0 2", "atom 2 0 0 0 0 0 x")),
                                       ParseError, "non-integer field in catalog {path}"),
    "order mismatch before a bad record": (_both(_replace_line("atom 1 1 0 0 0 0 0",
                                                               "atom 1 2 -1 0 0 0 0"),
                                                 _replace_line("order 6", "order 7")),
                                           CatalogError, "catalog order 7 != group order 6"),
    "first of two bad records": (_both(_replace_line("atom 1 1 0 0 0 0 0", "atom 1 1 0 0 0 0"),
                                       _replace_line("atom 2 0 0 0 0 0 2", "atom 2 0 0 0 0 -1 3")),
                                 ParseError,
                                 "atom record has 6 fields, expected a length and 6 exponents"),
}


@pytest.mark.parametrize("edit, error, message", list(DIGESTED_CORRUPTIONS.values()),
                         ids=list(DIGESTED_CORRUPTIONS))
def test_catalog_checks_behind_the_digest(capsys, tmp_path, edit, error, message):
    args = ("atoms", "S3", "--cache-dir", str(tmp_path))
    code, cold, _ = run(capsys, *args)
    assert code == 0
    [path] = tmp_path.glob("*.atoms")
    text = path.read_text(encoding="ascii")
    broken = _with_digest(text, edit)
    assert broken != text
    assert _with_digest(text, lambda lines: lines) == text
    path.write_text(broken, encoding="ascii")
    with pytest.raises(error) as err:
        AtomCatalog.load(path, symmetric(3))
    assert str(err.value) == message.format(path=path)
    assert run(capsys, *args)[:2] == (0, cold)
    assert path.read_text(encoding="ascii") == text


def test_edited_header_is_recomputed_not_trusted(capsys, tmp_path):
    cache, fresh = tmp_path / "cache", tmp_path / "fresh"
    assert run(capsys, "atoms", "S3", "--max", "4", "--cache-dir", str(cache))[0] == 0
    [path] = cache.glob("*.atoms")
    path.write_text(path.read_text(encoding="ascii").replace("max_length 4", "max_length 6"),
                    encoding="ascii")
    code, payload, _ = run_json(capsys, "atoms", "S3", "--max", "6", "--cache-dir", str(cache))
    assert code == 0
    assert run_json(capsys, "atoms", "S3", "--max", "6", "--cache-dir", str(fresh))[1] == payload
    assert sum(count for _, count in payload["counts"]) == 58


def test_unreadable_cache_path_is_treated_as_absent(capsys, tmp_path):
    args = ("atoms", "S3", "--cache-dir", str(tmp_path))
    cold = run(capsys, *args)[1]
    [path] = tmp_path.glob("*.atoms")
    path.unlink()
    path.mkdir()  # open() fails with an OSError, and so does the rewrite
    code, out, err = run(capsys, *args)
    assert (code, out) == (0, cold)
    assert "could not write catalog cache" in err


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PRODONE_CACHE_DIR", str(tmp_path))
    assert run(capsys, "davenport", "C3")[0] == 0
    assert len(list(tmp_path.glob("*.atoms"))) == 1


def test_structured_round_trip_across_commands(capsys, tmp_path):
    for argv in [("group-info", "Q8"),
                 ("witness", "S3", "r,r,r"),
                 ("atoms", "S3", "--max", "4", "--cache-dir", str(tmp_path)),
                 ("lengths", "S3", "r^3,s^2", "--cache-dir", str(tmp_path)),
                 ("compare", "C2", "C2", "--cache-dir", str(tmp_path))]:
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        assert payload["command"] == argv[0]
