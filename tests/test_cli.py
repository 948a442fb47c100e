"""The command-line interface: output, exit codes, round-trips."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

import heckehom.straighten
from heckehom import LaurentPoly, LinComb, Tableau, parse_tableau, semistandardize
from heckehom.cli import _lincomb_json, build_parser, main
from heckehom.combinat import MAX_ENTRY

from .strategies import laurent_polys, tableaux

WORKED = "1 2 2 3 4 / 1 3 3 3"
WORKED_TEXT = [
    "(1 + q - q^3) * 1 1 2 2 3 / 3 3 3 4",
    "(-q^2 - q^3) * 1 1 2 2 4 / 3 3 3 3",
    "(1) * 1 1 2 3 3 / 2 3 3 4",
]
RELATION = ["garnir", "--pool", "1 1 2", "--fixed-bottom", "2", "--top-len", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStraighten:
    def test_worked_example_text(self, capsys):
        code, out, err = run(capsys, "straighten", WORKED)
        assert code == 0
        assert out.splitlines() == WORKED_TEXT

    def test_specialized_at_one(self, capsys):
        code, out, err = run(capsys, "straighten", WORKED, "--q", "1")
        assert code == 0
        coeffs = [line.split(")")[0].lstrip("(") for line in out.splitlines()]
        assert coeffs == ["1", "-2", "1"]

    def test_specialized_at_half(self, capsys):
        code, out, err = run(capsys, "straighten", "2 / 1", "--q", "1/2")
        assert code == 0
        assert out.splitlines() == ["(-1) * 1 / 2"]

    @pytest.mark.parametrize("q", ["1" + "0" * 1500, "1/1" + "0" * 1500, "1e1500", "1e5000"],
                             ids=["integer", "reciprocal", "exponent", "q-past-the-limit"])
    def test_value_past_the_digit_limit_is_written_in_full(self, capsys, q):
        # At q = 10**1500, q^3 has 4501 digits, more than the interpreter
        # writes in decimal by default; at 10**5000 q itself has more.  The
        # values and q come out whole, in text and in JSON, and the limit is
        # left as it was.
        from decimal import Decimal

        def exact(text):
            return Fraction(*(int(Decimal(part)) for part in text.split("/")))

        limit = sys.get_int_max_str_digits()
        expected = [(tab, coeff.specialize(Fraction(q)))
                    for tab, coeff in semistandardize(parse_tableau(WORKED)).items()]
        assert max(len(str(Decimal(value.numerator))) + len(str(Decimal(value.denominator)))
                   for _, value in expected) > 4500
        code, out, err = run(capsys, "straighten", WORKED, "--q", q)
        assert (code, err) == (0, "")
        lines = [line[1:].split(") * ") for line in out.splitlines()]
        assert [(parse_tableau(rows), exact(text)) for text, rows in lines] == expected
        code, out, err = run(capsys, "straighten", WORKED, "--q", q, "--format", "json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert exact(data["q"]) == Fraction(q)
        assert [term["coeff"] for term in data["terms"]] == [text for text, _ in lines]
        assert sys.get_int_max_str_digits() == limit

    def test_semistandard_echoes(self, capsys):
        code, out, err = run(capsys, "straighten", "1 1 / 2 2")
        assert code == 0
        assert out.strip() == "(1) * 1 1 / 2 2"

    def test_check_passes(self, capsys):
        code, out, err = run(capsys, "straighten", "2 / 1", "--check", "4")
        assert code == 0
        assert "PASS" in err

    def test_check_skipped_above_cap(self, capsys):
        code, out, err = run(capsys, "straighten", WORKED, "--check", "6")
        assert code == 0
        assert "skipped" in err

    def test_json_round_trips(self, capsys):
        code, out, err = run(capsys, "straighten", WORKED, "--format", "json")
        assert code == 0
        comb = LinComb.from_json(json.loads(out))
        assert comb == semistandardize(parse_tableau(WORKED))

    def test_auto_sort_warns(self, capsys):
        code, out, err = run(capsys, "straighten", "2 1 / 3 1")
        assert code == 0
        assert "warning" in err

    def test_strict_rejects_unsorted(self, capsys):
        code, out, err = run(capsys, "straighten", "2 1 / 3 1", "--strict")
        assert code == 2

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "straighten", "1 x / 2")
        assert code == 2
        assert "error" in err

    def test_precondition_exit_code(self, capsys):
        code, out, err = run(capsys, "straighten", "1 / 2 2")
        assert code == 3

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 / 1"))
        code, out, err = run(capsys, "straighten", "-")
        assert code == 0
        assert out.strip() == "(-1) * 1 / 2"

    def test_engine_invariant_exit_code(self, capsys, monkeypatch):
        # A rewrite that moves entries up instead of down makes children
        # lighter than their parent.
        relation = heckehom.straighten._relation_terms
        monkeypatch.setattr(heckehom.straighten, "_relation_terms", lambda *args: [
            (-change, coeff, norm) for change, coeff, norm in relation(*args)])
        code, out, err = run(capsys, "straighten", "2 / 1")
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_strategy_flags(self, capsys):
        code_a, out_a, _ = run(capsys, "straighten", WORKED,
                               "--pair-rule", "topmost",
                               "--column-rule", "leftmost")
        code_b, out_b, _ = run(capsys, "straighten", WORKED,
                               "--pair-rule", "bottommost",
                               "--column-rule", "rightmost")
        assert code_a == code_b == 0
        assert out_a == out_b


def rejected_by_argparse(capsys, *argv):
    """Exit status and stderr of a call that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


class TestArgumentRanges:
    @pytest.mark.parametrize("argv", [
        ["straighten", "1 1 / 1 1"],  # the answer is 0
        ["straighten", WORKED],
        RELATION,
    ])
    def test_q_zero_is_a_parse_error(self, capsys, argv):
        code, err = rejected_by_argparse(capsys, *argv, "--q", "0")
        assert code == 2
        assert "error: argument --q: " in err

    @pytest.mark.parametrize("text", ["x", "0", "1/0"])
    def test_bad_q_message_names_the_text(self, capsys, text):
        code, err = rejected_by_argparse(capsys, "straighten", "2 / 1", "--q", text)
        assert code == 2
        assert err.splitlines()[-1].endswith(
            f"error: argument --q: not a nonzero rational: {text!r}")
        assert "_parse_q" not in err

    @pytest.mark.parametrize("argv", [
        ["straighten", "1 1 / 1", "--check", "-1"],
        ["straighten", WORKED, "--check", "0"],
        [*RELATION, "--check", "0"],
    ])
    def test_check_below_one_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: --check ") and err.count("\n") == 1


    @pytest.mark.parametrize("argv", [
        ["straighten", "300000000 / 1"],
        ["straighten", "99999999999999999999 / 1"],
        ["garnir", "--pool", "1 300000000", "--top-len", "1"],
    ])
    def test_entry_above_the_limit_is_rejected(self, capsys, argv):
        # The type has one part per value up to the largest entry; without
        # the limit these ran out of memory.
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: multiset values must be from 1 to ")
        assert err.count("\n") == 1 and str(MAX_ENTRY) in err

    def test_largest_entry_is_accepted(self, capsys):
        code, out, err = run(capsys, "straighten", f"{MAX_ENTRY} / 1")
        assert code == 0
        assert out == f"(-1) * 1 / {MAX_ENTRY}\n"


def test_closed_stdout_exits_quietly():
    # About 180 KB of JSON, more than a pipe holds, so a write meets the
    # closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "heckehom.cli", "straighten", "20000 / 1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert len(head) == 300
    assert "Traceback" not in err and "Exception ignored" not in err, err


class TestSharedParser:
    """main parses with one parser per process; no call leaks into the next."""

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_options_do_not_carry_over(self, capsys):
        code, out, err = run(capsys, "straighten", WORKED, "--q", "2", "--format", "json")
        assert code == 0 and json.loads(out)["q"] == "2"
        code, out, err = run(capsys, "straighten", WORKED)
        assert code == 0
        assert out.splitlines() == WORKED_TEXT

    def test_props_do_not_carry_over(self, capsys, tmp_path):
        data = {"shape": [2, 1], "type": [2, 1],
                "terms": [{"coeff": "1", "rows": [[1, 1], [2]]}]}
        path = tmp_path / "comb.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--props", "2")
        assert code == 0
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4
        assert out == "" and err == "check combination on Specht module: FAIL\n"

    def test_call_after_argparse_error(self, capsys):
        code, err = rejected_by_argparse(capsys, "straighten", WORKED, "--pair-rule", "middle")
        assert code == 2 and "--pair-rule" in err
        code, out, err = run(capsys, "straighten", WORKED)
        assert code == 0
        assert out.splitlines() == WORKED_TEXT


class TestGarnir:
    def test_small_relation(self, capsys):
        code, out, err = run(capsys, "garnir", "--pool", "1 1 2",
                             "--fixed-bottom", "2", "--top-len", "2")
        assert code == 0
        assert out.splitlines() == [
            "(1 + q) * 1 1 / 2 2",
            "(1) * 1 2 / 1 2",
        ]

    def test_check_passes(self, capsys):
        code, out, err = run(capsys, "garnir", "--pool", "1 1 2",
                             "--fixed-bottom", "2", "--top-len", "2",
                             "--check", "6")
        assert code == 0
        assert "PASS" in err

    def test_invalid_datum_exit_code(self, capsys):
        code, out, err = run(capsys, "garnir", "--pool", "1 2",
                             "--top-len", "2")
        assert code == 3

    def test_json_verifies(self, capsys, tmp_path):
        code, out, err = run(capsys, "garnir", "--pool", "1 1 2",
                             "--fixed-bottom", "2", "--top-len", "2",
                             "--format", "json")
        assert code == 0
        path = tmp_path / "rel.json"
        path.write_text(out)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0
        assert "PASS" in err


class TestBasis:
    def test_pinned_listing(self, capsys):
        code, out, err = run(capsys, "basis", "--shape", "2 1",
                             "--type", "2 1")
        assert code == 0
        assert out.strip() == "1 1 / 2"

    def test_empty_listing(self, capsys):
        code, out, err = run(capsys, "basis", "--shape", "1 1",
                             "--type", "2")
        assert code == 0
        assert out.strip() == ""

    def test_json_listing(self, capsys):
        code, out, err = run(capsys, "basis", "--shape", "2 2",
                             "--type", "2 1 1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["tableaux"] == [[[1, 1], [2, 3]]]

    @pytest.mark.parametrize("shape,type_,count", [
        ("2 2", "2 1 1", 1),
        ("3 2 1", "2 2 1 1", 4),
        ("4", "1 1 1 1", 1),
        ("2 1 1", "1 1 1 1", 3),
        ("1 1", "2", 0),
        ("2 1", "2 1 0 0", 1),
        ("0", "0", 1),
    ])
    def test_json_is_the_json_module_layout(self, capsys, shape, type_, count):
        code, out, err = run(capsys, "basis", "--shape", shape, "--type", type_,
                             "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["tableaux"]) == count
        assert out == json.dumps(data, indent=2) + "\n"
        assert data["type"] == [int(v) for v in type_.split()][:len(data["type"])]

    def test_bad_shape_exit_code(self, capsys):
        code, out, err = run(capsys, "basis", "--shape", "x",
                             "--type", "1")
        assert code == 2

    @pytest.mark.parametrize("shape,type_,what", [
        (str(MAX_ENTRY + 1), str(MAX_ENTRY + 1), "shape"),
        ("2", f"1 {MAX_ENTRY}", "type"),
    ])
    def test_size_above_the_limit_exits_3(self, capsys, shape, type_, what):
        # Enumerated, the first would hold and write a tableau of more
        # than a million entries.
        code, out, err = run(capsys, "basis", "--shape", shape, "--type", type_)
        assert code == 3
        assert out == ""
        assert err == f"error: {what} size {MAX_ENTRY + 1} is above the limit {MAX_ENTRY}\n"


class TestVerify:
    def test_nonvanishing_combination_fails(self, capsys, tmp_path):
        data = {"shape": [2, 1], "type": [2, 1],
                "terms": [{"coeff": "1", "rows": [[1, 1], [2]]}]}
        path = tmp_path / "comb.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4
        assert "FAIL" in err

    @pytest.mark.parametrize("field,value", [
        ("rows", [[1.5, 1], [2]]),
        ("shape", [2.9, 1]),
        ("type", [2, 1.2]),
        ("rows", [[True, 1], [2]]),
    ])
    def test_non_integer_json_is_rejected(self, capsys, tmp_path, field, value):
        # Read with int(), these would be a valid combination that fails.
        data = {"shape": [2, 1], "type": [2, 1],
                "terms": [{"coeff": "1", "rows": [[1, 1], [2]]}]}
        if field == "rows":
            data["terms"][0]["rows"] = value
        else:
            data[field] = value
        path = tmp_path / "comb.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a list of integers" in err

    def test_specialised_combination_is_a_parse_error(self, capsys, tmp_path):
        code, out, err = run(capsys, *RELATION, "--q", "2", "--format", "json")
        assert code == 0
        path = tmp_path / "rel.json"
        path.write_text(out)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'q'" in err

    def test_exponent_span_above_the_limit_exits_3(self, capsys, tmp_path):
        # Packed whole, this coefficient would exhaust memory.
        data = {"shape": [2, 1], "type": [2, 1],
                "terms": [{"coeff": "q^100000000", "rows": [[1, 1], [2]]},
                          {"coeff": "1", "rows": [[1, 2], [1]]}]}
        path = tmp_path / "comb.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "span 100000000" in err

    def test_mismatched_sizes_are_a_parse_error(self, capsys, tmp_path):
        # With no terms, no term's type disagrees with the declared one.
        path = tmp_path / "comb.json"
        path.write_text(json.dumps({"shape": [2, 1], "type": [5], "terms": []}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: bad linear combination: shape size 3 != type size 5\n"

    def test_duplicate_terms_that_cancel_pass(self, capsys, tmp_path):
        data = {"shape": [2, 1], "type": [2, 1],
                "terms": [{"coeff": "q", "rows": [[1, 2], [1]]},
                          {"coeff": "-q", "rows": [[1, 2], [1]]}]}
        path = tmp_path / "comb.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0
        assert err == "check combination on Specht module: PASS\n"

    def test_entry_above_the_limit_in_json_is_a_parse_error(self, capsys, tmp_path):
        data = {"shape": [1, 1], "type": [1],
                "terms": [{"coeff": "1", "rows": [[MAX_ENTRY + 1], [1]]}]}
        path = tmp_path / "comb.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad tableau JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("shape,coeff,rows", [
        ("[1]", '"DIGITS"', "[[1]]"),
        ("[1]", '"q^DIGITS"', "[[1]]"),
        ("[DIGITS]", '"1"', "[[1]]"),
        ("[1]", '"1"', "[[DIGITS]]"),
    ])
    def test_integer_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path,
                                                           shape, coeff, rows):
        # Python refuses to read an integer of more than 4300 digits from
        # text, both in a coefficient and in the JSON reader.
        text = ('{"shape": SHAPE, "type": [1], "terms": [{"coeff": COEFF, "rows": ROWS}]}'
                .replace("SHAPE", shape).replace("COEFF", coeff).replace("ROWS", rows)
                .replace("DIGITS", "1" * 5000))
        path = tmp_path / "comb.json"
        path.write_text(text)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad ") and err.count("\n") == 1

    def test_bad_json_exit_code(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
        code, out, err = run(capsys, "verify", "-")
        assert code == 2

    def test_missing_file_exit_code(self, capsys):
        code, out, err = run(capsys, "verify", "/no/such/file.json")
        assert code == 2

    def test_needs_source_or_props(self, capsys):
        code, out, err = run(capsys, "verify")
        assert code == 2

    def test_props_sweep(self, capsys):
        code, out, err = run(capsys, "verify", "--props", "3",
                             "--values", "2")
        assert code == 0
        assert "row_merge" in out
        assert "ok" in out

    def test_props_sampled_with_jobs(self, capsys):
        code, out, err = run(capsys, "verify", "--props", "4",
                             "--samples", "10", "--seed", "5", "--jobs", "2")
        assert code == 0

    @pytest.mark.parametrize("argv,name", [
        (["--props", "-1"], "n_cap"),
        (["--props", "2", "--values", "0"], "value_cap"),
        (["--props", "2", "--samples", "-3"], "samples"),
        (["--props", "2", "--jobs", "0"], "jobs"),
    ])
    def test_props_sweep_that_checks_nothing_is_rejected(self, capsys, argv, name):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    def test_props_degree_one(self, capsys):
        code, out, err = run(capsys, "verify", "--props", "1")
        assert code == 0
        counts = [int(line.split(": ")[1].split()[0]) for line in out.splitlines()]
        assert sum(counts) == 40


THREE_ROWS = "2 4 5 5 / 3 3 4"

# sha256 of stdout, taken from the json.dumps(indent=2) writer that
# _lincomb_json replaced.
PINNED_STDOUT = [
    (["straighten", WORKED],
     "27ed88ddcb716957be070951ea76878a44460de170545c8bec349fd2dccd34c0"),
    (["straighten", WORKED, "--column-rule", "rightmost"],
     "27ed88ddcb716957be070951ea76878a44460de170545c8bec349fd2dccd34c0"),
    (["straighten", WORKED, "--format", "json"],
     "6bfa73893ab8b88a00cada98f8f80fc6c8d29d3ffecd8af96fef583058311343"),
    (["straighten", WORKED, "--format", "json", "--column-rule", "rightmost"],
     "6bfa73893ab8b88a00cada98f8f80fc6c8d29d3ffecd8af96fef583058311343"),
    (["straighten", THREE_ROWS, "--format", "json"],
     "3dd4499b63456b53dcd600b7c53b11d8ab7f75dab771c496e803c9cc2d836062"),
    (["straighten", THREE_ROWS, "--format", "json", "--column-rule", "rightmost"],
     "3dd4499b63456b53dcd600b7c53b11d8ab7f75dab771c496e803c9cc2d836062"),
    (["straighten", WORKED, "--q", "2"],
     "038c829ed4590c857e17b87f4ce29f2bf69eaeb4e309a14e9fe3dafc32ec6585"),
    (["straighten", WORKED, "--q", "2", "--format", "json"],
     "a4c4c9bb33ab2e5c134f344ab100606f330d23c725ee5f6f8303ffb5f9d7a58c"),
    (["straighten", WORKED, "--q", "1/2"],
     "60eb656164d40546591fa433ff92150ad68f9c3c6249592e2b329a4d004df3d4"),
    (["straighten", WORKED, "--q", "1/2", "--format", "json"],
     "f27c660dd6ce52960095fcda2fe8f5b0df0ebd89d6ea1d7b138e3337cb9559fc"),
    (["straighten", "2 2 / 1 1", "--q", "-1", "--format", "json"],
     "33afda665a4fe1c41975130e47a2ef77f1a63b04c1bd1b939e63bafb7c9756d0"),
    # (-1 - q) * 1 1 / 2 2: every term vanishes at q = -1.
    (["straighten", "1 2 / 1 2", "--q", "-1"],
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (["straighten", "1 2 / 1 2", "--q", "-1", "--format", "json"],
     "d81a1767ded35e4b34934e4db1b70852fdac1c8025b9f19d21cf8eee5d0810a7"),
    ([*RELATION, "--format", "json"],
     "f70a03d59558f76c869f924581a70be7bc03f98bdbdae0f35d67a64bd6037e8d"),
    ([*RELATION, "--q", "2", "--format", "json"],
     "0c6a54ea2b2beee5d0357cc94514b9742cbedb0b5e3628b5537192acd9b08927"),
    ([*RELATION, "--q", "1/2", "--format", "json"],
     "87e99df96b01c4d193a74018e294eefc2cc2450b48450446a55e80e16e6fe126"),
    (["basis", "--shape", "2 2", "--type", "2 1 1", "--format", "json"],
     "4322eac0cabfcfb59d2c36aa2373beb4e1193f38548446fbf1df54e4d7f3f003"),
    (["basis", "--shape", "2 2", "--type", "4", "--format", "json"],
     "74ae5c3a4d15498d0afd087ca3b537d577b92271a32746641a91c6bf259ab608"),
    (["basis", "--shape", "", "--type", "", "--format", "json"],
     "d926c2a1d4bcffa29f8b3b6a480469d266ac45a99a8bb8c28e80850293d077f9"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT)
def test_pinned_stdout(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if "json" in argv:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


@st.composite
def lincombs(draw) -> LinComb:
    """Combinations of up to four tableaux that refill one drawn tableau of
    any composition shape."""
    tab = draw(tableaux(partition_shape=False))
    entries = [v for row in tab.row_lists() for v in row]
    ends = list(accumulate(tab.shape.parts))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        perm = draw(st.permutations(entries))
        rows = [perm[end - part:end] for end, part in zip(ends, tab.shape.parts)]
        terms[Tableau(tab.shape, rows)] = draw(laurent_polys())
    return LinComb(tab.shape, tab.type(), terms)


class TestJsonWriter:
    """_lincomb_json writes what json.dumps(indent=2) writes for the data."""

    @staticmethod
    def dumped(comb, terms, q=None):
        data = {"shape": list(comb.shape.stripped),
                "type": list(comb.type.stripped)}
        if q is not None:
            data["q"] = q
        data["terms"] = [{"coeff": str(coeff),
                          "rows": [list(row) for row in tab.row_lists()]}
                         for tab, coeff in terms]
        return json.dumps(data, indent=2)

    def check(self, comb, terms, q=None):
        assert _lincomb_json(comb, terms, q) == self.dumped(comb, terms, q)
        if q is None and terms == comb.items():
            assert _lincomb_json(comb, terms) == json.dumps(comb.to_json(), indent=2)

    @given(lincombs(), st.none() | st.fractions().filter(bool).map(str) | st.text())
    def test_random_combinations(self, comb, q):
        self.check(comb, comb.items(), q)

    @pytest.mark.parametrize("q", [None, "2"])
    def test_zero_combination(self, q):
        comb = LinComb.zero((2, 2), (2, 2))
        assert '"terms": []' in _lincomb_json(comb, [], q)
        self.check(comb, comb.items(), q)

    @pytest.mark.parametrize("text", ["1 1 2", "1 1 / 2 3 / 3 / 4"])
    def test_one_and_four_rows(self, text):
        comb = LinComb.single(parse_tableau(text)).scale(
            LaurentPoly.parse("-q^-1 + 2q^3"))
        self.check(comb, comb.items())
        self.check(comb, comb.items(), "-1/2")

    def test_type_with_internal_zeros(self):
        comb = LinComb.single(parse_tableau("1 3 / 3"))
        assert list(comb.type.stripped) == [1, 0, 2]
        self.check(comb, comb.items())

    def test_empty_rows(self):
        for tab in (Tableau((2, 0, 1), [[1, 1], [], [3]]), Tableau((), [])):
            comb = LinComb.single(tab)
            self.check(comb, comb.items())

    def test_specialised_coefficients(self):
        tab = parse_tableau("1 1 / 2")
        terms = [(tab, Fraction(-1, 2))]
        self.check(LinComb.single(tab), terms, "1/2")
        assert '"coeff": "-1/2"' in _lincomb_json(LinComb.single(tab), terms, "1/2")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heckehom.cli", "straighten", "2 / 1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(-1) * 1 / 2"
