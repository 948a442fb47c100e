"""The command-line interface: output, exit codes, round-trips."""

import json
import subprocess
import sys

import pytest

import heckehom.straighten
from heckehom import LinComb, parse_tableau, semistandardize
from heckehom.cli import build_parser, main
from heckehom.combinat import MAX_ENTRY

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

    def test_bad_shape_exit_code(self, capsys):
        code, out, err = run(capsys, "basis", "--shape", "x",
                             "--type", "1")
        assert code == 2


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

    def test_entry_above_the_limit_in_json_is_a_parse_error(self, capsys, tmp_path):
        data = {"shape": [1, 1], "type": [1],
                "terms": [{"coeff": "1", "rows": [[MAX_ENTRY + 1], [1]]}]}
        path = tmp_path / "comb.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad tableau JSON: ") and err.count("\n") == 1

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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heckehom.cli", "straighten", "2 / 1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(-1) * 1 / 2"
