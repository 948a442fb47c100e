"""The command-line interface: output, exit codes, round-trips."""

import json
import subprocess
import sys

import pytest

import heckehom.straighten
from heckehom import LinComb, parse_tableau, semistandardize
from heckehom.cli import main

WORKED = "1 2 2 3 4 / 1 3 3 3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStraighten:
    def test_worked_example_text(self, capsys):
        code, out, err = run(capsys, "straighten", WORKED)
        assert code == 0
        assert out.splitlines() == [
            "(1 + q - q^3) * 1 1 2 2 3 / 3 3 3 4",
            "(-q^2 - q^3) * 1 1 2 2 4 / 3 3 3 3",
            "(1) * 1 1 2 3 3 / 2 3 3 4",
        ]

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
        # A rewrite that gives the window back makes a child equal to its parent.
        monkeypatch.setattr(heckehom.straighten, "_packed_step",
                            lambda top, bottom, column_rule, bits: [((top, bottom), 0, 1, 1)])
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
