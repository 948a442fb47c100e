"""The sweep runner, scripts/sweep.py, called in this process."""

import collections
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckehom import LinComb, Partition, iter_fillings, iter_partitions, iter_valid_data
from heckehom.hecke_oracle import _prop_instances

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "sweep.py"

_spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def run(capsys, *argv):
    code = sweep.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fillings(degree, values):
    return sum(len(list(iter_fillings(Partition(parts), values)))
               for n in range(1, degree + 1) for parts in iter_partitions(n))


def props_total(degree, values):
    return sum(map(len, _prop_instances(degree, values, None, 0).values()))


SMALL = [
    (["garnir", "--degree", "5", "--values", "3"], lambda: len(list(iter_valid_data(5, 3)))),
    (["straighten", "--degree", "4", "--values", "3"], lambda: fillings(4, 3)),
    (["props", "--degree", "3", "--values", "3"], lambda: props_total(3, 3)),
]


@pytest.mark.parametrize("argv,count", SMALL)
def test_small_sweeps_pass_against_the_references(capsys, argv, count):
    n = count()
    assert n > 0
    code, out, err = run(capsys, *argv, "--reference")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith(f"checking {n} instances")
    assert lines[-1].startswith(f"done: {n}/{n} passed in ")
    assert not any(line.startswith(("FAIL", "DISAGREE")) for line in lines)


def test_props_header_counts_each_identity(capsys):
    instances = _prop_instances(3, 3, None, 0)
    code, out, err = run(capsys, "props", "--degree", "3", "--values", "3")
    assert code == 0
    for kind, items in instances.items():
        assert f"  {kind}: {len(items)}" in out.splitlines()


def failing_lines(out):
    return [line for line in out.splitlines() if line.startswith(("FAIL: ", "DISAGREE: "))]


@pytest.mark.parametrize("argv,name,replacement,prefix", [
    # a check that fails on every instance
    (["garnir", "--degree", "4", "--values", "2"], "specht_check",
     lambda comb: False, "FAIL: "),
    # an expansion returned unstraightened: every filling that is not
    # semistandard fails
    (["straighten", "--degree", "3", "--values", "2"], "semistandardize",
     LinComb.single, "FAIL: "),
    (["props", "--degree", "2", "--values", "2"], "_check_instance",
     lambda item: (item[0], "broken"), "FAIL: broken"),
    # references patched to disagree
    (["garnir", "--degree", "4", "--values", "2", "--reference"], "specht_check_tabloid",
     lambda comb: False, "FAIL: "),
    (["props", "--degree", "2", "--values", "2", "--reference"], "reference_check",
     lambda item: "differs", "DISAGREE: "),
    (["garnir", "--degree", "4", "--values", "2", "--reference"], "reference_packed_relation",
     lambda a, p, b, top_len, bits: {}, "FAIL: "),
    (["straighten", "--degree", "3", "--values", "2", "--reference"], "tuple_worklist",
     lambda comb, pair_rule, column_rule: comb.scale(2), "FAIL: "),
])
def test_broken_check_or_reference_fails(capsys, monkeypatch, argv, name,
                                         replacement, prefix):
    monkeypatch.setattr(sweep, name, replacement)
    code, out, err = run(capsys, *argv)
    assert code == 1
    bad = failing_lines(out)
    assert bad and all(line.startswith(prefix) for line in bad)
    total = int(out.splitlines()[0].split()[1])
    assert out.splitlines()[-1].startswith(
        f"done: {total - len(bad)}/{total} passed in ")


@pytest.mark.parametrize("argv,name", [
    (["garnir", "--degree", "1"], "nothing to check"),
    (["straighten", "--degree", "3", "--values", "0"], "--values"),
    (["garnir", "--jobs", "-5"], "--jobs"),
    (["props", "--degree", "0"], "--degree"),
    (["props", "--degree", "2", "--samples", "0"], "--samples"),
])
def test_sweep_that_checks_nothing_is_rejected(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err


def test_props_reference_checks_each_instance_once(capsys, monkeypatch):
    calls = collections.Counter()
    check_instance = sweep._check_instance

    def counted(item):
        calls[item] += 1
        return check_instance(item)

    monkeypatch.setattr(sweep, "_check_instance", counted)
    code, out, err = run(capsys, "props", "--degree", "3", "--values", "2", "--reference")
    assert code == 0
    instances = _prop_instances(3, 2, None, 0)
    assert sum(calls.values()) == sum(map(len, instances.values()))
    assert set(calls.values()) == {1}


def test_pool_is_bounded(capsys, monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for name in ("garnir", "straighten", "props"):
        code, out, err = run(capsys, name, "--degree", "3", "--values", "2",
                             "--jobs", "1000000")
        assert code == 0
    assert pool_sizes == [3, 3, 3]


@pytest.mark.slow
def test_full_garnir_sweep_against_the_references():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "garnir", "--degree", "7", "--values", "4",
         "--reference", "--jobs", "2"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("done: 6780/6780 passed in ")
