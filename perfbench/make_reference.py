#!/usr/bin/env python3
"""Write reference.json: the known answers the benchmark checks against.

    python3 perfbench/make_reference.py

It records, for the base batch of each straightening workload, the SHA-256
digest of every answer's canonical JSON, and for the oracle workload the
stored combinations with their expected exit codes.  The answers must stay
bit-for-bit the same, so regenerate this file only to add workload items,
never to accept a changed answer.

The oracle batch, drawn from ``random.Random(3)`` with entries in 1..4:

* the relation with pool 1 1 2 2 3 4, fixed bottom 3 3 and top length 4
  (degree 8), which must pass;
* degree-7 relations, and degree-7 tableaux minus their expansions, which
  must pass;
* a copy of some of them with one semistandard term dropped, which must
  fail with exit code 4: what remains is minus that term, and a
  semistandard tableau's map is a basis element, so it is nonzero;
* a few degree-8 relations and expansions, so that most items sit at
  degree 7 and the median stays in that cluster.

Every expected verdict follows from the construction; the script also
checks it with the brute-force model before writing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from heckehom import (  # noqa: E402
    GarnirDatum,
    LinComb,
    Multiset,
    Partition,
    Tableau,
    garnir_relation,
    is_semistandard,
    semistandardize,
    specht_check,
)
from heckehom import cli  # noqa: E402

import workloads  # noqa: E402

ORACLE_SEED = 3
ORACLE_MAX_VALUE = 4
DEGREE7_RELATIONS = 14
DEGREE7_EXPANSIONS = 10
DEGREE8_RELATIONS = 1
DEGREE8_EXPANSIONS = 1
BROKEN_EVERY = 2  # every second degree-7 item also gets a broken copy


def straighten_digest(rows: list[list[int]]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["straighten", workloads.rows_text(rows), "--format", "json"])
    if code != 0:
        raise SystemExit(f"straighten exited {code} on {rows}")
    return workloads.digest(json.loads(out.getvalue()))


def random_datum(rng: random.Random, n: int) -> GarnirDatum:
    while True:
        top_len = rng.randint((n + 1) // 2, n - 1)
        fixed_top = rng.randint(0, top_len - 1)
        pool = rng.randint(top_len + 1, n)
        if fixed_top + pool > n:
            continue
        sizes = (fixed_top, pool, n - fixed_top - pool)
        parts = [Multiset([rng.randint(1, ORACLE_MAX_VALUE) for _ in range(k)])
                 for k in sizes]
        return GarnirDatum(parts[0], parts[1], parts[2], top_len)


def random_expansion(rng: random.Random, n: int) -> LinComb:
    shapes = [p for p in _partitions(n) if len(p) >= 2]
    while True:
        shape = rng.choice(shapes)
        rows = [[rng.randint(1, ORACLE_MAX_VALUE) for _ in range(k)] for k in shape]
        tab = Tableau(Partition(shape), rows)
        if is_semistandard(tab):
            continue
        comb = LinComb.single(tab) - semistandardize(tab)
        if len(comb) >= 2:
            return comb


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, first)]


def broken(comb: LinComb) -> LinComb | None:
    """The combination without its first semistandard term, if it has one."""
    for tab, coeff in comb.items():
        if is_semistandard(tab):
            return comb - LinComb.single(tab, coeff)
    return None


def oracle_cases() -> list[dict]:
    rng = random.Random(ORACLE_SEED)
    fixed = GarnirDatum(Multiset(), Multiset([1, 1, 2, 2, 3, 4]), Multiset([3, 3]), 4)
    degree7 = ([("relation", garnir_relation(random_datum(rng, 7)))
                for _ in range(DEGREE7_RELATIONS)]
               + [("expansion", random_expansion(rng, 7))
                  for _ in range(DEGREE7_EXPANSIONS)])
    degree8 = ([("relation", garnir_relation(fixed))]
               + [("relation", garnir_relation(random_datum(rng, 8)))
                  for _ in range(DEGREE8_RELATIONS)]
               + [("expansion", random_expansion(rng, 8))
                  for _ in range(DEGREE8_EXPANSIONS)])
    cases = []
    spacing = len(degree7) // len(degree8)
    for index, (kind, comb) in enumerate(degree7):
        if index % spacing == 0 and degree8:
            kind8, comb8 = degree8.pop(0)
            cases.append({"kind": kind8, "degree": 8, "expect_exit": 0,
                          "comb": comb8.to_json()})
        cases.append({"kind": kind, "degree": 7, "expect_exit": 0,
                      "comb": comb.to_json()})
        if index % BROKEN_EVERY == 0:
            cut = broken(comb)
            if cut is not None:
                cases.append({"kind": f"{kind} minus a semistandard term",
                              "degree": 7, "expect_exit": 4,
                              "comb": cut.to_json()})
    for case in cases:
        if specht_check(LinComb.from_json(case["comb"])) != (case["expect_exit"] == 0):
            raise SystemExit(f"brute-force model disagrees on {case}")
    return cases


def main() -> int:
    reference = {
        "two_row": [straighten_digest(rows) for rows in workloads.two_row_base()],
        "w18": [workloads.digest(semistandardize(
                    Tableau(Partition([len(r) for r in rows]), rows)).to_json())
                for rows in workloads.w18_base()],
        "oracle_max_value": ORACLE_MAX_VALUE,
        "oracle": oracle_cases(),
    }
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
