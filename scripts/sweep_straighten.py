#!/usr/bin/env python3
"""Check the full straightening loop against the brute-force model.

Enumerates every filling of every partition shape up to a degree and value
cap; for each, verifies that the input map minus its semistandard expansion
vanishes on the module and that every output tableau is semistandard.  With
--reference each expansion is also compared with the two traversals kept in
tests/straighten_reference.py: the memo of expansions, which is a
cross-strategy check too (the expansion uses the default rules, bottommost
pair and leftmost column, the reference the topmost pair and leftmost
column), and the worklist with LaurentPoly coefficients, on the default
rules.

    PYTHONPATH=src python3 scripts/sweep_straighten.py --degree 7 --values 4 --reference
"""

import argparse
import functools
import multiprocessing
import sys
import time
from pathlib import Path

from heckehom import (
    Composition,
    LinComb,
    Multiset,
    Partition,
    Tableau,
    is_semistandard,
    iter_fillings,
    iter_partitions,
    semistandardize,
    specht_check,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.straighten_reference import laurent_worklist, memo_of_expansions  # noqa: E402


def check_one(packed: tuple, reference: bool = False) -> tuple[tuple, bool]:
    shape, rows = packed
    tab = Tableau(Composition(shape), [Multiset(r) for r in rows])
    result = semistandardize(tab)
    if reference and (result != memo_of_expansions(tab, "topmost", "leftmost", {})
                      or result != laurent_worklist(LinComb.single(tab),
                                                    "bottommost", "leftmost")):
        return packed, False
    ok = all(is_semistandard(t) for t, _ in result.items())
    ok = ok and specht_check(LinComb.single(tab) - result)
    return packed, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=7,
                        help="largest total size to sweep (default 7)")
    parser.add_argument("--values", type=int, default=4,
                        help="largest entry value (default 4)")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--reference", action="store_true",
                        help="also compare each expansion with the reference traversals")
    args = parser.parse_args()
    check = functools.partial(check_one, reference=args.reference)

    work = []
    for n in range(1, args.degree + 1):
        for parts in iter_partitions(n):
            for tab in iter_fillings(Partition(parts), args.values):
                work.append((tab.shape.stripped, tab.row_lists()))
    print(f"checking {len(work)} fillings "
          f"(degree <= {args.degree}, values <= {args.values}"
          f"{', against the reference traversals' if args.reference else ''})")
    started = time.monotonic()
    failures = []
    done = 0

    def consume(result):
        nonlocal done
        packed, ok = result
        done += 1
        if not ok:
            failures.append(packed)
            print(f"FAIL: {packed}")
        if done % 2000 == 0:
            rate = done / (time.monotonic() - started)
            print(f"  {done}/{len(work)} ({rate:.0f}/s)")

    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            for result in pool.imap_unordered(check, work, chunksize=32):
                consume(result)
    else:
        for packed in work:
            consume(check(packed))

    elapsed = time.monotonic() - started
    print(f"done: {len(work) - len(failures)}/{len(work)} passed "
          f"in {elapsed:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
