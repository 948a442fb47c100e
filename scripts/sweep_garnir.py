#!/usr/bin/env python3
"""Check every two-row relation against the brute-force model.

Enumerates all valid relation data up to a degree and value cap, runs
specht_check on each, and reports progress and any counterexamples.  With
--reference each relation is also compared, term by term, with the
per-split reference construction kept in tests/garnir_reference.py, and
each verdict with the reference Specht test on LaurentPoly tabloid
coordinates kept in tests/hecke_reference.py.

    PYTHONPATH=src python3 scripts/sweep_garnir.py --degree 8 --values 4 --reference
"""

import argparse
import functools
import multiprocessing
import sys
import time
from pathlib import Path

from heckehom import GarnirDatum, Multiset, garnir_relation, iter_valid_data, specht_check
from heckehom.hecke_oracle import _pool_size

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.garnir_reference import reference_relation  # noqa: E402
from tests.hecke_reference import specht_check_tabloid  # noqa: E402


def check_one(packed: tuple, reference: bool = False) -> tuple[tuple, bool]:
    top, pool, bottom, top_len = packed
    datum = GarnirDatum(Multiset(top), Multiset(pool), Multiset(bottom), top_len)
    rel = garnir_relation(datum)
    if reference and rel.items() != reference_relation(datum).items():
        return packed, False
    verdict = specht_check(rel)
    if reference and verdict != specht_check_tabloid(rel):
        return packed, False
    return packed, verdict


def pack(datum: GarnirDatum) -> tuple:
    return (datum.fixed_top.elements(), datum.pool.elements(),
            datum.fixed_bottom.elements(), datum.top_len)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=7,
                        help="largest total size to sweep (default 7)")
    parser.add_argument("--values", type=int, default=4,
                        help="largest entry value (default 4)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (at most one per relation and per CPU)")
    parser.add_argument("--reference", action="store_true",
                        help="also compare each relation with the per-split reference "
                             "and each verdict with the reference Specht test")
    args = parser.parse_args()
    check = functools.partial(check_one, reference=args.reference)

    work = [pack(d) for d in iter_valid_data(args.degree, args.values)]
    print(f"checking {len(work)} relation data "
          f"(degree <= {args.degree}, values <= {args.values}"
          f"{', against the reference relation and Specht test' if args.reference else ''})")
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
        if done % 500 == 0:
            rate = done / (time.monotonic() - started)
            print(f"  {done}/{len(work)} ({rate:.0f}/s)")

    workers = _pool_size(args.jobs, len(work))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            for result in pool.imap_unordered(check, work, chunksize=8):
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
