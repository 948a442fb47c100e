#!/usr/bin/env python3
"""Sweep the composition identities on the packed tabloid kernel.

Thin driver around verify_composition_props with process-level parallelism
and optional seeded sampling for quick spot checks.  With --reference
every instance of the sweep is also checked in the standard basis of the
whole algebra (reference_check, kept in tests/hecke_reference.py), and
every instance whose verdicts differ is reported.

    PYTHONPATH=src python3 scripts/sweep_props.py --degree 5 --values 3 --reference
"""

import argparse
import multiprocessing
import sys
import time
from pathlib import Path

from heckehom import verify_composition_props
from heckehom.hecke_oracle import _check_instance, _pool_size, _prop_instances

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.hecke_reference import reference_check  # noqa: E402


def agrees(item: tuple) -> tuple[tuple, bool]:
    """Whether the packed check and the reference give the same verdict."""
    _, failure = _check_instance(item)
    return item, (failure is None) == (reference_check(item) is None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=6,
                        help="largest total size to sweep (default 6)")
    parser.add_argument("--values", type=int, default=4,
                        help="largest entry value (default 4)")
    parser.add_argument("--samples", type=int, default=None,
                        help="check this many seeded instances per identity "
                             "instead of all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (at most one per instance and per CPU)")
    parser.add_argument("--reference", action="store_true",
                        help="also check every instance in the standard basis "
                             "and report verdicts that differ")
    args = parser.parse_args()

    started = time.monotonic()
    report = verify_composition_props(args.degree, value_cap=args.values,
                                      samples=args.samples, seed=args.seed,
                                      jobs=args.jobs)
    print("\n".join(report.lines()))
    disagreements = []
    if args.reference:
        instances = _prop_instances(args.degree, args.values, args.samples, args.seed)
        work = [item for chosen in instances.values() for item in chosen]
        workers = _pool_size(args.jobs, len(work))
        if workers > 1:
            with multiprocessing.get_context("spawn").Pool(workers) as pool:
                results = list(pool.imap_unordered(agrees, work, chunksize=16))
        else:
            results = [agrees(item) for item in work]
        disagreements = [item for item, same in results if not same]
        for item in disagreements:
            print(f"DISAGREE: {item}")
        print(f"reference: {len(work)} instances compared, "
              f"{len(disagreements)} disagreements")
    print(f"elapsed {time.monotonic() - started:.1f}s")
    return 0 if report.ok and not disagreements else 1


if __name__ == "__main__":
    sys.exit(main())
