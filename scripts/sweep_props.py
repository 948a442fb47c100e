#!/usr/bin/env python3
"""Sweep the composition identities against the brute-force model.

Thin driver around verify_composition_props with process-level parallelism
and optional seeded sampling for quick spot checks.
"""

import argparse
import sys
import time

from heckehom import verify_composition_props


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
    args = parser.parse_args()

    started = time.monotonic()
    report = verify_composition_props(args.degree, value_cap=args.values,
                                      samples=args.samples, seed=args.seed,
                                      jobs=args.jobs)
    print("\n".join(report.lines()))
    print(f"elapsed {time.monotonic() - started:.1f}s")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
