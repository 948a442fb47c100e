#!/usr/bin/env python3
"""Exhaustive sweeps of the engine against the brute-force model.

    PYTHONPATH=src python3 scripts/sweep.py garnir --degree 8 --values 4 --reference
    PYTHONPATH=src python3 scripts/sweep.py straighten --degree 7 --values 4 --reference
    PYTHONPATH=src python3 scripts/sweep.py props --degree 5 --values 3 --reference

garnir       every valid two-row relation datum up to the degree and value
             cap; each relation must vanish on the Specht module.  With
             --reference each relation is also compared, term by term,
             with the per-split construction in tests/garnir_reference.py,
             and its packed terms at 64 bits, key order included, with the
             packed recursion there.
straighten   every filling of every partition shape up to the caps; its
             semistandard expansion must be semistandard and equal the
             input on the Specht module.  With --reference each expansion
             is also compared with the two traversals in
             tests/straighten_reference.py: the memo of expansions run
             with the topmost pair and leftmost column, which is also a
             check across strategies, and, on the default rules, the
             worklist with LaurentPoly coefficients and the worklist on
             row tuples, whose items() order must match too.
props        the four composition identities on the packed tabloid kernel,
             every instance up to the caps or, with --samples, a seeded
             sample per identity.  With --reference every instance is also
             checked in the standard basis of the whole algebra
             (reference_check), and a verdict that differs is a DISAGREE.

With --reference, garnir and straighten also compare every specht_check
verdict with the Specht test on LaurentPoly tabloid coordinates in
tests/hecke_reference.py.  Each failing instance prints one FAIL: or
DISAGREE: line; the last line reads "done: X/Y passed in T s".  Exit code 0
when every instance passes, 1 when one fails, 2 when an argument is out of
range or there is nothing to check.  --jobs starts at most one worker per
instance and per CPU.
"""

import argparse
import functools
import sys
import time
from pathlib import Path

from heckehom import (
    Composition,
    GarnirDatum,
    LinComb,
    Multiset,
    Partition,
    Tableau,
    garnir_relation,
    is_semistandard,
    iter_fillings,
    iter_partitions,
    iter_valid_data,
    semistandardize,
    specht_check,
)
from heckehom.garnir import _count_vector, _relation_from_counts
from heckehom.hecke_oracle import (
    _check_instance,
    _map_unordered,
    _prop_instances,
    _require_within_cap,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.garnir_reference import reference_packed_relation, reference_relation  # noqa: E402
from tests.hecke_reference import reference_check, specht_check_tabloid  # noqa: E402
from tests.straighten_reference import (  # noqa: E402
    laurent_worklist,
    memo_of_expansions,
    tuple_worklist,
)

# Each sweep is a function from the parsed arguments to its instances, per
# group (a label the header counts), and a check that takes one instance
# and --reference and returns None, or the line that reports its failure.


def garnir_instances(args: argparse.Namespace) -> dict[str, list]:
    return {"relation data": [
        (d.fixed_top.elements(), d.pool.elements(), d.fixed_bottom.elements(), d.top_len)
        for d in iter_valid_data(args.degree, args.values)]}


def packed_terms_agree(top: tuple, pool: tuple, bottom: tuple, top_len: int) -> bool:
    """Whether the level-wise builder and the packed recursion give equal
    terms in equal order at 64 bits."""
    largest = max(top + pool + bottom)
    counts = [_count_vector(part, largest) for part in (top, pool, bottom)]
    return (list(_relation_from_counts(*counts, top_len, 64).items())
            == list(reference_packed_relation(*counts, top_len, 64).items()))


def check_garnir(packed: tuple, reference: bool) -> str | None:
    top, pool, bottom, top_len = packed
    datum = GarnirDatum(Multiset(top), Multiset(pool), Multiset(bottom), top_len)
    rel = garnir_relation(datum)
    if reference and (rel.items() != reference_relation(datum).items()
                      or not packed_terms_agree(*packed)):
        return f"FAIL: {packed}"
    verdict = specht_check(rel)
    if not verdict or (reference and verdict != specht_check_tabloid(rel)):
        return f"FAIL: {packed}"
    return None


def straighten_instances(args: argparse.Namespace) -> dict[str, list]:
    return {"fillings": [
        (tab.shape.stripped, tab.row_lists())
        for n in range(1, args.degree + 1)
        for parts in iter_partitions(n)
        for tab in iter_fillings(Partition(parts), args.values)]}


def check_straighten(packed: tuple, reference: bool) -> str | None:
    shape, rows = packed
    tab = Tableau(Composition(shape), [Multiset(r) for r in rows])
    result = semistandardize(tab)
    if reference:
        single = LinComb.single(tab)
        tuples = tuple_worklist(single, "bottommost", "leftmost")
        if (result != memo_of_expansions(tab, "topmost", "leftmost", {})
                or result != laurent_worklist(single, "bottommost", "leftmost")
                or result != tuples or result.items() != tuples.items()):
            return f"FAIL: {packed}"
    diff = LinComb.single(tab) - result
    verdict = specht_check(diff)
    if (not all(is_semistandard(t) for t, _ in result.items()) or not verdict
            or (reference and verdict != specht_check_tabloid(diff))):
        return f"FAIL: {packed}"
    return None


def props_instances(args: argparse.Namespace) -> dict[str, list]:
    return _prop_instances(args.degree, args.values, args.samples, args.seed)


def check_props(item: tuple, reference: bool) -> str | None:
    _, failure = _check_instance(item)
    if reference and (failure is None) != (reference_check(item) is None):
        return f"DISAGREE: {item}"
    return None if failure is None else f"FAIL: {failure}"


SWEEPS = {
    "garnir": (garnir_instances, check_garnir, 7,
               "also compare each relation with the per-split reference and "
               "the packed recursion, and each verdict with the reference "
               "Specht test"),
    "straighten": (straighten_instances, check_straighten, 7,
                   "also compare each expansion with the reference traversals "
                   "and each verdict with the reference Specht test"),
    "props": (props_instances, check_props, 6,
              "also check every instance in the standard basis "
              "and report verdicts that differ"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sweeps = parser.add_subparsers(dest="sweep", required=True)
    for name, (instances, check, degree, reference_help) in SWEEPS.items():
        p = sweeps.add_parser(name)
        p.add_argument("--degree", type=int, default=degree,
                       help=f"largest total size to sweep (default {degree})")
        p.add_argument("--values", type=int, default=4,
                       help="largest entry value (default 4)")
        if name == "props":
            p.add_argument("--samples", type=int, default=None,
                           help="check this many seeded instances per identity "
                                "instead of all of them")
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (at most one per instance and per CPU)")
        p.add_argument("--reference", action="store_true", help=reference_help)
        p.set_defaults(instances=instances, check=check)
    return parser


def argument_error(args: argparse.Namespace) -> str | None:
    """Why the arguments ask for a sweep that cannot run, if they do."""
    for name in ("degree", "values", "samples", "jobs"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            return f"--{name} must be at least 1, got {value}"
    try:
        _require_within_cap(args.degree)
    except ValueError as exc:
        return str(exc)
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scope = f"degree <= {args.degree}, values <= {args.values}"
    error = argument_error(args)
    if error is None:
        groups = args.instances(args)
        work = [item for items in groups.values() for item in items]
        if not work:
            error = f"nothing to check at {scope}"
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2

    against = ", against the references" if args.reference else ""
    print(f"checking {len(work)} instances ({scope}{against})")
    for label, items in groups.items():
        print(f"  {label}: {len(items)}")
    check = functools.partial(args.check, reference=args.reference)
    started = time.monotonic()
    failures = 0
    every = max(1, len(work) // 10)
    for done, problem in enumerate(_map_unordered(check, work, args.jobs), 1):
        if problem is not None:
            failures += 1
            print(problem)
        if done % every == 0:
            rate = done / (time.monotonic() - started)
            print(f"  {done}/{len(work)} ({rate:.0f}/s)")
    print(f"done: {len(work) - failures}/{len(work)} passed "
          f"in {time.monotonic() - started:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
