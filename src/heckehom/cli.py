"""Command-line front end.

Four subcommands:

  straighten   expand a tableau map into semistandard ones
  garnir       print one two-row relation
  basis        list the semistandard tableaux of a shape and type
  verify       check a stored combination, or sweep composition identities

Exit codes: 0 success, 2 parse error, 3 precondition failure (bad shape,
cap exceeded, invalid relation data), 4 verification failure, 5 an
invariant of the straightening engine failed (a bug, never bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import ParseError, StraighteningError
from .combinat import (
    Composition,
    enumerate_semistandard,
    format_tableau_inline,
    parse_multiset,
    parse_tableau,
    rows_are_sorted,
    tableau_to_json,
)
from .garnir import GarnirDatum, LinComb, garnir_relation
from .straighten import (
    COLUMN_RULES,
    PAIR_RULES,
    semistandardize,
)
from .hecke_oracle import specht_check, verify_composition_props


def _parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational for --q: {text!r}") from exc


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc


def _render_lincomb(comb: LinComb, fmt: str, q: Fraction | None) -> str:
    if q is None:
        if fmt == "json":
            return json.dumps(comb.to_json(), indent=2)
        return comb.to_text()
    pairs = [(tab, coeff.specialize(q)) for tab, coeff in comb.items()]
    pairs = [(tab, value) for tab, value in pairs if value]
    if fmt == "json":
        data = {
            "shape": list(comb.shape.stripped),
            "type": list(comb.type.stripped),
            "q": str(q),
            "terms": [{"coeff": str(value), "rows": [list(r) for r in tab.row_lists()]}
                      for tab, value in pairs],
        }
        return json.dumps(data, indent=2)
    if not pairs:
        return "0"
    return "\n".join(f"({value}) * {format_tableau_inline(tab)}"
                     for tab, value in pairs)


def _report_check(passed: bool, label: str) -> int:
    print(f"check {label}: {'PASS' if passed else 'FAIL'}", file=sys.stderr)
    return 0 if passed else 4


def _cmd_straighten(args: argparse.Namespace) -> int:
    text = _read_source(args.tableau) if args.tableau == "-" else args.tableau
    if not args.strict and not rows_are_sorted(text):
        print("warning: rows were not weakly increasing; sorted them "
              "(use --strict to reject instead)", file=sys.stderr)
    tab = parse_tableau(text, strict=args.strict)
    result = semistandardize(tab, pair_rule=args.pair_rule,
                             column_rule=args.column_rule)
    print(_render_lincomb(result, args.format, args.q))
    if args.check is not None:
        if tab.n > args.check:
            print(f"check skipped: degree {tab.n} exceeds --check {args.check}",
                  file=sys.stderr)
            return 0
        return _report_check(specht_check(LinComb.single(tab) - result),
                             "input minus expansion")
    return 0


def _cmd_garnir(args: argparse.Namespace) -> int:
    datum = GarnirDatum(parse_multiset(args.fixed_top),
                        parse_multiset(args.pool),
                        parse_multiset(args.fixed_bottom),
                        args.top_len)
    rel = garnir_relation(datum)
    print(_render_lincomb(rel, args.format, args.q))
    if args.check is not None:
        if datum.n > args.check:
            print(f"check skipped: degree {datum.n} exceeds --check {args.check}",
                  file=sys.stderr)
            return 0
        return _report_check(specht_check(rel), "relation on Specht module")
    return 0


def _parse_composition(text: str, label: str) -> Composition:
    try:
        parts = [int(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad {label} {text!r}") from exc
    if any(p < 0 for p in parts):
        raise ParseError(f"{label} parts must be nonnegative: {text!r}")
    return Composition(parts)


def _cmd_basis(args: argparse.Namespace) -> int:
    shape = _parse_composition(args.shape, "shape")
    type_ = _parse_composition(args.type, "type")
    tabs = enumerate_semistandard(shape, type_)
    if args.format == "json":
        data = {
            "shape": list(shape.stripped),
            "type": list(type_.stripped),
            "tableaux": [tableau_to_json(t)["rows"] for t in tabs],
        }
        print(json.dumps(data, indent=2))
    else:
        print("\n\n".join(format_tableau_inline(t) for t in tabs))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.props is not None:
        if args.source is not None:
            raise ParseError("give either a combination source or --props, not both")
        report = verify_composition_props(args.props, value_cap=args.values,
                                          samples=args.samples, seed=args.seed,
                                          jobs=args.jobs)
        print("\n".join(report.lines()))
        return 0 if report.ok else 4
    if args.source is None:
        raise ParseError("verify needs a combination file ('-' for stdin) or --props")
    raw = _read_source(args.source)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    comb = LinComb.from_json(data)
    return _report_check(specht_check(comb), "combination on Specht module")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckehom",
        description="Exact straightening of tableau homomorphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "straighten",
        help="expand a tableau map into semistandard ones")
    p.add_argument("tableau",
                   help="rows separated by '/' (or '-' to read from stdin)")
    p.add_argument("--pair-rule", choices=PAIR_RULES, default="topmost",
                   help="which violating row pair to fix first")
    p.add_argument("--column-rule", choices=COLUMN_RULES, default="leftmost",
                   help="which violating column to pivot on")
    p.add_argument("--q", type=_parse_q, default=None, metavar="RATIONAL",
                   help="specialise coefficients at this nonzero rational")
    p.add_argument("--check", type=int, default=None, metavar="N",
                   help="verify against the brute-force model when degree <= N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--strict", action="store_true",
                   help="reject rows that are not weakly increasing")
    p.set_defaults(func=_cmd_straighten)

    p = sub.add_parser("garnir", help="print one two-row relation")
    p.add_argument("--fixed-top", default="", metavar="MULTISET",
                   help="entries pinned to the top row (comma or space separated)")
    p.add_argument("--pool", required=True, metavar="MULTISET",
                   help="entries shared between the rows")
    p.add_argument("--fixed-bottom", default="", metavar="MULTISET",
                   help="entries pinned to the bottom row")
    p.add_argument("--top-len", required=True, type=int, metavar="M",
                   help="length of the top row")
    p.add_argument("--q", type=_parse_q, default=None, metavar="RATIONAL")
    p.add_argument("--check", type=int, default=None, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_garnir)

    p = sub.add_parser("basis",
                       help="list the semistandard tableaux of a shape and type")
    p.add_argument("--shape", required=True, metavar="PARTS")
    p.add_argument("--type", required=True, metavar="PARTS")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser(
        "verify",
        help="check a stored combination, or sweep composition identities")
    p.add_argument("source", nargs="?", default=None,
                   help="JSON file with a linear combination ('-' for stdin)")
    p.add_argument("--props", type=int, default=None, metavar="N",
                   help="instead, check the composition identities up to degree N")
    p.add_argument("--values", type=int, default=4, metavar="V",
                   help="largest entry value in the --props sweep")
    p.add_argument("--samples", type=int, default=None, metavar="K",
                   help="check a seeded sample instead of every instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, metavar="K",
                   help="worker processes for the --props sweep")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StraighteningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
