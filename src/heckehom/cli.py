"""Command-line front end.

Four subcommands:

  straighten   expand a tableau map into semistandard ones
  garnir       print one two-row relation
  basis        list the semistandard tableaux of a shape and type
  verify       check a stored combination, or sweep composition identities

Exit codes: 0 success, 2 parse error, 3 precondition failure (bad shape,
cap exceeded, invalid relation data, an entry above ``MAX_ENTRY``, a
``basis`` shape or type of size above ``MAX_ENTRY``), 4
verification failure, 5 an invariant of the straightening engine failed (a
bug, never bad input), 141 stdout was closed before the output was written.

JSON output is written directly, in the same bytes as
``json.dumps(..., indent=2)``.  With ``--q`` every specialised value is
written in full, however many digits it has: the interpreter's limit on
the digits of an int written in decimal does not end the command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import ParseError, StraighteningError
from .combinat import (
    Composition,
    _parse_ints,
    _rows_tableau,
    _split_rows,
    enumerate_semistandard,
    format_tableau_inline,
    parse_multiset,
)
from .garnir import GarnirDatum, LinComb, _terms_text, garnir_relation
from .straighten import (
    COLUMN_RULES,
    DEFAULT_PAIR_RULE,
    PAIR_RULES,
    semistandardize,
)
from .hecke_oracle import specht_check, verify_composition_props

if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable, Iterable

    from .combinat import Tableau


def _parse_q(text: str) -> Fraction:
    # argparse prints an ArgumentTypeError's message; any other error it
    # replaces with this function's name.  fractions is imported here, as
    # in LaurentPoly.specialize: only --q needs it.
    from fractions import Fraction

    try:
        if q := Fraction(text):
            return q
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"not a nonzero rational: {text!r}")


def _rational_text(value: Fraction) -> str:
    """str(value), also past the interpreter's limit on the digits of an int
    written in decimal (4300 by default), which str raises ValueError at:
    decimal writes an int of any size, and the limit stays as it is."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _require_check_cap(check: int | None) -> None:
    # A cap below 1 would skip every check while reporting success.
    if check is not None and check < 1:
        raise ValueError(f"--check must be at least 1, got {check}")


def _read_source(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc


def _json_list(items: Iterable[str], indent: str) -> str:
    # A list of written JSON values, one per line, as json.dumps(indent=2)
    # lays it out when its opening bracket is on a line indented by indent.
    body = (",\n  " + indent).join(items)
    return f"[\n  {indent}{body}\n{indent}]" if body else "[]"


def _rows_json(tab: Tableau, indent: str) -> str:
    # A tableau's rows as a _json_list of lists.
    return _json_list([_json_list(map(str, row), indent + "  ") for row in tab.row_lists()],
                      indent)


def _json_object(shape: Composition, type_: Composition, entries: str) -> str:
    # The object of a shape, a type and then entries already written at
    # indent 2, commas between them included, as json.dumps(indent=2)
    # lays it out.
    return (f'{{\n  "shape": {_json_list(map(str, shape.stripped), "  ")},\n'
            f'  "type": {_json_list(map(str, type_.stripped), "  ")},\n{entries}\n}}')


def _lincomb_json(comb: LinComb, terms: Iterable[tuple[Tableau, object]],
                  q: str | None = None) -> str:
    """The text json.dumps(data, indent=2) writes for LinComb.to_json's
    layout, with a "q" entry before "terms" when q is given, written in
    one pass over the (tableau, coefficient) terms.

    json.dumps skips its C encoder whenever indent is set; on the
    benchmark's two-row answers this takes under half its time."""
    quote = json.encoder.encode_basestring_ascii
    entries = [f'{{\n      "coeff": {quote(str(coeff))},\n'
               f'      "rows": {_rows_json(tab, "      ")}\n    }}' for tab, coeff in terms]
    q_line = "" if q is None else f'  "q": {quote(q)},\n'
    return _json_object(comb.shape, comb.type, f'{q_line}  "terms": {_json_list(entries, "  ")}')


def _render_lincomb(comb: LinComb, fmt: str, q: Fraction | None) -> str:
    if q is None:
        if fmt == "json":
            return _lincomb_json(comb, comb.items())
        return comb.to_text()
    pairs = [(tab, coeff.specialize(q)) for tab, coeff in comb.items()]
    pairs = [(tab, _rational_text(value)) for tab, value in pairs if value]
    if fmt == "json":
        return _lincomb_json(comb, pairs, _rational_text(q))
    return _terms_text(pairs)


def _report_check(passed: bool, label: str) -> int:
    print(f"check {label}: {'PASS' if passed else 'FAIL'}", file=sys.stderr)
    return 0 if passed else 4


def _check(cap: int | None, n: int, comb: Callable[[], LinComb], label: str) -> int:
    """The exit code of --check N on a command whose answer has degree n:
    comb() must vanish on the Specht module, checked when n <= N."""
    if cap is None:
        return 0
    if n > cap:
        print(f"check skipped: degree {n} exceeds --check {cap}", file=sys.stderr)
        return 0
    return _report_check(specht_check(comb()), label)


def _cmd_straighten(args: argparse.Namespace) -> int:
    _require_check_cap(args.check)
    text = _read_source(args.tableau) if args.tableau == "-" else args.tableau
    rows = _split_rows(text)
    if not args.strict and any(row != sorted(row) for row in rows):
        print("warning: rows were not weakly increasing; sorted them "
              "(use --strict to reject instead)", file=sys.stderr)
    tab = _rows_tableau(rows, args.strict)
    result = semistandardize(tab, pair_rule=args.pair_rule,
                             column_rule=args.column_rule)
    print(_render_lincomb(result, args.format, args.q))
    return _check(args.check, tab.n, lambda: LinComb.single(tab) - result,
                  "input minus expansion")


def _cmd_garnir(args: argparse.Namespace) -> int:
    _require_check_cap(args.check)
    datum = GarnirDatum(parse_multiset(args.fixed_top),
                        parse_multiset(args.pool),
                        parse_multiset(args.fixed_bottom),
                        args.top_len)
    rel = garnir_relation(datum)
    print(_render_lincomb(rel, args.format, args.q))
    return _check(args.check, datum.n, lambda: rel, "relation on Specht module")


def _cmd_basis(args: argparse.Namespace) -> int:
    shape, type_ = (Composition(_parse_ints(text, label, 0, f"{label} parts must be nonnegative"))
                    for text, label in ((args.shape, "shape"), (args.type, "type")))
    tabs = enumerate_semistandard(shape, type_)
    if args.format == "json":
        tableaux = _json_list([_rows_json(t, "    ") for t in tabs], "  ")
        print(_json_object(shape, type_, f'  "tableaux": {tableaux}'))
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
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
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
    p.add_argument("--pair-rule", choices=PAIR_RULES, default=DEFAULT_PAIR_RULE,
                   help="which violating row pair to fix first (default: %(default)s)")
    p.add_argument("--column-rule", choices=COLUMN_RULES, default="leftmost",
                   help="leftmost: pool the lower row up to the smallest "
                        "broken value with as few upper entries as can be, "
                        "trying the largest broken value too at the bottom "
                        "pair of rows; rightmost: pool both rows around the "
                        "largest broken value (default: %(default)s)")
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
                   help="worker processes for the --props sweep (at most "
                        "one per instance and per CPU)")
    p.set_defaults(func=_cmd_verify)
    return parser


# Built once per process: parsing leaves no state in the parser.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, before or during the flush above.
        # Pointing stdout at devnull keeps the interpreter's final flush
        # quiet; 141 is 128 + SIGPIPE, the code of a process that the
        # closed pipe killed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
