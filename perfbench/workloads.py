"""Inputs and known answers for the three benchmark workloads.

Each workload is a fixed base batch, drawn once from a fixed generator:

* ``two_row``: 100 tableaux of shape (10, 10) with entries in 1..6, drawn
  from ``random.Random(2)``.
* ``w18``: the reference batch W18 of the ROADMAP: ``random.Random(1)``,
  six tableaux each of shapes (10, 10), (6, 5, 4) and (8, 6, 3, 2), entries
  in 1..6, rows drawn one after another.
* ``oracle``: stored combinations at degree 7 and 8 (relations, tableaux
  minus their expansions, and copies with one semistandard term dropped),
  kept in ``reference.json`` together with their expected verdicts.

The run's ``--seed`` picks a strictly increasing relabelling of the entry
values (for example 1..6 to 2, 3, 5, 6, 8, 9).  Straightening and the
brute-force check compare entries only by order, so a relabelled batch does
exactly the same work and its answers are the base answers with the labels
mapped.  Fresh draws per seed would not be comparable: W18 batches drawn
from seeds 1 to 8 took between 6.7 s and 55.7 s, a spread no regression
bound can hold.  The mapping also lets every seed be checked against the
committed digests, not only the default one.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("two_row", "w18", "oracle")

TWO_ROW_SHAPE = (10, 10)
TWO_ROW_ITEMS = 100
TWO_ROW_BASE_SEED = 2
W18_SHAPES = ((10, 10), (6, 5, 4), (8, 6, 3, 2))
W18_PER_SHAPE = 6
W18_BASE_SEED = 1
MAX_VALUE = 6
# Relabelled values are drawn from 1..MAX_VALUE + RELABEL_SPREAD.
RELABEL_SPREAD = 3


def _draw_rows(rng: random.Random, shape: tuple[int, ...]) -> list[list[int]]:
    return [sorted(rng.randint(1, MAX_VALUE) for _ in range(part)) for part in shape]


def two_row_base() -> list[list[list[int]]]:
    rng = random.Random(TWO_ROW_BASE_SEED)
    return [_draw_rows(rng, TWO_ROW_SHAPE) for _ in range(TWO_ROW_ITEMS)]


def w18_base() -> list[list[list[int]]]:
    rng = random.Random(W18_BASE_SEED)
    return [_draw_rows(rng, shape) for shape in W18_SHAPES for _ in range(W18_PER_SHAPE)]


def relabelling(seed: int, top: int) -> dict[int, int]:
    """The strictly increasing map of 1..top chosen by the run's seed.

    The largest value always goes to top + RELABEL_SPREAD: the length of a
    tableau's type is its largest entry, and the package loops over it.
    """
    rng = random.Random(seed)
    values = sorted(rng.sample(range(1, top + RELABEL_SPREAD), top - 1))
    values.append(top + RELABEL_SPREAD)
    return {v: values[v - 1] for v in range(1, top + 1)}


def relabel_rows(rows: list[list[int]], phi: dict[int, int]) -> list[list[int]]:
    return [[phi[v] for v in row] for row in rows]


def rows_text(rows: list[list[int]]) -> str:
    """The CLI form of a tableau: rows separated by ' / '."""
    return " / ".join(" ".join(map(str, row)) for row in rows)


def relabel_comb(data: dict, phi: dict[int, int]) -> dict:
    """A stored combination (LinComb JSON) with entries relabelled."""
    top = max(phi.values())
    base_type = data["type"]
    new_type = [0] * top
    for v, count in enumerate(base_type, start=1):
        new_type[phi[v] - 1] = count
    while new_type and new_type[-1] == 0:
        new_type.pop()
    return {
        "shape": list(data["shape"]),
        "type": new_type,
        "terms": [{"coeff": t["coeff"], "rows": relabel_rows(t["rows"], phi)}
                  for t in data["terms"]],
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def digest(data: dict) -> str:
    """SHA-256 of the canonical JSON text of a combination."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _content(rows: list[list[int]]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for row in rows:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    return counts


def check_expansion(rows: list[list[int]], data: object,
                    phi: dict[int, int]) -> tuple[str | None, str]:
    """Check one straightening answer for an input tableau.

    ``rows`` is the relabelled input, ``data`` the answer as LinComb JSON.
    Returns (problem or None, digest of the answer with the labels mapped
    back to the base values).  The structural checks hold for any seed:
    shape and type are those of the input, every term has the input's
    content, and every term is semistandard, in strictly ascending order.
    """
    if not isinstance(data, dict) or set(data) != {"shape", "type", "terms"}:
        return "answer is not a combination object", ""
    shape = [len(r) for r in rows]
    if data["shape"] != shape:
        return f"shape {data['shape']} != input shape {shape}", ""
    content = _content(rows)
    top = max(content)
    want_type = [content.get(v, 0) for v in range(1, top + 1)]
    if data["type"] != want_type:
        return f"type {data['type']} != input type {want_type}", ""
    previous = None
    for term in data["terms"]:
        trows = term["rows"]
        if [len(r) for r in trows] != shape:
            return f"term rows {trows} do not fill the shape", ""
        if any(list(r) != sorted(r) for r in trows):
            return f"term rows {trows} are not weakly increasing", ""
        if any(low[c] <= up[c] for up, low in zip(trows, trows[1:])
               for c in range(len(low))):
            return f"term {trows} is not semistandard", ""
        if _content(trows) != content:
            return f"term {trows} does not have the input's content", ""
        key = tuple(tuple(r) for r in trows)
        if previous is not None and key <= previous:
            return "terms are not in strictly ascending order", ""
        previous = key
        if term["coeff"] in ("", "0"):
            return f"term {trows} has a zero coefficient", ""
    inverse = {new: old for old, new in phi.items()}
    base = {
        "shape": shape,
        "type": [data["type"][phi[v] - 1] if phi[v] <= len(data["type"]) else 0
                 for v in range(1, len(phi) + 1)],
        "terms": [{"coeff": t["coeff"],
                   "rows": [[inverse[v] for v in r] for r in t["rows"]]}
                  for t in data["terms"]],
    }
    while base["type"] and base["type"][-1] == 0:
        base["type"].pop()
    return None, digest(base)
