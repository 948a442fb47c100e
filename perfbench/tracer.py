"""Per-layer tracing of heckehom, installed from outside the package.

Every wrapper is patched in at the name its caller looks up: a module
attribute for module-level functions (``heckehom.straighten.
two_row_straighten_step`` is what the traversal calls), a class attribute
for methods.  Nothing in the package is edited.

Two instruments, used in separate passes so that one does not distort the
other:

* ``Spans`` times each layer boundary and keeps, per boundary, the number
  of calls and the self time: the span's duration minus the part covered
  by spans nested inside it.  Spans are aggregated in memory by name.
* ``Counts`` counts calls at the same boundaries and on the hot primitives
  (``LaurentPoly`` arithmetic, ``Tableau`` and ``Multiset`` construction,
  ``Tableau.__hash__``), and records the sets and sizes behind the ratios.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import heckehom.cli as cli
import heckehom.hecke_oracle as hecke_oracle
import heckehom.qcoeff as qcoeff
import heckehom.straighten as straighten
from heckehom.combinat import Multiset, Tableau
from heckehom.garnir import LinComb
from heckehom.hecke_oracle import HeckeElem
from heckehom.qcoeff import LaurentPoly

# (owner, attribute, layer metric prefix) for every timed layer boundary.
BOUNDARIES = (
    (cli, "main", "cli.main"),
    (cli, "semistandardize", "straighten.semistandardize"),
    (straighten, "semistandardize", "straighten.semistandardize"),
    (straighten, "embed_two_row", "straighten.embed_two_row"),
    (straighten, "two_row_straighten_step", "garnir.step"),
    (LinComb, "to_json", "garnir.lincomb.to_json"),
    (LinComb, "from_json", "garnir.lincomb.from_json"),
    (cli, "specht_check", "hecke_oracle.specht_check"),
    (hecke_oracle, "image_h3", "hecke_oracle.image_h3"),
    (HeckeElem, "mul_t", "hecke_oracle.mul_t"),
    (HeckeElem, "mul_right_gen", "hecke_oracle.mul_right_gen"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES))


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr by make(current callable)."""
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new: Any = staticmethod(make(getattr(owner, attr)))
            else:
                new = make(raw)
        else:
            raw = getattr(owner, attr)
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Spans:
    """Self time and call count per layer boundary."""

    def __init__(self) -> None:
        self.records = {name: [0, 0.0] for name in SPAN_NAMES}  # calls, self_s
        self._stack = [0.0]  # time covered by child spans, per open span
        self._patches = _Patches()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        record = self.records[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                covered = stack.pop()
                stack[-1] += duration
                record[0] += 1
                record[1] += duration - covered

        return span

    def install(self) -> None:
        for owner, attr, name in BOUNDARIES:
            self._patches.replace(owner, attr,
                                  lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    def report(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.records.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["total_self_s"] = sum(self_s for _, self_s in self.records.values())
        return out


class Counts:
    """Call counts at every boundary and on the hot primitives."""

    def __init__(self) -> None:
        self.cells: dict[str, list[int]] = {}
        self._patches = _Patches()

    def _cell(self, name: str) -> list[int]:
        return self.cells.setdefault(name, [0])

    def _counted(self, name: str, fn: Callable) -> Callable:
        cell = self._cell(name)

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        p = self._patches
        for owner, attr, name in BOUNDARIES:
            if name in ("garnir.step", "straighten.semistandardize",
                        "hecke_oracle.image_h3", "hecke_oracle.mul_right_gen"):
                continue
            p.replace(owner, attr, lambda fn, n=f"{name}.calls": self._counted(n, fn))

        semis, outputs = self._cell("straighten.semistandardize.calls"), \
            self._cell("straighten.output_terms")
        windows, distinct = set(), self._cell("garnir.step.distinct_windows")

        def semistandardize_wrap(fn):
            # Windows are told apart within one call: the scope of a memo
            # that lives for one traversal.
            def semistandardize(*args, **kwargs):
                semis[0] += 1
                windows.clear()
                result = fn(*args, **kwargs)
                distinct[0] += len(windows)
                outputs[0] += len(result)
                return result
            return semistandardize

        p.replace(cli, "semistandardize", semistandardize_wrap)
        p.replace(straighten, "semistandardize", semistandardize_wrap)

        nodes, leaves = self._cell("straighten.find_violating_window.calls"), \
            self._cell("straighten.leaves")

        def window_wrap(fn):
            def find_violating_window(*args, **kwargs):
                nodes[0] += 1
                result = fn(*args, **kwargs)
                if result is None:
                    leaves[0] += 1
                return result
            return find_violating_window

        p.replace(straighten, "find_violating_window", window_wrap)

        steps, terms_out = self._cell("garnir.step.calls"), \
            self._cell("garnir.step.terms_out")

        def step_wrap(fn):
            def two_row_straighten_step(tab, *args, **kwargs):
                steps[0] += 1
                windows.add(tab.row_lists())
                result = fn(tab, *args, **kwargs)
                terms_out[0] += len(result)
                return result
            return two_row_straighten_step

        p.replace(straighten, "two_row_straighten_step", step_wrap)

        # Tableaux are told apart over the whole pass: the scope of the
        # process-wide image cache.
        images, image_calls = set(), self._cell("hecke_oracle.image_h3.calls")
        new_images = self._cell("hecke_oracle.image_h3.distinct")

        def image_wrap(fn):
            def image_h3(tab):
                image_calls[0] += 1
                key = (tab.shape.stripped, tab.row_lists())
                if key not in images:
                    images.add(key)
                    new_images[0] += 1
                return fn(tab)
            return image_h3

        p.replace(hecke_oracle, "image_h3", image_wrap)

        gens, peak = self._cell("hecke_oracle.mul_right_gen.calls"), \
            self._cell("hecke_oracle.elem.peak_terms")

        def gen_wrap(fn):
            def mul_right_gen(self_, i):
                gens[0] += 1
                result = fn(self_, i)
                if len(result) > peak[0]:
                    peak[0] = len(result)
                return result
            return mul_right_gen

        p.replace(HeckeElem, "mul_right_gen", gen_wrap)

        for owner, attr, name in ((LinComb, "__init__", "garnir.lincomb.constructed"),
                                  (LinComb, "__add__", "garnir.lincomb.add.calls"),
                                  (LinComb, "add_term", "garnir.lincomb.add_term.calls"),
                                  (Tableau, "__init__", "combinat.tableau.constructed"),
                                  (Tableau, "__hash__", "combinat.tableau.hash.calls"),
                                  (Tableau, "type", "combinat.tableau.type.calls"),
                                  (Multiset, "__init__", "combinat.multiset.constructed"),
                                  (LaurentPoly, "__add__", "qcoeff.add.calls"),
                                  (LaurentPoly, "__radd__", "qcoeff.add.calls"),
                                  (LaurentPoly, "__mul__", "qcoeff.mul.calls"),
                                  (LaurentPoly, "__rmul__", "qcoeff.mul.calls")):
            p.replace(owner, attr, lambda fn, n=name: self._counted(n, fn))

        info = qcoeff.quantum_binomial.cache_info()
        self._binomial_before = (info.hits, info.misses)

    def uninstall(self) -> None:
        info = qcoeff.quantum_binomial.cache_info()
        hits0, misses0 = self._binomial_before
        self._cell("qcoeff.quantum_binomial.hits")[0] = info.hits - hits0
        self._cell("qcoeff.quantum_binomial.misses")[0] = info.misses - misses0
        self._patches.undo()

    def report(self) -> dict[str, float]:
        return {name: cell[0] for name, cell in self.cells.items()}
