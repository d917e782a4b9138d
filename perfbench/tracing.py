"""Spans around the program's layer functions, recorded from outside it.

``install`` replaces each layer function or method by a wrapper at every place
a caller looks it up (``verma`` imports ``_normal_form`` by name, ``cli``
imports ``rational_rank`` by name, and so on).  A wrapper records one span:
the layer's name, its start and end, and the span that was open when it began.
Spans stay in memory, in flat arrays, until the pass ends and ``write_spans``
stores them.  A layer's self time is the duration of its spans minus the part
covered by their child spans.

A layer that calls itself, directly or through another name of the same
layer (``rational_rank`` calls ``rank``), counts one call per outermost span;
its post hook, which collects work counters from the result, runs only there.
"""

from __future__ import annotations

import time
from array import array
from fractions import Fraction
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = [-1]
        #: work counters filled by post hooks: name -> value
        self.counters: Dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            up = stack[-1]
            name_of.append(nid)
            parent.append(up)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None and (up < 0 or name_of[up] != nid):
                post(result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def raise_to(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def patch(self, owner, attr: str, name: str, post: Optional[Callable] = None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), post))

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: outermost calls and self time in seconds."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, up in enumerate(self.parent):
            if up >= 0:
                own[up] -= dur[i]
        totals = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        name_of = self.name_of
        for i, up in enumerate(self.parent):
            row = totals[self.names[name_of[i]]]
            row["self_s"] += own[i] * 1e-9
            if up < 0 or name_of[up] != name_of[i]:
                row["calls"] += 1
        return totals

    def write_spans(self, path) -> None:
        """One line per span: id, parent id (-1 for none), name, start, end (ns)."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{i}\t{up}\t{names[n]}\t{s}\t{e}\n"
                for i, (n, up, s, e) in enumerate(
                    zip(self.name_of, self.parent, self.start, self.end)
                )
            )


def install(tracer: Tracer, kernel) -> Callable[[], Dict[str, float]]:
    """Wrap every layer of the ``shvkernel`` package; return a function that
    reads the work counters held by the program's own caches."""
    cli, exact_linalg, freefield = kernel.cli, kernel.exact_linalg, kernel.freefield
    qchar, scalars, shv_algebra, verma = (
        kernel.qchar, kernel.scalars, kernel.shv_algebra, kernel.verma,
    )
    Realization = freefield.FreeFieldRealization
    realizations = []
    submodules = []
    for key in (
        "verma.gram.max_rows", "exact_linalg.rank.max_rows", "exact_linalg.kernel.max_cols",
        "freefield.mode.terms", "freefield.basis.max_size", "freefield.screening.terms",
        "freefield.mode_cache.lookups",
    ):
        tracer.counters[key] = 0

    def everywhere(name, attr, modules, post=None):
        for module in modules:
            tracer.patch(module, attr, name, post)

    everywhere("shv_algebra.normal_form", "_normal_form", (shv_algebra, verma))
    tracer.patch(verma.VermaAction, "apply_symbol", "verma.apply_symbol")
    everywhere(
        "verma.gram", "shapovalov_gram", (verma,),
        lambda m, *a: tracer.raise_to("verma.gram.max_rows", m.rows),
    )
    rank_rows = lambda _, m, *a: tracer.raise_to("exact_linalg.rank.max_rows", m.rows)
    everywhere("exact_linalg.rank", "rank", (exact_linalg, verma, freefield), rank_rows)
    everywhere("exact_linalg.rank", "rational_rank", (exact_linalg, verma, cli), rank_rows)
    everywhere(
        "exact_linalg.kernel", "kernel_basis", (exact_linalg, verma),
        lambda _, m, *a: tracer.raise_to("exact_linalg.kernel.max_cols", m.cols),
    )
    everywhere("exact_linalg.det", "determinant", (exact_linalg, verma))
    everywhere("exact_linalg.in_span", "in_span", (exact_linalg, cli))
    everywhere("scalars.roots", "rational_roots_in", (scalars, verma))
    tracer.patch(
        verma.Submodule, "add_generator", "verma.closure",
        lambda _, sub, *a: submodules.append(sub),
    )
    everywhere("verma.singular", "singular_vectors", (verma, cli))
    everywhere("verma.subsingular", "subsingular_vectors", (verma, cli))
    everywhere("verma.diagram", "embedding_diagram", (verma, cli))

    tracer.patch(
        Realization, "generator_mode", "freefield.mode",
        lambda v, *a: tracer.bump("freefield.mode.terms", len(v.terms)),
    )
    tracer.patch(Realization, "bracket_defect", "freefield.bracket_defect")
    tracer.patch(
        Realization, "basis", "freefield.basis",
        lambda b, *a: tracer.raise_to("freefield.basis.max_size", len(b)),
    )
    screening_terms = lambda v, *a: tracer.bump("freefield.screening.terms", len(v.terms))
    for attr in ("a_mode", "lattice_mode", "screening_q", "screening_s", "screening_g"):
        tracer.patch(Realization, attr, "freefield.screening", screening_terms)
    everywhere("qchar.schur_expand", "schur_expand", (qchar, verma, freefield))
    everywhere("qchar.char", "char_verma", (qchar, verma))
    everywhere("qchar.char", "char_simple", (qchar, cli))

    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = tracer.wrap("cli.command", fn)
    everywhere("cli.render", "render_json", (cli,))
    everywhere("cli.render", "render_text", (cli,))

    # counters only: a span per cached mode lookup would swamp the trace
    init, raw = Realization.__init__, Realization._realized_raw

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        realizations.append(self)

    def counted_raw(self, *args):
        tracer.bump("freefield.mode_cache.lookups")
        return raw(self, *args)

    Realization.__init__ = counted_init
    Realization._realized_raw = counted_raw

    def cache_counters() -> Dict[str, float]:
        actions = [action for _, action in verma._ACTIONS]
        grams = [m for a in actions for m in a._gram_cache.values()]
        sym_entries = sum(len(a._sym_cache) for a in actions)
        mode_entries = sum(
            len(store) for R in realizations for store in R._mode_cache.values()
        )
        span_dim = 0
        for sub in {id(s): s for s in submodules}.values():
            span_dim += sum(
                sub.graded_dim(Fraction(t, 2)) for t in range(int(2 * sub.max_degree) + 1)
            )
        return {
            "shv_algebra.nf_cache.words": len(shv_algebra._NF_CACHE),
            "verma.basis_cache.entries": len(verma._BASIS_CACHE),
            "verma.actions.count": len(actions),
            "verma.caches.entries": sym_entries + len(grams),
            "verma.gram.entries": sum(m.rows * m.cols for m in grams),
            "verma.closure.span_dim": span_dim,
            "freefield.mode_cache.entries": mode_entries,
            "freefield.basis_cache.entries": sum(len(R._basis_cache) for R in realizations),
            # every cache miss stores exactly one entry
            "_verma.sym_cache.entries": sym_entries,
        }

    return cache_counters
