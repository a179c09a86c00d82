"""In-memory spans around calls into planarcert, recorded from outside the package.

The benchmark never edits ``src/``.  Instead, a traced pass replaces the
module-level names through which one planarcert layer calls another (for
example ``planarcert.pls.spanning_tree_dfs``) with thin wrappers that record
a span: name, start, end and the enclosing span.  Spans stay in memory for
the life of the pass and are reduced to per-layer totals when it ends.

A layer's self time is its spans' duration minus the part covered by their
direct child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

#: Layer boundaries wrapped in a traced pass: (module, attribute, span name).
#: The module is the *caller's* namespace, so the wrapper sees exactly the
#: calls that module makes.
LAYER_CALLS = (
    ("planarcert.sim", "prove_planar", "pls.prove_planar"),
    ("planarcert.sim", "pack_certificate", "pls.pack_certificate"),
    ("planarcert.sim", "unpack_certificate", "pls.unpack_certificate"),
    ("planarcert.sim", "verify_node_planarity", "pls.verify_node_planarity"),
    ("planarcert.sim", "planar_embed", "embedding.planar_embed"),
    ("planarcert.sim", "run_round", "sim.run_round"),
    ("planarcert.pls", "planar_embed", "embedding.planar_embed"),
    ("planarcert.pls", "spanning_tree_dfs", "transform.spanning_tree_dfs"),
    ("planarcert.pls", "dfs_mapping", "transform.dfs_mapping"),
    ("planarcert.pls", "induce_graph", "transform.induce_graph"),
    ("planarcert.pls", "pop_prove", "pop.pop_prove"),
    ("planarcert.pls", "degeneracy_order", "graphs.degeneracy_order"),
    ("planarcert.pop", "is_path_outerplanar", "pop.is_path_outerplanar"),
    ("planarcert.cli", "parse_graph", "formats.parse_graph"),
    ("planarcert.cli", "parse_certificates", "formats.parse_certificates"),
    ("planarcert.cli", "verify_node_planarity", "pls.verify_node_planarity"),
)

#: Counters read from a wrapped call's arguments: span name -> (counter, fn).
CALL_COUNTERS = {
    # pop_prove(g, witness): every edge of the virtual path graph is one span
    "pop.pop_prove": ("pop.spans", lambda args: args[0].m),
}

_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    """Spans and counters for one pass; ``patched()`` installs the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        rec[_END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    def wrap(self, name: str, fn):
        counter = CALL_COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter[0]] += counter[1](args)
            rec = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(rec)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Wrap every name in LAYER_CALLS for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in LAYER_CALLS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # --- reductions --------------------------------------------------------

    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, rec in enumerate(self.spans):
            kids.setdefault(rec[_PARENT], []).append(i)
        return kids

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(r[_END] - r[_START] for r in self.spans if r[_NAME] == name)

    def self_time(self, name: str, only: str | None = None) -> float:
        """Summed duration of this name's spans minus their direct children,
        or minus only the direct children named ``only``."""
        kids = self._children()
        out = 0.0
        for i, rec in enumerate(self.spans):
            if rec[_NAME] != name:
                continue
            inner = sum(
                self.spans[k][_END] - self.spans[k][_START]
                for k in kids.get(i, ())
                if only is None or self.spans[k][_NAME] == only
            )
            out += rec[_END] - rec[_START] - inner
        return out

    def covered(self, t0: float, t1: float) -> float:
        """Time inside [t0, t1] covered by outermost spans."""
        return sum(
            r[_END] - r[_START]
            for r in self.spans
            if r[_PARENT] == -1 and t0 <= r[_START] and r[_END] <= t1
        )


class NullTracer:
    """Stand-in for an untraced pass: bench-side spans cost one no-op."""

    def span(self, name: str):
        return nullcontext()

    def patched(self):
        return nullcontext(self)
