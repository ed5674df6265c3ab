"""Outside-in tracing of the burling layers, without editing the program.

`Tracer.patch` replaces each layer function, in every `burling.*` module
that binds it, with a wrapper that records a span: name, start, end,
parent span and instance id.  Spans stay in memory until `write`.
`Counter.patch` is the count-only pass for leaves too hot to span.  A layer
a refactor has removed is skipped, and its metrics are simply absent.
"""

from __future__ import annotations

import itertools
import sys
from time import perf_counter

# (module, function, how to wrap it).  "passes" spans also note whether
# the call returned None, which for orientation_constraints means the
# orientation survived.
LAYERS = (
    ("graphs", "enumerate_holes", "call"),
    ("structure", "chandelier_pivot_candidates", "call"),
    ("sequential", "derivable_orientations", "generator"),
    ("recognition", "orientation_constraints", "passes"),
    ("recognition", "find_wheel", "call"),
    ("recognition", "find_flower", "call"),
    ("structure", "chalopin_filter", "call"),
    ("sequential", "find_sequential", "call"),
    ("sequential", "nobility_oriented", "call"),
    ("sequential", "tree_from_seq", "call"),
    ("recognition", "verify_certificate", "call"),
    ("trees", "check_derivation", "call"),
)


def _burling_modules():
    return [mod for name, mod in sys.modules.items() if name.startswith("burling.")]


def _rebind(original, replacement, undo):
    """Point every burling module that binds `original` at `replacement`."""
    for mod in _burling_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def _restore(undo):
    for obj, attr, value in reversed(undo):
        setattr(obj, attr, value)
    undo.clear()


class Tracer:
    """Spans as lists [name, start, end, parent index, instance, note]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.layers = set()  # names of the layers wrapped
        self.searcher_stats = None  # every _Searcher's stats, once patched
        self._undo = []

    def open(self, name) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.instance, None]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = perf_counter()
        return index

    def close(self, index, note=None):
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        span[5] = note
        self.stack.pop()

    def _wrap_call(self, name, fn, note_result):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, (result is None) if note_result else None)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        # one span per next(), so the consumer's work between items is excluded
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    index = self.open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        self.close(index, False)
                        return
                    except BaseException:
                        self.close(index)
                        raise
                    self.close(index, True)
                    yield item
            finally:
                it.close()

        return traced

    def patch(self):
        for module, fname, how in LAYERS:
            original = getattr(sys.modules.get("burling." + module), fname, None)
            if original is None:
                continue
            name = f"{module}.{fname}"
            if how == "generator":
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_call(name, original, how == "passes")
            _rebind(original, wrapper, self._undo)
            self.layers.add(name)
        searcher = getattr(sys.modules.get("burling.sequential"), "_Searcher", None)
        if searcher is not None:
            registry = self.searcher_stats = []

            class Registered(searcher):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    registry.append(self.stats)

            _rebind(searcher, Registered, self._undo)

    def unpatch(self):
        _restore(self._undo)

    def write(self, path):
        with open(path, "w") as out:
            out.write("id\tparent\tname\tinstance\tstart_s\tend_s\n")
            for i, (name, start, end, parent, instance, _) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{name}\t{instance}\t{start!r}\t{end!r}\n")


def layer_totals(spans) -> dict:
    """Per span name: calls, total and self seconds, and noted-true count.

    Self time is a span's duration minus the durations of its direct
    children, which nest strictly inside it.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _, note) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "true": 0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child[i]
        t["true"] += note is True
    return totals


class Counter:
    """Count-only pass: calls to check_token and graph constructions.

    Each counter is an itertools.count; after the pass, next() on it
    returns the number of calls.
    """

    def __init__(self):
        self.check_token = itertools.count()
        self.graph_init = itertools.count()
        self.patched = set()
        self._undo = []

    def patch(self):
        graphs = sys.modules.get("burling.graphs")
        check_token = getattr(graphs, "check_token", None)
        if check_token is not None:

            def counted_check_token(label, _tick=self.check_token.__next__):
                _tick()
                return check_token(label)

            _rebind(check_token, counted_check_token, self._undo)
            self.patched.add("graphs.check_token")
        graph = getattr(graphs, "Graph", None)
        if graph is not None:
            # OrientedGraph.__init__ runs Graph.__init__ once, so this counts
            # every construction of either kind exactly once
            init = graph.__init__

            def counted_init(obj, *args, _tick=self.graph_init.__next__, **kwargs):
                _tick()
                init(obj, *args, **kwargs)

            graph.__init__ = counted_init
            self._undo.append((graph, "__init__", init))
            self.patched.add("graphs.graph_init")

    def unpatch(self):
        _restore(self._undo)
