"""Span tracer that measures oddcolor's layers from outside the package.

``Tracer.install`` replaces public functions and methods of the package
with wrappers and ``uninstall`` puts the originals back.  A span wrapper
records one span per call: name, start, end and the enclosing span.  Self
time is a span's duration minus the durations of its children.  Private
names are never wrapped, so the recursion depth of the engines' private
helpers (``_solve``, the exact search's inner recursion) is unchanged.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# (submodule, public name, span name).  A dotted public name is a method.
SPANS = (
    ("generators", "random_one_plane", "generators.random_one_plane"),
    ("io", "embedding_to_text", "io.roundtrip"),
    ("io", "embedding_from_text", "io.roundtrip"),
    ("io", "coloring_to_text", "io.roundtrip"),
    ("io", "coloring_from_text", "io.roundtrip"),
    ("embedding", "validate", "embedding.validate"),
    ("embedding", "underlying_graph", "embedding.underlying_graph"),
    ("embedding", "OnePlaneGraph.faces", "embedding.faces"),
    ("embedding", "EmbeddingBuilder.build", "embedding.build"),
    ("embedding", "delete_real_vertices", "embedding.surgery"),
    ("embedding", "delete_g_edge", "embedding.surgery"),
    ("embedding", "contract_uncrossed_edge", "embedding.surgery"),
    ("embedding", "insert_crossing", "embedding.surgery"),
    ("embedding", "split_components", "embedding.surgery"),
    ("reduction", "uncross_two_face", "embedding.surgery"),
    ("reduction", "uncross_six_four", "embedding.surgery"),
    ("reduction", "odd_color_1planar", "reduction.odd_color_1planar"),
    ("reduction", "find_reducible", "reduction.find_reducible"),
    ("graphs", "bridges", "graphs.bridges"),
    ("graphs", "Graph.contract", "graphs.contract"),
    ("coloring", "greedy_extend", "coloring.greedy_extend"),
    ("coloring", "is_odd_coloring", "coloring.is_odd_coloring"),
    ("discharging", "discharge", "discharging.discharge"),
    ("minor_closed", "odd_color_minor_closed", "minor_closed.odd_color_minor_closed"),
    ("exact", "chi_o", "exact.chi_o"),
    ("exact", "exists_odd_k_coloring", "exact.search"),
)

# Called too often for a span each (once per search node or per vertex):
# these wrappers only count calls.
COUNTS = (
    ("coloring", "Coloring.set", "coloring.set"),
    ("coloring", "OddTracker.assign", "exact.nodes"),
)

# Calls made while this span is open are also counted in ``scoped_calls``,
# so that rebuilds can be set against reduction steps.
SCOPE = "reduction.odd_color_1planar"


class MissingNameError(RuntimeError):
    """A name the tracer must wrap does not exist in the package."""


class Tracer:
    def __init__(self, package):
        self._package = package
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._active: Counter = Counter()  # open spans per name
        self.spans: list[tuple] = []  # (id, parent id or -1, name, start, end, outcome)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()  # outermost spans of each name
        self.outcome_s: Counter = Counter()  # (name, outcome type) -> seconds
        self.scoped_calls: Counter = Counter()

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in SPANS and COUNTS; raise MissingNameError if
        one is missing, leaving nothing wrapped."""
        try:
            for module, public, name in SPANS:
                self._patch(module, public, self._span_wrapper, name)
            for module, public, name in COUNTS:
                self._patch(module, public, self._count_wrapper, name)
        except MissingNameError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, module_name: str, public: str, make_wrapper, name: str) -> None:
        if any(part.startswith("_") for part in public.split(".")):
            raise ValueError(f"refusing to wrap private name {public}")
        module = getattr(self._package, module_name, None)
        owner_path, _, attr = public.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            raise MissingNameError(f"{self._package.__name__}.{module_name}.{public} is missing")
        wrapper = make_wrapper(name, original)
        if owner_path:
            self._set(owner, attr, wrapper)
            return
        # a function: rebind it in every package module that imported it,
        # including ``from .x import y`` copies such as reduction.underlying_graph
        prefix = self._package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [len(self.spans) + len(stack), name, 0.0]
            stack.append(frame)
            self._active[name] += 1
            outcome = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                outcome = type(result).__name__
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self._active[name] -= 1
                self._close(frame, parent, start, end, outcome)

        return wrapper

    def _close(self, frame: list, parent: list | None, start: float, end: float, outcome) -> None:
        sid, name, child_s = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if parent is not None:
            parent[2] += duration
        if not self._active[name]:
            self.total_s[name] += duration
            self.outcome_s[name, outcome] += duration
        if self._active[SCOPE]:
            self.scoped_calls[name] += 1
        self.spans.append((sid, parent[0] if parent else -1, name, start, end, outcome))

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the given name."""
        return self._span_wrapper(name, fn)(*args)

    # -- output --------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        """Write the recorded spans, gzip-compressed JSON, to path."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s[3] for s in self.spans), default=0.0)
        rows = [
            [sid, parent, index[name], round((start - t0) * 1e6), round((end - t0) * 1e6), outcome]
            for sid, parent, name, start, end, outcome in sorted(self.spans)
        ]
        doc = dict(meta, columns=["id", "parent", "name", "start_us", "end_us", "outcome"],
                   names=names, spans=rows)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
