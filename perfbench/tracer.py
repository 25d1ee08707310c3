"""Spans around calls into minorkit's public functions, for the traced run.

The modules import each other's functions by name, so a call is wrapped by
replacing the name in the namespace of the module that makes the call (for
example ``minorkit.expansion.induced_subgraph``); ``Graph`` construction is
wrapped on the class itself.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


# A counter gets the call's arguments and its result, or None if it raised.
def _edges_built(args, result):
    return {"edges": getattr(args[0], "edge_count", 0)}


def _extract_steps(args, result):
    return {"steps": len(result.trace) if result is not None else 0}


def _violator_found(args, result):
    return {"found": int(result is not None)}


def _units_built(args, result):
    # build_units_sparse may return a finished subdivision instead of units
    return {"units": len(result) if isinstance(result, list) else 0, "wanted": args[2] + 1}


# (span name, counter function, [(module, attribute), ...])
PATCHES = [
    ("graph.induced_subgraph", None, [("expansion", "induced_subgraph")]),
    ("graph.bfs_levels", None, [("graph", "bfs_levels"), ("expansion", "bfs_levels"),
                                ("minor", "bfs_levels"), ("subdivision", "bfs_levels")]),
    ("graph.bfs_parents", None, [("graph", "bfs_parents"), ("routing", "bfs_parents"),
                                 ("subdivision", "bfs_parents")]),
    ("expansion.extract", _extract_steps, [("minor", "extract_expander"),
                                           ("subdivision", "extract_expander")]),
    ("expansion.violator_search", _violator_found, [("expansion", "find_violating_set")]),
    ("expansion.dichotomy", None, [("expansion", "dichotomy_step")]),
    ("minor.build", None, [("minor", "build_small_minor"), ("subdivision", "build_small_minor")]),
    ("routing.grow_balls", None, [("minor", "grow_balls_to_common_hub"),
                                  ("subdivision", "grow_balls_to_common_hub")]),
    ("routing.paths", None, [("minor", "entry_path"), ("minor", "path_through_scaffold"),
                             ("minor", "backtrack_chain"), ("subdivision", "path_through_scaffold"),
                             ("subdivision", "trim_to_size"), ("subdivision", "backtrack_chain")]),
    ("subdivision.split", None, [("subdivision", "split_by_degree")]),
    ("subdivision.units_sparse", _units_built, [("subdivision", "build_units_sparse")]),
    ("subdivision.units_dense", _units_built, [("subdivision", "build_units_dense")]),
    ("subdivision.connect", None, [("subdivision", "connect_units")]),
    ("verify.certify", None, [("minor", "verify_minor_model"), ("subdivision", "verify_minor_model"),
                              ("subdivision", "verify_subdivision"), ("subdivision", "verify_unit")]),
]


class Tracer:
    """Records ``[name, parent index, start, end, counters]`` for each span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span; ``counter(args, result)`` adds counts."""
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            if counter is not None:
                record[4] = counter(args, result)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)
        return traced

    def install(self):
        """Wrap every name in ``PATCHES`` and ``Graph.__init__``."""
        graph_cls = importlib.import_module("minorkit.graph").Graph
        self._patch(graph_cls, "__init__",
                    self._wrap("graph.construct", graph_cls.__init__, _edges_built))
        for name, counter, sites in PATCHES:
            for module, attr in sites:
                mod = importlib.import_module(f"minorkit.{module}")
                self._patch(mod, attr, self._wrap(name, getattr(mod, attr), counter))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def summary(self, first=0, last=None) -> dict:
        """Per span name over ``spans[first:last]``: calls, total self
        seconds and summed counters."""
        spans = self.spans[first:last]
        child_time = defaultdict(float)
        for name, parent, start, end, _counts in spans:
            if parent >= first:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for offset, (name, _parent, start, end, counts) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += end - start - child_time[first + offset]
            for key, value in counts.items():
                agg[key] += value
        return {name: dict(agg) for name, agg in out.items()}
