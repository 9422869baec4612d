"""In-memory spans around the calls into each schedgraph layer.

The tracer replaces a module attribute with a wrapper, at the name the
caller looks the function up under, so the program itself is untouched.
A span records its name, start, end, parent span and the id of the
operation (one analysis, check, set-up or CLI call) it belongs to; the
columns live in compact arrays so that hundreds of thousands of spans fit.
Hot probes are counted instead of spanned. A name that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute the caller looks up, span name)
SPANS = (
    ("schedgraph.generator", "generate_instance", "generator.generate_instance"),
    ("schedgraph.generator", "make_instance", "model.make_instance"),
    ("schedgraph.model", "make_instance", "model.make_instance"),
    ("schedgraph.graph", "generate", "graph.generate"),
    ("schedgraph.cli", "generate", "graph.generate"),
    ("schedgraph.graph", "make_context", "graph.make_context"),
    ("schedgraph.graph", "applicable_jobs", "graph.applicable_jobs"),
    ("schedgraph.graph", "critical_context", "policy.critical_context"),
    ("schedgraph.graph", "expansion_windows", "graph.expansion_windows"),
    ("schedgraph.graph", "expand", "graph.expand"),
    ("schedgraph.graph", "merge_phase", "graph.merge_phase"),
    ("schedgraph.oracle", "simulate", "oracle.simulate"),
    ("schedgraph.oracle", "enumerate_scenarios", "oracle.enumerate_scenarios"),
    ("schedgraph.oracle", "pick", "policy.pick"),
    ("schedgraph.cli", "main", "cli.main"),
)
# Called once per probed time point: counted, not spanned.
COUNTS = (
    ("schedgraph.graph", "certainly_eligible", "graph.probes"),
    ("schedgraph.graph", "possibly_eligible", "graph.probes"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in SPANS + COUNTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._span(fn, name) if (module_name, attr, name) in SPANS else self._count(fn, name)
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, fn, name: str):
        nid = self._name_id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start_col)
            self.name_col.append(nid)
            self.parent_col.append(stack[-1] if stack else -1)
            self.op_col.append(self.op)
            self.end_col.append(0.0)
            stack.append(idx)
            self.start_col.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end_col[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self, setup: bool) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (seconds) and call count per span name.

        Covers the set-up spans (operation 0) or else all the others.
        """
        n = len(self.start_col)
        child = [0.0] * n
        for i in range(n):
            p = self.parent_col[i]
            if p >= 0:
                child[p] += self.end_col[i] - self.start_col[i]
        self_s: dict[str, float] = {name: 0.0 for name in self.names}
        calls: dict[str, int] = {name: 0 for name in self.names}
        for i in range(n):
            if (self.op_col[i] == 0) != setup:
                continue
            name = self.names[self.name_col[i]]
            self_s[name] += self.end_col[i] - self.start_col[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the binary columns in order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "start", "end", "parent", "op")
        header = {"names": self.names, "count": len(self.start_col),
                  "columns": [[c, arr.typecode, arr.itemsize] for c, arr in zip(
                      columns, (self.name_col, self.start_col, self.end_col,
                                self.parent_col, self.op_col))],
                  "counts": dict(self.counts), "absent": self.absent}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_col, self.start_col, self.end_col, self.parent_col, self.op_col):
                arr.tofile(handle)
