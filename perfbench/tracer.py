"""Outside-in tracing: spans around calls into each layer of the package.

The tracer wraps named public functions and rebinds every module-level
name that refers to them, in every loaded ``dimergeom`` module and in the
benchmark's own modules.  Modules import functions by name (``spectral``,
``config`` and ``moves`` each hold their own ``vertex_edges``), so
patching only the defining module would miss those calls.  Nothing in
the package changes; ``uninstall`` restores every binding.

Each span records its name, start, end, parent span and operation id.
Spans are kept in memory in flat arrays and written out at the end.  A
span's self time is its duration minus the time covered by its child
spans.  Call counts are exact.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list = []  # span name id -> name
        self._name_id: dict = {}
        self.name_of = array("i")  # per span: name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # -1 for a root span
        self.op_of = array("i")  # operation id, -1 outside operations
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list = []  # [span index, time covered by children]
        self._patched: list = []  # (owner, attribute, original)

    def _open(self, name: str) -> list:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        self.calls[name] += 1
        frame = [len(self.start), 0.0]
        self.name_of.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_of.append(self.op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        self.start[frame[0]] = start
        self.end[frame[0]] = end
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """A span opened by the benchmark itself (an operation's root)."""
        if op is not None:
            self.op = op
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, time.perf_counter())
            if op is not None:
                self.op = -1

    def wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, clock())

        return traced

    def count(self, name: str, fn):
        """A counting-only wrapper, for calls too frequent to span."""
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, functions: dict, methods: dict, prefixes=("dimergeom", "perfbench")) -> None:
        """functions: span name -> function; methods: count name ->
        (class, attribute names).  Every module-level binding of a listed
        function in modules under the given prefixes is rebound."""
        wrapped = {id(fn): self.wrap(name, fn) for name, fn in functions.items()}
        originals = {id(fn): fn for fn in functions.values()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(prefixes):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and originals[id(value)] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        for name, (cls, attrs) in methods.items():
            for attr in attrs:
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self.count(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str) -> int:
        """Write every span as a CSV line; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.op_of[i]}\n"
                )
        return len(self.start)

    def calls_under(self, name: str, ancestor: str, ops: range) -> int:
        """Number of spans called name, inside the given operations, that
        have an ancestor span called ancestor."""
        nid, aid = self._name_id.get(name), self._name_id.get(ancestor)
        if nid is None or aid is None:
            return 0
        total = 0
        for i in range(len(self.start)):
            if self.name_of[i] != nid or self.op_of[i] not in ops:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != aid:
                p = self.parent[p]
            total += p >= 0
        return total
