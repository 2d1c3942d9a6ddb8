"""Span tracing of agentchess's public functions, installed from outside src/.

`install()` wraps every public function of the traced modules, plus the
public methods of the classes in TRACED_CLASSES, and rebinds the wrapper at
every module attribute that holds the original (runner imports llm_reply by
name, cli keeps cmd_* references, and so on). Each call records a span:
(id, parent id, name, thread, start, end, self seconds, failed). A per-thread
stack of open spans gives the parent, and self time is the duration minus
the time covered by child spans. Spans stay in memory until `write()`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time

MODULES = ("rules", "dialog", "players", "runner", "analysis", "reporting", "elo", "cli")
TRACED_CLASSES = (("players", "UciEngine"),)

# Leaf helpers that run once per generated move or per outcome inside a
# bisection step; a span each would cost more than the work it measures and
# would inflate the inclusive times of their callers.
UNTRACED = frozenset({"rules.square_name", "rules.square_index", "rules.opponent", "elo.expected_score"})

# Functions whose positional path arguments are files read; their sizes are
# summed per function (outside the span's own interval) for read rates.
COUNT_FILE_BYTES = frozenset({"reporting.load_logs"})


class Tracer:
    def __init__(self):
        self.spans = []
        self.file_bytes = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        count_bytes = name in COUNT_FILE_BYTES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((frame[0], parent, name, threading.get_ident(), start, end,
                              duration - frame[1], failed))
                if count_bytes:
                    size = sum(os.path.getsize(a) for a in args if isinstance(a, (str, os.PathLike)))
                    self.file_bytes[name] = self.file_bytes.get(name, 0) + size

        return traced

    def install(self):
        modules = {m: importlib.import_module(f"agentchess.{m}") for m in MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue  # traced under the module that defines it
                name = f"{short}.{attr}"
                if name not in UNTRACED:
                    wrappers[value] = self.wrap(name, value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for short, cls_name in TRACED_CLASSES:
            cls = getattr(modules[short], cls_name)
            methods = {}  # aliases such as UciEngine.close = quit share one wrapper
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value not in methods:
                    methods[value] = self.wrap(f"{short}.{cls_name}.{value.__name__}", value)
                setattr(cls, attr, methods[value])

    def write(self, path):
        """One JSON line of per-function file bytes, then one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.file_bytes) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
