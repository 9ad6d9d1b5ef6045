"""Span tracer that times slipflow's layers from outside the program.

Each target is a public function or method of a slipflow module.  While the
tracer is installed, the target is replaced by a wrapper that records one
span per call: name, start, end, parent span and invocation id.  A function
that other modules import by name (``from .lifting import project_compatible``)
is replaced in every slipflow module that binds it, so calls through any
binding are seen.  A target the program no longer defines is recorded as
absent, not treated as an error, so the benchmark keeps working while later
changes merge or delete functions.

Spans stay in memory; ``dump`` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    invocation: int
    info: dict | None = None


class Tracer:
    """Records spans around the targets while installed.

    ``targets`` maps a span name to ``"module:attr"`` or
    ``"module:Class.method"``.  Wrapping a class method patches the class,
    which every binding of the class shares.  ``probes`` maps a span name to
    a function ``(args, kwargs, result) -> dict`` whose counts are stored on
    the span, so ratios are measured where the work happens.
    """

    def __init__(self, targets: dict, probes: dict | None = None):
        self.targets = dict(targets)
        self.probes = dict(probes or {})
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._installed = False
        self.invocation = -1

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.invocation))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the given name and return its result."""
        idx = self._enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()
        probe = self.probes.get(name)
        if probe is not None:
            self.spans[idx].info = probe(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        self.absent = []
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "slipflow" or key.startswith("slipflow."))
        ]
        for name, target in self.targets.items():
            modname, _, attr = target.partition(":")
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None or not callable(orig):
                    self.absent.append(name)
                    continue
                setattr(cls, meth, self._wrap(name, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None or not callable(orig):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []
        self._installed = False

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list:
        return [s.end - s.start for s in self.spans]

    def self_times(self) -> list:
        """Span duration minus the time its direct children cover."""
        out = self.durations()
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "invocation": s.invocation,
                }) + "\n")
