"""Span tracer for the benchmark's traced mode (stdlib only).

Spans are taken around the public calls into each layer of ``repro``,
from the benchmark's own code: :meth:`Tracer.patch_function` rebinds a
function in every ``repro`` module that imported it, and
:meth:`Tracer.patch_method` wraps a method on its class.  Nothing in
the program itself is changed; :meth:`Tracer.disable` restores every
original binding.

A span's *self time* is its duration minus the time covered by the
spans nested inside it, so the self times of all spans of an op add up
to the op's traced time less the gaps no span covers.  Spans are kept
in memory and written out as Chrome trace-event JSON at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Nested spans and named counters of one single-threaded process."""

    def __init__(self) -> None:
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.events: list[tuple[str, float, float, int]] = []
        self.op = -1
        self._stack: list[list] = []
        self._sites: list[tuple[object, str, object, object]] = []
        self._origin = time.perf_counter()

    # -- spans ----------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self, rename: str | None = None) -> None:
        end = time.perf_counter()
        name, start, covered = self._stack.pop()
        name = rename or name
        duration = end - start
        self.self_time[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        self.events.append((name, start, duration, self.op))

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` inside a span called ``name``.  ``on_result(tracer,
        args, kwargs, result)`` may update counters and return a new
        name for the span (or ``None`` to keep it)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.exit()
                raise
            self.exit(on_result(self, args, kwargs, out)
                      if on_result is not None else None)
            return out

        return traced

    # -- patching -------------------------------------------------------
    def patch_function(self, module: str, attr: str, name: str,
                       on_result=None) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module bound it."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._sites.append((mod, key, original, traced))

    def patch_method(self, cls: type, attr: str, name: str,
                     on_result=None) -> None:
        original = cls.__dict__[attr]
        self._sites.append((cls, attr, original,
                            self.wrap(original, name, on_result)))

    def enable(self) -> None:
        for owner, key, _, traced in self._sites:
            setattr(owner, key, traced)

    def disable(self) -> None:
        for owner, key, original, _ in self._sites:
            setattr(owner, key, original)

    # -- output ---------------------------------------------------------
    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (opens in any browser trace viewer)."""
        pid = os.getpid()
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": round((start - self._origin) * 1e6, 3),
            "dur": round(duration * 1e6, 3),
            "pid": pid, "tid": 0, "args": {"op": op},
        } for name, start, duration, op in self.events]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)
