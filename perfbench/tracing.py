"""Spans around calls into tfshift's public functions, taken from outside.

The tracer replaces each wrapped function in every tfshift module namespace
that holds it, which is where callers look it up (for example
`tfshift.detect.line_points`), and puts the originals back on uninstall.
Spans stay in memory as [name, start, end, parent, op] lists; parent is the
index of the enclosing span in the same list, or None.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run, one per layer boundary.
TARGETS = [
    ("gfp", "line_points"),
    ("fastmf", "dft"),
    ("fastmf", "mf_on_line"),
    ("signals", "mf_entry"),
    ("signals", "heisenberg_op"),
    ("heisenberg", "cross_waveform"),
    ("heisenberg", "line_vector"),
    ("weil", "weil_operator"),
    ("weil", "torus_eigenbasis"),
    ("weil", "make_torus"),
    ("detect", "extract_bits"),
    ("sim", "monte_carlo"),
    ("sim", "synthesize_receiver"),
    ("sim", "build_family"),
    ("fileio", "read_signal"),
    ("fileio", "write_signal"),
]


def _count_points(extra, args, out):
    extra["gfp.line_points.points"] += len(out)


def _count_confident(extra, args, out):
    extra["detect.detections"] += len(out)
    extra["detect.confident"] += sum(1 for b in out if b.detection.confident)


def _read_bytes(extra, args, out):
    extra["fileio.read_signal.bytes"] += os.path.getsize(args[0])


def _write_bytes(extra, args, out):
    extra["fileio.write_signal.bytes"] += os.path.getsize(args[0])


HOOKS = {
    "gfp.line_points": _count_points,
    "detect.extract_bits": _count_confident,
    "fileio.read_signal": _read_bytes,
    "fileio.write_signal": _write_bytes,
}


class Tracer:
    """Span recorder for one process. Single-threaded by design: the
    benchmark drives tfshift from one client thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.extra: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, extra = self.spans, self._stack, self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(extra, args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, nested under any open span."""
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap every target in each loaded tfshift module that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "tfshift" or k.startswith("tfshift."))]
        for modname, attr in TARGETS:
            orig = getattr(sys.modules[f"tfshift.{modname}"], attr)
            name = f"{modname}.{attr}"
            wrapped = self._wrap(name, orig, HOOKS.get(name))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def merge(self, spans: list, extra: dict, op) -> None:
        """Append spans recorded in a child process, re-basing parent links."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end,
                               None if parent is None else parent + base, op])
        for k, v in extra.items():
            self.extra[k] += v


def layer_times(spans: list) -> tuple[dict, dict, dict]:
    """Per span name: call count, busy time (sum of durations) and self time
    (durations minus the time covered by direct child spans)."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child: list[float] = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    selft: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        selft[name] += end - start - child[i]
    return calls, busy, selft
