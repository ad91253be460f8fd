"""A span tracer that wraps dblcat's public functions from outside the package.

dblcat modules bind each other's functions by name (``from .fincat import
all_functors``), so wrapping a function where it is defined would miss the
calls made through those copies.  ``Tracer.install`` therefore rebinds the
wrapper in every ``dblcat`` module whose namespace holds the original object,
and wraps methods (``fincat.FinCategory.hom``) on their class.
``Tracer.uninstall`` puts every original back.

Each call is a span with a name, a start, an end, its parent span and the
job (root span) it belongs to.  Self time is the span's duration minus the
time covered by its child spans, kept exact on a span stack.  Only the first
``MAX_SPANS`` spans are stored; the aggregates count every call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import time

PACKAGE = "dblcat"
MARK = "__bench_tracer_wrapper__"
MAX_SPANS = 20_000


class Tracer:
    """Wrap ``targets`` (names relative to the package, such as
    ``"fincat.all_functors"`` or ``"fincat.FinCategory.hom"``) with span
    recording.  Names in ``count_results`` also add ``len(result)`` to
    their ``results`` count."""

    def __init__(self, targets, count_results=()):
        self.targets = tuple(targets)
        self.count_results = frozenset(count_results)
        self.spans = []          # (id, name, start, end, parent id, job id)
        self.dropped_spans = 0
        self._stack = []         # open spans: [id, start, child time, job id]
        self._ids = itertools.count()
        self._acc = {name: [0, 0.0, 0] for name in self.targets}
        self._restore = []       # (namespace, attribute, original)

    # -- aggregates ---------------------------------------------------------

    def reset(self):
        """Zero the aggregates and forget the stored spans."""
        for acc in self._acc.values():
            acc[:] = [0, 0.0, 0]
        self.spans.clear()
        self.dropped_spans = 0

    def snapshot(self):
        """``{name: (calls, self seconds, results)}`` since the last reset."""
        return {name: tuple(acc) for name, acc in self._acc.items()}

    # -- spans --------------------------------------------------------------

    def _open(self):
        stack = self._stack
        span_id = next(self._ids)
        job = stack[-1][3] if stack else span_id
        frame = [span_id, time.perf_counter(), 0.0, job]
        stack.append(frame)
        return frame

    def _close(self, frame, name):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < MAX_SPANS:
            parent = stack[-1][0] if stack else -1
            self.spans.append((frame[0], name, frame[1], end, parent, frame[3]))
        else:
            self.dropped_spans += 1
        return duration - frame[2]

    @contextlib.contextmanager
    def span(self, name):
        """A span around code that is not a wrapped function, such as one
        job of a workload; it is the parent of the calls made inside it."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, name)

    def _wrap(self, name, fn):
        acc = self._acc[name]
        count = name in self.count_results
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                acc[1] += tracer._close(frame, name)
                acc[0] += 1
            if count:
                acc[2] += len(result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for name in self.targets:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._rebind(owner, path[-1], original, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def _rebind(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self._restore.append((namespace, attr, original))

    def uninstall(self):
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def package_modules():
    """The imported modules of the package."""
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
