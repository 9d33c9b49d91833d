"""Spans around the public functions of the program's layers.

A layer is a package module; its public functions are the plain functions
named in its ``__all__`` and defined there.  ``Tracer.install`` replaces each
one, at every module attribute that refers to it (so ``sqzq.cli.quantise``
is wrapped as well as ``sqzq.quantmap.quantise``), by a wrapper that records
a span; ``Tracer.restore`` puts the originals back.  Calls through a
reference taken before ``install`` are not seen.

Spans stay in memory and are written once, by ``write``.  Each holds its
name, start, end, parent span and request id.  A span's self time is its
duration minus the durations of its direct children; calls are synchronous
and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

REQUEST = "request"


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "status", "result")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.status = "ok"
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the public functions of ``layers`` at every binding in ``modules``.

    ``observe`` maps a span name to a function of the wrapped call's return
    value; what it returns is kept on the span (a count, a witness).
    """

    def __init__(self, layers, modules, observe=None):
        self.layers = list(layers)
        self.modules = list(modules)
        self.observe = dict(observe or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = None
        self._patched: list[tuple[object, str, object]] = []
        self._installed = False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent, self._request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = self.observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.status = "raised"
                raise
            finally:
                self._close(span)
            if observe is not None:
                span.result = observe(result)
            return result

        return traced

    def public_functions(self):
        """(qualified name, function) for every public function of every layer."""
        for layer in self.layers:
            short = layer.__name__.rsplit(".", 1)[-1]
            for attr in getattr(layer, "__all__", ()):
                obj = getattr(layer, attr)
                if inspect.isfunction(obj) and obj.__module__ == layer.__name__:
                    yield f"{short}.{attr}", obj

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._installed = True
        self._patched = []
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self.public_functions()}
        for module in self.modules:
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((module, attr, val))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._installed = False

    def unrestored(self) -> list[str]:
        """Bindings of the last ``install`` that do not hold their original function."""
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]

    @property
    def bindings(self) -> list[str]:
        """Every module attribute ``install`` replaced, as "module.attr"."""
        return [f"{module.__name__}.{attr}" for module, attr, _ in self._patched]

    @contextmanager
    def request(self, request_id):
        """Root span of one request; its self time is the part no layer span covers."""
        self._request = request_id
        span = self._open(REQUEST)
        try:
            yield span
        finally:
            self._close(span)
            self._request = None

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds, self seconds, observed results."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            rec = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0, "results": []}
            )
            rec["calls"] += 1
            rec["total_s"] += span.duration
            rec["self_s"] += own
            rec["raised"] += span.status == "raised"
            if span.result is not None:
                rec["results"].append(span.result)
        return out

    def write(self, path) -> None:
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
                "status": s.status,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def package_modules(package_name: str) -> list:
    """The package and its loaded submodules, the places a binding can live."""
    prefix = package_name + "."
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package_name or name.startswith(prefix))
    ]
