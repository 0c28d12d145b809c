"""Span recording for the traced benchmark run.

A :class:`Tracer` replaces public callables of the program with thin
wrappers that record one span per call: layer name, callable name,
start, end, thread and the span that was open when the call began (its
parent).  Spans live in memory; :func:`self_times` reduces them to each
layer's *self* time (a span's duration minus the part of it its child
spans cover) and :func:`reconcile` checks the sum against wall time.

Targets are named by dotted module path and attribute, so a callable
that no longer exists (renamed or deleted by a later change) is
reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]  # index into Tracer.spans, None for a root


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:Owner.attr`` or ``module:func``."""

    layer: str
    module: str
    attr: str                 # "Owner.method" or "function"
    #: ``(tracer, args, result, span, nested)`` after each call; ``nested``
    #: is true when the caller's span has the same key.
    on_result: Optional[Callable] = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.attr}"


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    absent: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _restore: List[Tuple[object, str, object]] = field(default_factory=list)

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; returns ``(result, span, nested)``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        nested = parent is not None and self.spans[parent].layer == layer
        span = Span(layer, name, time.perf_counter(), 0.0,
                    threading.get_ident(), parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            return fn(*args, **kwargs), span, nested
        finally:
            stack.pop()
            span.end = time.perf_counter()

    def span(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span and return its result."""
        return self.call(layer, name, fn, *args, **kwargs)[0]

    # -- installing wrappers ---------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, span, nested = tracer.call(
                target.layer, target.attr, fn, *args, **kwargs)
            if target.on_result is not None:
                target.on_result(tracer, args, result, span, nested)
            return result

        return wrapper

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target that exists; record the labels of the rest."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target.label)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(target, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap(target, raw)
            else:
                self.absent.append(target.label)
                continue
            # Patch the class that defines the attribute; an inherited
            # attribute is patched on ``owner`` and removed again later.
            own = attr in vars(owner) if inspect.isclass(owner) else True
            self._restore.append((owner, attr, raw if own else None))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._restore.clear()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: duration minus the union of its children.

    Children are clipped to their parent's interval; overlapping
    children (possible only across threads) are merged first, so no
    instant is subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Sum of self time per layer."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def reconcile(spans: Sequence[Span], wall_s: float, thread: int,
              tolerance: float) -> Tuple[bool, float]:
    """Check that self times on ``thread`` add up to its wall time.

    The measuring thread wraps every operation in a root span and the
    time between operations in the ``bench`` layer, so the self times of
    its spans partition the measured wall time.  Returns ``(ok,
    relative_error)``; ``ok`` requires the error to stay within
    ``tolerance`` (a share of ``wall_s``).
    """
    own = self_times(spans)
    total = sum(t for span, t in zip(spans, own) if span.thread == thread)
    error = abs(total - wall_s) / wall_s if wall_s > 0 else 0.0
    return error <= tolerance, error
