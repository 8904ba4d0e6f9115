"""Spans and counters recorded from outside the program.

The benchmark times calls into each layer's public functions by
replacing them, for the length of one traced run, with wrappers that
open a span.  Nothing in ``src/`` knows about this: the wrappers are
installed with ``setattr`` on the class or module that owns the
function (and on every ``repro`` module that imported the same
function object by name) and removed again by :meth:`Tracer.uninstall`.

A span records its inclusive duration and its self time — the
inclusive duration minus the part covered by child spans opened on the
same thread.  A span nested inside another span of the same name adds
only self time, so recursion and re-entry (``write_dex`` inside
``Apk.to_bytes`` inside ``Apk.clone``) never count a second time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter


class Tracer:
    """Per-thread span stacks folded into ``{name: [count, incl, self]}``."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """Is a span called ``name`` open on this thread?"""
        return any(frame[0] == name for frame in self._stack())

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        frame = [name, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - started
            stack.pop()
            nested = any(f[0] == name for f in stack)
            if stack:
                stack[-1][1] += duration
            with self._lock:
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                if not nested:
                    entry[1] += duration
                entry[2] += duration - frame[1]

    def add(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def span_total(self, name: str) -> tuple[int, float, float]:
        count, inclusive, self_s = self.spans.get(name, (0, 0.0, 0.0))
        return count, inclusive, self_s

    # -- patching -----------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name, before=None,
                    after=None) -> None:
        """Span every call of ``cls.attr``.

        ``name`` is a span name, or a callable ``(tracer, args) -> name``
        for spans whose layer depends on the call.  ``before(args)``
        runs before the span opens and ``after(result, args, state)``
        after it closes, ``state`` being what ``before`` returned, so
        counters are read outside the timed interval.
        """
        original = cls.__dict__[attr]
        self._replace(cls, attr,
                      self._wrapper(original, name, before, after))

    def wrap_function(self, module, attr: str, name, before=None,
                      after=None) -> None:
        """Span every call of the module function ``module.attr``,
        wherever a ``repro`` module imported it by name."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, before, after)
        for other in _importers(original):
            for alias, value in list(vars(other).items()):
                if value is original:
                    self._replace(other, alias, wrapper)

    def count_function(self, module, attr: str, counter: str) -> None:
        """Count calls of ``module.attr`` without timing them (for
        functions called too often for a span to stay cheap)."""
        original = getattr(module, attr)
        add = self.add

        @functools.wraps(original)
        def counted(*args, **kwargs):
            add(counter)
            return original(*args, **kwargs)

        for other in _importers(original):
            for alias, value in list(vars(other).items()):
                if value is original:
                    self._replace(other, alias, counted)

    def _wrapper(self, original, name, before, after):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = name(tracer, args) if callable(name) else name
            state = before(args) if before is not None else None
            result = tracer.call(span, original, args, kwargs)
            if after is not None:
                after(result, args, state)
            return result

        return traced

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _importers(fn) -> list:
    """``repro`` modules holding ``fn`` under some global name."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        if any(value is fn for value in vars(module).values()):
            found.append(module)
    return found
