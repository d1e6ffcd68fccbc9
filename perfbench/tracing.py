"""In-memory span tracer that wraps a program's entry points from outside.

A span is ``[name, start, end, parent, tag]``: host seconds from the
tracer's clock, the index of the enclosing span (-1 at the root), and the
iteration id current when the span opened.  Spans stay in a list until
the run ends; nothing is written while the program runs.

Wrapping happens on the objects the program looks names up on: methods on
their classes (every class in a family that defines the method, so an
override is timed too), module functions at the module that binds the
name the caller uses.  :class:`Patches` undoes every wrap, so a traced
repetition leaves the next untraced one unchanged.
"""

import functools
import math
import time
from contextlib import contextmanager

#: Spans under one of these roots belong to set-up, not to the steady loop.
SETUP_PREFIX = "setup."


class NullTracer:
    """Stand-in for untraced repetitions: spans cost one no-op call."""

    tag = -1

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """Records nested spans; single-threaded by construction."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Iteration id stamped on spans opened from now on.
        self.tag = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), math.nan, parent, self.tag])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def self_times(spans: list[list]) -> dict[tuple[str, str], list]:
    """``{(phase, name): [self seconds, calls]}`` over finished spans.

    A span's self time is its duration minus the time its children cover.
    Children of one parent never overlap on a single thread, so the
    covered time is the sum of their durations; a re-entrant call is just
    a child with the same name, and its time is not counted twice.  The
    phase is ``"setup"`` for a span named ``setup.*`` and everything under
    it, else ``"steady"``.
    """
    covered = [0.0] * len(spans)
    phases: list[str] = []
    for name, start, end, parent, _tag in spans:
        if parent >= 0:
            covered[parent] += end - start
            phase = phases[parent]
        else:
            phase = "steady"
        phases.append("setup" if name.startswith(SETUP_PREFIX) else phase)
    totals: dict[tuple[str, str], list] = {}
    for index, (name, start, end, _parent, _tag) in enumerate(spans):
        entry = totals.setdefault((phases[index], name), [0.0, 0])
        entry[0] += (end - start) - covered[index]
        entry[1] += 1
    return totals


def family(base: type) -> list[type]:
    """``base`` and every subclass of it, depth first."""
    found = [base]
    for sub in base.__subclasses__():
        found.extend(cls for cls in family(sub) if cls not in found)
    return found


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, tracer: Tracer, module, attr: str, name: str) -> None:
        """Trace ``module.attr`` — the binding the caller looks up."""
        if attr not in vars(module):
            raise LookupError(f"{module.__name__} binds no {attr!r} to trace")
        self.replace(module, attr, tracer.wrap(vars(module)[attr], name))

    def wrap_method(self, tracer: Tracer, base: type, attr: str, name: str) -> None:
        """Trace ``attr`` on every class of ``base``'s family defining it."""
        owners = [cls for cls in family(base) if attr in vars(cls)]
        if not owners:
            raise LookupError(f"{base.__name__} defines no {attr!r} to trace")
        for cls in owners:
            raw = vars(cls)[attr]
            if isinstance(raw, property):
                wrapped = property(tracer.wrap(raw.fget, name), raw.fset, raw.fdel)
            else:
                wrapped = tracer.wrap(raw, name)
            self.replace(cls, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
