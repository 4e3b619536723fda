"""Span and counter tracing installed from outside the library.

The tracer replaces public functions of ``sbuntwist`` with wrappers in every
module namespace that holds them (``verify.classify_configuration`` and
``plane.classify_configuration`` are the same object, bound twice), and
``FiniteField`` methods as class attributes.  ``uninstall`` puts every
original back, so one process can alternate traced and untraced passes.

Two kinds of wrapper exist:

* a span records ``[name, start_ns, end_ns, parent, item]``; a span's self
  time is its duration minus the durations of its direct children;
* a counter only counts calls, keyed by name and by the enclosing span's
  name.  Field operations get counters only: a span per ``mul`` would
  swamp the run, so their time shows up in the calling span's self time.

Spans and counts are grouped by phase (``setup``, ``once``, ``items``) and
folded into per-name totals by ``end_phase``, so memory stays bounded by one
pass of spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.item = -1
        self.phase = ""
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.totals = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        self.phase_counts = defaultdict(Counter)
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _enclosing(self):
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def span(self, name, fn, measure=None):
        """Wrap ``fn`` in a span.  ``name`` may be a callable of
        ``(args, kwargs)`` when one function serves two roles; ``measure``
        maps ``(args, result)`` to a quantity summed under the span name."""
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0, 0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(spans))
            spans.append(record)
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()
            if measure is not None:
                counts[label + "#measure"] += measure(args, result)
            return result

        return wrapper

    def counter(self, name, fn, by_parent=False):
        """Wrap ``fn`` in a call counter, keyed by ``(name, enclosing span
        name)`` when ``by_parent`` is set."""
        counts = self.counts
        enclosing = self._enclosing

        if by_parent:

            def wrapper(*args, **kwargs):
                counts[(name, enclosing())] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def patch_function(self, fn, wrapper):
        """Replace ``fn`` by ``wrapper`` wherever a traced module binds it."""
        found = False
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{fn!r} is bound in no traced module")

    def patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- phases -----------------------------------------------------------

    def begin_phase(self, phase):
        self.phase = phase
        self.spans.clear()
        self.counts.clear()

    def end_phase(self):
        """Fold the phase's spans into per-name [calls, total_ns, self_ns]."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        totals = self.totals[self.phase]
        for (name, t0, t1, _, _), kids in zip(self.spans, child_ns):
            row = totals[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - kids
        self.phase_counts[self.phase].update(self.counts)
        self.spans.clear()
        self.counts.clear()
