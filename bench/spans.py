"""In-memory spans for the traced benchmark run.

A span records a name, start and end (perf_counter_ns), its parent span and
the id of the operation it belongs to: every span opened while no other span
is open starts a new operation.  The layer of a span is the first dotted
component of its name.  Library layers reached only through another layer
are timed by ``wrap``, which replaces a name in the namespace the calling
module looks it up in, and ``restore`` puts every original back.  Nothing
is installed in untraced runs.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

SPAN_CAP = 200_000  # keeps a traced run's memory small; rounds stop past it


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent, op, padicints)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._ops = -1
        self._patched: list = []
        self.padicints = 0  # PadicInt objects built so far (see count_padicints)

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._ops += 1
        self.spans.append((name, time.perf_counter_ns(), parent, self._ops, self.padicints))
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter_ns()
        name, start, parent, op, pc = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, op, self.padicints - pc)
        self._stack.pop()
        self._active[name] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installing ------------------------------------------------------------

    def wrap(self, owner, attr: str, name) -> None:
        """Time ``owner.attr`` as span ``name`` (a string, or a function of the
        call's arguments returning one).  A recursive call of a span that is
        already open runs unwrapped, so a recursive walk is one span."""
        fn = getattr(owner, attr)
        namer = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            span = namer(*args, **kwargs)
            if self._active[span]:
                return fn(*args, **kwargs)
            idx = self._open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def count_padicints(self, cls) -> None:
        """Count constructions of ``cls`` (the package's PadicInt)."""
        original = cls.__post_init__

        def counted(obj):
            self.padicints += 1
            original(obj)

        self._patched.append((cls, "__post_init__", original))
        cls.__post_init__ = counted

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- reading ---------------------------------------------------------------

    @property
    def full(self) -> bool:
        return len(self.spans) >= SPAN_CAP

    def current_op(self) -> int:
        return self._ops

    def by_name(self, exclude=frozenset()) -> dict[str, list]:
        """name -> [count, total inclusive ns, PadicInts built inside], leaving
        out the spans of the operations in ``exclude``."""
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for name, start, end, _parent, op, pc in self.spans:
            if op in exclude:
                continue
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += pc
        return out

    def self_ns_by_layer(self) -> dict[str, int]:
        """Each layer's self time: span time minus the time its children cover."""
        child = [0] * len(self.spans)
        for _name, start, end, parent, _op, _pc in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent, _op, _pc) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tpadicints\n")
            for row in self.spans:
                fh.write("\t".join(map(str, row)) + "\n")
