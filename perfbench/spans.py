"""Outside-in layer spans and their self-time attribution.

A :class:`Tracer` wraps public callables of the program from benchmark
code: each call made while the tracer is active appends one span
record ``[layer, start, end, thread, outermost, size]`` to an
in-memory list.  :func:`attribute` turns the list into per-layer self
time: a span's duration minus what its child spans cover, with
everything inside a timed window but outside every span charged to
``residual``, so the shares of all layers sum to exactly 1.

Spans on threads other than the workload's main thread (the
distributed coordinator's connection threads) hold the interpreter
lock while they run, so their time is carved out of whatever the main
thread was doing at that instant.  They are treated as leaves: only
the outermost span of each such call stack is timed.
"""

from __future__ import annotations

import collections
import functools
import inspect
import threading
import time
import typing as _t

RESIDUAL = "residual"

#: ``size(args, result) -> int``: bytes a call moved, for byte counters.
SizeFn = _t.Callable[[tuple, _t.Any], int]


class Tracer:
    """In-memory span recorder; records only between :meth:`begin` and
    :meth:`end`, so set-up and bookkeeping between timed rounds stay
    out of the trace."""

    def __init__(self, clock: _t.Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans: _t.List[list] = []
        self.windows: _t.List[_t.Tuple[float, float]] = []
        self.main_thread: _t.Optional[int] = None
        self._window_start = 0.0
        self._local = threading.local()

    def begin(self) -> None:
        self.main_thread = threading.get_ident()
        self._window_start = self.clock()
        self.active = True

    def end(self) -> None:
        self.active = False
        self.windows.append((self._window_start, self.clock()))

    def disable(self) -> None:
        """Stop recording for good (forked pool workers call this)."""
        self.active = False
        self.spans = []

    def _stack(self) -> _t.List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, fn: _t.Callable, layer: str, size: _t.Optional[SizeFn] = None
    ) -> _t.Callable:
        """*fn* wrapped in a span of *layer*; one branch when inactive."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            record = [
                layer, tracer.clock(), None, threading.get_ident(),
                layer not in stack, 0,
            ]
            tracer.spans.append(record)
            stack.append(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = tracer.clock()
            if size is not None:
                record[5] = size(args, result)
            return result

        return traced

    def wrap_attr(
        self, owner: _t.Any, name: str, layer: str,
        size: _t.Optional[SizeFn] = None,
    ) -> None:
        """Replace ``owner.name`` (a class or module attribute) by its
        traced version, keeping ``classmethod``/``staticmethod``."""
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, name, type(raw)(self.wrap(raw.__func__, layer, size)))
        else:
            setattr(owner, name, self.wrap(raw, layer, size))

    def attribution(self) -> _t.Dict[str, _t.Dict[str, float]]:
        return attribute(self.spans, self.windows, self.main_thread)


def _main_segments(
    main: _t.Sequence[_t.Tuple[float, float, str]],
    windows: _t.Sequence[_t.Tuple[float, float]],
) -> _t.List[_t.Tuple[float, float, str]]:
    """Partition the windows into ``(start, end, owner)`` segments: each
    instant belongs to the innermost main-thread span open then, or to
    ``residual``.  Windows act as root spans of ``residual``."""
    items = sorted(
        [(w0, w1, RESIDUAL) for w0, w1 in windows] + list(main),
        key=lambda item: (item[0], -item[1]),
    )
    segments: _t.List[_t.Tuple[float, float, str]] = []
    stack: _t.List[list] = []  # [cursor, end, layer]

    def close_until(t: float) -> None:
        while stack and stack[-1][1] <= t:
            cursor, end, layer = stack.pop()
            segments.append((cursor, end, layer))
            if stack:
                stack[-1][0] = end

    for start, end, layer in items:
        close_until(start)
        if stack:
            parent = stack[-1]
            segments.append((parent[0], start, parent[2]))
            parent[0] = start
        stack.append([start, end, layer])
    close_until(float("inf"))
    segments.sort()
    return segments


def _foreign_pieces(
    spans: _t.Sequence[list],
    windows: _t.Sequence[_t.Tuple[float, float]],
    main_thread: _t.Optional[int],
) -> _t.List[_t.Tuple[float, float, str]]:
    """Outermost spans of other threads, clipped to the windows and to
    each other so no instant is counted twice."""
    outermost: _t.List[_t.Tuple[float, float, str]] = []
    open_until: _t.Dict[int, float] = {}
    for layer, start, end, thread, _outer, _size in spans:
        if thread == main_thread or end is None:
            continue
        if start >= open_until.get(thread, float("-inf")):
            outermost.append((start, end, layer))
            open_until[thread] = end
    outermost.sort()
    pieces: _t.List[_t.Tuple[float, float, str]] = []
    cursor = float("-inf")
    for start, end, layer in outermost:
        start = max(start, cursor)
        cursor = max(cursor, end)
        for w0, w1 in windows:
            a, b = max(start, w0), min(end, w1)
            if a < b:
                pieces.append((a, b, layer))
    return pieces


def attribute(
    spans: _t.Sequence[list],
    windows: _t.Sequence[_t.Tuple[float, float]],
    main_thread: _t.Optional[int],
) -> _t.Dict[str, _t.Dict[str, float]]:
    """Per layer: ``self_s``, ``share`` of the traced wall, ``calls``
    (outermost entries only, so recursion counts once) and ``bytes``.

    The traced wall is the summed length of *windows*; ``residual``
    takes the part no span covers, so the shares sum to 1.
    """
    main = [
        (start, end, layer)
        for layer, start, end, thread, _outer, _size in spans
        if thread == main_thread and end is not None
    ]
    segments = _main_segments(main, windows)
    self_s: _t.Dict[str, float] = collections.defaultdict(float)
    for start, end, owner in segments:
        self_s[owner] += end - start
    index = 0
    for a, b, layer in _foreign_pieces(spans, windows, main_thread):
        while index < len(segments) and segments[index][1] <= a:
            index += 1
        scan = index
        while scan < len(segments) and segments[scan][0] < b:
            s0, s1, owner = segments[scan]
            overlap = min(b, s1) - max(a, s0)
            if overlap > 0:
                self_s[owner] -= overlap
                self_s[layer] += overlap
            scan += 1
    calls: _t.Dict[str, int] = collections.Counter()
    moved: _t.Dict[str, int] = collections.Counter()
    for layer, _start, end, _thread, outermost, size in spans:
        if end is None:
            continue
        calls[layer] += bool(outermost)
        moved[layer] += size
    wall = sum(w1 - w0 for w0, w1 in windows)
    layers = set(self_s) | set(calls)
    return {
        layer: {
            "self_s": self_s.get(layer, 0.0),
            "share": self_s.get(layer, 0.0) / wall if wall else 0.0,
            "calls": calls.get(layer, 0),
            "bytes": moved.get(layer, 0),
        }
        for layer in layers
    }
