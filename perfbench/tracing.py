"""In-memory spans around calls into the program's layers.

The benchmark wraps public entry points of each layer (and a few
private ones where no public call marks the boundary, listed in
``layers.py``) with :meth:`Tracer.wrap`. A span records its name,
layer, start, end, parent span and request id; spans stay in memory and
:meth:`Tracer.write_chrome` writes them as Chrome trace-event JSON at the
end (it opens in Perfetto or ``chrome://tracing``).

Parentage and self time are global, not per thread: the workloads are
closed loops, so at any instant the most recently started span still
open is the one doing the work, even when it runs on another thread
(the serve daemon's loop, an HTTP handler). A layer's self time is the
time during which one of its spans is that innermost span; the rest of
the traced window is reported as unattributed, so the self times plus
the unattributed remainder add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import heapq
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "rid",
                 "tid", "info")

    def __init__(self, sid, name, layer, start, parent, rid, tid):
        self.id = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.rid = rid
        self.tid = tid
        self.info: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._lock = threading.Lock()
        self._next = 1
        #: request id stamped on new spans: serve seq, op index, chaos run.
        self.rid: object = None
        self.enabled = True

    # -- recording -------------------------------------------------------

    def begin(self, name: str, layer: str) -> Span:
        now = time.perf_counter()
        with self._lock:
            parent = None
            if self._open:
                parent = max(self._open.values(),
                             key=lambda s: (s.start, s.id)).id
            span = Span(self._next, name, layer, now, parent, self.rid,
                        threading.get_ident())
            self._next += 1
            self._open[span.id] = span
            self.spans.append(span)
        return span

    def record(self, name: str, layer: str, start: float,
               end: float) -> Span:
        """Add a span measured before the tracer existed."""
        with self._lock:
            span = Span(self._next, name, layer, start, None, self.rid,
                        threading.get_ident())
            self._next += 1
            self.spans.append(span)
        span.end = end
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._open.pop(span.id, None)

    def span(self, name: str, layer: str):
        tracer = self

        class _Ctx:
            def __enter__(self):
                self.span = tracer.begin(name, layer)
                return self.span

            def __exit__(self, *exc):
                tracer.finish(self.span)

        return _Ctx()

    def wrap(self, owner, attr: str, name: str, layer: str,
             inspect: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.

        ``inspect(span, args, kwargs, result)`` may record extra numbers
        (packets, devices rebuilt) on the span after the call returns.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.finish(span)
            if inspect is not None:
                inspect(span, args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = original
        setattr(owner, attr, wrapper)

    def wrap_everywhere(self, module, attr: str, name: str, layer: str,
                        prefix: str = "repro") -> None:
        """Wrap a module-level function and every ``from x import f`` copy
        of it held by other modules under ``prefix``."""
        import sys

        original = getattr(module, attr)
        self.wrap(module, attr, name, layer)
        wrapper = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod is module:
                continue
            if not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    # -- analysis --------------------------------------------------------

    def closed(self, t0: float, t1: float) -> List[Span]:
        return [s for s in self.spans
                if s.end is not None and s.end > t0 and s.start < t1]

    def self_times(self, t0: float, t1: float) -> Tuple[Dict[str, float],
                                                         float]:
        """Per-layer self seconds inside ``[t0, t1]`` and the unattributed
        remainder; ``sum(layers) + unattributed == t1 - t0``."""
        return attribute(self.closed(t0, t1), t0, t1)

    def write_chrome(self, path: str, t0: float, meta: dict) -> None:
        pid = os.getpid()
        tids: Dict[int, int] = {}
        events = []
        for span in self.spans:
            if span.end is None:
                continue
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args = {"id": span.id, "parent": span.parent}
            if span.rid is not None:
                args["rid"] = span.rid
            args.update(span.info)
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": round((span.start - t0) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": meta}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def attribute(spans: List[Span], t0: float,
              t1: float) -> Tuple[Dict[str, float], float]:
    """Sweep ``[t0, t1]`` and charge each instant to the innermost open
    span (latest start, then highest id) or to the unattributed bucket."""
    events = []
    for span in spans:
        start = max(span.start, t0)
        end = min(span.end, t1)
        if end <= start:
            continue
        events.append((start, 1, span))
        events.append((end, 0, span))
    events.sort(key=lambda e: (e[0], e[1], e[2].id))
    layers: Dict[str, float] = {}
    unattributed = 0.0
    heap: List[Tuple[float, int, int]] = []
    live: Dict[int, Span] = {}
    prev = t0
    for when, kind, span in events:
        if when > prev:
            while heap and heap[0][2] not in live:
                heapq.heappop(heap)
            if heap:
                top = live[heap[0][2]]
                layers[top.layer] = layers.get(top.layer, 0.0) + when - prev
            else:
                unattributed += when - prev
            prev = when
        if kind == 1:
            live[span.id] = span
            heapq.heappush(heap, (-span.start, -span.id, span.id))
        else:
            live.pop(span.id, None)
    if t1 > prev:
        unattributed += t1 - prev
    return layers, unattributed
