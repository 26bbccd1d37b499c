"""In-memory spans for the traced run, and the wrappers that record them.

A span is one call into a layer, timed from the benchmark's own files by
wrapping the layer's function.  The recorder keeps, per thread, a stack of
the spans open on that thread, so a span's *self time* is its duration minus
the time its child spans (nested calls on the same thread) cover.  Spans
aggregate by ``(thread, name)`` into call counts, total seconds, self
seconds and optional work units (updates, probes or bytes).

The sketch server runs in a forked child (``repro.api.ServerProcess``).
Wrappers installed before ``start()`` are inherited, so spans recorded in
the child are real; the child cannot hand its memory back, so there the
recorder registers a collector that folds its span totals into three
counters of the program's own metrics registry whenever a snapshot is
taken, and the parent reads them back through the service's ``metrics``
op (see :func:`server_spans`).  The parent never writes those counters,
so the child's series hold only server-side spans.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable, Optional

SPAN_SECONDS = "perfbench_span_seconds_total"
SPAN_CALLS = "perfbench_span_calls_total"
SPAN_UNITS = "perfbench_span_units_total"

_perf = time.perf_counter
_MISSING = object()


class SpanRecorder:
    """Aggregates wrapped calls into per-``(thread, name)`` span tables."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(thread name, rows)``; each thread's ``rows`` map a span name to
        #: ``[calls, total_s, self_s, units]`` and only that thread writes it.
        self._threads: list[tuple[str, dict]] = []
        #: True inside a process forked after this recorder was made.
        self.forked = False
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        from repro.obs import get_registry

        self.forked = True
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._published: dict[str, list] = {}
        get_registry().add_collector(self._publish)

    # -- recording ------------------------------------------------------

    def _thread_state(self):
        local = self._local
        local.stack = []
        local.rows = {}
        with self._lock:
            self._threads.append((threading.current_thread().name, local.rows))
        return local

    def _publish(self) -> None:
        """Forked-child side: fold new span totals into the metrics registry.

        Runs as a registry collector, so every ``metrics`` snapshot carries
        the spans recorded up to that moment.
        """
        from repro.obs import get_registry

        registry = get_registry()
        seconds = registry.counter(SPAN_SECONDS, "Benchmark span seconds")
        calls = registry.counter(SPAN_CALLS, "Benchmark span calls")
        units = registry.counter(SPAN_UNITS, "Benchmark span units")
        for name, row in self.totals().items():
            old = self._published.get(name, [0, 0.0, 0.0, 0])
            calls.add(row[0] - old[0], span=name)
            seconds.add(row[1] - old[1], span=name, kind="total")
            seconds.add(row[2] - old[2], span=name, kind="self")
            units.add(row[3] - old[3], span=name)
            self._published[name] = list(row)

    def wrap(
        self,
        name: str,
        fn: Callable,
        units: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``units(args, result)`` counts work.

        A ``{role}`` field in ``name`` becomes ``server`` inside the forked
        server child and ``client`` in the benchmark process.
        """
        recorder = self
        client_name = name.replace("{role}", "client")
        server_name = name.replace("{role}", "server")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                local = recorder._thread_state()
                stack = local.stack
            stack.append(0.0)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _perf() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
            span = server_name if recorder.forked else client_name
            work = units(args, result) if units is not None else 0
            row = local.rows.get(span)
            if row is None:
                row = local.rows[span] = [0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - children
            row[3] += work
            return result

        return timed

    def patch(self, owner, attribute: str, name: str, units=None) -> None:
        """Replace ``owner.attribute`` with its timed wrapper (undo: unpatch)."""
        original = getattr(owner, attribute)
        saved = vars(owner).get(attribute, _MISSING)
        self._patches.append((owner, attribute, saved))
        setattr(owner, attribute, self.wrap(name, original, units))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, saved)

    # -- reading --------------------------------------------------------

    def totals(self, threads: Optional[set] = None) -> dict[str, list]:
        """``name -> [calls, total_s, self_s, units]`` summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            tables = list(self._threads)
        for thread, rows in tables:
            if threads is not None and thread not in threads:
                continue
            for name, row in list(rows.items()):
                acc = out.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return out


def server_spans(before: dict, after: dict) -> dict[str, list]:
    """Server-child span table between two ``metrics`` op snapshots.

    Returns ``name -> [calls, total_s, self_s, units]``, as
    :meth:`SpanRecorder.totals` does for the benchmark process.
    """
    def series(snapshot: dict, metric: str) -> dict:
        data = snapshot["snapshot"].get("counters", {}).get(metric)
        return data["values"] if data else {}

    def label(key: str, name: str) -> Optional[str]:
        for pair in key.split(","):
            field, _, value = pair.partition("=")
            if field == name:
                return value.strip('"')
        return None

    out: dict[str, list] = {}
    for metric, index in ((SPAN_CALLS, 0), (SPAN_SECONDS, None), (SPAN_UNITS, 3)):
        old = series(before, metric)
        for key, value in series(after, metric).items():
            span = label(key, "span")
            row = out.setdefault(span, [0, 0.0, 0.0, 0])
            slot = index
            if slot is None:
                slot = 1 if label(key, "kind") == "total" else 2
            row[slot] += value - old.get(key, 0)
    return out
