"""Self-test of the span recorder: ``python3 -m pytest perfbench/test_spans.py``.

Kept beside the benchmark rather than under ``tests/`` or ``benchmarks/``,
so the tier-1 suite stays as it is.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SPAN_CALLS, SPAN_SECONDS, SpanRecorder, server_spans  # noqa: E402


def test_self_time_excludes_children_and_sums_to_root():
    recorder = SpanRecorder()
    child = recorder.wrap("child", lambda: time.sleep(0.02))

    def parent_body():
        time.sleep(0.01)
        child()
        child()

    parent = recorder.wrap("parent", parent_body)
    start = time.perf_counter()
    parent()
    elapsed = time.perf_counter() - start
    totals = recorder.totals()
    calls, total, own, _ = totals["parent"]
    assert calls == 1 and totals["child"][0] == 2
    assert abs(own - (total - totals["child"][1])) < 1e-9
    assert own < totals["child"][1]
    # Self times of one thread telescope to its root span's duration.
    assert abs(sum(row[2] for row in totals.values()) - total) < 1e-9
    assert total <= elapsed


def test_threads_keep_separate_stacks_and_units():
    recorder = SpanRecorder()
    work = recorder.wrap("work", lambda n: time.sleep(0.001), units=lambda a, r: a[0])
    threads = [
        threading.Thread(target=lambda: [work(3) for _ in range(5)], name=f"t{i}")
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert recorder.totals({"t0"})["work"][0] == 5
    assert recorder.totals()["work"][3] == 30


def test_patch_and_unpatch_restore_class_and_instance_attributes():
    class Thing:
        def act(self):
            return 1

    thing = Thing()
    recorder = SpanRecorder()
    recorder.patch(Thing, "act", "cls")
    recorder.patch(thing, "act", "inst")
    assert thing.act() == 1
    recorder.unpatch()
    assert "act" not in vars(thing) and Thing.act.__name__ == "act"
    assert not hasattr(Thing.act, "__wrapped__")
    assert recorder.totals()["inst"][0] == 1 and recorder.totals()["cls"][0] == 1


def test_server_spans_takes_the_difference_of_two_snapshots():
    def snapshot(calls, total, own):
        return {
            "snapshot": {
                "counters": {
                    SPAN_CALLS: {"values": {'span="x"': calls}},
                    SPAN_SECONDS: {
                        "values": {
                            'kind="total",span="x"': total,
                            'kind="self",span="x"': own,
                        }
                    },
                }
            }
        }

    rows = server_spans(snapshot(2, 1.0, 0.5), snapshot(5, 4.0, 2.0))
    assert rows["x"][:3] == [3, 3.0, 1.5]
