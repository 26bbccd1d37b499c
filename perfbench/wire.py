"""The wire workload, ``wire_mixed``: writes and reads over loopback.

It serves CountMin 4x64 over n = 10^6 from a ``SketchServer`` (serial
backend, 2 shards) forked by ``repro.api.ServerProcess`` and reached by two
``SketchClient`` connections in this process: an open-loop writer and a
closed-loop reader.  The certificate of every run: the server's final
``snapshot()`` and one final ``estimate`` equal, byte for byte, a serial
``StreamEngine`` fed the acknowledged stream in acknowledgement order.

A ``wire_ingest`` workload (closed-loop pipelined ``feed_chunks``) was
measured and dropped for noise; ``perfbench/layers.json`` says why.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Optional

import numpy as np

import harness
import inputs
from spans import SpanRecorder, server_spans

from repro.api import (
    ServerProcess,
    SketchClient,
    StreamEngine,
    UniversePartitioner,
    construction_fingerprint,
)
from repro.heavyhitters.count_min import CountMinSketch
from repro.obs import format_label_pairs
from repro.parallel.sharded import ShardedAlgorithm
from repro.service import client as client_module
from repro.service import protocol

SHARDS = 2
HOST = "127.0.0.1"
POOL_FRAMES = 32
#: The open-loop writer: 64 frames/s = 4.19M updates/s offered, each frame
#: one ``feed`` round trip.
OFFERED_FRAMES_PER_S = 64
#: Every second frame is sent with the reader parked (see ``mixed_pass``).
SOLO_EVERY = 2
#: Server starts timed before and again after the pass; ``setup_s`` is the
#: fastest of all of them.
SETUP_SAMPLES = 15
#: Length of each pass of a traced run (fixed, so span totals compare
#: across runs).
MIXED_TRACE_SECONDS = 6.0
#: Reads every run takes, so that >= 10 lie beyond the 99th percentile.
MIN_READS = 1100
#: The reader adds one solo large-probe read after this many reads.
BULK_EVERY = 50

_REQUEST_KEY = format_label_pairs({"phase": "service.request"})


class Served:
    """One forked server, one client connection, the acknowledged stream."""

    def __init__(self, run: harness.Run, factory, fingerprint: str) -> None:
        start = time.perf_counter()
        self.server = ServerProcess(
            factory, num_shards=SHARDS, backend="serial", chunk_size=inputs.FRAME
        ).start()
        try:
            self.client = self.connect()
            run.attempt(
                self.client.server_info["fingerprint"] == fingerprint,
                "server fingerprint differs from the local construction",
            )
        except BaseException:
            self.server.stop()
            raise
        self.setup_seconds = time.perf_counter() - start
        self.run = run
        self.factory = factory
        #: ``(items, deltas)`` frames in the order the server acked them.
        self.acked: list[tuple[np.ndarray, np.ndarray]] = []
        #: Updates acknowledged so far.
        self.position = 0

    def connect(self) -> SketchClient:
        return SketchClient.connect(HOST, self.server.port)

    def feed(self, client: SketchClient, items: np.ndarray, deltas: np.ndarray) -> float:
        """One ``feed`` round trip; checks and logs the ack, returns its seconds."""
        before = self.position
        start = time.perf_counter()
        ack = client.feed(items, deltas)
        seconds = time.perf_counter() - start
        self.acked.append((items, deltas))
        self.position += len(items)
        self.run.attempt(
            ack["count"] == len(items) and ack["position"] == self.position,
            f"feed ack {ack} after {before} + {len(items)} updates",
        )
        return seconds

    def certify(self, probes: list[np.ndarray], reads=()) -> list[np.ndarray]:
        """Final snapshot and estimates against a serial engine.

        The serial engine is fed the acknowledged stream; the server's
        snapshot and its estimate of ``probes[0]`` must match it byte for
        byte, and so must every ``(position, probe, answer)`` in ``reads``
        (answers the server gave once ``position`` updates were acked).
        Returns the serial engine's final estimates of every probe set.
        """
        reference = self.factory()
        engine = StreamEngine(chunk_size=inputs.FRAME)
        pending = sorted(reads, key=lambda read: read[0])
        position = 0
        for items, deltas in self.acked:
            engine.drive_arrays(reference, items, deltas)
            position += len(items)
            while pending and pending[0][0] == position:
                _, probe, answer = pending.pop(0)
                self.run.attempt(
                    np.array_equal(answer, reference.estimate_batch(probe)),
                    f"estimate at position {position} differs from serial",
                )
        self.run.attempt(not pending, "reads at positions never acked")
        expected = [reference.estimate_batch(probe) for probe in probes]
        got = self.client.estimate(probes[0])
        self.run.attempt(
            got.tobytes() == expected[0].tobytes(), "final estimate differs from serial"
        )
        self.run.attempt(
            self.client.snapshot() == reference.snapshot(),
            "final snapshot differs from serial",
        )
        return expected

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.stop()


def start_served(run: harness.Run) -> Served:
    factory = inputs.wire_factory(run.seed)
    return Served(run, factory, construction_fingerprint(factory()))


def time_starts(run: harness.Run, samples: int) -> list[float]:
    """Start and stop ``samples`` servers; each start's seconds: fork,
    sketch construction, bind, connect, and ``hello`` with its
    fingerprint check."""
    times = []
    for _ in range(samples):
        served = start_served(run)
        times.append(served.setup_seconds)
        served.close()
    return times


def frame_list(items: np.ndarray, deltas: np.ndarray, count: int):
    out = []
    for k in range(count):
        low = (k % POOL_FRAMES) * inputs.FRAME
        out.append((items[low : low + inputs.FRAME], deltas[low : low + inputs.FRAME]))
    return out


def timed_reads(served: Served, probe: np.ndarray, reads: int = 0, seconds: float = 0.0):
    """Closed-loop ``estimate`` calls on a fixed state; returns latencies and
    the first answer (every later answer must equal it)."""
    latencies: list[float] = []
    answers: list[np.ndarray] = []
    deadline = time.perf_counter() + seconds
    while len(latencies) < reads or time.perf_counter() < deadline:
        start = time.perf_counter()
        answer = served.client.estimate(probe)
        latencies.append(time.perf_counter() - start)
        if not answers:
            answers.append(answer)
        served.run.attempt(np.array_equal(answer, answers[0]), "reads disagree")
    return latencies, answers[0]


# -- tracing ----------------------------------------------------------------


def install_wrappers(recorder: SpanRecorder) -> None:
    """Wrap every layer a wire request crosses, on both sides of the fork."""
    per_call = lambda args, result: len(args[1])  # noqa: E731 - updates or probes

    def feed_bytes(args, result) -> int:
        return len(result) if args[0].get("op") == "feed" else 0

    recorder.patch(client_module.SketchClient, "feed", "client.call")
    recorder.patch(client_module.SketchClient, "estimate", "client.call")
    recorder.patch(client_module, "send_message", "client.send")
    recorder.patch(client_module, "recv_message", "client.wait")
    recorder.patch(protocol, "pack_message", "protocol.{role}_encode", feed_bytes)
    recorder.patch(protocol, "unpack_message", "protocol.{role}_decode")
    recorder.patch(ShardedAlgorithm, "process_batch", "sharded.scatter")
    recorder.patch(ShardedAlgorithm, "estimate_batch", "sharded.estimate")
    recorder.patch(ShardedAlgorithm, "merged", "sharded.merge")
    recorder.patch(CountMinSketch, "merge_batch", "sharded.fan_in")
    recorder.patch(UniversePartitioner, "split", "partition.split")
    recorder.patch(CountMinSketch, "process_batch", "count_min.feed", per_call)
    recorder.patch(CountMinSketch, "estimate_batch", "count_min.estimate", per_call)


def report_layers(
    run: harness.Run, recorder: SpanRecorder, served: Served, before: dict
) -> dict:
    """Per-layer metrics of a traced wire pass (client and server side).

    Returns the client-side self-time rows, which must add up to the
    benchmark's stopwatch total over the writer's ``feed`` and the
    reader's ``estimate`` calls (:func:`harness.report_trace`).
    """
    after = served.client.metrics()
    stats = served.client.stats()
    mine = recorder.totals({"writer", "reader"})
    theirs = server_spans(before, after)

    def span(table: dict, name: str) -> list:
        return harness.span_row(run, table, name)

    def requests(snapshot: dict) -> float:
        data = snapshot["snapshot"]["histograms"].get("repro_phase_seconds")
        series = data["values"].get(_REQUEST_KEY) if data else None
        return series[1] if series else 0.0

    encode = span(mine, "protocol.client_encode")
    client_rows = {
        "client.self_s": span(mine, "client.call")[2],
        "client.send_s": span(mine, "client.send")[2],
        "client.wait_s": span(mine, "client.wait")[2],
        "protocol.client_encode_s": encode[2],
        "protocol.client_decode_s": span(mine, "protocol.client_decode")[2],
    }
    for name, value in client_rows.items():
        run.metric(name, value, "s")
    run.metric("protocol.server_decode_s", span(theirs, "protocol.server_decode")[2], "s")
    run.metric("protocol.server_encode_s", span(theirs, "protocol.server_encode")[2], "s")
    run.metric("protocol.frames", encode[0], "count")
    run.metric("protocol.bytes_per_update", encode[3] / max(served.position, 1), "B")
    request_s = requests(after) - requests(before)
    engine_s = span(theirs, "sharded.scatter")[1] + span(theirs, "sharded.estimate")[1]
    run.metric("server.request_s", request_s, "s")
    run.metric("server.engine_s", engine_s, "s")
    run.metric("server.queue_wait_s", request_s - engine_s, "s")
    run.metric("server.errors", stats["errors"], "count")
    run.metric("server.busy", stats["busy"], "count")
    loads = stats["shard_loads"]
    run.metric("partition.split_s", span(theirs, "partition.split")[2], "s")
    run.metric("partition.max_shard_share", max(loads) / max(sum(loads), 1), "ratio")
    run.metric("sharded.scatter_s", span(theirs, "sharded.scatter")[2], "s")
    run.metric("sharded.merge_s", span(theirs, "sharded.merge")[1], "s")
    run.metric("sharded.merges", span(theirs, "sharded.fan_in")[0], "count")
    for kind in ("feed", "estimate"):
        calls, total, own, units = span(theirs, f"count_min.{kind}")
        run.metric(f"count_min.{kind}_ns", own / max(units, 1) * 1e9, "ns")
    run.attempt(stats["errors"] == 0 and stats["busy"] == 0, f"server errors {stats}")
    return client_rows


# -- wire_mixed -------------------------------------------------------------


class Gate:
    """Shared and solo sections for the writer and reader threads.

    Any number of shared sections may overlap; a solo section waits for
    the shared ones in flight to end and holds off new ones until it ends.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._shared = 0
        self._solo = False

    @contextlib.contextmanager
    def shared(self):
        with self._cond:
            while self._solo:
                self._cond.wait()
            self._shared += 1
        try:
            yield
        finally:
            with self._cond:
                self._shared -= 1
                self._cond.notify_all()

    @contextlib.contextmanager
    def solo(self):
        with self._cond:
            while self._solo:
                self._cond.wait()
            self._solo = True
            while self._shared:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._solo = False
                self._cond.notify_all()


def mixed_pass(
    run: harness.Run,
    served: Served,
    seconds: float,
    probe,
    bulk_probe: Optional[np.ndarray] = None,
) -> dict:
    """Open-loop writer and closed-loop reader, one connection each.

    Returns every frame's ``feed`` round trip (``"frames"``) and the
    reader's 256-probe ``estimate`` round trips (``"reads"``).  Every
    ``SOLO_EVERY``-th frame is sent *solo* (also in ``"solo"``): the reader
    parks after its current read until the frame is acked, so the round
    trip crosses an idle server and is the write path alone.  The other
    frames and reads queue with each other.  With ``bulk_probe``, every
    ``BULK_EVERY``-th read is followed by one solo large-probe read
    (``"bulk"``), so those sample the read path across the whole pass.
    """
    items, deltas = inputs.zipf_pool(run.seed, POOL_FRAMES)
    writer_client = served.connect()
    period = 1.0 / OFFERED_FRAMES_PER_S
    frames = frame_list(items, deltas, int(seconds * OFFERED_FRAMES_PER_S))
    late: list[float] = []
    done = threading.Event()
    gate = Gate()
    out: dict = {"frames": [], "solo": [], "reads": [], "bulk": [], "errors": []}

    def writer() -> None:
        try:
            first = time.perf_counter()
            for k, (frame_items, frame_deltas) in enumerate(frames):
                due = first + k * period
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    now = time.perf_counter()
                late.append(now - due)
                solo = k % SOLO_EVERY == 0
                with gate.solo() if solo else gate.shared():
                    out["frames"].append(
                        served.feed(writer_client, frame_items, frame_deltas)
                    )
                if solo:
                    out["solo"].append(out["frames"][-1])
        except BaseException as exc:  # surfaced on the main thread
            out["errors"].append(exc)
        finally:
            done.set()

    def timed_read(items, samples, previous, section):
        with section():
            start = time.perf_counter()
            answer = served.client.estimate(items)
            samples.append(time.perf_counter() - start)
        # Insert-only CountMin: no estimate may ever go down.
        served.run.attempt(
            previous is None or bool(np.all(answer >= previous)),
            "a read went backwards under writes",
        )
        return answer

    def reader() -> None:
        previous = previous_bulk = None
        try:
            # A slow host may finish the writes first: keep reading until
            # the 99th percentile has at least ten reads beyond it.
            while not done.is_set() or len(out["reads"]) < MIN_READS:
                previous = timed_read(probe, out["reads"], previous, gate.shared)
                if bulk_probe is not None and len(out["reads"]) % BULK_EVERY == 0:
                    previous_bulk = timed_read(
                        bulk_probe, out["bulk"], previous_bulk, gate.solo
                    )
            out["last_read"], out["last_bulk"] = previous, previous_bulk
        except BaseException as exc:
            out["errors"].append(exc)

    threads = [
        threading.Thread(target=writer, name="writer"),
        threading.Thread(target=reader, name="reader"),
    ]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        writer_client.close()
    if out["errors"]:
        raise out["errors"][0]
    late_ms = np.asarray(late) * 1e3
    run.diagnostics["gen.write_late_ms"] = float(late_ms.mean())
    run.diagnostics["gen.write_late_max_ms"] = float(late_ms.max())
    return out


def wire_mixed(run: harness.Run) -> None:
    """``ups`` is one frame over the fastest solo ``feed`` round trip:
    client encode, socket, server decode, partition and scatter, the ack."""
    probe = inputs.read_probe(run.seed)
    if run.trace:
        _wire_mixed_traced(run, probe)
        return
    starts = time_starts(run, SETUP_SAMPLES)
    served = start_served(run)
    try:
        bulk_probe = inputs.bulk_probe(run.seed)
        window = harness.HostWindow(run, served.server.pid)
        out = mixed_pass(run, served, run.seconds * 0.8, probe, bulk_probe=bulk_probe)
        bulk, answer = timed_reads(served, bulk_probe, 20, run.seconds * 0.05)
        window.close()
        run.metric("ups", inputs.FRAME / harness.best(out["solo"]), "1/s")
        run.metric(
            "probes_per_s", inputs.ESTIMATE_PROBES / harness.best(out["bulk"] + bulk), "1/s"
        )
        run.metric("rss_mb", harness.process_peak_rss_mb(served.server.pid), "MB")
        run.diagnostics["solo_frames"] = len(out["solo"])
        harness.report_reads(run, out["reads"])
        expected = served.certify([probe], [(served.position, bulk_probe, answer)])
        run.attempt(bool(np.all(out["last_read"] <= expected[0])), "read above final")
        run.attempt(bool(np.all(out["last_bulk"] <= answer)), "bulk read above final")
    finally:
        served.close()
    starts += time_starts(run, SETUP_SAMPLES)
    run.metric("setup_s", harness.best(starts), "s")


def _wire_mixed_traced(run: harness.Run, probe: np.ndarray) -> None:
    """An untraced pass, a traced pass, and another untraced pass, each on
    its own server: the overhead compares the traced pass with both
    untraced ones, so drift and warm-up over the run cancel."""

    def untraced_pass() -> list[float]:
        served = start_served(run)
        try:
            solo = mixed_pass(run, served, MIXED_TRACE_SECONDS, probe)["solo"]
            served.certify([probe])
        finally:
            served.close()
        return solo

    untraced = untraced_pass()
    recorder = SpanRecorder()
    install_wrappers(recorder)
    try:
        served = start_served(run)
        try:
            before = served.client.metrics()
            window = harness.HostWindow(run, served.server.pid)
            out = mixed_pass(run, served, MIXED_TRACE_SECONDS, probe)
            window.close()
            rows = report_layers(run, recorder, served, before)
            harness.report_reads(run, out["reads"])
            expected = served.certify([probe])
            run.attempt(bool(np.all(out["last_read"] <= expected[0])), "read above final")
        finally:
            served.close()
    finally:
        recorder.unpatch()
    untraced += untraced_pass()
    harness.report_trace(
        run, rows, "client.self_s",
        sum(out["frames"]) + sum(out["reads"]),
        out["solo"], untraced,
    )
