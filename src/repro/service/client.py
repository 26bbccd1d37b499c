"""`SketchClient` / `AsyncSketchClient`: the sketch service client library.

One client core, two transports
-------------------------------
Every client decision is written once, in ``_ClientCore``: the
``connect`` retry loop, reconnects, each call of the surface (``hello``
/ ``ping`` / ``stats`` / ``metrics`` / ``alerts``, ``feed`` /
``feed_chunks``, ``estimate`` / ``query`` / ``f2_estimate``,
``snapshot`` / ``load_snapshot`` / ``checkpoint``), the exactly-once
resilient ``feed_chunks`` pipeline and the hedged-read race.  Each is a
generator that does no I/O itself.  It yields requests and resumes with
their results: ``("send", conn, op, fields)`` -> request id, ``("recv",
conn, request_id)`` -> reply (server errors raise here), ``("sleep",
seconds)``, ``("reopen", conn)`` (a fresh connection to its address),
``("next", chunks)`` -> the source's next chunk or ``None``, ``("race",
waits, timeout)`` -> the first ``(conn, request_id)`` of ``waits`` whose
reply is ready or ``None`` on timeout, and ``("abandon", waits)``
(replies still due that nobody will read).

:class:`SketchClient` carries the requests out on a blocking socket on
the caller's thread (no event loop), which makes it safe to drive from
anywhere -- benchmark harnesses, shell tools, worker threads.
:class:`AsyncSketchClient` awaits them on a
:class:`~repro.service.protocol.FrameProtocol` connection, the server's
own frame reader, for callers already inside a loop (the coordinator
uses it).  A call on either client runs the same generator, so the two
behave alike by construction.

Server-side failures raise the *same* exceptions a local engine would
(:class:`~repro.distributed.codec.FingerprintMismatch`,
:class:`~repro.distributed.codec.SnapshotError`) or
:class:`~repro.service.protocol.ServiceError` carrying the remote
exception class; framing corruption raises
:class:`~repro.service.protocol.ProtocolError` and invalidates the
connection.

Fault tolerance
---------------
``connect`` rides out restarts through a
:class:`~repro.service.retry.RetryPolicy` (capped exponential backoff
under a total deadline); both transports apply the policy's
``op_timeout`` to every reply wait.  ``feed_chunks(..., retry=policy)``
sequences every chunk under this client's ``client_id``, so after a
dropped connection, a truncated frame, or a ``busy`` shed it reconnects
and retransmits everything unacknowledged **exactly-once** (the server
acks duplicates without re-applying them).  Only idempotent traffic
auto-retries: connects, and sequenced feeds.

Hedged reads
------------
``enable_hedging(host, port)`` arms the tail-latency defense for
*replicated* deployments (two servers fed the same stream, verified by
construction fingerprint): an ``estimate`` that has not answered within
the hedge delay is fired again at the backup server and the first full
reply wins.  The loser's reply is abandoned on its connection and
discarded later, never interleaved with a live request.  The delay
defaults to the p99 estimate latency (:func:`hedge_delay_from_metrics`);
outcomes land in ``repro_hedged_reads_total{outcome=}`` -- ``fast`` (no
hedge fired), ``primary`` / ``backup`` (hedge fired, who won),
``failover`` (primary connection died, backup answered).
"""

from __future__ import annotations

import asyncio
import functools
import select
import socket
import time
import uuid
from collections import deque
from typing import Optional

import numpy as np

from repro.distributed.codec import FingerprintMismatch
from repro.obs import (
    HEDGED_READS_METRIC,
    PHASE_SECONDS_METRIC,
    get_registry as _get_obs_registry,
    histogram_quantile,
    phase_histogram,
)
from repro.service.protocol import (
    DEFAULT_MAX_FRAME,
    FrameProtocol,
    make_request,
    raise_for_reply,
    recv_message,
    send_message,
    unpack_array,
    ProtocolError,
    SequenceGap,
    ServerBusy,
)
from repro.service.retry import RetryPolicy, count_retry

__all__ = [
    "SketchClient",
    "AsyncSketchClient",
    "DEFAULT_HEDGE_DELAY",
    "hedge_delay_from_metrics",
]

#: Default pipelining window for feed_chunks (unacknowledged batches).
DEFAULT_WINDOW = 8

#: Fallback hedge delay (seconds) when no latency histogram is recorded
#: (fresh process, or the ``REPRO_OBS=0`` kill switch).
DEFAULT_HEDGE_DELAY = 0.05

#: Phase label client-side estimate latency records under.
ESTIMATE_PHASE = "client.estimate"

#: A connection that is gone or out of step; the request may be resent.
_TRANSPORT_ERRORS = (OSError, ProtocolError)

_obs_registry = _get_obs_registry()
_obs_hedged = _obs_registry.counter(
    HEDGED_READS_METRIC,
    "Hedged estimate outcomes (fast/primary/backup/failover)",
)


def _observe_estimate(seconds: float) -> None:
    if _obs_registry.enabled:
        phase_histogram(_obs_registry).observe(seconds, phase=ESTIMATE_PHASE)


def hedge_delay_from_metrics(
    snapshot: Optional[dict] = None,
    *,
    quantile: float = 0.99,
    default: float = DEFAULT_HEDGE_DELAY,
) -> float:
    """The adaptive hedge delay: p99 of observed request latency.

    Reads the ``repro_phase_seconds`` histogram -- the client-side
    ``client.estimate`` series first (recorded by every un-hedged or
    fast-path estimate), the server-side ``service.request`` series as
    a fallback (available when client and server share a process, or
    when a scraped fleet snapshot is passed in).  Returns ``default``
    when neither series exists, including under ``REPRO_OBS=0``.
    """
    if snapshot is None:
        if not _obs_registry.enabled:
            return default
        snapshot = _obs_registry.snapshot()
    for phase in (ESTIMATE_PHASE, "service.request"):
        value = histogram_quantile(
            snapshot, PHASE_SECONDS_METRIC, quantile, phase=phase
        )
        if value is not None:
            return float(value)
    return default


def _as_feed_arrays(items, deltas) -> tuple[np.ndarray, np.ndarray]:
    items = np.ascontiguousarray(items, dtype=np.int64)
    deltas = np.ascontiguousarray(deltas, dtype=np.int64)
    if items.shape != deltas.shape or items.ndim != 1:
        raise ValueError(
            "feed needs aligned one-dimensional items/deltas arrays, got "
            f"shapes {items.shape} and {deltas.shape}"
        )
    return items, deltas


def _surface(steps):
    """Publish a core generator as a client method.

    The method hands the generator to the transport's ``_run``: the
    blocking client returns its result, the asyncio client a coroutine.
    """

    @functools.wraps(steps)
    def method(self, *args, **kwargs):
        return self._run(steps(self, *args, **kwargs))

    return method


class _ClientCore:
    """Client identity, counters and every client decision, as generators.

    A transport subclass supplies ``_run`` (drive a generator, carrying
    out its I/O requests), the per-connection primitives those requests
    name (``_send``, ``_drain``, ``_open``, ``_race``, ``_abandon``) and
    ``_shut`` (drop the connection without waiting).
    """

    def __init__(
        self,
        max_frame: int = DEFAULT_MAX_FRAME,
        *,
        client_id: Optional[str] = None,
    ) -> None:
        self._max_frame = max_frame
        self._request_seq = 0
        self.server_info: Optional[dict] = None
        #: Opaque identity for sequenced (exactly-once) feeds; stable
        #: across reconnects of this client object.
        self.client_id = client_id or uuid.uuid4().hex
        self._feed_seq = 0
        #: Retries this client consumed (connects + feed replays).
        self.retries = 0
        self._hedge: Optional[dict] = None
        #: Functional hedged-read accounting (works under ``REPRO_OBS=0``).
        self.hedge_outcomes: dict[str, int] = {}

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        hello: bool = True,
        client_id: Optional[str] = None,
    ):
        """Connect under a retry policy and perform the ``hello`` handshake.

        ``retry=`` takes a full :class:`RetryPolicy` (backoff, deadline,
        per-op timeout); bare ``retries=N`` gets the default
        capped-exponential shape.  The handshake pins the server's sketch
        class and construction fingerprint in ``client.server_info``.
        On :class:`AsyncSketchClient` the call returns a coroutine.
        """
        if retry is None:
            retry = RetryPolicy(max_attempts=retries + 1)
        client = cls(max_frame, client_id=client_id)
        return client._run(client._connect((host, port), retry, hello))

    # -- connections --------------------------------------------------------

    def _connect(self, address: tuple[str, int], policy: RetryPolicy, hello: bool):
        self._address, self._policy, self._hello = address, policy, hello
        return (yield from self._reconnect(policy.start()))

    def _reconnect(self, schedule=None):
        """A fresh connection to the remembered address, then ``hello``.

        Keeps this client's identity (``client_id``, feed ``seq``
        counter) so the server's dedup recognizes replays.  Refused
        attempts back off on ``schedule`` (``connect``'s); without one
        there is a single attempt: the resilient feed owns backoff, so a
        refused connect surfaces as ``OSError`` for it to schedule.
        """
        while True:
            try:
                yield ("reopen", self)
                break
            except OSError:
                delay = schedule.next_delay() if schedule is not None else None
                if delay is None:
                    raise
                count_retry("connect")
                yield ("sleep", delay)
        if self._hello:
            self.server_info = yield from self._call("hello")
        return self

    _reopen = _surface(_reconnect)

    def _call(self, op: str, fields: Optional[dict] = None):
        request_id = yield ("send", self, op, fields or {})
        return (yield ("recv", self, request_id))

    # -- the call surface ---------------------------------------------------

    @_surface
    def hello(self):
        """Server identity: sketch class, fingerprint, fleet shape."""
        return (yield from self._call("hello"))

    @_surface
    def ping(self):
        """Liveness probe; returns ``{"pong": True, "position": ...}``."""
        return (yield from self._call("ping"))

    @_surface
    def stats(self):
        """The server's operational monitoring counters."""
        return (yield from self._call("stats"))

    @_surface
    def metrics(self):
        """The server's fleet-merged telemetry.

        Returns ``{"server", "snapshot", "exposition", "content_type"}``
        -- the obs-registry snapshot (mergeable with other servers' via
        :func:`repro.obs.merge_snapshots`) plus its Prometheus text
        rendering.
        """
        return (yield from self._call("metrics"))

    @_surface
    def alerts(self):
        """The server's current alert states.

        Returns ``{"server", "alerts", "firing", "evaluated_at"}``; the
        rule list is empty on servers without an attached
        :class:`~repro.obs.alerts.AlertEngine`.  Each call runs one
        evaluation pass on the server, so polling cadence is evaluation
        cadence.
        """
        return (yield from self._call("alerts"))

    @_surface
    def feed(self, items, deltas, *, seq: Optional[int] = None):
        """Send one update batch; returns ``{"count", "position"}``.

        With ``seq=`` the batch is sequenced under this client's
        identity (the exactly-once dedup channel ``feed_chunks`` uses);
        resending the *same* seq after a lost acknowledgement is safe.
        """
        items, deltas = _as_feed_arrays(items, deltas)
        fields = {"items": items, "deltas": deltas}
        if seq is not None:
            fields.update(client=self.client_id, seq=int(seq))
        return (yield from self._call("feed", fields))

    @_surface
    def feed_chunks(
        self,
        source,
        window: int = DEFAULT_WINDOW,
        retry: Optional[RetryPolicy] = None,
    ):
        """Stream ``(items, deltas)`` chunks with pipelined acknowledgements.

        Keeps up to ``window`` batches in flight: the socket send of
        chunk ``t+1`` overlaps the server's scatter of chunk ``t``.
        Returns ``{"count": total updates, "position": last ack'd}``.
        ``source`` is an iterable of chunk pairs (on the asyncio client,
        also an async iterable).  Without ``retry=``, the first fault
        propagates.

        With ``retry=`` a policy the stream survives faults,
        exactly-once: every chunk gets the next contiguous ``seq``
        (sent with this ``client_id``) *before* its first send and keeps
        it across resends.  The server rejects out-of-order seqs
        (:class:`SequenceGap`) and sheds only *before* the engine
        (:class:`ServerBusy`), so the unacknowledged chunks are always a
        contiguous suffix.  A dropped or corrupted connection triggers
        reconnect-and-retransmit of that suffix in seq order, a
        busy/gap rejection backs off and resends it, and the server
        acks duplicates without re-applying them.  One
        :class:`RetrySchedule` spans consecutive faults and resets on
        any acknowledgement, so the deadline bounds each outage rather
        than the whole (arbitrarily long) stream.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        chunks = source.__aiter__() if hasattr(source, "__aiter__") else iter(source)
        # Without a policy nothing is caught: the first fault propagates.
        refusals = (ServerBusy, SequenceGap) if retry is not None else ()
        faults = _TRANSPORT_ERRORS if retry is not None else ()
        unacked: deque[list] = deque()  # [request_id, seq, fields]
        refused: list[tuple[list, BaseException]] = []  # awaiting resend
        schedule = None
        total, position = 0, None

        def replay(kind: str, exc: BaseException, reopen: bool):
            """Back off, then resend every unacknowledged chunk in order."""
            nonlocal schedule
            entries = [*unacked, *(entry for entry, _ in refused)]
            unacked.clear()
            refused.clear()
            unacked.extend(sorted(entries, key=lambda entry: entry[1]))
            while True:
                if schedule is None:
                    schedule = retry.start()
                delay = schedule.next_delay()
                if delay is None:
                    raise exc
                self.retries += 1
                count_retry(kind)
                yield ("sleep", delay)
                try:
                    if reopen:
                        yield from self._reconnect()
                    for entry in unacked:
                        entry[0] = yield ("send", self, "feed", entry[2])
                    return
                except _TRANSPORT_ERRORS as retry_exc:
                    kind, exc, reopen = "reconnect", retry_exc, True

        def drain(limit: int):
            nonlocal position, schedule
            while len(unacked) + len(refused) > limit or (refused and not unacked):
                if not unacked:
                    # The whole suffix was refused (busy or gap): back
                    # off, then resend it on the live connection.
                    yield from replay("feed-replay", refused[0][1], reopen=False)
                    continue
                try:
                    reply = yield ("recv", self, unacked[0][0])
                except refusals as exc:
                    refused.append((unacked.popleft(), exc))
                    continue
                except faults as exc:
                    yield from replay("reconnect", exc, reopen=True)
                    continue
                unacked.popleft()
                if not reply.get("duplicate"):
                    position = reply["position"]
                schedule = None  # progress: fresh budget per outage

        while (chunk := (yield ("next", chunks))) is not None:
            items, deltas = _as_feed_arrays(*chunk)
            total += len(items)
            fields = {"items": items, "deltas": deltas}
            if retry is not None:
                self._feed_seq += 1
                fields.update(client=self.client_id, seq=self._feed_seq)
            entry = [None, self._feed_seq, fields]
            unacked.append(entry)
            try:
                entry[0] = yield ("send", self, "feed", fields)
            except faults as exc:
                yield from replay("reconnect", exc, reopen=True)
            yield from drain(window - 1)
        yield from drain(0)
        return {"count": total, "position": position}

    @_surface
    def estimate(self, items):
        """Batched point estimates from the server's merged state.

        Idempotent by construction, so this is the one call
        ``enable_hedging`` races against a backup replica.
        """
        fields = {"items": np.ascontiguousarray(items, dtype=np.int64)}
        started = time.perf_counter()
        if self._hedge is None:
            reply = yield from self._call("estimate", fields)
        else:
            reply, outcome = yield from self._hedged("estimate", fields)
            self._count_hedge(outcome)
        _observe_estimate(time.perf_counter() - started)
        return unpack_array(reply)

    @_surface
    def query(self, kind: Optional[str] = None):
        """The sketch family's native query (``kind="f2"`` for F2)."""
        return (yield from self._call("query", {"kind": kind}))

    @_surface
    def f2_estimate(self):
        """Second-moment estimate from the server's merged state."""
        return (yield from self._call("query", {"kind": "f2"}))

    @_surface
    def snapshot(self):
        """Wire-format snapshot of the server's merged state."""
        return (yield from self._call("snapshot"))

    @_surface
    def load_snapshot(
        self,
        data: bytes,
        position: Optional[int] = None,
        *,
        merge: bool = False,
    ):
        """Restore a snapshot into the server's fleet (recovery).

        ``merge=True`` folds the snapshot into the server's live state
        instead of replacing it -- the shard-migration handoff.
        """
        fields = {"snapshot": bytes(data)}
        if position is not None:
            fields["position"] = int(position)
        if merge:
            fields["merge"] = True
        return (yield from self._call("load_snapshot", fields))

    @_surface
    def checkpoint(self):
        """Force a server-side checkpoint write now."""
        return (yield from self._call("checkpoint"))

    # -- hedged reads -------------------------------------------------------

    def enable_hedging(
        self, host: str, port: int, *, delay: Optional[float] = None
    ) -> None:
        """Arm hedged estimates against a backup replica at ``host:port``.

        The backup connection opens lazily on the first hedge and its
        construction fingerprint must match the primary's.  ``delay`` is
        the seconds to wait on the primary before firing the hedge;
        ``None`` (default) re-derives the p99 from the latency histogram
        on every hedged call (:func:`hedge_delay_from_metrics`).
        """
        self._hedge = {"address": (host, int(port)), "delay": delay, "client": None}

    def _count_hedge(self, outcome: str) -> None:
        self.hedge_outcomes[outcome] = self.hedge_outcomes.get(outcome, 0) + 1
        if _obs_registry.enabled:
            _obs_hedged.add(1, outcome=outcome)

    def _release_backup(self):
        """Forget the hedge backup, dropping its connection; returns it."""
        backup = self._hedge["client"] if self._hedge is not None else None
        if backup is not None:
            self._hedge["client"] = None
            backup._shut()
        return backup

    def _hedge_backup(self):
        hedge = self._hedge
        if hedge["client"] is None:
            backup = yield from type(self)(self._max_frame)._connect(
                hedge["address"], self._policy, True
            )
            mine = (self.server_info or {}).get("fingerprint")
            if mine not in (None, backup.server_info.get("fingerprint")):
                backup._shut()
                raise FingerprintMismatch(
                    "hedge backup's construction fingerprint disagrees with "
                    "the primary's; hedged reads need identically "
                    "constructed replicas"
                )
            hedge["client"] = backup
        return hedge["client"]

    def _hedged(self, op: str, fields: dict):
        """Race ``op`` on the primary against the backup; ``(reply, outcome)``."""
        request_id = yield ("send", self, op, fields)
        delay = self._hedge["delay"]
        if delay is None:
            delay = hedge_delay_from_metrics()
        primary_exc: Optional[BaseException] = None
        if (yield ("race", [(self, request_id)], max(delay, 0.0))) is not None:
            try:
                return (yield ("recv", self, request_id)), "fast"
            except _TRANSPORT_ERRORS as exc:
                # Primary died inside the hedge window: hedge anyway --
                # the backup turns a would-be error into a failover.
                primary_exc = exc
        try:
            backup = yield from self._hedge_backup()
            backup_id = yield ("send", backup, op, fields)
        except FingerprintMismatch:
            if primary_exc is None:
                yield ("abandon", [(self, request_id)])
            raise
        except _TRANSPORT_ERRORS:
            # Backup unusable: fall back to waiting out the primary.
            self._release_backup()
            if primary_exc is not None:
                raise primary_exc
            return (yield ("recv", self, request_id)), "fast"
        waits = [(backup, backup_id)]
        if primary_exc is None:
            waits.insert(0, (self, request_id))
        while True:
            ready = yield ("race", waits, self._policy.op_timeout)
            if ready is None:
                yield ("abandon", waits)
                raise OSError("hedged read timed out on both servers")
            waits.remove(ready)
            try:
                reply = yield ("recv", *ready)
            except _TRANSPORT_ERRORS as exc:
                if ready[0] is backup:
                    self._release_backup()
                else:
                    primary_exc = exc
                if not waits:
                    raise
                continue
            except Exception:
                # An authoritative server error: the other reply is moot.
                yield ("abandon", waits)
                raise
            yield ("abandon", waits)
            if ready[0] is self:
                return reply, "primary"
            return reply, "backup" if primary_exc is None else "failover"


class SketchClient(_ClientCore):
    """Blocking-socket client for one :class:`SketchServer`.

    Usage::

        with SketchClient.connect("127.0.0.1", port) as client:
            client.feed(items, deltas)
            counts = client.estimate(probe_items)
    """

    _sock: Optional[socket.socket] = None

    def _run(self, steps):
        """Drive a core generator, carrying out its I/O on this thread."""
        result = error = None
        while True:
            try:
                request = steps.send(result) if error is None else steps.throw(error)
            except StopIteration as done:
                return done.value
            try:
                result, error = self._perform(*request), None
            except Exception as exc:
                result, error = None, exc

    @staticmethod
    def _perform(kind: str, target, *args):
        if kind == "send":
            return target._send(args[0], **args[1])
        if kind == "recv":
            return target._drain(*args)
        if kind == "race":
            return SketchClient._race(target, *args)
        if kind == "next":
            return next(target, None)
        if kind == "sleep":
            return time.sleep(target)
        if kind == "reopen":
            return target._open()
        for conn, request_id in target:  # abandon: _drain discards them
            conn._stale_ids.add(request_id)

    def _open(self) -> None:
        self._shut()
        sock = socket.create_connection(
            self._address, timeout=self._policy.op_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        #: Abandoned request ids whose replies are still due on this
        #: connection; ``_drain`` discards them on arrival.
        self._stale_ids: set[int] = set()

    def _shut(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass

    def _send(self, op: str, **fields) -> int:
        self._request_seq += 1
        send_message(self._sock, make_request(op, self._request_seq, **fields))
        return self._request_seq

    def _drain(self, request_id: int):
        message = recv_message(self._sock, self._max_frame)
        while message.get("id") in self._stale_ids:  # an abandoned reply
            self._stale_ids.discard(message["id"])
            message = recv_message(self._sock, self._max_frame)
        return raise_for_reply(message, request_id)

    def _request(self, op: str, **fields):
        return self._drain(self._send(op, **fields))

    @staticmethod
    def _race(waits: list, timeout: Optional[float]):
        socks = [conn._sock for conn, _ in waits]
        readable, _, _ = select.select(socks, [], [], timeout)
        return next(
            (wait for wait, sock in zip(waits, socks) if sock in readable), None
        )

    def close(self) -> None:
        """Close the socket and any hedge backup (idempotent)."""
        self._release_backup()
        self._shut()

    def __enter__(self) -> "SketchClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _discard(task: asyncio.Task) -> None:
    """Cancel a reply read nobody will await (retrieving any failure)."""
    if not task.done():
        task.cancel()
    elif not task.cancelled():
        task.exception()


class AsyncSketchClient(_ClientCore):
    """Asyncio client: :class:`SketchClient`'s surface, as coroutines."""

    _conn: Optional[FrameProtocol] = None

    async def _run(self, steps):
        """Drive a core generator, awaiting its I/O on this loop."""
        result = error = None
        while True:
            try:
                request = steps.send(result) if error is None else steps.throw(error)
            except StopIteration as done:
                return done.value
            try:
                result, error = await self._perform(*request), None
            except Exception as exc:
                result, error = None, exc

    @staticmethod
    async def _perform(kind: str, target, *args):
        if kind == "send":
            return await target._send(args[0], **args[1])
        if kind == "recv":
            return await target._drain(*args)
        if kind == "race":
            return await AsyncSketchClient._race(target, *args)
        if kind == "next":
            if hasattr(target, "__anext__"):
                return await anext(target, None)
            return next(target, None)
        if kind == "sleep":
            return await asyncio.sleep(target)
        if kind == "reopen":
            return await target._open()
        for conn, request_id in target:  # abandon
            conn._abandon(request_id)

    async def _open(self) -> None:
        if self._conn is not None:
            self._shut()
            await self._conn.wait_closed()
        opening = asyncio.get_running_loop().create_connection(
            lambda: FrameProtocol(self._max_frame), *self._address
        )
        try:
            _, self._conn = await asyncio.wait_for(
                opening, self._policy.op_timeout
            )
        except asyncio.TimeoutError:
            raise OSError("connect timed out") from None
        #: Reply reads a race started, by request id.
        self._reading: dict[int, asyncio.Task] = {}
        #: An abandoned reply read still due on this connection; awaited
        #: (its reply discarded) before the next send.
        self._pending_drain: Optional[asyncio.Task] = None

    def _shut(self) -> None:
        if self._conn is None:
            return
        for task in (*self._reading.values(), self._pending_drain):
            if task is not None:
                _discard(task)
        self._reading, self._pending_drain = {}, None
        self._conn.abort()

    async def _send(self, op: str, **fields) -> int:
        task, self._pending_drain = self._pending_drain, None
        if task is not None:
            # The loser of a hedged race is still reading its reply off
            # this stream; let it finish before writing the next request.
            try:
                await task
            except Exception:
                pass
        self._request_seq += 1
        await self._conn.write(make_request(op, self._request_seq, **fields))
        return self._request_seq

    async def _drain(self, request_id: int):
        task = self._reading.pop(request_id, None)
        if task is not None:
            return await task
        return await self._read_reply(request_id)

    async def _read_reply(self, request_id: int):
        try:
            message = await asyncio.wait_for(
                self._conn.read(), self._policy.op_timeout
            )
        except asyncio.TimeoutError:
            raise OSError("reply timed out") from None
        if message is None:
            raise ProtocolError("connection closed while awaiting a reply")
        return raise_for_reply(message, request_id)

    @staticmethod
    async def _race(waits: list, timeout: Optional[float]):
        tasks = {}
        for conn, request_id in waits:
            task = conn._reading.get(request_id)
            if task is None:
                task = asyncio.ensure_future(conn._read_reply(request_id))
                conn._reading[request_id] = task
            tasks[task] = (conn, request_id)
        done, _ = await asyncio.wait(
            tasks, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
        )
        return next((wait for task, wait in tasks.items() if task in done), None)

    def _abandon(self, request_id: int) -> None:
        task = self._reading.pop(request_id, None)
        if task is None:
            task = asyncio.ensure_future(self._read_reply(request_id))
        if task.done():
            _discard(task)
        else:
            self._pending_drain = task

    async def close(self) -> None:
        """Close the connection and any hedge backup; waits for both to drop."""
        backup = self._release_backup()
        self._shut()
        for client in (backup, self):
            if client is not None and client._conn is not None:
                await client._conn.wait_closed()

    async def __aenter__(self) -> "AsyncSketchClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
