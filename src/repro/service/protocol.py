"""The sketch service wire protocol: one message schema for every party.

Design
------
Client, server, and coordinator all speak the same length-prefixed frame
format carrying one *message* per frame -- a plain dict with an ``"op"``
key -- encoded with the deterministic value codec the snapshot wire
format already trusts (:func:`repro.distributed.codec.encode_value`).
Reusing that codec means update batches travel as raw little-endian
int64 array bytes (no per-element Python marshalling on the hot path),
big ints survive exactly, and a sketch snapshot is just a ``bytes``
field inside a message -- the construction-fingerprint checks of
:mod:`repro.distributed.codec` keep guarding every snapshot that moves
over a socket, unchanged.

Frame layout::

    MAGIC "RSV1" | u32 payload length (big-endian) | payload =
        encode_value(message dict)

Copies and ownership
--------------------
Large int64 arrays (update batches, probe sets, estimates) and large
``bytes`` fields cross the wire without a user-space copy; the bytes
are the same as those of a copying encoder:

* :func:`pack_message` returns a :class:`Frame`: the header plus the
  codec's segments, in which every body of at least
  :data:`~repro.distributed.codec.VIEW_MIN_BYTES` is a view of the
  caller's own array.  :func:`send_message` passes the segments to
  ``sendmsg``; :meth:`FrameProtocol.write` passes them to
  ``transport.writelines``, which sends them with ``sendmsg`` from
  Python 3.12 and joins them once before sending on 3.10 and 3.11.
* :func:`recv_message` and :class:`FrameProtocol` check the header
  against ``max_frame`` before they allocate anything, then
  ``recv_into`` one fresh buffer per frame that is never reused.
  Between frames :class:`FrameProtocol` reads into a 64 KiB staging
  buffer, so small frames arrive whole in one read; it copies out of it
  a small frame, or the first bytes of a large one (those that came
  with the header), and the rest of a large frame lands in place.
* :func:`unpack_message` decodes each 8-byte-aligned int64 body as a
  view into that buffer and copies a misaligned one once: the layout
  puts the ``deltas`` of a 65536-update feed at payload offset 5 mod 8,
  for one.  Either way every array handed on is aligned, writable and
  shares memory with no other message, so it may outlive its request
  (in a journal, say).

A sent array is read while the send call runs (``send_message``,
``FrameProtocol.write``) and never after: the caller may change it once
the call returns, and not before.

A frame that fails any structural check -- bad magic, a length above the
negotiated cap, truncated payload, a payload that does not decode to a
dict with a string ``"op"`` -- raises :class:`ProtocolError`; framing
errors are not recoverable mid-stream, so peers close the connection.
Application-level failures (an unknown op, a sketch rejecting an update,
a fingerprint mismatch on a snapshot) travel *inside* the protocol as
error replies and leave the connection usable.

Requests carry a client-assigned ``"id"`` echoed in the reply, so
clients may pipeline many requests before draining acknowledgements --
the server processes each connection's requests in FIFO order.

Ops
---
``hello``            server identity, API version, sketch class +
                     construction fingerprint, fleet shape
``feed``             one ``(items, deltas)`` int64 update batch;
                     optional ``client`` (opaque id) + ``seq``
                     (contiguous per-client counter) make it
                     exactly-once under reconnect-and-replay: a
                     duplicate seq acks without re-applying, a gap is
                     rejected with :class:`SequenceGap` before the
                     engine sees it
``estimate``         batched point queries (``items`` int64 array)
``query``            the sketch family's native query (``kind="f2"``
                     routes to ``f2_estimate``; default heavy-hitter /
                     family query)
``snapshot``         wire-format snapshot of the merged state
``load_snapshot``    restore a snapshot into the fleet (recovery)
``checkpoint``       force a checkpoint write now
``stats`` / ``ping`` liveness + operational monitoring counters
``metrics``          obs-registry snapshot + Prometheus exposition text
                     (fleet-merged telemetry; see :mod:`repro.obs`)
``alerts``           current alert-rule states from the server's
                     :class:`~repro.obs.alerts.AlertEngine` (evaluated
                     on request; empty when no engine is attached) --
                     the coordinator merges these into the fleet view
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from typing import Any, Optional

import numpy as np

from repro.distributed.codec import (
    FingerprintMismatch,
    SnapshotError,
    decode_value,
    encode_segments,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME",
    "ProtocolError",
    "SequenceGap",
    "ServerBusy",
    "ServiceError",
    "Frame",
    "FrameProtocol",
    "pack_message",
    "unpack_message",
    "recv_message",
    "send_message",
    "make_request",
    "make_reply",
    "make_error_reply",
    "raise_for_reply",
    "pack_array",
    "unpack_array",
    "sanitize_value",
]

MAGIC = b"RSV1"
PROTOCOL_VERSION = 1

#: Frames above this are rejected before any allocation happens.  Large
#: enough for multi-megabyte update batches and merged SIS snapshots,
#: small enough that a corrupt length prefix cannot demand gigabytes.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">4sI")

#: Ops a server accepts (everything else is an application-level error).
REQUEST_OPS = frozenset(
    {
        "hello",
        "feed",
        "estimate",
        "query",
        "snapshot",
        "load_snapshot",
        "checkpoint",
        "stats",
        "ping",
        "metrics",
        "alerts",
    }
)


class ProtocolError(ValueError):
    """A frame is structurally invalid; the connection cannot continue."""


class ServiceError(RuntimeError):
    """A well-formed request failed on the server.

    Carries the server-side exception class name in ``kind`` so clients
    can distinguish e.g. a fingerprint rejection from a bad op.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class ServerBusy(ServiceError):
    """The server shed this request: its engine queue stayed saturated
    past the configured queue deadline.  Retryable by construction --
    the request was rejected *before* touching the engine, so resending
    it later is safe (and sequenced feeds stay exactly-once)."""

    def __init__(self, message: str) -> None:
        RuntimeError.__init__(self, message)
        self.kind = "ServerBusy"


class SequenceGap(ServiceError):
    """A sequenced feed skipped ahead of the server's contiguity window.

    The server applies each client's feeds in contiguous ``seq`` order:
    a gap means an earlier feed failed (shed, or lost with its
    connection) while a later one arrived.  Rejecting the later one --
    again before the engine -- keeps every client's failure set a
    contiguous suffix, which is what makes retransmit-all-pending
    exactly-once.
    """

    def __init__(self, message: str) -> None:
        RuntimeError.__init__(self, message)
        self.kind = "SequenceGap"


# -- framing -----------------------------------------------------------------


class Frame:
    """One wire frame: the header, then the payload's segments.

    ``len(frame)`` is the frame's wire byte count, iterating yields the
    segments in wire order (what ``sendmsg`` and ``writelines`` take), and
    ``bytes(frame)`` joins them (one copy; for tests and tools).
    """

    __slots__ = ("segments", "nbytes")

    def __init__(self, segments: list, nbytes: int) -> None:
        self.segments = segments
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes

    def __iter__(self):
        return iter(self.segments)

    def __bytes__(self) -> bytes:
        return b"".join(self.segments)


def pack_message(message: dict) -> Frame:
    """One message dict -> one wire frame (views of its large arrays)."""
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        raise ProtocolError("message must be a dict with a string 'op'")
    segments = encode_segments(message)
    length = sum(map(len, segments))
    return Frame([_HEADER.pack(MAGIC, length), *segments], _HEADER.size + length)


def unpack_message(payload) -> dict:
    """Decode one frame payload back into a message dict, validated.

    A writable ``payload`` is handed over: its int64 arrays may come
    back as views into it (see :func:`repro.distributed.codec.decode_value`).
    """
    try:
        message = decode_value(payload)
    except SnapshotError as exc:
        raise ProtocolError(f"frame payload does not decode: {exc}") from None
    if not isinstance(message, dict) or not isinstance(message.get("op"), str):
        raise ProtocolError("frame payload is not a message dict")
    return message


def _check_header(header, max_frame: int) -> int:
    """The payload length a frame header announces, checked before any
    buffer for the payload exists."""
    if len(header) < _HEADER.size:
        raise ProtocolError("truncated frame header")
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte cap"
        )
    return length


def _recv_into(sock, buffer: bytearray, started: bool) -> None:
    view = memoryview(buffer)
    filled = 0
    while filled < len(view):
        count = sock.recv_into(view[filled:])
        if not count:
            raise ProtocolError(
                "connection closed mid-frame"
                if started or filled
                else "connection closed"
            )
        filled += count


def recv_message(sock, max_frame: int = DEFAULT_MAX_FRAME) -> dict:
    """Read one message from a blocking socket.

    The header is checked against ``max_frame`` first; then the payload
    is received with ``recv_into`` straight into its own fresh buffer,
    which the decoded arrays may keep.
    """
    header = bytearray(_HEADER.size)
    _recv_into(sock, header, started=False)
    payload = bytearray(_check_header(header, max_frame))
    _recv_into(sock, payload, started=True)
    return unpack_message(payload)


#: Buffers per ``sendmsg`` call (the Linux and macOS ``IOV_MAX``).
_IOV_MAX = 1024


def send_message(sock, message: dict) -> None:
    """Write one message to a blocking socket, scatter-gather.

    ``sendmsg`` reads the frame's segments in place, so large arrays go
    from the caller's ndarray to the kernel without a user-space copy;
    the arrays must not change until this returns.
    """
    segments = list(pack_message(message))
    while segments:
        sent = sock.sendmsg(segments[:_IOV_MAX])
        done = 0
        while done < len(segments) and sent >= len(segments[done]):
            sent -= len(segments[done])
            done += 1
        segments = segments[done:]
        if sent:
            segments[0] = memoryview(segments[0])[sent:]


#: What :class:`FrameProtocol` reads into between frames (see the
#: module docstring).
_STAGING_BYTES = 64 * 1024


class FrameProtocol(asyncio.BufferedProtocol):
    """One RSV1 connection on an asyncio transport, server or client side.

    Reading: the transport receives with ``recv_into`` into the buffers
    :meth:`get_buffer` hands it.  A header is checked against
    ``max_frame`` before the frame's buffer is allocated; every frame gets
    a fresh buffer, never reused, so arrays decoded from it may outlive
    the request.  Complete frames queue until :meth:`read` takes them,
    and the transport is paused while one waits, so a slow consumer
    pushes back through TCP.
    A malformed header or an EOF inside a frame ends the stream with a
    :class:`ProtocolError` after the frames before it.

    Writing: :meth:`write` hands the frame's segments to
    ``transport.writelines`` and returns once the kernel holds all of
    them, so a sent array is read only while the call is running.

    ``on_connect(protocol)`` runs when the connection is made (the server
    starts a request handler there).
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME, on_connect=None) -> None:
        self.max_frame = max_frame
        self.transport: Optional[asyncio.Transport] = None
        self._on_connect = on_connect
        self._staging = memoryview(bytearray(_STAGING_BYTES))
        self._staged = 0
        #: The large frame being received in place, and its filled length.
        self._frame: Optional[memoryview] = None
        self._filled = 0
        self._frames: deque = deque()
        self._failure: Optional[BaseException] = None
        self._eof = False
        self._reader: Optional[asyncio.Future] = None
        self._read_paused = False
        self._write_paused = False
        self._drained: Optional[asyncio.Future] = None
        #: Resolved once ``connection_lost`` has run (made on connect).
        self.closed: Optional[asyncio.Future] = None

    # -- transport callbacks --------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.closed = asyncio.get_running_loop().create_future()
        # Zero limits: anything left unsent pauses writing (see write()).
        transport.set_write_buffer_limits(0)
        if self._on_connect is not None:
            self._on_connect(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._frame is not None:
            return self._frame[self._filled :]
        return self._staging[self._staged :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._failure is not None:
            return  # the stream is over; drop what was still in flight
        if self._frame is not None:
            self._filled += nbytes
            if self._filled == len(self._frame):
                self._queue(self._frame.obj)
                self._frame = None
            return
        self._staged += nbytes
        staging, start = self._staging, 0
        while self._failure is None and self._staged - start >= _HEADER.size:
            body = start + _HEADER.size
            try:
                length = _check_header(staging[start:body], self.max_frame)
            except ProtocolError as exc:
                self._fail(exc)
                return
            arrived = min(length, self._staged - body)
            payload = bytearray(length)
            payload[:arrived] = staging[body : body + arrived]
            start = body + arrived
            if arrived == length:
                self._queue(payload)
            else:
                self._frame, self._filled = memoryview(payload), arrived
        rest = self._staged - start
        if rest and start:
            staging[:rest] = bytes(staging[start : self._staged])
        self._staged = rest

    def eof_received(self) -> bool:
        self._end(None)
        return True  # keep the transport open for the replies still due

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        self._end(exc)
        if self._drained is not None and not self._drained.done():
            self._drained.set_exception(ConnectionResetError("connection lost"))
        if self.closed is not None and not self.closed.done():
            self.closed.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._drained is not None and not self._drained.done():
            self._drained.set_result(None)

    # -- reading ----------------------------------------------------------

    def _queue(self, payload: bytearray) -> None:
        self._frames.append(payload)
        if self._reader is not None and not self._reader.done():
            self._wake()  # taken at once: it does not wait
        else:
            self._pause_reading()

    def _fail(self, exc: BaseException) -> None:
        self._failure = exc
        self._frame, self._staged = None, 0
        self._wake()
        self._pause_reading()

    def _pause_reading(self) -> None:
        if not self._read_paused and self.transport is not None:
            self._read_paused = True
            self.transport.pause_reading()

    def _end(self, exc: Optional[BaseException]) -> None:
        if self._failure is None:
            if exc is not None:
                self._fail(exc)
            elif self._frame is not None or self._staged:
                self._fail(ProtocolError("connection closed inside a frame"))
        self._eof = True
        self._wake()

    def _wake(self) -> None:
        if self._reader is not None and not self._reader.done():
            self._reader.set_result(None)

    async def read(self) -> Optional[dict]:
        """The next message; ``None`` on a clean EOF at a frame boundary.

        Raises :class:`ProtocolError` for a malformed frame or an EOF
        inside one, and the transport's error if the connection broke.
        Cancelling a read loses nothing: frames queue whole.
        """
        while not self._frames:
            if self._failure is not None:
                raise self._failure
            if self._eof:
                return None
            if self._reader is not None:
                raise RuntimeError("read() called while another read() waits")
            self._reader = asyncio.get_running_loop().create_future()
            try:
                await self._reader
            finally:
                self._reader = None
        payload = self._frames.popleft()
        if self._read_paused and not self._frames and self._failure is None:
            self._read_paused = False
            self.transport.resume_reading()
        return unpack_message(payload)

    # -- writing ----------------------------------------------------------

    async def write(self, message: dict) -> None:
        """Send one message; returns once the kernel holds all of it."""
        transport = self.transport
        if transport is None or transport.is_closing():
            raise ConnectionResetError("connection lost")
        transport.writelines(pack_message(message))
        if transport.get_write_buffer_size():
            # Zero limits pause writing while anything is unsent; setting
            # them again makes the transport check now, which writelines()
            # leaves out on Python 3.12 and 3.13.
            transport.set_write_buffer_limits(0)
            if self._write_paused:
                self._drained = asyncio.get_running_loop().create_future()
                try:
                    await self._drained
                finally:
                    self._drained = None

    # -- closing ------------------------------------------------------------

    def close(self) -> None:
        """Close after the buffered writes flush (idempotent)."""
        if self.transport is not None:
            self.transport.close()

    def abort(self) -> None:
        """Close now, dropping unsent writes (idempotent)."""
        if self.transport is not None:
            self.transport.abort()

    async def wait_closed(self) -> None:
        """Until ``connection_lost`` has run."""
        if self.closed is not None:
            await asyncio.shield(self.closed)


# -- message constructors ----------------------------------------------------


def make_request(op: str, request_id: int, **fields: Any) -> dict:
    """A request message (``op`` + echoed ``id`` + op-specific fields)."""
    message = {"op": op, "id": int(request_id)}
    message.update(fields)
    return message


def make_reply(request_id: Any, result: Any) -> dict:
    """A success reply echoing the request id."""
    return {"op": "reply", "id": request_id, "ok": True, "result": result}


def make_error_reply(request_id: Any, exc: BaseException) -> dict:
    """A failure reply carrying the exception class name and message."""
    return {
        "op": "reply",
        "id": request_id,
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }


def raise_for_reply(message: dict, request_id: int) -> Any:
    """Validate a reply and return its result, re-raising server errors.

    Fingerprint rejections come back as
    :class:`~repro.distributed.codec.FingerprintMismatch` (and malformed
    snapshots as :class:`~repro.distributed.codec.SnapshotError`) so
    callers handle wire rejections exactly like local ones; everything
    else raises :class:`ServiceError`.
    """
    if message.get("op") != "reply":
        raise ProtocolError(f"expected a reply, got op {message.get('op')!r}")
    if message.get("id") != request_id:
        raise ProtocolError(
            f"reply id {message.get('id')!r} does not match request "
            f"{request_id} (stream desynchronized)"
        )
    if message.get("ok"):
        return message.get("result")
    kind = str(message.get("error", "ServiceError"))
    text = str(message.get("message", ""))
    if kind == "FingerprintMismatch":
        raise FingerprintMismatch(text)
    if kind == "SnapshotError":
        raise SnapshotError(text)
    if kind == "ServerBusy":
        raise ServerBusy(text)
    if kind == "SequenceGap":
        raise SequenceGap(text)
    raise ServiceError(kind, text)


# -- value helpers -----------------------------------------------------------


def pack_array(array: np.ndarray) -> dict:
    """An estimate-result array as codec-friendly exact bytes.

    int64 arrays ride the codec's native ndarray tag; float64 arrays
    (CountSketch/AMS estimates) travel as raw little-endian IEEE bytes --
    bit-identical either way.
    """
    array = np.asarray(array)
    if array.dtype == np.int64:
        return {"kind": "i8", "data": array}
    if array.dtype == np.float64:
        return {
            "kind": "f8",
            "data": np.ascontiguousarray(array, dtype="<f8").tobytes(),
            "length": int(array.size),
        }
    raise ProtocolError(f"unsupported estimate dtype {array.dtype}")


def unpack_array(packed: Any) -> np.ndarray:
    """Inverse of :func:`pack_array`."""
    if not isinstance(packed, dict) or "kind" not in packed:
        raise ProtocolError("malformed packed array")
    if packed["kind"] == "i8":
        data = packed["data"]
        if not isinstance(data, np.ndarray) or data.dtype != np.int64:
            raise ProtocolError("packed i8 array carries no int64 data")
        return data
    if packed["kind"] == "f8":
        return np.frombuffer(packed["data"], dtype="<f8").astype(
            np.float64, copy=True
        )[: packed.get("length")]
    raise ProtocolError(f"unknown packed-array kind {packed['kind']!r}")


def sanitize_value(value: Any) -> Any:
    """Fold numpy scalars/arrays into codec-encodable plain values.

    Query answers (heavy-hitter dicts, float F2 estimates, int L0
    counts) may carry numpy scalar types; the codec only speaks plain
    Python values plus int64/object ndarrays.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        if value.dtype == np.int64 or value.dtype == object:
            return value
        return pack_array(value)
    if isinstance(value, dict):
        return {sanitize_value(k): sanitize_value(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(sanitize_value(v) for v in value)
    if isinstance(value, list):
        return [sanitize_value(v) for v in value]
    return value
