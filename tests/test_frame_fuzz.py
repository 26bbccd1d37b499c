"""Fuzzing the RSV1 frame readers: only ``ProtocolError`` may escape.

Arbitrary bytes, truncations and corrupted valid frames go into the three
readers: :func:`unpack_message` (payload decode), :func:`recv_message`
over a ``socketpair``, and :class:`FrameProtocol` driven through
``get_buffer``/``buffer_updated`` directly, with no socket.  Each must
return messages or raise :class:`ProtocolError`; none may hang (a socket
timeout, or a ``read()`` that would wait after EOF, fails the test), the
two stream readers must agree message for message, and a frame whose
header announces more than ``max_frame`` is rejected before any buffer
for it is allocated.

Hypothesis runs derandomized under a fixed per-example deadline, so the
suite is the same on every run.
"""

import itertools
import socket
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.distributed.codec import encode_value
from repro.service.protocol import (
    MAGIC,
    FrameProtocol,
    ProtocolError,
    make_reply,
    make_request,
    pack_array,
    pack_message,
    recv_message,
    unpack_message,
)

MAX_FRAME = 4096

FUZZ = settings(
    max_examples=150,
    deadline=1000,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _valid_frames() -> list[bytes]:
    items = np.arange(40, dtype=np.int64) * 7919
    return [
        bytes(pack_message(message))
        for message in (
            make_request("ping", 1),
            make_request("feed", 2, items=items, deltas=-items),
            make_request("feed", 3, items=items[:5], deltas=items[:5],
                         client="c", seq=9),
            make_request("estimate", 4, items=items),
            make_reply(4, pack_array(items)),
            make_reply(5, pack_array(np.linspace(0, 1, 9))),
            make_reply(6, {"count": 40, "position": 2**70, "s": "é"}),
        )
    ]


VALID = _valid_frames()


@st.composite
def wire_streams(draw) -> bytes:
    """Valid frames, then corrupted: truncated, flipped, or with junk."""
    frames = draw(st.lists(st.sampled_from(VALID), max_size=4))
    data = bytearray(b"".join(frames))
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["flip", "cut", "junk"]))
        if action == "flip" and data:
            index = draw(st.integers(0, len(data) - 1))
            data[index] ^= draw(st.integers(1, 255))
        elif action == "cut" and data:
            del data[draw(st.integers(0, len(data) - 1)) :]
        elif action == "junk":
            at = draw(st.integers(0, len(data)))
            data[at:at] = draw(st.binary(max_size=64))
    return bytes(data)


def _canonical(messages) -> list[bytes]:
    return [encode_value(message) for message in messages]


def read_socket(data: bytes, max_frame: int = MAX_FRAME):
    """Every message :func:`recv_message` reads from ``data`` then EOF,
    and whether that EOF fell on a frame boundary."""
    sender, receiver = socket.socketpair()
    with sender, receiver:
        receiver.settimeout(5)  # a hang fails as socket.timeout
        sender.sendall(data)
        sender.shutdown(socket.SHUT_WR)
        messages = []
        while True:
            try:
                messages.append(recv_message(receiver, max_frame))
            except ProtocolError as exc:
                return messages, str(exc) == "connection closed"


def _read_now(protocol: FrameProtocol):
    """One ``read()`` that must finish without waiting (EOF was fed)."""
    coroutine = protocol.read()
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise AssertionError("read() waits after EOF: the reader would hang")


def read_protocol(data: bytes, cuts=(), max_frame: int = MAX_FRAME):
    """Messages :class:`FrameProtocol` reads from ``data`` delivered in
    pieces ending at ``cuts``, then EOF; and whether it ended in error."""
    protocol = FrameProtocol(max_frame)
    position = 0
    for cut in [*sorted(cuts), len(data)]:
        stop = min(cut, len(data))
        while position < stop:
            buffer = protocol.get_buffer(-1)
            assert len(buffer) > 0
            count = min(len(buffer), stop - position)
            buffer[:count] = data[position : position + count]
            protocol.buffer_updated(count)
            position += count
    protocol.eof_received()
    messages = []
    while True:
        try:
            message = _read_now(protocol)
        except ProtocolError:
            return messages, True
        if message is None:
            return messages, False
        messages.append(message)


class TestUnpackMessageFuzz:
    @FUZZ
    @given(st.binary(max_size=512))
    @example(b"s\x02\xff\xfe")  # not UTF-8
    @example(b"d\x01l\x00N")  # a list as a dict key
    @example(b"a\x02\x00" + b"\x80" * 10 + b"\x01")  # shape (0, 2**70)
    @example(b"l\x01" * 5000 + b"N")  # nested past the recursion limit
    def test_arbitrary_payloads(self, payload):
        try:
            message = unpack_message(payload)
        except ProtocolError:
            return
        assert isinstance(message, dict) and isinstance(message["op"], str)

    @FUZZ
    @given(wire_streams())
    def test_corrupted_frame_payloads(self, data):
        for payload in (data[8:], bytearray(data[8:])):
            try:
                unpack_message(payload)
            except ProtocolError:
                pass


class TestStreamReadersFuzz:
    @FUZZ
    @given(wire_streams(), st.lists(st.integers(0, 2048), max_size=6))
    def test_socket_and_protocol_readers_agree(self, data, cuts):
        from_socket, clean = read_socket(data)
        from_protocol, failed = read_protocol(data, cuts)
        assert _canonical(from_protocol) == _canonical(from_socket)
        assert failed != clean
        if data in VALID:
            assert clean and len(from_protocol) == 1

    @FUZZ
    @given(st.binary(max_size=1024), st.lists(st.integers(0, 1024), max_size=4))
    def test_arbitrary_bytes(self, data, cuts):
        from_socket, clean = read_socket(data)
        from_protocol, failed = read_protocol(data, cuts)
        assert _canonical(from_protocol) == _canonical(from_socket)
        assert failed != clean

    def test_valid_stream_reads_back_whole(self):
        data = b"".join(VALID)
        bounds = list(itertools.accumulate(map(len, VALID)))[:-1]
        # Pieces of 1 and 13 bytes, and pieces that end k bytes into the
        # next header after one or more whole frames.
        pieces = [range(0, len(data), 1), range(0, len(data), 13)]
        pieces += [[b + k for b in bounds] for k in range(1, 8)]
        for cuts in ((), *pieces):
            messages, failed = read_protocol(data, cuts)
            assert not failed and len(messages) == len(VALID)
        from_socket, clean = read_socket(data)
        assert clean and _canonical(from_socket) == _canonical(messages)


class TestOversizeFrames:
    """A header over ``max_frame`` is rejected before its buffer exists."""

    CAP = 1 << 20
    HEADER = MAGIC + struct.pack(">I", CAP + 1)

    @staticmethod
    def _peak(action) -> int:
        tracemalloc.start()
        try:
            action()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_recv_message(self):
        sender, receiver = socket.socketpair()
        with sender, receiver:
            receiver.settimeout(5)
            sender.sendall(self.HEADER + b"x" * 64)

            def read():
                with pytest.raises(ProtocolError, match="exceeds"):
                    recv_message(receiver, self.CAP)

            assert self._peak(read) < self.CAP // 4

    def test_frame_protocol(self):
        protocol = FrameProtocol(self.CAP)

        def read():
            buffer = protocol.get_buffer(-1)
            buffer[: len(self.HEADER)] = self.HEADER
            protocol.buffer_updated(len(self.HEADER))
            with pytest.raises(ProtocolError, match="exceeds"):
                _read_now(protocol)

        assert self._peak(read) < self.CAP // 4

    def test_object_array_count_is_bounded_by_the_payload(self):
        # An object ndarray claiming 2**40 elements in a 16-byte payload.
        payload = b"d\x01s\x02opO\x01" + b"\x80\x80\x80\x80\x80\x80\x40"

        def decode():
            with pytest.raises(ProtocolError):
                unpack_message(payload)

        assert self._peak(decode) < self.CAP // 4
