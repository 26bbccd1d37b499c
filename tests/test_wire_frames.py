"""Copy-free RSV1 frames: the same wire bytes, views only where safe.

The frame path sends large int64 arrays as views of the caller's arrays
and decodes them as views into a fresh per-frame buffer.  These tests pin
what must not move while the copies go:

* every wire byte -- sha256 digests of fixed ``feed`` (plain and
  sequenced), ``estimate`` and reply frames, and of a CountMin snapshot,
  recorded from the copying encoder -- so no protocol or codec version
  bump is needed;
* ownership -- arrays a client or ``restore_sketch`` hands back are
  writable, aligned and share memory with no other message;
* the decode rule -- a view only for a writable buffer and an aligned
  body, one copy otherwise.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.core.engine import StreamEngine
from repro.distributed.codec import (
    VIEW_MIN_BYTES,
    decode_value,
    encode_segments,
    encode_value,
    restore_sketch,
    snapshot_sketch,
)
from repro.heavyhitters.count_min import CountMinSketch
from repro.service import AsyncSketchClient, SketchClient, SketchServer
from repro.service.protocol import (
    SequenceGap,
    make_error_reply,
    make_reply,
    make_request,
    pack_array,
    pack_message,
    unpack_message,
)

#: sha256 of each frame (and of the snapshot) as the copying encoder wrote
#: them, before frames became segment lists.
GOLDEN = {
    "snapshot": "944fe46ac209917a2cc8af5519c6aa2b6a820e07baecdfc8f6fbc0cc138487a8",
    "feed": "3ce7c0e5ac5a6eac4535850a76a0632a8af25185292d0be5d16525eb56e71196",
    "feed_seq": "a9edc051003982c3efffb3bfb5d65c4f119a6ae7b024c6db34381680444cc99e",
    "feed_small": "1ce184f7e63b85a8a9f8b8ff1fc90955db3129f01edc769422f8ac4acdc833fe",
    "estimate": "834064b88dd88c5de3487d6711b3319cc460fbc8f9eb9960656517ee022cec93",
    "estimate_small": "7edbfa2da4faaf50ff6299e41db7f6e711b763e847bd36d99c6419060a5d76fe",
    "reply_ack": "86c9b1282f070de31c6b99f697304969238a35f1aa29574d131489adc9643f11",
    "reply_i8": "4c0c208874e80b375bd39dc99fb1add4106309e94e37b445cf7d600d2c1e02fa",
    "reply_f8": "7385829e238f74a7e90b1135ae00561fd102a2c4ad0e3e30f440dd3e066fbd96",
    "reply_error": "1c0455197d86da78c6fa0015dcd58bbe6aeeaa1633278a40100bb0b6b7a97050",
    "reply_snapshot": "860e3fe70077d2fd97f91e90300d1ce74b20e7a8bc483839dee6479c281b55ec",
    "mixed": "f5443da914f0c4fcecf9af13dd3d3a2648e4956a0424807f439fcf865005d6e7",
}


def pinned_values() -> dict:
    """The fixed messages (and snapshot) whose bytes ``GOLDEN`` pins."""
    rng = np.random.default_rng(20221014)
    items = rng.integers(0, 10**6, size=65536, dtype=np.int64)
    deltas = rng.integers(-8, 9, size=65536, dtype=np.int64)
    estimates = rng.integers(0, 1 << 40, size=65536, dtype=np.int64)
    sketch = CountMinSketch(universe_size=1 << 14, depth=4, width=512, seed=7)
    StreamEngine(chunk_size=4096).drive_arrays(
        [sketch], items % (1 << 14), deltas
    )
    snapshot = snapshot_sketch(sketch)
    return {
        "snapshot": snapshot,
        "feed": make_request("feed", 7, items=items, deltas=deltas),
        "feed_seq": make_request(
            "feed", 8, items=items, deltas=deltas, client="c0ffee", seq=3
        ),
        "feed_small": make_request(
            "feed", 9, items=items[:100], deltas=deltas[:100]
        ),
        "estimate": make_request("estimate", 10, items=items),
        "estimate_small": make_request("estimate", 11, items=items[:256]),
        "reply_ack": make_reply(7, {"count": 65536, "position": 131072}),
        "reply_i8": make_reply(10, pack_array(estimates)),
        "reply_f8": make_reply(12, pack_array(rng.standard_normal(257))),
        "reply_error": make_error_reply(13, SequenceGap("seq 5 after 3")),
        "reply_snapshot": make_reply(14, snapshot),
        "mixed": {
            "op": "x",
            "table": estimates[:4096].reshape(64, 64),
            "strided": items[::3],
            "nested": [items[:7], (deltas, None)],
        },
    }


@pytest.fixture(scope="module")
def pinned():
    return pinned_values()


class TestPinnedWireBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_bytes_match_the_copying_encoder(self, pinned, name):
        value = pinned[name]
        if name == "snapshot":
            data = value
        else:
            frame = pack_message(value)
            data = bytes(frame)
            assert len(frame) == len(data)
            assert data[8:] == encode_value(value)
        assert hashlib.sha256(data).hexdigest() == GOLDEN[name]

    def test_large_bodies_are_views_of_the_callers_arrays(self, pinned):
        message = pinned["feed"]
        views = [
            np.frombuffer(segment, dtype=np.int64)
            for segment in pack_message(message)
            if len(segment) >= VIEW_MIN_BYTES
        ]
        arrays = (message["items"], message["deltas"])
        assert len(views) == 2
        assert all(
            sum(np.shares_memory(view, array) for view in views) == 1
            for array in arrays
        )

    def test_small_bodies_are_copied_inline(self, pinned):
        message = pinned["feed_small"]
        (segment,) = encode_segments(message)
        view = np.frombuffer(segment, dtype=np.uint8)
        assert not np.shares_memory(view, message["items"])


# -- the decode rule ------------------------------------------------------


def _feed_payload():
    """A feed payload in a fresh writable buffer, and its two arrays."""
    rng = np.random.default_rng(5)
    items = rng.integers(0, 1000, size=4096, dtype=np.int64)
    deltas = rng.integers(-3, 4, size=4096, dtype=np.int64)
    message = make_request("feed", 1, items=items, deltas=deltas)
    return bytearray(encode_value(message)), items, deltas


def _address(buffer) -> int:
    return np.frombuffer(buffer, dtype=np.uint8).ctypes.data


class TestDecodeRule:
    def test_writable_buffer_aligned_body_is_a_view(self):
        payload = encode_value({"x": np.arange(4096, dtype=np.int64)})
        body = payload.index(np.arange(4096, dtype=np.int64).tobytes())
        raw = bytearray(len(payload) + 8)
        shift = -(_address(raw) + body) % 8  # puts the body on 8 bytes
        raw[shift : shift + len(payload)] = payload
        array = decode_value(memoryview(raw)[shift : shift + len(payload)])["x"]
        assert array.flags.aligned and array.flags.writeable
        assert np.shares_memory(array, np.frombuffer(raw, dtype=np.uint8))
        assert np.array_equal(array, np.arange(4096))

    def test_each_body_is_a_view_iff_aligned_else_one_copy(self):
        payload, items, deltas = _feed_payload()
        message = unpack_message(payload)
        buffer = np.frombuffer(payload, dtype=np.uint8)
        for name, want in (("items", items), ("deltas", deltas)):
            array = message[name]
            assert array.flags.aligned and array.flags.writeable
            assert array.dtype == np.int64
            assert np.array_equal(array, want)
            offset = bytes(payload).index(want.tobytes())
            aligned = (_address(payload) + offset) % 8 == 0
            assert np.shares_memory(array, buffer) == aligned
        # A plain feed puts deltas at an offset that is not a multiple of 8.
        assert bytes(payload).index(deltas.tobytes()) % 8
        assert not np.shares_memory(message["items"], message["deltas"])

    def test_read_only_buffer_always_copies(self):
        payload, items, _ = _feed_payload()
        message = unpack_message(bytes(payload))
        for name in ("items", "deltas"):
            assert message[name].flags.writeable
            assert message[name].flags.aligned
        assert np.array_equal(message["items"], items)


# -- ownership of what clients and restore hand back ------------------------


def _factory():
    return CountMinSketch(universe_size=1 << 14, depth=4, width=512, seed=7)


def _assert_independent(arrays, others):
    for array in arrays:
        assert array.flags.writeable and array.flags.aligned
        for other in others:
            if other is not array:
                assert not np.shares_memory(array, other)


def _stream():
    rng = np.random.default_rng(3)
    items = rng.integers(0, 1 << 14, size=20_000, dtype=np.int64)
    deltas = rng.integers(1, 5, size=20_000, dtype=np.int64)
    return items, deltas


class TestOwnership:
    PROBES = (np.arange(256, dtype=np.int64), np.arange(8192, dtype=np.int64))

    def test_sync_estimates_are_writable_and_unshared(self):
        with SketchServer(_factory, chunk_size=4096).run_in_thread() as srv:
            with SketchClient.connect("127.0.0.1", srv.port) as client:
                client.feed(*_stream())
                answers = [client.estimate(p) for p in self.PROBES * 2]
        _assert_independent(answers, [*answers, *self.PROBES])
        assert np.array_equal(answers[1], answers[3])

    def test_async_estimates_are_writable_and_unshared(self):
        async def scenario(port):
            client = await AsyncSketchClient.connect("127.0.0.1", port)
            try:
                await client.feed(*_stream())
                return [await client.estimate(p) for p in self.PROBES * 2]
            finally:
                await client.close()

        with SketchServer(_factory, chunk_size=4096).run_in_thread() as srv:
            answers = asyncio.run(scenario(srv.port))
        _assert_independent(answers, [*answers, *self.PROBES])
        assert np.array_equal(answers[1], answers[3])

    def test_restored_state_is_writable_and_unshared(self):
        source = _factory()
        source.process_batch(*_stream())
        data = bytearray(snapshot_sketch(source))
        first = restore_sketch(_factory(), data)
        second = restore_sketch(_factory(), data)
        buffer = np.frombuffer(data, dtype=np.uint8)
        _assert_independent(
            [first.table, second.table], [first.table, second.table, buffer]
        )
        first.table[0, 0] += 1  # writable, and the other copy stays put
        assert first.table[0, 0] == second.table[0, 0] + 1
