"""Wire-codec tests: round-trips, header validation, and size parity.

The hypothesis round-trip properties pin the invariant the mesh relies
on: any message the engine can emit survives encode → decode with its
payload intact. The size-parity tests pin the documented bound between
``len(encode_message(m))`` and the simulator's ``wire_bytes()``
estimates (codec module docstring), which keeps Max-N link budgets
computed from estimates honest on real sockets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import (
    CONTROL_MESSAGE_BYTES,
    ControlMessage,
    DktRequestMessage,
    GradientMessage,
    LossShareMessage,
    RcpShareMessage,
    WeightMessage,
)
from repro.transport.codec import (
    Bye,
    CodecError,
    FRAME_HEADER_BYTES,
    Heartbeat,
    Hello,
    MAGIC,
    VERSION,
    decode_frame_header,
    decode_message,
    encode_message,
    size_slack,
)

_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=12,
)
_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=32
)


@st.composite
def sparse_payloads(draw):
    """Dict of name -> (uint32 indices, float32 values), aligned 1-D."""
    payload = {}
    for name in draw(st.lists(_names, min_size=1, max_size=4, unique=True)):
        n = draw(st.integers(min_value=0, max_value=32))
        idx = np.array(
            draw(st.lists(st.integers(0, 2**31 - 1), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        vals = np.array(
            draw(st.lists(_f32, min_size=n, max_size=n)), dtype=np.float32
        )
        payload[name] = (idx, vals)
    return payload


@st.composite
def dense_payloads(draw):
    """Dict of name -> small float32 ndarray (1-3 dims)."""
    payload = {}
    for name in draw(st.lists(_names, min_size=1, max_size=3, unique=True)):
        shape = tuple(
            draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        )
        flat = draw(
            st.lists(
                _f32,
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            )
        )
        payload[name] = np.array(flat, dtype=np.float32).reshape(shape)
    return payload


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        sender=st.integers(0, 100),
        iteration=st.integers(0, 10**6),
        lbs=st.integers(1, 4096),
        payload=sparse_payloads(),
    )
    def test_sparse_gradients(self, sender, iteration, lbs, payload):
        msg = GradientMessage(
            sender=sender, iteration=iteration, lbs=lbs, sparse=payload
        )
        out = decode_message(encode_message(msg))
        assert isinstance(out, GradientMessage)
        assert (out.sender, out.iteration, out.lbs) == (sender, iteration, lbs)
        assert out.dense is None
        assert list(out.sparse) == list(payload)
        for name, (idx, vals) in payload.items():
            oi, ov = out.sparse[name]
            np.testing.assert_array_equal(oi, idx)
            np.testing.assert_array_equal(ov, vals)

    @settings(max_examples=50, deadline=None)
    @given(
        sender=st.integers(0, 100),
        iteration=st.integers(0, 10**6),
        lbs=st.integers(1, 4096),
        payload=dense_payloads(),
    )
    def test_dense_gradients(self, sender, iteration, lbs, payload):
        msg = GradientMessage(
            sender=sender, iteration=iteration, lbs=lbs, dense=payload
        )
        out = decode_message(encode_message(msg))
        assert out.sparse is None
        assert list(out.dense) == list(payload)
        for name, arr in payload.items():
            assert out.dense[name].shape == arr.shape
            np.testing.assert_array_equal(out.dense[name], arr)

    @settings(max_examples=30, deadline=None)
    @given(
        sender=st.integers(0, 100),
        iteration=st.integers(0, 10**6),
        payload=dense_payloads(),
    )
    def test_weights(self, sender, iteration, payload):
        msg = WeightMessage(sender=sender, iteration=iteration, weights=payload)
        out = decode_message(encode_message(msg))
        assert isinstance(out, WeightMessage)
        assert (out.sender, out.iteration) == (sender, iteration)
        for name, arr in payload.items():
            np.testing.assert_array_equal(out.weights[name], arr)

    @settings(max_examples=50, deadline=None)
    @given(
        sender=st.integers(0, 100),
        iteration=st.integers(0, 10**6),
        loss=st.floats(allow_nan=False, allow_infinity=False),
        rcp=st.floats(allow_nan=False, allow_infinity=False),
        samples=st.integers(0, 2**50),
        t=st.floats(min_value=0, max_value=1e9),
    )
    def test_small_messages(self, sender, iteration, loss, rcp, samples, t):
        for msg in (
            LossShareMessage(sender=sender, iteration=iteration, avg_loss=loss),
            DktRequestMessage(sender=sender, iteration=iteration),
            RcpShareMessage(sender=sender, rcp=rcp),
            Hello(sender, 1),
            Heartbeat(sender, samples, t),
            Bye(sender),
        ):
            assert decode_message(encode_message(msg)) == msg

    @settings(max_examples=30, deadline=None)
    @given(
        sender=st.integers(0, 100),
        kind=_names,
        payload=st.dictionaries(_names, st.integers(-1000, 1000), max_size=4),
    )
    def test_control(self, sender, kind, payload):
        msg = ControlMessage(sender=sender, kind=kind, payload=payload)
        out = decode_message(encode_message(msg))
        assert isinstance(out, ControlMessage)
        assert (out.sender, out.kind, out.payload) == (sender, kind, payload)


class TestSizeParity:
    """Satellite: codec frame sizes vs. the simulator's estimates."""

    def test_control_frames_match_estimates_exactly(self):
        for msg in (
            LossShareMessage(sender=1, iteration=7, avg_loss=0.5),
            DktRequestMessage(sender=2, iteration=9),
            RcpShareMessage(sender=3, rcp=42.0),
            ControlMessage(sender=4, kind="go", payload={"iteration": 3}),
        ):
            assert len(encode_message(msg)) == msg.wire_bytes()
            assert len(encode_message(msg)) == CONTROL_MESSAGE_BYTES

    def test_transport_frames_are_control_sized(self):
        for msg in (Hello(0, 1), Heartbeat(0, 123, 4.5), Bye(0)):
            assert len(encode_message(msg)) == CONTROL_MESSAGE_BYTES

    @settings(max_examples=40, deadline=None)
    @given(payload=sparse_payloads())
    def test_sparse_gradient_within_slack(self, payload):
        msg = GradientMessage(sender=0, iteration=1, lbs=32, sparse=payload)
        actual = len(encode_message(msg))
        assert abs(actual - msg.wire_bytes()) <= size_slack(len(payload))

    @settings(max_examples=40, deadline=None)
    @given(payload=dense_payloads())
    def test_dense_gradient_within_slack(self, payload):
        msg = GradientMessage(sender=0, iteration=1, lbs=32, dense=payload)
        actual = len(encode_message(msg))
        assert abs(actual - msg.wire_bytes()) <= size_slack(len(payload))

    @settings(max_examples=40, deadline=None)
    @given(payload=dense_payloads())
    def test_weight_snapshot_within_slack(self, payload):
        msg = WeightMessage(sender=0, iteration=1, weights=payload)
        actual = len(encode_message(msg))
        assert abs(actual - msg.wire_bytes()) <= size_slack(len(payload))


class TestValidation:
    def test_bad_magic_rejected(self):
        frame = bytearray(encode_message(Bye(0)))
        frame[0:2] = b"XX"
        with pytest.raises(CodecError, match="magic"):
            decode_message(bytes(frame))

    def test_bad_version_rejected(self):
        frame = bytearray(encode_message(Bye(0)))
        frame[2] = VERSION + 1
        with pytest.raises(CodecError, match="version"):
            decode_message(bytes(frame))

    def test_unknown_type_rejected(self):
        frame = bytearray(encode_message(Bye(0)))
        frame[3] = 250
        with pytest.raises(CodecError, match="unknown message type"):
            decode_message(bytes(frame))

    def test_short_header_rejected(self):
        with pytest.raises(CodecError, match="short header"):
            decode_frame_header(MAGIC)

    def test_length_mismatch_rejected(self):
        frame = encode_message(Bye(0))
        with pytest.raises(CodecError, match="length mismatch"):
            decode_message(frame[:-1])

    def test_truncated_gradient_body_rejected(self):
        payload = {"w": (np.arange(8, dtype=np.int64), np.ones(8, dtype=np.float32))}
        msg = GradientMessage(sender=0, iteration=1, lbs=32, sparse=payload)
        frame = bytearray(encode_message(msg))
        # Keep the header's body_len but hand decode a shorter body.
        body = bytes(frame[FRAME_HEADER_BYTES:-12])
        from repro.transport.codec import FRAME_HEADER, T_GRADIENT

        hdr = FRAME_HEADER.pack(MAGIC, VERSION, T_GRADIENT, len(body))
        with pytest.raises(CodecError):
            decode_message(hdr + body)

    @staticmethod
    def _reframe(frame: bytes, body: bytes) -> bytes:
        """``frame``'s message type around a replacement body."""
        from repro.transport.codec import FRAME_HEADER

        msg_type = frame[3]
        return FRAME_HEADER.pack(MAGIC, VERSION, msg_type, len(body)) + body

    @pytest.mark.parametrize("kind", ["sparse", "dense", "weights", "control"])
    def test_trailing_bytes_rejected(self, kind):
        """Unconsumed bytes after a variable-length body are an error."""
        idx = np.arange(4, dtype=np.int64)
        vals = np.ones(4, dtype=np.float32)
        msg = {
            "sparse": GradientMessage(sender=0, iteration=1, lbs=32, sparse={"w": (idx, vals)}),
            "dense": GradientMessage(sender=0, iteration=1, lbs=32, dense={"w": vals}),
            "weights": WeightMessage(sender=0, iteration=1, weights={"w": vals}),
            "control": ControlMessage(sender=0, kind="go", payload={"x": 1}),
        }[kind]
        frame = encode_message(msg)
        body = frame[FRAME_HEADER_BYTES:]
        with pytest.raises(CodecError, match="trailing|padding"):
            decode_message(self._reframe(frame, body + b"\xde\xad\xbe\xef"))
        if kind == "control":
            # Zero padding is allowed only up to the fixed control size.
            with pytest.raises(CodecError, match="padding"):
                decode_message(self._reframe(frame, body + bytes(4)))
            # Garbage where the zero padding belongs.
            with pytest.raises(CodecError, match="padding"):
                decode_message(self._reframe(frame, body[:-1] + b"\x01"))

    def test_invalid_field_raises_codec_error(self):
        """A field the message rejects (``lbs=0``) is a CodecError, not a
        bare ValueError escaping from the dataclass."""
        from repro.transport.codec import _GRAD_PREFIX

        msg = GradientMessage(sender=0, iteration=1, lbs=32, dense={"w": np.ones(3, dtype=np.float32)})
        frame = bytearray(encode_message(msg))
        _GRAD_PREFIX.pack_into(frame, FRAME_HEADER_BYTES, 0, 1, 0, 1, 1)
        with pytest.raises(CodecError, match="lbs"):
            decode_message(bytes(frame))

    def test_misaligned_sparse_rejected(self):
        msg = GradientMessage(
            sender=0,
            iteration=1,
            lbs=32,
            sparse={"w": (np.arange(4, dtype=np.int64), np.ones(3, dtype=np.float32))},
        )
        with pytest.raises(CodecError, match="aligned"):
            encode_message(msg)

    def test_oversized_name_rejected(self):
        msg = WeightMessage(
            sender=0, iteration=0, weights={"x" * 100: np.ones(2, dtype=np.float32)}
        )
        with pytest.raises(CodecError, match="name too long"):
            encode_message(msg)

    def test_unencodable_object_rejected(self):
        with pytest.raises(CodecError, match="cannot encode"):
            encode_message(object())


class TestBufferPaths:
    """Edge cases of the preallocated-buffer encode path, plus the
    zero-allocation property the transport's throughput rests on."""

    def test_zero_length_sparse_gradient(self):
        msg = GradientMessage(
            sender=1, iteration=2, lbs=8,
            sparse={"w": (np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.float32))},
        )
        out = decode_message(encode_message(msg))
        idx, vals = out.sparse["w"]
        assert idx.size == 0 and vals.size == 0

    def test_zero_length_dense_gradient(self):
        msg = GradientMessage(
            sender=1, iteration=2, lbs=8,
            dense={"b": np.empty((0,), dtype=np.float32)},
        )
        out = decode_message(encode_message(msg))
        assert out.dense["b"].shape == (0,)

    def test_single_var_weights(self):
        msg = WeightMessage(
            sender=3, iteration=7,
            weights={"w": np.arange(6, dtype=np.float32).reshape(2, 3)},
        )
        out = decode_message(encode_message(msg))
        np.testing.assert_array_equal(out.weights["w"], msg.weights["w"])
        assert out.weights["w"].shape == (2, 3)

    def test_max_size_frame_round_trips(self):
        from repro.transport.codec import MAX_BODY_BYTES

        # One dense var close to (but under) the body cap; one over it.
        n = (MAX_BODY_BYTES - 4096) // 4
        big = np.ones(n, dtype=np.float32)
        msg = WeightMessage(sender=0, iteration=0, weights={"w": big})
        out = decode_message(encode_message(msg))
        assert out.weights["w"].size == n
        too_big = np.ones(MAX_BODY_BYTES // 4 + 1, dtype=np.float32)
        with pytest.raises(CodecError, match="body too large"):
            encode_message(
                WeightMessage(sender=0, iteration=0, weights={"w": too_big})
            )

    def test_encode_into_reuses_one_buffer(self):
        from repro.transport.codec import FrameBuffer, encode_into

        fbuf = FrameBuffer(64)  # deliberately small: must grow once
        m1 = WeightMessage(
            sender=0, iteration=1, weights={"w": np.ones(500, dtype=np.float32)}
        )
        m2 = LossShareMessage(sender=0, iteration=2, avg_loss=0.5)
        f1 = bytes(encode_into(m1, fbuf))
        f2 = bytes(encode_into(m2, fbuf))  # smaller frame, same buffer
        assert decode_message(f1).weights["w"].size == 500
        assert decode_message(f2).avg_loss == 0.5
        assert f1 == encode_message(m1)  # bit-identical to the allocator path
        assert f2 == encode_message(m2)

    def test_encode_steady_state_allocates_nothing(self):
        """After warmup, re-encoding into a pooled buffer must not grow
        traced memory: the zero-copy claim, machine-checked (same idiom
        as tests/nn/test_step_memory.py for the training step)."""
        import gc
        import tracemalloc

        from repro.transport.codec import FrameBuffer, encode_into

        fbuf = FrameBuffer()
        sparse = {"w": (np.arange(256, dtype=np.int64),
                        np.ones(256, dtype=np.float32))}
        dense = {"layer": np.ones((32, 16), dtype=np.float32)}
        msgs = [
            GradientMessage(sender=0, iteration=1, lbs=32, sparse=sparse),
            GradientMessage(sender=0, iteration=1, lbs=32, dense=dense),
            WeightMessage(sender=0, iteration=1, weights=dense),
            Heartbeat(0, 123, 4.5, wall=6.7),
        ]
        for _ in range(3):  # warm the buffer to its steady-state size
            for m in msgs:
                encode_into(m, fbuf)
        gc.collect()
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            for _ in range(20):
                for m in msgs:
                    encode_into(m, fbuf)
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current - base < 4096, f"encode leaked {current - base} B"
        # Transients stay in bookkeeping territory — far below one
        # payload copy (the sparse grad alone is ~3 KB on the wire).
        assert peak - base < 8192, f"encode temporaries peaked at {peak - base} B"

    def test_decode_returns_views_on_little_endian(self):
        import sys

        if sys.byteorder != "little":
            pytest.skip("wire views require a little-endian host")
        msg = GradientMessage(
            sender=0, iteration=1, lbs=32,
            sparse={"w": (np.arange(8, dtype=np.int64),
                          np.ones(8, dtype=np.float32))},
        )
        out = decode_message(encode_message(msg))
        idx, vals = out.sparse["w"]
        # frombuffer views of the received frame: read-only, no copy.
        assert not vals.flags.writeable
        assert vals.base is not None
