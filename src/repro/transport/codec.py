"""Wire codec: length-prefixed, versioned frames for cluster messages.

Serializes the :mod:`repro.cluster.messages` dataclasses for real
sockets, mirroring the paper's Redis value format (§4.2): gradients
travel "divided into indices and data" at per-weight-variable
granularity. The layout:

* **frame header** (8 bytes): ``magic "DL" | version u8 | type u8 |
  body_len u32`` — big-endian, so a corrupt or foreign stream is
  rejected on the first 8 bytes;
* **sparse payloads**: per variable, a length-prefixed name, an entry
  count, then the flat indices as little-endian ``uint32`` and the
  values as little-endian ``float32`` — 8 bytes per entry, exactly the
  accounting :func:`repro.cluster.messages.sparse_payload_bytes` uses;
* **dense payloads**: per variable, a length-prefixed name, the shape,
  then the raw little-endian ``float32`` buffer — 4 bytes per value;
* **control messages** (loss shares, DKT requests, RCP shares,
  go-signals, plus the transport-internal hello/heartbeat/bye): their
  natural encodings are tiny, so frames are zero-padded up to
  ``CONTROL_MESSAGE_BYTES`` — the estimate the simulator charges is the
  size that actually crosses the wire.

Size parity with the simulator's estimates is a documented invariant:
for any message ``m``, ``len(encode_message(m))`` differs from
``m.wire_bytes()`` by at most ``SIZE_SLACK_FIXED + n_vars *
SIZE_SLACK_PER_VAR`` (and control-type frames match exactly). The
tier-1 property tests enforce the bound, so Max-N link budgets computed
from the estimates stay honest on real sockets.

Allocation discipline: :func:`encode_into` computes the exact frame size first, then
writes header, prefixes, names, and ndarray payloads straight into a
reusable :class:`FrameBuffer` with ``struct.pack_into`` and
``np.copyto`` into ``np.frombuffer`` views — no ``tobytes()`` copies,
no ``b"".join``, zero steady-state allocations per frame. The wire
bytes are bit-identical to the historical list-of-parts encoder.
Decode hands back read-only ``np.frombuffer`` views into the received
body wherever the wire dtype allows (little-endian hosts), instead of
``.astype`` copies; all consumers treat received arrays as immutable.

Decoding is strict: a body must be consumed exactly (control bodies may
end in their zero padding, nothing else), and every failure — including
a message field the dataclass rejects — surfaces as :class:`CodecError`.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass

import numpy as np

from repro.cluster.messages import (
    CONTROL_MESSAGE_BYTES,
    ControlMessage,
    DktRequestMessage,
    GradientMessage,
    LossShareMessage,
    RcpShareMessage,
    WeightMessage,
)

__all__ = [
    "CodecError",
    "MAGIC",
    "VERSION",
    "FRAME_HEADER",
    "FRAME_HEADER_BYTES",
    "MAX_NAME_BYTES",
    "MAX_NDIM",
    "SIZE_SLACK_FIXED",
    "SIZE_SLACK_PER_VAR",
    "T_HELLO",
    "T_HEARTBEAT",
    "T_HEARTBEAT_ACK",
    "T_BYE",
    "T_GRADIENT",
    "T_WEIGHTS",
    "T_LOSS_SHARE",
    "T_DKT_REQUEST",
    "T_RCP_SHARE",
    "T_CONTROL",
    "Hello",
    "Heartbeat",
    "HeartbeatAck",
    "Bye",
    "FrameBuffer",
    "encode_into",
    "encode_message",
    "decode_message",
    "decode_body",
    "size_slack",
]

MAGIC = b"DL"
VERSION = 1

# Frame header: magic, version, message type, body length.
FRAME_HEADER = struct.Struct("!2sBBI")
FRAME_HEADER_BYTES = FRAME_HEADER.size  # 8

# Codec limits (enforced on encode, validated on decode).
MAX_NAME_BYTES = 64
MAX_NDIM = 16
MAX_BODY_BYTES = 1 << 30

# Message type ids. 1-15 are transport-internal, 16+ carry cluster
# messages.
T_HELLO = 1
T_HEARTBEAT = 2
T_BYE = 3
T_HEARTBEAT_ACK = 4
T_GRADIENT = 16
T_WEIGHTS = 17
T_LOSS_SHARE = 18
T_DKT_REQUEST = 19
T_RCP_SHARE = 20
T_CONTROL = 21

# Documented size-parity slack vs. the simulator's wire_bytes()
# estimates (see module docstring): the frame header plus the largest
# body prefix, and per variable the worst case of a maximal name plus a
# maximal shape against the flat VARIABLE_HEADER_BYTES estimate.
SIZE_SLACK_FIXED = FRAME_HEADER_BYTES + 13
SIZE_SLACK_PER_VAR = MAX_NAME_BYTES + 4 * MAX_NDIM

_GRAD_PREFIX = struct.Struct("<IIIBI")  # sender, iteration, lbs, kind, n_vars
_WEIGHT_PREFIX = struct.Struct("<III")  # sender, iteration, n_vars
_NAME_LEN = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("<B")
_LOSS_SHARE = struct.Struct("<IId")  # sender, iteration, avg_loss
_DKT_REQUEST = struct.Struct("<II")  # sender, iteration
_RCP_SHARE = struct.Struct("<Id")  # sender, rcp
_CONTROL_PREFIX = struct.Struct("<IHI")  # sender, kind_len, payload_len
_HELLO = struct.Struct("<IB")  # sender, channel
_HEARTBEAT = struct.Struct("<IQdd")  # sender, samples_drawn, sim time, wall
_HEARTBEAT_ACK = struct.Struct("<Id")  # sender, echoed wall timestamp
_BYE = struct.Struct("<I")  # sender

# The view-returning decode path hands out arrays whose wire dtype
# ("<u4"/"<f4") is the host's native layout only on little-endian
# machines; big-endian hosts fall back to the historical astype copies.
_LITTLE_ENDIAN = sys.byteorder == "little"

_CONTROL_BODY_BYTES = CONTROL_MESSAGE_BYTES - FRAME_HEADER_BYTES
_ZERO_PAD = bytes(_CONTROL_BODY_BYTES)


class CodecError(ValueError):
    """Raised for malformed frames, unknown types, or limit violations."""


@dataclass(frozen=True)
class Hello:
    """Transport handshake: who is connecting, and on which channel."""

    sender: int
    channel: int


@dataclass(frozen=True)
class Heartbeat:
    """Liveness + progress beacon (control channel, periodic).

    ``wall`` is the sender's monotonic wall clock at send time; the
    receiver echoes it back verbatim in a :class:`HeartbeatAck` so the
    sender can compute a round-trip time against its own clock (no
    cross-process clock comparison is ever made).
    """

    sender: int
    samples_drawn: int
    time: float
    wall: float = 0.0


@dataclass(frozen=True)
class HeartbeatAck:
    """Echo of a heartbeat's wall timestamp, for RTT measurement."""

    sender: int
    echo_wall: float


@dataclass(frozen=True)
class Bye:
    """Graceful-shutdown notice: silence from me is not a failure."""

    sender: int


class FrameBuffer:
    """A reusable, growable byte buffer one frame is encoded into.

    ``encode_into`` computes the exact frame size, grows ``data`` if
    needed (by *replacing* the bytearray, so memoryviews handed out for
    a previous frame never block a resize), and records the frame
    length in ``nbytes``. Acquire/release pooling lives in the mesh;
    the codec only needs "a bytearray big enough".
    """

    __slots__ = ("data", "nbytes")

    def __init__(self, capacity: int = 8192):
        self.data = bytearray(capacity)
        self.nbytes = 0

    def reserve(self, nbytes: int) -> bytearray:
        """The backing bytearray, grown to hold at least ``nbytes``."""
        if len(self.data) < nbytes:
            self.data = bytearray(max(nbytes, 2 * len(self.data)))
        return self.data


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _plan_sparse(payload) -> tuple[int, list]:
    """Validate a sparse payload; returns (body bytes, write plan)."""
    size = 0
    plan = []
    for name, (idx, vals) in payload.items():
        raw = name.encode("utf-8")
        if len(raw) > MAX_NAME_BYTES:
            raise CodecError(
                f"variable name too long ({len(raw)} > {MAX_NAME_BYTES}): {name!r}"
            )
        idx = np.asarray(idx)
        vals = np.asarray(vals)
        if idx.shape != vals.shape or idx.ndim != 1:
            raise CodecError(
                f"sparse variable {name!r}: need aligned 1-D index/value arrays"
            )
        size += 2 + len(raw) + 4 + 8 * idx.size
        plan.append((raw, idx, vals))
    return size, plan


def _plan_dense(payload) -> tuple[int, list]:
    """Validate a dense payload; returns (body bytes, write plan)."""
    size = 0
    plan = []
    for name, arr in payload.items():
        raw = name.encode("utf-8")
        if len(raw) > MAX_NAME_BYTES:
            raise CodecError(
                f"variable name too long ({len(raw)} > {MAX_NAME_BYTES}): {name!r}"
            )
        arr = np.asarray(arr)
        if arr.ndim > MAX_NDIM:
            raise CodecError(f"dense variable {name!r}: ndim {arr.ndim} > {MAX_NDIM}")
        size += 2 + len(raw) + 1 + 4 * arr.ndim + 4 * arr.size
        plan.append((raw, arr))
    return size, plan


def _put_name(buf: bytearray, off: int, raw: bytes) -> int:
    _NAME_LEN.pack_into(buf, off, len(raw))
    off += 2
    end = off + len(raw)
    buf[off:end] = raw
    return end


def _put_array(buf: bytearray, off: int, arr: np.ndarray, dtype: str) -> int:
    """Write ``arr`` as little-endian ``dtype`` at ``off`` — an ndarray
    view into ``buf``, so conversion lands in place (no tobytes copy).
    ``casting="unsafe"`` matches ``np.ascontiguousarray(arr, dtype)``
    elementwise, keeping the wire bytes bit-identical to the historical
    encoder."""
    n = arr.size
    if n:
        dst = np.frombuffer(buf, dtype=dtype, count=n, offset=off)
        np.copyto(dst, arr.reshape(-1) if arr.ndim != 1 else arr, casting="unsafe")
    return off + 4 * n


def _put_sparse(buf: bytearray, off: int, plan: list) -> int:
    for raw, idx, vals in plan:
        off = _put_name(buf, off, raw)
        _U32.pack_into(buf, off, idx.size)
        off = _put_array(buf, off + 4, idx, "<u4")
        off = _put_array(buf, off, vals, "<f4")
    return off


def _put_dense(buf: bytearray, off: int, plan: list) -> int:
    for raw, arr in plan:
        off = _put_name(buf, off, raw)
        _U8.pack_into(buf, off, arr.ndim)
        off += 1
        for d in arr.shape:
            _U32.pack_into(buf, off, d)
            off += 4
        off = _put_array(buf, off, arr, "<f4")
    return off


def encode_into(msg, fbuf: FrameBuffer) -> memoryview:
    """Serialize ``msg`` into ``fbuf``; returns a view of the frame.

    The exact frame size is computed up front, so the only per-call
    allocations are tiny transients (encoded names, the validation
    plan) — the payload bytes are written once, in place. The returned
    memoryview aliases ``fbuf.data`` and is valid until the buffer is
    reused for another frame.
    """
    if isinstance(msg, GradientMessage):
        if msg.sparse is not None:
            var_bytes, plan = _plan_sparse(msg.sparse)
            kind, n_vars = 0, len(msg.sparse)
        else:
            var_bytes, plan = _plan_dense(msg.dense)
            kind, n_vars = 1, len(msg.dense)
        body_len = _GRAD_PREFIX.size + var_bytes
        buf = _begin(fbuf, T_GRADIENT, body_len)
        _GRAD_PREFIX.pack_into(
            buf, FRAME_HEADER_BYTES, msg.sender, msg.iteration, msg.lbs, kind, n_vars
        )
        off = FRAME_HEADER_BYTES + _GRAD_PREFIX.size
        putter = _put_sparse if kind == 0 else _put_dense
        putter(buf, off, plan)
        return _finish(fbuf, body_len)
    if isinstance(msg, WeightMessage):
        var_bytes, plan = _plan_dense(msg.weights)
        body_len = _WEIGHT_PREFIX.size + var_bytes
        buf = _begin(fbuf, T_WEIGHTS, body_len)
        _WEIGHT_PREFIX.pack_into(
            buf, FRAME_HEADER_BYTES, msg.sender, msg.iteration, len(msg.weights)
        )
        _put_dense(buf, FRAME_HEADER_BYTES + _WEIGHT_PREFIX.size, plan)
        return _finish(fbuf, body_len)
    if isinstance(msg, LossShareMessage):
        return _control_frame(
            fbuf, T_LOSS_SHARE, _LOSS_SHARE,
            (msg.sender, msg.iteration, msg.avg_loss),
        )
    if isinstance(msg, DktRequestMessage):
        return _control_frame(
            fbuf, T_DKT_REQUEST, _DKT_REQUEST, (msg.sender, msg.iteration)
        )
    if isinstance(msg, RcpShareMessage):
        return _control_frame(fbuf, T_RCP_SHARE, _RCP_SHARE, (msg.sender, msg.rcp))
    if isinstance(msg, ControlMessage):
        kind = msg.kind.encode("utf-8")
        payload = json.dumps(msg.payload, sort_keys=True).encode("utf-8")
        if len(kind) > 0xFFFF:
            raise CodecError("control kind too long")
        natural = _CONTROL_PREFIX.size + len(kind) + len(payload)
        body_len = max(natural, _CONTROL_BODY_BYTES)
        buf = _begin(fbuf, T_CONTROL, body_len)
        _CONTROL_PREFIX.pack_into(
            buf, FRAME_HEADER_BYTES, msg.sender, len(kind), len(payload)
        )
        off = FRAME_HEADER_BYTES + _CONTROL_PREFIX.size
        buf[off:off + len(kind)] = kind
        off += len(kind)
        buf[off:off + len(payload)] = payload
        _pad(buf, off + len(payload), FRAME_HEADER_BYTES + body_len)
        return _finish(fbuf, body_len)
    if isinstance(msg, Hello):
        return _control_frame(fbuf, T_HELLO, _HELLO, (msg.sender, msg.channel))
    if isinstance(msg, Heartbeat):
        return _control_frame(
            fbuf, T_HEARTBEAT, _HEARTBEAT,
            (msg.sender, msg.samples_drawn, msg.time, msg.wall),
        )
    if isinstance(msg, HeartbeatAck):
        return _control_frame(
            fbuf, T_HEARTBEAT_ACK, _HEARTBEAT_ACK, (msg.sender, msg.echo_wall)
        )
    if isinstance(msg, Bye):
        return _control_frame(fbuf, T_BYE, _BYE, (msg.sender,))
    raise CodecError(f"cannot encode {type(msg).__name__}")


def _begin(fbuf: FrameBuffer, msg_type: int, body_len: int) -> bytearray:
    if body_len > MAX_BODY_BYTES:
        raise CodecError(f"body too large: {body_len} bytes")
    buf = fbuf.reserve(FRAME_HEADER_BYTES + body_len)
    FRAME_HEADER.pack_into(buf, 0, MAGIC, VERSION, msg_type, body_len)
    return buf


def _finish(fbuf: FrameBuffer, body_len: int) -> memoryview:
    fbuf.nbytes = FRAME_HEADER_BYTES + body_len
    return memoryview(fbuf.data)[: fbuf.nbytes]


def _pad(buf: bytearray, off: int, end: int) -> None:
    # The buffer is reused across frames, so the zero padding must be
    # (re)written explicitly.
    if end > off:
        buf[off:end] = _ZERO_PAD[: end - off]


def _control_frame(fbuf: FrameBuffer, msg_type: int, st: struct.Struct, fields) -> memoryview:
    body_len = max(st.size, _CONTROL_BODY_BYTES)
    buf = _begin(fbuf, msg_type, body_len)
    st.pack_into(buf, FRAME_HEADER_BYTES, *fields)
    _pad(buf, FRAME_HEADER_BYTES + st.size, FRAME_HEADER_BYTES + body_len)
    return _finish(fbuf, body_len)


def encode_message(msg) -> bytes:
    """Serialize a cluster or transport message into one wire frame.

    Compatibility wrapper over :func:`encode_into`: allocates a fresh
    buffer and copies the frame out as ``bytes``. Hot paths (the mesh
    sender) use :func:`encode_into` with pooled buffers instead.
    """
    return bytes(encode_into(msg, FrameBuffer(256)))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _take(body: bytes, offset: int, n: int) -> tuple[bytes, int]:
    end = offset + n
    if end > len(body):
        raise CodecError(f"truncated body: wanted {n} bytes at offset {offset}")
    return body[offset:end], end


def _view(body: bytes, offset: int, count: int, dtype: str) -> tuple[np.ndarray, int]:
    """A read-only ndarray view of ``count`` little-endian 4-byte items
    at ``offset`` — no slice copy, no astype. Big-endian hosts get the
    historical native-dtype copy instead (the wire dtype would not be
    the native layout there)."""
    end = offset + 4 * count
    if end > len(body):
        raise CodecError(
            f"truncated body: wanted {4 * count} bytes at offset {offset}"
        )
    if count == 0:
        return np.empty(0, dtype=np.int64 if dtype == "<u4" else np.float32), end
    if _LITTLE_ENDIAN:
        return np.frombuffer(body, dtype=dtype, count=count, offset=offset), end
    arr = np.frombuffer(body, dtype=dtype, count=count, offset=offset)
    native = np.int64 if dtype == "<u4" else np.float32
    return arr.astype(native), end


def _decode_name(body: bytes, offset: int) -> tuple[str, int]:
    raw, offset = _take(body, offset, _NAME_LEN.size)
    (n,) = _NAME_LEN.unpack(raw)
    if n > MAX_NAME_BYTES:
        raise CodecError(f"variable name too long on wire: {n}")
    raw, offset = _take(body, offset, n)
    return raw.decode("utf-8"), offset


def _decode_sparse_vars(body: bytes, offset: int, n_vars: int) -> tuple[dict, int]:
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for _ in range(n_vars):
        name, offset = _decode_name(body, offset)
        raw, offset = _take(body, offset, _U32.size)
        (count,) = _U32.unpack(raw)
        idx, offset = _view(body, offset, count, "<u4")
        vals, offset = _view(body, offset, count, "<f4")
        out[name] = (idx, vals)
    return out, offset


def _decode_dense_vars(body: bytes, offset: int, n_vars: int) -> tuple[dict, int]:
    out: dict[str, np.ndarray] = {}
    for _ in range(n_vars):
        name, offset = _decode_name(body, offset)
        raw, offset = _take(body, offset, 1)
        ndim = raw[0]
        if ndim > MAX_NDIM:
            raise CodecError(f"ndim too large on wire: {ndim}")
        raw, offset = _take(body, offset, 4 * ndim)
        shape = struct.unpack(f"<{ndim}I", raw)
        count = 1
        for d in shape:
            count *= d
        arr, offset = _view(body, offset, count, "<f4")
        out[name] = arr.reshape(shape)
    return out, offset


def _expect_end(body: bytes, offset: int) -> None:
    if offset != len(body):
        raise CodecError(f"{len(body) - offset} trailing bytes after offset {offset}")


def _decode_gradient(body: bytes):
    sender, iteration, lbs, kind, n_vars = _GRAD_PREFIX.unpack_from(body)
    decode = _decode_sparse_vars if kind == 0 else _decode_dense_vars
    payload, offset = decode(body, _GRAD_PREFIX.size, n_vars)
    _expect_end(body, offset)
    if kind == 0:
        return GradientMessage(
            sender=sender, iteration=iteration, lbs=lbs, sparse=payload
        )
    return GradientMessage(sender=sender, iteration=iteration, lbs=lbs, dense=payload)


def _decode_weights(body: bytes):
    sender, iteration, n_vars = _WEIGHT_PREFIX.unpack_from(body)
    weights, offset = _decode_dense_vars(body, _WEIGHT_PREFIX.size, n_vars)
    _expect_end(body, offset)
    return WeightMessage(sender=sender, iteration=iteration, weights=weights)


def _decode_control(body: bytes):
    sender, kind_len, payload_len = _CONTROL_PREFIX.unpack_from(body)
    offset = _CONTROL_PREFIX.size
    raw, offset = _take(body, offset, kind_len)
    kind = raw.decode("utf-8")
    raw, offset = _take(body, offset, payload_len)
    # The encoder zero-pads short bodies to the fixed control size.
    if len(body) != max(offset, _CONTROL_BODY_BYTES) or any(body[offset:]):
        raise CodecError(f"bad padding after offset {offset}")
    return ControlMessage(sender=sender, kind=kind, payload=json.loads(raw))


_DECODERS = {
    T_GRADIENT: _decode_gradient,
    T_WEIGHTS: _decode_weights,
    T_LOSS_SHARE: lambda b: LossShareMessage(*_LOSS_SHARE.unpack_from(b)),
    T_DKT_REQUEST: lambda b: DktRequestMessage(*_DKT_REQUEST.unpack_from(b)),
    T_RCP_SHARE: lambda b: RcpShareMessage(*_RCP_SHARE.unpack_from(b)),
    T_CONTROL: _decode_control,
    T_HELLO: lambda b: Hello(*_HELLO.unpack_from(b)),
    T_HEARTBEAT: lambda b: Heartbeat(*_HEARTBEAT.unpack_from(b)),
    T_HEARTBEAT_ACK: lambda b: HeartbeatAck(*_HEARTBEAT_ACK.unpack_from(b)),
    T_BYE: lambda b: Bye(*_BYE.unpack_from(b)),
}


def decode_body(msg_type: int, body: bytes):
    """Decode one frame body given its header's message type."""
    decoder = _DECODERS.get(msg_type)
    if decoder is None:
        raise CodecError(f"unknown message type {msg_type}")
    try:
        return decoder(body)
    except CodecError:
        raise
    except (struct.error, ValueError) as exc:
        # ValueError covers UnicodeDecodeError, JSONDecodeError and the
        # message dataclasses' own field validation (e.g. ``lbs >= 1``).
        raise CodecError(f"malformed body for type {msg_type}: {exc}") from exc


def decode_frame_header(header: bytes) -> tuple[int, int]:
    """Validate an 8-byte frame header; returns ``(msg_type, body_len)``."""
    if len(header) != FRAME_HEADER_BYTES:
        raise CodecError(f"short header: {len(header)} bytes")
    magic, version, msg_type, body_len = FRAME_HEADER.unpack(header)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported codec version {version}")
    if body_len > MAX_BODY_BYTES:
        raise CodecError(f"body length {body_len} exceeds limit")
    return msg_type, body_len


def decode_message(frame: bytes):
    """Deserialize one complete wire frame back into its message."""
    msg_type, body_len = decode_frame_header(frame[:FRAME_HEADER_BYTES])
    body = frame[FRAME_HEADER_BYTES:]
    if len(body) != body_len:
        raise CodecError(f"frame length mismatch: header says {body_len}, got {len(body)}")
    return decode_body(msg_type, body)


def size_slack(n_vars: int) -> int:
    """The documented bound on ``|len(encode_message(m)) - m.wire_bytes()|``.

    ``n_vars`` is the number of weight variables the message carries
    (0 for control messages, whose frames match the estimate exactly).
    """
    return SIZE_SLACK_FIXED + n_vars * SIZE_SLACK_PER_VAR
