"""Wire protocol of the distributed campaign backend.

One frame = a 4-byte big-endian length prefix followed by that many
bytes of UTF-8 JSON — the same encoding discipline as the checkpoint
journal (compact separators, sorted keys), chosen over pickle because
frames cross host boundaries: they must be inspectable with ``nc`` and
``jq``, versioned explicitly, and safe to receive from a machine
running a different Python.

Message vocabulary (``"type"`` field):

======================  =========  ==========================================
type                    direction  payload
======================  =========  ==========================================
``hello``               w -> c     ``version``, ``schema``, worker ``name``
``welcome``             c -> w     ``version``, ``heartbeat_s``
``request``             w -> c     (empty) — pull the next lease; the
                                   coordinator parks it until work exists
``lease``               c -> w     ``lease_id``, ``specs`` (RunSpec jsonable)
``result``              w -> c     ``lease_id``, ``outcome`` (RunOutcome
                                   jsonable) — one frame per completed run
``heartbeat``           w -> c     (empty) — liveness, sent off-thread
``shutdown``            c -> w     (empty) — campaign over, worker exits
``leave``               w -> c     (empty) — clean goodbye
======================  =========  ==========================================

Every ``request`` gets exactly one reply, ``lease`` or ``shutdown``,
however long it has to wait for one (protocol version 2; version 1
answered an empty queue with an ``idle`` retry hint the worker slept
on).

Specs and outcomes reuse the exact jsonable schema the checkpoint
journal persists (``RunSpec.to_jsonable`` / ``RunOutcome.to_jsonable``,
schema version :data:`~repro.core.runspec.OUTCOME_SCHEMA_VERSION`), so
a result frame's payload *is* a journal line — the coordinator appends
it to the worker's shard verbatim, which is what makes the merged
journal byte-identical to a serial run's.
"""

from __future__ import annotations

import json
import socket
import struct
import typing as _t

from ..core.runspec import OUTCOME_SCHEMA_VERSION, RunOutcome, RunSpec

#: Bump on any incompatible change to the frame vocabulary above.
PROTOCOL_VERSION = 2

#: Hard cap on one frame's payload; a length prefix beyond this is a
#: corrupt stream (or a port scanner), not a lease.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer sent something that is not a valid frame."""


class PeerGone(ConnectionError):
    """The peer closed the connection (EOF mid-frame or before one)."""


def encode_frame(message: _t.Mapping[str, _t.Any]) -> bytes:
    """Serialize one message to its length-prefixed wire form."""
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> _t.Dict[str, _t.Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # RecursionError: a few kilobytes of nested brackets exhaust the
        # decoder's stack; that is a malformed frame, not a crash.
        raise ProtocolError(
            f"undecodable frame payload: {type(exc).__name__}: {exc}"
        ) from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame payload is not a typed message object")
    return message


def set_nodelay(sock: socket.socket) -> None:
    """Turn off Nagle's algorithm on a TCP socket; no-op otherwise.

    Frames are small and latency-bound: a worker's ``request`` follows
    a stream of ``result`` frames the coordinator never answers, so
    with Nagle on it waits for the coordinator's delayed ACK (tens of
    milliseconds on Linux) before it leaves the host.
    """
    if sock.family in (socket.AF_INET, socket.AF_INET6):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def send_frame(
    sock: socket.socket, message: _t.Mapping[str, _t.Any]
) -> None:
    """Write one frame; raises ``OSError`` if the peer is gone."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise PeerGone("connection closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> _t.Dict[str, _t.Any]:
    """Read one complete frame; raises :class:`PeerGone` on clean EOF
    at a frame boundary as well as mid-frame — callers treat both as
    the peer leaving."""
    header = sock.recv(_LENGTH.size)
    if not header:
        raise PeerGone("connection closed")
    if len(header) < _LENGTH.size:
        header += _recv_exact(sock, _LENGTH.size - len(header))
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return decode_payload(_recv_exact(sock, length))


# -- typed constructors ------------------------------------------------------


def hello(name: str) -> _t.Dict[str, _t.Any]:
    return {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "schema": OUTCOME_SCHEMA_VERSION,
        "name": name,
    }


def welcome(heartbeat_s: float) -> _t.Dict[str, _t.Any]:
    return {
        "type": "welcome",
        "version": PROTOCOL_VERSION,
        "heartbeat_s": heartbeat_s,
    }


def request() -> _t.Dict[str, _t.Any]:
    return {"type": "request"}


def lease(
    lease_id: int, specs: _t.Sequence[RunSpec]
) -> _t.Dict[str, _t.Any]:
    return {
        "type": "lease",
        "lease_id": lease_id,
        "specs": [spec.to_jsonable() for spec in specs],
    }


def result(lease_id: int, outcome: RunOutcome) -> _t.Dict[str, _t.Any]:
    return {
        "type": "result",
        "lease_id": lease_id,
        "outcome": outcome.to_jsonable(),
    }


def heartbeat() -> _t.Dict[str, _t.Any]:
    return {"type": "heartbeat"}


def shutdown() -> _t.Dict[str, _t.Any]:
    return {"type": "shutdown"}


def leave() -> _t.Dict[str, _t.Any]:
    return {"type": "leave"}


def check_hello(message: _t.Mapping[str, _t.Any]) -> str:
    """Validate a worker's hello; returns its name."""
    if message.get("type") != "hello":
        raise ProtocolError(
            f"expected hello, got {message.get('type')!r}"
        )
    if message.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: coordinator speaks "
            f"{PROTOCOL_VERSION}, worker sent {message.get('version')!r}"
        )
    if message.get("schema") != OUTCOME_SCHEMA_VERSION:
        raise ProtocolError(
            f"outcome schema mismatch: coordinator writes "
            f"v{OUTCOME_SCHEMA_VERSION}, worker sent "
            f"{message.get('schema')!r}"
        )
    name = message.get("name")
    if not isinstance(name, str) or not name:
        raise ProtocolError("hello carries no worker name")
    return name
