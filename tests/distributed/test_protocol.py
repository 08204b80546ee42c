"""Wire-protocol unit tests: framing, validation, spec codecs, discovery.

Everything here runs without multicore — a socketpair is enough to
exercise framing, and the RunSpec/RunOutcome JSON round trip is pure
data plumbing.  Only the ``TCP_NODELAY`` check needs a real loopback
connection between a coordinator and an in-thread worker agent.
"""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runspec import RunSpec
from repro.core.scenario import ErrorScenario, PlannedInjection
from repro.distributed import (
    Coordinator,
    DEFAULT_ENDPOINT_FILE,
    ENDPOINT_ENV,
    DiscoveryError,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    PeerGone,
    ProtocolError,
    read_endpoint,
    recv_frame,
    resolve_endpoint,
    send_frame,
    write_endpoint,
)
from repro.distributed import protocol
from repro.distributed.worker import run_worker
from repro.faults import SRAM_SEU


def spec(index=0, **overrides):
    injection = PlannedInjection(
        time=5000, target_path="sensor.raw", descriptor=SRAM_SEU
    )
    fields = dict(
        index=index,
        scenario=ErrorScenario(name=f"s{index}", injections=[injection]),
        run_seed=41 + index,
        duration=60_000,
        platform="airbag-normal",
        golden={"deployed": False, "code": "0x0"},
        deadline_s=1.5,
    )
    fields.update(overrides)
    return RunSpec(**fields)


class TestFraming:
    def test_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, protocol.hello("w0"))
            message = recv_frame(right)
        finally:
            left.close()
            right.close()
        assert message["type"] == "hello"
        assert message["version"] == PROTOCOL_VERSION
        assert message["name"] == "w0"

    def test_frames_are_inspectable_json(self):
        frame = protocol.encode_frame(protocol.welcome(0.25))
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert frame[4:] == (
            b'{"heartbeat_s":0.25,"type":"welcome","version":%d}'
            % PROTOCOL_VERSION
        )

    def test_eof_raises_peer_gone(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(PeerGone):
                recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="cap"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_undecodable_payload_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_payload(b"\xff\xfe not json")

    def test_untyped_payload_rejected(self):
        with pytest.raises(ProtocolError, match="typed"):
            protocol.decode_payload(b'{"no_type": 1}')


def feed(data):
    """``recv_frame`` on a stream carrying exactly *data*, then EOF."""
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.shutdown(socket.SHUT_WR)
        return recv_frame(right)
    finally:
        left.close()
        right.close()


def length_prefixed(payload):
    return struct.pack(">I", len(payload)) + payload


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=16)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


class TestFrameFuzz:
    """Whatever bytes arrive, the decoder the coordinator trusts either
    returns a typed message or raises ``ProtocolError`` / ``PeerGone``
    — never anything its connection handler does not catch."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_stream(self, data):
        try:
            message = feed(data)
        except (ProtocolError, PeerGone):
            return
        assert isinstance(message, dict) and "type" in message

    @settings(deadline=None)
    @given(st.binary(max_size=3))
    def test_truncated_header(self, data):
        with pytest.raises(PeerGone):
            feed(data)

    @settings(deadline=None)
    @given(st.binary(min_size=1, max_size=256), st.data())
    def test_truncated_body(self, payload, data):
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(PeerGone):
            feed(length_prefixed(payload)[:4 + cut])

    @settings(deadline=None)
    @given(
        st.integers(MAX_FRAME_BYTES + 1, 2 ** 32 - 1),
        st.binary(max_size=64),
    )
    def test_oversize_length(self, length, tail):
        with pytest.raises(ProtocolError, match="cap"):
            feed(struct.pack(">I", length) + tail)

    @settings(deadline=None)
    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_non_utf8(self, head, tail):
        # 0xFF never occurs in UTF-8.
        with pytest.raises(ProtocolError, match="undecodable"):
            feed(length_prefixed(head + b"\xff" + tail))

    @settings(deadline=None)
    @given(st.text(max_size=64))
    def test_non_json(self, text):
        # No JSON document ends inside an unclosed object.
        with pytest.raises(ProtocolError, match="undecodable"):
            feed(length_prefixed((text + "{").encode("utf-8")))

    @settings(deadline=None)
    @given(st.integers(2_000, 200_000))
    def test_deep_nesting(self, depth):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_payload(b"[" * depth)

    @settings(deadline=None)
    @given(JSON_VALUES.filter(
        lambda value: not (isinstance(value, dict) and "type" in value)
    ))
    def test_non_message_json(self, value):
        with pytest.raises(ProtocolError, match="typed"):
            feed(length_prefixed(json.dumps(value).encode("utf-8")))

    @settings(deadline=None)
    @given(st.one_of(JSON_SCALARS, st.lists(st.integers(), max_size=2))
           .filter(lambda version: version != PROTOCOL_VERSION))
    def test_wrong_version_hello(self, version):
        message = protocol.hello("w")
        message["version"] = version
        with pytest.raises(ProtocolError, match="version"):
            protocol.check_hello(feed(protocol.encode_frame(message)))


class TestNoDelay:
    def test_set_on_both_ends_of_a_real_connection(self, monkeypatch):
        worker_socks = []
        connect = socket.create_connection

        def capture(*args, **kwargs):
            sock = connect(*args, **kwargs)
            worker_socks.append(sock)
            return sock

        monkeypatch.setattr(socket, "create_connection", capture)
        coordinator = Coordinator()
        agent = threading.Thread(
            target=run_worker, args=(coordinator.endpoint,),
            kwargs={"name": "w0"},
        )
        agent.start()
        try:
            with coordinator._lock:
                assert coordinator._lock.wait_for(
                    lambda: "w0" in coordinator._workers, timeout=30
                )
                server_side = coordinator._workers["w0"].sock
            for sock in (server_side, worker_socks[0]):
                assert sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
        finally:
            coordinator.close()
            agent.join(timeout=30)
        assert not agent.is_alive()

    def test_noop_on_a_unix_socketpair(self):
        left, right = socket.socketpair()
        try:
            protocol.set_nodelay(left)
            protocol.set_nodelay(right)
            send_frame(left, protocol.request())
            assert recv_frame(right) == {"type": "request"}
        finally:
            left.close()
            right.close()


class TestHelloValidation:
    def test_valid_hello_returns_name(self):
        assert protocol.check_hello(protocol.hello("worker-3")) == "worker-3"

    def test_version_mismatch_rejected(self):
        message = protocol.hello("w")
        message["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            protocol.check_hello(message)

    def test_schema_mismatch_rejected(self):
        message = protocol.hello("w")
        message["schema"] = -1
        with pytest.raises(ProtocolError, match="schema"):
            protocol.check_hello(message)

    def test_nameless_hello_rejected(self):
        message = protocol.hello("w")
        message["name"] = ""
        with pytest.raises(ProtocolError, match="name"):
            protocol.check_hello(message)


class TestSpecCodec:
    def test_runspec_round_trips_through_json(self):
        original = spec()
        # Through *serialized* JSON, as the wire does — tuples become
        # lists and back, which is the part worth pinning.
        restored = RunSpec.from_jsonable(
            json.loads(json.dumps(original.to_jsonable()))
        )
        assert restored == original

    def test_lease_frame_carries_jsonable_specs(self):
        specs = [spec(0), spec(1)]
        message = protocol.lease(7, specs)
        assert message["lease_id"] == 7
        restored = [
            RunSpec.from_jsonable(payload) for payload in message["specs"]
        ]
        assert restored == specs

    def test_attempt_and_reuse_flags_survive(self):
        original = spec(attempt=2, reuse_platform=True)
        restored = RunSpec.from_jsonable(original.to_jsonable())
        assert restored.attempt == 2
        assert restored.reuse_platform is True


class TestDiscovery:
    def test_parse_endpoint(self):
        from repro.distributed.discovery import parse_endpoint

        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_endpoint("[::1]:80") == ("::1", 80)
        for bad in ("nohost", "host:", "host:notaport", "host:0", ":9"):
            with pytest.raises(DiscoveryError):
                parse_endpoint(bad)

    def test_endpoint_file_round_trip(self, tmp_path):
        path = tmp_path / DEFAULT_ENDPOINT_FILE
        write_endpoint(path, "10.0.0.5", 4242)
        assert read_endpoint(path) == ("10.0.0.5", 4242)

    def test_resolution_precedence(self, tmp_path, monkeypatch):
        path = tmp_path / "endpoint"
        write_endpoint(path, "filehost", 1111)
        monkeypatch.setenv(ENDPOINT_ENV, "envhost:2222")
        assert resolve_endpoint("explicit:3333", path) == ("explicit", 3333)
        assert resolve_endpoint(None, path) == ("envhost", 2222)
        monkeypatch.delenv(ENDPOINT_ENV)
        assert resolve_endpoint(None, path) == ("filehost", 1111)

    def test_nothing_to_resolve_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        with pytest.raises(DiscoveryError, match="no coordinator"):
            resolve_endpoint(None, tmp_path / "absent")
