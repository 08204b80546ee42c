"""Coordinator scheduling over real loopback sockets: parked requests
and the attempt accounting of leases that never ran.

Scripted workers speak the wire protocol by hand, so every frame the
coordinator sends them is visible.  Nothing here asserts on timing:
waits are bounded only so that a broken coordinator fails the test
instead of hanging it.
"""

import socket
import threading
import time

import pytest

from repro.core.runspec import RunSpec, failure_outcome
from repro.core.scenario import ErrorScenario
from repro.distributed import Coordinator, protocol

WAIT_S = 30.0


def spec(index):
    return RunSpec(
        index=index,
        scenario=ErrorScenario(name=f"s{index}", injections=[]),
        run_seed=index,
        duration=1000,
        platform="airbag-normal",
    )


def wait_until(predicate):
    deadline = time.monotonic() + WAIT_S
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def parked(coordinator, name):
    with coordinator._lock:
        worker = coordinator._workers.get(name)
        return worker is not None and worker.parked


class ScriptedWorker:
    """A worker that answers every lease with synthetic outcomes."""

    def __init__(self, coordinator, name):
        self.name = name
        self.sock = socket.create_connection(
            (coordinator.host, coordinator.port), timeout=WAIT_S
        )
        #: Type of every frame received after the welcome, in order.
        self.replies = []
        #: The specs of every lease received, in order.
        self.leases = []
        protocol.send_frame(self.sock, protocol.hello(name))
        assert protocol.recv_frame(self.sock)["type"] == "welcome"

    def request(self):
        protocol.send_frame(self.sock, protocol.request())

    def recv(self):
        message = protocol.recv_frame(self.sock)
        self.replies.append(message["type"])
        if message["type"] == "lease":
            self.leases.append([
                RunSpec.from_jsonable(payload)
                for payload in message["specs"]
            ])
        return message

    def finish(self, lease):
        for spec in self.leases[-1]:
            outcome = failure_outcome(
                spec, failure="error", error="scripted",
                attempts=spec.attempt + 1,
            )
            protocol.send_frame(
                self.sock, protocol.result(lease["lease_id"], outcome)
            )

    def serve(self):
        """Pull and finish leases until shutdown (or the socket dies)."""
        try:
            while True:
                self.request()
                message = self.recv()
                if message["type"] != "lease":
                    return
                self.finish(message)
        except (protocol.PeerGone, OSError):
            return

    def serve_in_background(self):
        thread = threading.Thread(target=self.serve, daemon=True)
        thread.start()
        return thread

    def close(self):
        self.sock.close()


class Submission(threading.Thread):
    """``Coordinator.submit`` on its own thread, so the test can drive
    workers while the batch is in flight."""

    def __init__(self, coordinator, specs):
        super().__init__(daemon=True)
        self.coordinator = coordinator
        self.specs = specs
        self.outcomes = None
        self.start()

    def run(self):
        self.outcomes = self.coordinator.submit(self.specs)

    def result(self):
        self.join(WAIT_S)
        assert not self.is_alive(), "batch never completed"
        return self.outcomes


@pytest.fixture
def coordinator():
    # Scripted workers send no heartbeats; keep them alive regardless.
    coordinator = Coordinator(lease_timeout_s=600.0)
    yield coordinator
    coordinator.close()


def test_parked_request_is_answered_by_submit(coordinator):
    worker = ScriptedWorker(coordinator, "w0")
    serving = worker.serve_in_background()
    try:
        wait_until(lambda: parked(coordinator, "w0"))
        outcomes = coordinator.submit([spec(0), spec(1), spec(2)])
        assert [o.index for o in outcomes] == [0, 1, 2]
        # Back to parked once the queue is drained, then released.
        wait_until(lambda: parked(coordinator, "w0"))
        coordinator.close()
        serving.join(WAIT_S)
        assert not serving.is_alive()
    finally:
        worker.close()
    # Every request got exactly one answer, and none was "come back
    # later": leases, then the shutdown that ended the parked request.
    assert worker.replies[-1] == "shutdown"
    assert set(worker.replies[:-1]) == {"lease"}
    assert sorted(s.index for lease in worker.leases for s in lease) == [
        0, 1, 2,
    ]


def test_disconnect_while_parked_is_a_loss_without_a_charge(coordinator):
    quitter = ScriptedWorker(coordinator, "w0")
    quitter.request()
    wait_until(lambda: parked(coordinator, "w0"))
    quitter.close()
    wait_until(lambda: coordinator.workers_lost == 1)
    peer = ScriptedWorker(coordinator, "w1")
    serving = peer.serve_in_background()
    try:
        outcomes = coordinator.submit([spec(0), spec(1)])
    finally:
        coordinator.close()
        serving.join(WAIT_S)
        peer.close()
    assert not serving.is_alive()
    assert [o.index for o in outcomes] == [0, 1]
    assert coordinator.workers_lost == 1
    assert all(s.attempt == 0 for lease in peer.leases for s in lease)


def test_unsendable_lease_requeues_uncharged(coordinator, monkeypatch):
    send_frame = protocol.send_frame
    lost = []

    def lose_first_lease(sock, message):
        if message["type"] == "lease" and not lost:
            lost.append(message)
            raise ConnectionResetError("injected send failure")
        send_frame(sock, message)

    monkeypatch.setattr(protocol, "send_frame", lose_first_lease)
    doomed = ScriptedWorker(coordinator, "w0")
    doomed.request()
    wait_until(lambda: parked(coordinator, "w0"))
    batch = Submission(coordinator, [spec(0), spec(1)])
    wait_until(lambda: coordinator.workers_lost == 1)
    peer = ScriptedWorker(coordinator, "w1")
    serving = peer.serve_in_background()
    try:
        outcomes = batch.result()
    finally:
        coordinator.close()
        serving.join(WAIT_S)
        peer.close()
        doomed.close()
    assert not serving.is_alive()
    assert [o.index for o in outcomes] == [0, 1]
    lost_indices = {payload["index"] for payload in lost[0]["specs"]}
    served = {s.index: s.attempt for lease in peer.leases for s in lease}
    assert lost_indices <= set(served)
    assert all(attempt == 0 for attempt in served.values())
    assert coordinator.workers_lost == 1


def test_dead_workers_requeue_goes_to_a_parked_peer(coordinator):
    casualty = ScriptedWorker(coordinator, "w0")
    casualty.request()
    wait_until(lambda: parked(coordinator, "w0"))
    batch = Submission(coordinator, [spec(0)])
    assert casualty.recv()["type"] == "lease"
    assert [s.index for s in casualty.leases[0]] == [0]
    peer = ScriptedWorker(coordinator, "w1")
    serving = peer.serve_in_background()
    try:
        # The queue is empty, so the peer's request parks...
        wait_until(lambda: parked(coordinator, "w1"))
        # ...until the casualty dies holding run 0.
        casualty.close()
        outcomes = batch.result()
    finally:
        coordinator.close()
        serving.join(WAIT_S)
        peer.close()
    assert not serving.is_alive()
    assert [o.index for o in outcomes] == [0]
    assert coordinator.workers_lost == 1
    # Run 0 was delivered, so it was in flight when its worker died:
    # the redispatch carries the charged attempt.
    redispatched = [
        [(s.index, s.attempt) for s in lease] for lease in peer.leases
    ]
    assert redispatched == [[(0, 1)]]
