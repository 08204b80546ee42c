"""Unit tests for :meth:`Simulator.snapshot` / :meth:`restore` — the
mid-run kernel capture underneath snapshot-fork execution.

The contract (DESIGN.md · Mid-run snapshots & fork execution): a
kernel restored from a :class:`~repro.kernel.state.KernelState` and
run to completion is *bit-for-bit* indistinguishable from the kernel
that was captured running straight through — signal values, time,
statistics counters, process scheduling order.  Platform-level and
campaign-level layers are pinned in
``tests/core/test_fork_equivalence.py`` and
``tests/property/test_snapshot_properties.py``.
"""

import pytest

from repro.kernel import Clock, Signal, Simulator
from repro.kernel.state import (
    SCHEMA_VERSION,
    KernelState,
    SnapshotRestoreError,
    SnapshotUnsupported,
)


def build_counter(sim):
    """A tiny deterministic platform: clock, wire, edge counter."""
    clk = Clock(sim, "clk", period=10)
    out = Signal(sim, "count", initial=0)

    def counter():
        while True:
            yield clk.posedge
            out.write(out.read() + 1)

    sim.spawn(counter, name="counter")
    return clk, out


def build_two_phase(sim):
    """Two interacting factory processes with module-free state kept
    in signals — the wait-site-convergent shape restore supports."""
    clk = Clock(sim, "clk", period=6)
    ping = Signal(sim, "ping", initial=0)
    pong = Signal(sim, "pong", initial=0)

    def producer():
        while True:
            yield clk.posedge
            ping.write(ping.read() + 1)

    def consumer():
        while True:
            yield ping.changed
            pong.write(pong.read() + ping.read())

    sim.spawn(producer, name="producer")
    sim.spawn(consumer, name="consumer")
    return ping, pong


def final_state(sim, *signals):
    return tuple(s.read() for s in signals) + (sim.now, sim.stats())


class TestSnapshotRestore:
    def test_restore_resumes_bit_for_bit(self):
        """Reference: a run split at the same boundary *without* any
        snapshot (splitting itself costs one empty boundary delta
        cycle, which fork execution compensates — see
        ``execute_fork_group``); the restored continuation must match
        it exactly, counters included."""
        split = Simulator()
        _, split_out = build_counter(split)
        split.run(until=90)
        split.run(until=200)
        expected = final_state(split, split_out)

        sim = Simulator()
        _, out = build_counter(sim)
        sim.run(until=90)
        state = sim.snapshot()
        sim.run(until=200)
        assert final_state(sim, out) == expected

        sim.restore(state)
        assert sim.now == 90
        assert out.read() == 9
        sim.run(until=200)
        assert final_state(sim, out) == expected
        # Content (values, time) also matches an unsplit straight run.
        straight = Simulator()
        _, straight_out = build_counter(straight)
        straight.run(until=200)
        assert (straight_out.read(), straight.now) == (out.read(), sim.now)

    def test_restore_replays_any_number_of_times(self):
        sim = Simulator()
        ping, pong = build_two_phase(sim)
        sim.run(until=60)
        state = sim.snapshot()
        sim.run(until=150)
        reference = final_state(sim, ping, pong)
        for _ in range(3):
            sim.restore(state)
            sim.run(until=150)
            assert final_state(sim, ping, pong) == reference

    def test_snapshot_is_isolated_from_later_mutation(self):
        """The capture deep-copies mutable signal values: mutating the
        live value after the snapshot must not leak into a restore."""
        sim = Simulator()
        payload = Signal(sim, "payload", initial=[0])

        def mutator():
            while True:
                yield 10
                payload.read().append(sim.now)
                payload.write(payload.read())

        sim.spawn(mutator, name="mutator")
        sim.run(until=35)
        state = sim.snapshot()
        sim.run(until=95)
        assert len(payload.read()) > 3
        sim.restore(state)
        assert payload.read() == [0, 10, 20, 30]

    def test_schema_version_is_pinned(self):
        sim = Simulator()
        build_counter(sim)
        sim.run(until=50)
        state = sim.snapshot()
        assert isinstance(state, KernelState)
        assert state.schema == SCHEMA_VERSION == 1

    def test_restore_rejects_foreign_schema(self):
        sim = Simulator()
        build_counter(sim)
        sim.run(until=50)
        state = sim.snapshot()
        state.schema = SCHEMA_VERSION + 1
        with pytest.raises(SnapshotRestoreError):
            sim.restore(state)

    def test_strict_snapshot_refuses_bare_generators(self):
        """Bare-generator processes cannot be re-wound; a capture names
        the offender while it is alive instead of silently dropping it,
        and captures again once it has finished."""
        sim = Simulator()
        build_counter(sim)

        def one_shot():
            yield 5
            yield 5

        sim.spawn(one_shot(), name="bare")
        sim.run(until=7)
        with pytest.raises(SnapshotUnsupported, match="bare"):
            sim.snapshot()
        sim.run(until=12)
        assert sim.snapshot().schema == SCHEMA_VERSION


class TestExactRestore:
    """A restore returns the kernel to exactly the captured processes
    and signals, whatever was registered or unregistered since."""

    def test_signals_registered_after_the_capture_are_dropped(self):
        sim = Simulator()
        _, out = build_counter(sim)
        captured = sim.signals
        state = sim.snapshot()
        late = Signal(sim, "late", initial=0)
        late.write(1)
        sim.run(until=30)
        sim.restore(state)
        assert sim.signals == captured
        sim.run(until=200)
        assert out.read() == 20

    def test_captured_process_unregistered_since_is_rebuilt(self):
        """Nothing gates a captured process on being registered now: a
        capture taken while it ran brings it back."""
        sim = Simulator()
        clk, out = build_counter(sim)
        sim.run(until=45)
        state = sim.snapshot()
        straight = Simulator()
        _, straight_out = build_counter(straight)
        straight.run(until=200)
        clk.stop()
        sim._unregister_process(clk._proc)
        sim.run(until=100)
        sim.restore(state)
        assert clk._proc in sim.processes
        sim.run(until=200)
        assert (out.read(), sim.now) == (straight_out.read(), straight.now)


class TestWarmResetWrappers:
    """What ``reset()`` did — return to the elaboration boundary — is a
    :meth:`Simulator.snapshot` taken right after elaboration and
    restored; the name only raises."""

    def test_reset_is_a_restore_of_the_elaboration_snapshot(self):
        sim = Simulator()
        _, out = build_counter(sim)
        start = sim.snapshot()
        sim.run(until=200)
        with pytest.raises(
            NotImplementedError, match=r"snapshot\(\).*restore\(\)"
        ):
            sim.reset()
        sim.delta_hooks.append(lambda _sim: None)
        sim.restore(start)
        assert sim.now == 0
        assert out.read() == 0
        assert sim.delta_hooks == []
        sim.run(until=200)
        assert out.read() == 20

    def test_reset_still_equals_fresh_after_mid_run_snapshots(self):
        """Taking mid-run snapshots must not disturb an elaboration
        capture taken before them."""
        fresh = Simulator()
        _, fresh_out = build_counter(fresh)
        fresh.run(until=130)
        expected = final_state(fresh, fresh_out)

        sim = Simulator()
        _, out = build_counter(sim)
        start = sim.snapshot()
        sim.run(until=40)
        sim.snapshot()
        sim.run(until=130)
        sim.restore(start)
        sim.run(until=130)
        assert final_state(sim, out) == expected
