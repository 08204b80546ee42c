"""Returning a kernel to its elaboration capture.

Rung 0 of every warm platform's golden-run ladder is a
:meth:`Simulator.snapshot` taken right after elaboration, restored
after each dirty run.  The contract (DESIGN.md · Campaign performance):
the restored kernel is *bit-for-bit* indistinguishable from a freshly
built one — factory processes rebuilt and rescheduled in spawn order,
every queue and counter back at its elaboration value, every signal
back at its initial value, and everything registered since the capture
gone.  These tests pin that promise at the kernel level; the
platform-level half lives in ``tests/core/test_warm_equivalence.py``.
"""

import pytest

from repro.kernel import Clock, Signal, Simulator, Wire


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


def run_to(sim, out, until):
    sim.run(until=until)
    return out.read(), sim.now, sim.stats()


def elaborated(build):
    """``(sim, built, capture)``: *build* on a new kernel, captured
    right after elaboration."""
    sim = Simulator()
    built = build(sim)
    return sim, built, sim.snapshot()


class TestResetEquivalence:
    def test_reset_run_matches_fresh_run(self):
        fresh = Simulator()
        _, fresh_out = build_counter(fresh)
        fresh_final = run_to(fresh, fresh_out, 200)

        warm, (_, warm_out), start = elaborated(build_counter)
        run_to(warm, warm_out, 200)  # dirty the kernel
        warm.restore(start)
        assert warm_out.read() == 0  # signals restored pre-run
        assert warm.now == 0
        warm_final = run_to(warm, warm_out, 200)

        assert warm_final == fresh_final

    def test_reset_after_interrupted_run_matches_fresh(self):
        """A run stopped mid-flight (the deadline-timeout shape) leaves
        pending wheel entries and runnable state; a restore must still
        bring back power-on behavior exactly."""
        fresh = Simulator()
        _, fresh_out = build_counter(fresh)
        fresh_final = run_to(fresh, fresh_out, 200)

        warm, (_, warm_out), start = elaborated(build_counter)
        warm.run(until=73)  # interrupt at an odd time, mid-period
        warm.restore(start)
        warm_final = run_to(warm, warm_out, 200)

        assert warm_final == fresh_final

    def test_repeated_resets_stay_identical(self):
        sim, (_, out), start = elaborated(build_counter)
        finals = []
        for _ in range(4):
            finals.append(run_to(sim, out, 150))
            sim.restore(start)
        assert finals.count(finals[0]) == 4


class TestResetMechanics:
    def test_bare_generator_processes_are_killed(self):
        """Whatever was spawned after the capture — bare generator or
        factory — is killed and dropped; captured processes are
        rebuilt."""
        sim = Simulator()

        def ticks():
            while True:
                yield 5

        factory = sim.spawn(ticks, name="factory")
        start = sim.snapshot()
        bare = sim.spawn(ticks(), name="bare")  # generator, no factory
        late = sim.spawn(ticks, name="late")
        sim.run(until=20)
        sim.restore(start)
        assert bare.state == late.state == "killed"
        assert sim.processes == (factory,)
        assert factory.state == "created"

    def test_counters_queues_and_signals_restored(self):
        sim = Simulator()
        sig = Signal(sim, "s", initial=7)
        wire = Wire(sim, "w", initial=False)

        def writer():
            yield 3
            sig.write(42)
            wire.write(True)
            yield 100  # leaves a wheel entry when interrupted

        sim.spawn(writer, name="writer")
        start = sim.snapshot()
        sim.run(until=10)
        assert sig.read() == 42
        sim.restore(start)
        assert sig.read() == 7
        assert wire.read() is False
        assert sig.change_count == 0
        assert sim.now == 0
        assert sim.delta_count == 0
        assert sim.stats() == {
            "events": 0, "process_steps": 0, "delta_cycles": 0
        }
        assert not sim._wheel
        assert not sim._timed_now
        assert not sim._delta_events
        assert not sim._update_queue

    def test_delta_hooks_cleared(self):
        """Delta hooks are kernel state like any other: one added after
        the capture is gone after the restore."""
        sim = Simulator()
        start = sim.snapshot()
        sim.delta_hooks.append(lambda s: None)
        sim.restore(start)
        assert sim.delta_hooks == []

    def test_restart_requires_factory(self):
        sim = Simulator()

        def body():
            yield 1

        process = sim.spawn(body(), name="bare")
        with pytest.raises(TypeError):
            process.restart()

    def test_elaboration_timed_event_replayed_after_reset(self):
        """Timed notifications issued at elaboration time (a platform
        factory calling ``sim.timeout_event`` / ``event.notify(delay)``)
        must fire again after a restore, exactly as on a fresh build."""

        def build(sim):
            log = []
            boot = sim.timeout_event(50, name="boot")

            def waiter():
                yield boot
                log.append(sim.now)

            sim.spawn(waiter, name="waiter")
            return log

        fresh = Simulator()
        fresh_log = build(fresh)
        fresh.run(until=200)

        warm, warm_log, start = elaborated(build)
        warm.run(until=200)
        assert warm_log == [50]
        warm.restore(start)
        warm_log.clear()
        warm.run(until=200)

        assert warm_log == fresh_log == [50]

    def test_elaboration_staged_write_and_delta_replayed_after_reset(self):
        """Staged signal writes and delta notifications left behind by
        elaboration are part of the power-on state too."""

        def build(sim):
            log = []
            sig = Signal(sim, "s", initial=0)
            kick = sim.event("kick")
            sig.write(5)  # staged at elaboration, commits in delta 0
            kick.notify(0)  # delta-pending at elaboration

            def kick_watcher():
                yield kick
                log.append(("kick", sim.now, sig.read()))

            def change_watcher():
                yield sig.changed
                log.append(("changed", sim.now, sig.read()))

            sim.spawn(kick_watcher, name="kick_watcher")
            sim.spawn(change_watcher, name="change_watcher")
            return log

        fresh = Simulator()
        fresh_log = build(fresh)
        fresh.run(until=10)
        assert fresh_log == [("kick", 0, 5), ("changed", 0, 5)]

        warm, warm_log, start = elaborated(build)
        warm.run(until=10)
        warm.restore(start)
        warm_log.clear()
        warm.run(until=10)

        assert warm_log == fresh_log

    def test_mutable_initial_value_restored_pristine(self):
        """A run mutating a signal's (mutable) value in place must not
        leak the mutation into the value a restore brings back."""
        sim = Simulator()
        sig = Signal(sim, "buf", initial=[0, 0, 0])

        def mutator():
            yield 1
            sig.read().append(99)
            sig.read()[0] = 7

        sim.spawn(mutator, name="mutator")
        start = sim.snapshot()
        sim.run(until=10)
        assert sig.read() == [7, 0, 0, 99]
        sim.restore(start)
        assert sig.read() == [0, 0, 0]
        # A second dirty run must start from an equally pristine copy.
        sim.run(until=10)
        assert sig.read() == [7, 0, 0, 99]
        sim.restore(start)
        assert sig.read() == [0, 0, 0]

    def test_zero_delay_notifications_survive_reset_cycle(self):
        """The ``_timed_now`` fast path must behave identically on a
        restored kernel — the deque is per-kernel state like the wheel."""

        def build(sim):
            log = []

            def pinger():
                for _ in range(3):
                    yield 0
                    log.append(sim.now)
                yield 10
                log.append(sim.now)

            sim.spawn(pinger, name="pinger")
            return log

        fresh = Simulator()
        fresh_log = build(fresh)
        fresh.run()

        warm, warm_log, start = elaborated(build)
        warm.run()
        warm.restore(start)
        warm_log.clear()
        warm.run()

        assert warm_log == fresh_log == [0, 0, 0, 10]
