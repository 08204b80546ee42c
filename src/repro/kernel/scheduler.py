"""The discrete-event simulator core.

The :class:`Simulator` implements the SystemC-style scheduling loop:

1. **Evaluation phase** — run every runnable process until the runnable
   queue drains.  Immediate notifications feed the same phase.
2. **Update phase** — commit primitive-channel (signal) writes; each
   value change produces delta notifications.
3. **Delta notification phase** — wake processes sensitive to the delta
   events; if any woke up, loop back to step 1 within the same time.
4. **Time advance** — pop the earliest timed notification(s) from the
   event wheel and repeat.

Ordering is fully deterministic: processes resume in FIFO order within a
phase, and the event wheel breaks time ties with a monotonically
increasing sequence number.  Deterministic scheduling is essential here —
fault-injection campaigns must replay exactly under a fixed seed.
"""

from __future__ import annotations

import heapq
import os
import random
import time
import typing as _t
from collections import deque

# Bound at module level: the scheduler calls these once per timed
# notification, and attribute lookups on ``heapq`` are measurable at
# campaign scale.
_heappush = heapq.heappush
_heappop = heapq.heappop

from . import simtime
from .events import Event
from .process import FINISHED, KILLED, WAITING, Process, ProcessError
from .state import (
    KernelState,
    SnapshotRestoreError,
    capture_kernel_state,
    restore_kernel_state,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from .signal import SignalBase


class SimulationFinished(Exception):
    """Raised internally to unwind when a stop is requested."""


class DeadlineExceeded(RuntimeError):
    """:meth:`Simulator.run` exceeded its wall-clock deadline.

    Injected faults can drive a prototype into a livelock (a runaway
    process spinning on zero-delay yields, a watchdog loop that never
    converges); the deadline turns such a hang into a catchable,
    classifiable event instead of a stuck campaign.  Carries the
    simulation time and the budget that was exhausted.
    """

    def __init__(self, deadline_s: float, sim_now: int):
        super().__init__(
            f"simulation exceeded its {deadline_s}s wall-clock deadline "
            f"at t={sim_now}"
        )
        self.deadline_s = deadline_s
        self.sim_now = sim_now


class Simulator:
    """A discrete-event simulation kernel instance.

    Typical standalone use::

        sim = Simulator()

        def blinker():
            while True:
                yield 10          # wait 10 time units
                print("tick", sim.now)

        sim.spawn(blinker(), name="blinker")
        sim.run(until=100)

    ``sanitize`` arms the delta-race sanitizer
    (:mod:`repro.analyze.sanitizer`): ``True``, a ``SanitizeConfig``,
    or a shared ``DeltaRaceSanitizer`` instance; ``None`` defers to
    the ``REPRO_SANITIZE`` environment variable (any value except
    ``""``/``"0"`` enables it).  ``order_seed`` deterministically
    shuffles the runnable queue at every delta-cycle boundary — an
    intentional perturbation of the (otherwise guaranteed) FIFO order
    used by the order-sensitivity checker
    (:func:`repro.analyze.check_order_sensitivity`) to expose
    platforms whose behavior depends on process scheduling order.
    """

    def __init__(self, sanitize=None, order_seed: _t.Optional[int] = None):
        #: Current simulation time in kernel units.
        self.now: int = 0
        #: Delta-cycle counter within the current timestamp (diagnostics).
        self.delta_count: int = 0
        #: Lifetime counters (see :meth:`stats`) — campaign executors
        #: ship them back as the per-run simulation cost.
        self.events_processed: int = 0
        self.processes_stepped: int = 0
        self.delta_cycles_total: int = 0
        self._runnable: deque = deque()
        self._wheel: list = []  # heap of (time, seq, kind, payload)
        #: Zero-delay timed notifications land here instead of the heap:
        #: they are due at the *current* time, and by the time any wheel
        #: entry for ``now`` could fire, :meth:`_advance_time` has already
        #: drained the wheel at that timestamp — so FIFO order on this
        #: deque is exactly the seq order the heap would have produced.
        self._timed_now: deque = deque()
        self._seq = 0
        self._delta_events: list = []  # events with pending delta notification
        self._delta_resumes: list = []  # processes to resume next delta
        self._update_queue: list = []  # signals with pending writes
        self._processes: list = []
        self._signals: list = []  # every SignalBase born on this kernel
        self._stop_requested = False
        self._errors: list = []
        self._deadline_at: _t.Optional[float] = None
        #: Hooks invoked as fn(sim) after every delta cycle (tracing).
        self.delta_hooks: list = []
        #: The process currently being stepped (sanitizer attribution;
        #: only maintained while a sanitizer is armed).
        self._current_process: _t.Optional[Process] = None
        if sanitize is None and os.environ.get("REPRO_SANITIZE", "0") not in (
            "", "0"
        ):
            sanitize = True
        if sanitize:
            # Lazy import: the sanitizer lives in the analysis layer,
            # which imports the kernel; resolving it here (only when
            # armed) keeps the packages acyclic at import time.
            from ..analyze.sanitizer import resolve_sanitize

            self._sanitizer = resolve_sanitize(sanitize)
        else:
            self._sanitizer = None
        self._order_rng = (
            None if order_seed is None else random.Random(order_seed)
        )

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def spawn(self, behavior, name: str = "proc") -> Process:
        """Register *behavior* as a process, runnable at the current time.

        *behavior* is a generator, or a zero-argument factory returning
        one.  Only a factory-spawned process can be captured alive by
        :meth:`snapshot` (a :meth:`restore` rebuilds it from the
        factory); a bare generator cannot rewind, so while one is alive
        the kernel refuses a snapshot.
        """
        process = Process(self, behavior, name)
        self._processes.append(process)
        self._runnable.append(process)
        return process

    def event(self, name: str = "event") -> Event:
        """Create a fresh :class:`Event` bound to this simulator."""
        return Event(self, name)

    def timeout_event(self, delay: int, name: str = "timeout") -> Event:
        """An event that fires once, *delay* units from now.

        Useful inside ``AnyOf`` to wait for "X or a deadline"::

            fired = yield AnyOf(done, sim.timeout_event(1000))
        """
        event = Event(self, name)
        event.notify(delay)
        return event

    # ------------------------------------------------------------------
    # Notification plumbing (called by Event / Signal / Process)
    # ------------------------------------------------------------------

    def _notify_immediate(self, event: Event) -> None:
        for process in event._take_waiters():
            if process._event_fired(event):
                self._runnable.append(process)

    def _notify_delta(self, event: Event) -> None:
        if event._pending_kind != "delta":
            event._pending_kind = "delta"
            self._delta_events.append(event)

    def _notify_timed(self, event: Event, delay: int) -> None:
        if delay == 0:
            self._timed_now.append(("event", event))
            return
        self._seq += 1
        _heappush(
            self._wheel, (self.now + delay, self._seq, "event", event)
        )

    def _schedule_delta_resume(self, process: Process) -> None:
        self._delta_resumes.append(process)

    def _schedule_timed_resume(self, process: Process, delay: int) -> None:
        if delay == 0:
            self._timed_now.append(("process", process))
            return
        self._seq += 1
        _heappush(
            self._wheel, (self.now + delay, self._seq, "process", process)
        )

    def _request_update(self, signal: "SignalBase") -> None:
        if self._sanitizer is not None:
            # Every staged write, not just the first per delta: the
            # *second* write to an already-pending signal is exactly
            # the write-write conflict the sanitizer exists to see.
            self._sanitizer.on_write(
                signal, self._current_process, self.now, self.delta_count
            )
        if not signal._update_pending:
            signal._update_pending = True
            self._update_queue.append(signal)

    def _register_signal(self, signal: "SignalBase") -> None:
        self._signals.append(signal)

    def _unregister_signal(self, signal: "SignalBase") -> None:
        """Forget *signal* (per-run scaffolding torn down via detach).

        Without this, signals created by per-run helpers would stay
        registered until the next :meth:`restore` drops them.
        """
        try:
            self._signals.remove(signal)
        except ValueError:
            pass

    def _unregister_process(self, process: Process) -> None:
        """Forget *process* (per-run scaffolding torn down via detach)."""
        try:
            self._processes.remove(process)
        except ValueError:
            pass

    def _report_process_error(self, error: ProcessError) -> None:
        self._errors.append(error)
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Request that :meth:`run` return at the next phase boundary."""
        self._stop_requested = True

    def run(
        self,
        until: _t.Optional[int] = None,
        deadline_s: _t.Optional[float] = None,
    ) -> int:
        """Run the simulation.

        ``until`` is an absolute time horizon; simulation stops *before*
        executing anything scheduled later than it and ``self.now`` is
        left clamped at the horizon.  With ``until=None`` the simulation
        runs until no activity remains.  Returns the final time.

        ``deadline_s`` bounds the *wall-clock* time of this call: when
        the budget runs out, :class:`DeadlineExceeded` is raised from
        the next scheduling-phase boundary.  The check runs between
        delta cycles and every 256 process steps within one, so even
        zero-delay livelocks are preempted; only a process body that
        never yields at all can escape it (the campaign layer adds a
        pool-level backstop for that case).

        Raises :class:`~repro.kernel.process.ProcessError` if any process
        body raised.
        """
        horizon = simtime.TIME_MAX if until is None else until
        self._deadline_at = (
            None if deadline_s is None
            else time.perf_counter() + deadline_s  # vp-lint: disable=VP005 - the deadline budget is wall-clock by definition
        )
        self._deadline_s = deadline_s
        try:
            while not self._stop_requested:
                if self._deadline_at is not None:
                    self._check_deadline()
                self._delta_cycle()
                if self._stop_requested:
                    break
                if self._runnable or self._delta_resumes or self._delta_events:
                    continue
                if self._timed_now:
                    self._fire_timed_now()
                    continue
                if not self._advance_time(horizon):
                    break
        finally:
            self._deadline_at = None
            if self._errors:
                error = self._errors[0]
                self._errors = []
                self._stop_requested = False
                raise error
        self._stop_requested = False
        if until is not None and self.now < until and not self._errors:
            # No activity left before the horizon: clamp time forward so
            # callers observe the requested duration.
            self.now = until
        return self.now

    def _check_deadline(self) -> None:
        if time.perf_counter() >= self._deadline_at:  # vp-lint: disable=VP005 - the deadline budget is wall-clock by definition
            raise DeadlineExceeded(self._deadline_s, self.now)

    def _delta_cycle(self) -> None:
        sanitizer = self._sanitizer
        if self._order_rng is not None and len(self._runnable) > 1:
            # Order-sensitivity probing: permute the evaluation order
            # deterministically per seed.  A sound platform produces
            # byte-identical digests under any permutation.
            shuffled = list(self._runnable)
            self._order_rng.shuffle(shuffled)
            self._runnable.clear()
            self._runnable.extend(shuffled)
        # Evaluation phase.
        while self._runnable:
            process = self._runnable.popleft()
            if process.state in (FINISHED, KILLED):
                continue
            self.processes_stepped += 1
            # Immediate-notification ping-pong can livelock *inside* one
            # evaluation phase; re-check the wall-clock budget without
            # paying a perf_counter call on every step.
            if (
                self._deadline_at is not None
                and not (self.processes_stepped & 0xFF)
            ):
                self._check_deadline()
            if sanitizer is not None:
                self._current_process = process
            process._step()
            if self._stop_requested:
                return
        if sanitizer is not None:
            self._current_process = None
        # Update phase.
        if self._update_queue:
            updates, self._update_queue = self._update_queue, []
            for signal in updates:
                signal._perform_update()
        # Delta notification phase.
        if self._delta_events:
            events, self._delta_events = self._delta_events, []
            for event in events:
                event._pending_kind = None
                self.events_processed += 1
                for process in event._take_waiters():
                    if process._event_fired(event):
                        self._runnable.append(process)
        if self._delta_resumes:
            resumes, self._delta_resumes = self._delta_resumes, []
            for process in resumes:
                if process.state not in (FINISHED, KILLED):
                    self._runnable.append(process)
        self.delta_count += 1
        self.delta_cycles_total += 1
        if sanitizer is not None:
            # Close the same-delta conflict window: writes staged in
            # different delta cycles are ordinary sequencing.
            sanitizer.end_delta()
        if self.delta_hooks:
            for hook in self.delta_hooks:
                hook(self)

    def _fire_timed_now(self) -> None:
        """Deliver zero-delay timed notifications without touching the heap.

        Semantically identical to :meth:`_advance_time` landing on the
        current timestamp: time does not move, the delta counter restarts,
        and payloads wake in scheduling (FIFO == seq) order.
        """
        self.delta_count = 0
        fired, self._timed_now = self._timed_now, deque()
        for kind, payload in fired:
            self.events_processed += 1
            if kind == "event":
                payload._pending_kind = None
                for process in payload._take_waiters():
                    if process._event_fired(payload):
                        self._runnable.append(process)
            else:  # kind == "process"
                if payload.state not in (FINISHED, KILLED):
                    self._runnable.append(payload)

    def _advance_time(self, horizon: int) -> bool:
        """Pop the next timestamp from the wheel.  False when exhausted."""
        while self._wheel:
            when, _seq, kind, payload = self._wheel[0]
            if when > horizon:
                self.now = horizon
                return False
            break
        if not self._wheel:
            return False
        when = self._wheel[0][0]
        self.now = when
        self.delta_count = 0
        while self._wheel and self._wheel[0][0] == when:
            _when, _seq, kind, payload = _heappop(self._wheel)
            self.events_processed += 1
            if kind == "event":
                payload._pending_kind = None
                for process in payload._take_waiters():
                    if process._event_fired(payload):
                        self._runnable.append(process)
            else:  # kind == "process"
                if payload.state not in (FINISHED, KILLED):
                    self._runnable.append(payload)
        return True

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> KernelState:
        """Capture the kernel's state at the current scheduling boundary.

        Call between :meth:`run` calls (or before the first, to capture
        what elaboration left behind: timed events, staged writes,
        delta notifications): every queue except the timing wheel is
        empty there, and the capture is exact.  The returned
        :class:`~repro.kernel.state.KernelState` deep-copies every
        mutable value, so any number of later :meth:`restore` calls
        replay from the same baseline.

        A kernel with an alive bare-generator process raises
        :class:`~repro.kernel.state.SnapshotUnsupported`: its
        continuation cannot be rebuilt.

        Module-level state (memory images, component counters) is NOT
        captured: :meth:`Module.capture_state
        <repro.kernel.Module.capture_state>` does that, and callers take
        it first, so an uncapturable platform pays for no kernel capture.
        """
        return capture_kernel_state(self)

    def restore(
        self,
        state: KernelState,
        platform_restore: _t.Optional[_t.Callable[[], None]] = None,
    ) -> None:
        """Return the kernel to a captured boundary (see :meth:`snapshot`).

        The kernel holds exactly the captured processes and signals
        afterwards: each captured process is rebuilt from its factory,
        primed to its first yield, and re-armed with its recorded
        wait-set, and anything registered since the capture is killed
        and dropped.  Every queue, signal, counter and delta hook is
        re-seeded from the capture's pristine masters.
        ``platform_restore`` restores module-level state and is invoked
        twice (before and after process priming — see
        :func:`~repro.kernel.state.restore_kernel_state`).
        """
        restore_kernel_state(self, state, platform_restore)

    def _arm_forked_process(
        self, process: Process, seq: float
    ) -> None:
        """Arm a freshly spawned injection process on a forked kernel.

        Snapshot-fork execution spawns per-run injector processes
        *after* restoring a mid-run snapshot.  On a fresh run those
        injectors were stepped during delta cycle 0 and parked on the
        wheel with sequence numbers interleaved at their spawn
        position; here the prefix already ran, so the process is
        primed immediately (consuming its first yielded delay) and
        pushed with the caller-chosen *seq* — fractional seq values
        slot the entry between the prefix's cycle-0 pushes and
        everything later, reproducing the fresh tie-break order
        exactly (see DESIGN.md · Mid-run snapshots).
        """
        try:
            self._runnable.remove(process)
        except ValueError:
            pass
        try:
            condition = process.generator.send(None)
        except StopIteration:
            raise SnapshotRestoreError(
                f"fork injection process {process.name!r} finished "
                f"without yielding a delay"
            ) from None
        if not isinstance(condition, int) or condition <= 0:
            raise SnapshotRestoreError(
                f"fork injection process {process.name!r} yielded "
                f"{condition!r}; expected a positive delay"
            )
        self.processes_stepped += 1
        process.state = WAITING
        _heappush(
            self._wheel, (self.now + condition, seq, "process", process)
        )

    # The only reason this name exists: perfbench/layers.py wraps it
    # for its kernel.state layer.
    def reset(self) -> None:
        """Retired: take a :meth:`snapshot` and :meth:`restore` it."""
        raise NotImplementedError(
            "Simulator.reset() is gone: capture the start state with "
            "snapshot() and return to it with restore()"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def sanitizer(self):
        """The armed delta-race sanitizer, or ``None`` when disabled."""
        return self._sanitizer

    @property
    def signals(self) -> tuple:
        """Every registered signal, in registration order (read-only
        view; the static reachability analyzer walks it so it never
        needs to poke kernel-private registries)."""
        return tuple(self._signals)

    @property
    def processes(self) -> tuple:
        """Every live process, in spawn order (read-only view, same
        contract as :attr:`signals`)."""
        return tuple(self._processes)

    def stats(self) -> _t.Dict[str, int]:
        """Lifetime scheduling counters for this kernel instance.

        ``events`` counts every delivered notification (timed wheel
        pops and delta-event fan-outs), ``process_steps`` every process
        activation, ``delta_cycles`` every completed delta cycle.
        Campaign executors attach these to each
        :class:`~repro.core.runspec.RunOutcome` so throughput can be
        normalised by actual simulation work.
        """
        return {
            "events": self.events_processed,
            "process_steps": self.processes_stepped,
            "delta_cycles": self.delta_cycles_total,
        }

    @property
    def pending_activity(self) -> bool:
        """True when any work remains (runnable, delta, or timed)."""
        return bool(
            self._runnable
            or self._delta_resumes
            or self._delta_events
            or self._update_queue
            or self._timed_now
            or self._wheel
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Simulator(now={simtime.format_time(self.now)}, "
            f"processes={len(self._processes)})"
        )
