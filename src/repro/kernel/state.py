"""Mid-run kernel state capture and restore.

:class:`KernelState` is a schema-versioned deep capture of everything a
:class:`~repro.kernel.scheduler.Simulator` owns at a scheduling-phase
boundary: the timing wheel, the zero-delay deque, delta/update queues,
staged signal writes, committed signal values, process wait-sets, and
the scheduling counters (including the tie-break sequence counter, so
restored wheel entries keep their exact relative order).

What is **not** captured: Tracer ring buffers and signal observer
lists (their lifecycle belongs to whoever armed them), the sanitizer's
transient window (reset on restore), and the wall-clock deadline.

Process continuations cannot be deep-copied (generators don't pickle
or copy), so restore *re-arms* them instead: a factory-spawned process
is rebuilt from its factory, primed to its first ``yield`` (the
discarded one), and its recorded wait-set is re-attached.  That is
sound exactly when every yield's continuation converges back to the
loop top with all cross-iteration state living in module attributes or
kernel objects — the *wait-site convergence* contract documented in
DESIGN.md.  Bare-generator processes cannot be re-armed, so a capture
refuses any that is alive.

A restore returns the kernel to exactly the captured processes and
signals: every captured process is rebuilt as captured, and anything
registered since the capture is killed and dropped.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from .process import FINISHED, KILLED, RUNNABLE, WAITING
from .signal import pristine_copy

if _t.TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator

#: Bumped whenever the captured field set changes shape.
SCHEMA_VERSION = 1


class SnapshotUnsupported(RuntimeError):
    """State a snapshot cannot capture: a bare-generator process
    continuation, a module whose class declares no ``STATE_FIELDS``,
    or a declared field holding an unsupported value."""


class SnapshotRestoreError(RuntimeError):
    """A restore could not re-arm the captured state (a process factory
    diverged from the wait-site convergence contract)."""


class KernelState:
    """A deep capture of one simulator's scheduling state.

    Produced by :meth:`Simulator.snapshot`; consumed by
    :meth:`Simulator.restore`.  Holds strong references to the live
    kernel objects (signals, processes, events) plus pristine masters
    of every mutable value, so a single capture can seed any number of
    restores without cross-contamination.
    """

    __slots__ = (
        "schema",
        "now",
        "delta_count",
        "events_processed",
        "processes_stepped",
        "delta_cycles_total",
        "seq",
        "wheel",
        "timed_now",
        "runnable",
        "delta_events",
        "delta_resumes",
        "update_queue",
        "signals",
        "processes",
        "events",
        "delta_hooks",
    )

    def __init__(self):
        self.schema = SCHEMA_VERSION


def capture_kernel_state(sim: "Simulator") -> KernelState:
    """Capture *sim*'s state at the current scheduling boundary.

    Raises :class:`SnapshotUnsupported` when any *alive* process was
    spawned from a bare generator — its continuation cannot be rebuilt.
    """
    stuck = [
        process for process in sim._processes
        if process.factory is None and process.alive
    ]
    if stuck:
        names = ", ".join(repr(process.name) for process in stuck)
        raise SnapshotUnsupported(
            f"cannot snapshot: process(es) {names} were spawned from "
            f"bare generators and cannot be re-armed; spawn from "
            f"zero-arg factories"
        )

    state = KernelState()
    state.now = sim.now
    state.delta_count = sim.delta_count
    state.events_processed = sim.events_processed
    state.processes_stepped = sim.processes_stepped
    state.delta_cycles_total = sim.delta_cycles_total
    state.seq = sim._seq
    # The wheel is captured as absolute (when, seq, kind, payload)
    # tuples: a copy of a heap is a heap, and restoring the seq counter
    # alongside preserves every tie-break exactly.
    state.wheel = list(sim._wheel)
    state.timed_now = list(sim._timed_now)
    state.runnable = list(sim._runnable)
    state.delta_events = list(sim._delta_events)
    state.delta_resumes = list(sim._delta_resumes)
    state.update_queue = list(sim._update_queue)
    state.delta_hooks = list(sim.delta_hooks)

    state.signals = []
    for signal in sim._signals:
        pending = signal._update_pending
        state.signals.append((
            signal,
            pristine_copy(signal._current),
            pending,
            pristine_copy(signal._next) if pending else None,
            signal.change_count,
        ))

    state.processes = []
    for process in sim._processes:
        state.processes.append((
            process,
            process.state,
            tuple(process._waiting_on),
            set(process._allof_remaining),
            process._resume_value,
            process.exception,
        ))

    # Every event whose waiter list or pending-delta flag can be
    # non-trivial is reachable from the members above: a waiter is a
    # process holding the event in _waiting_on (or joining on its
    # `finished`), signal-owned events hang off the signal, and pending
    # notifications sit in the delta/timed/wheel queues.
    state.events = []
    seen: set = set()

    def visit(event):
        if event is None or id(event) in seen:
            return
        seen.add(id(event))
        state.events.append((event, list(event._waiters), event._pending_kind))

    for process in sim._processes:
        visit(process.finished)
        for event in process._waiting_on:
            visit(event)
    for signal in sim._signals:
        visit(signal.changed)
        visit(getattr(signal, "posedge", None))
        visit(getattr(signal, "negedge", None))
    for _when, _seq, kind, payload in sim._wheel:
        if kind == "event":
            visit(payload)
    for kind, payload in sim._timed_now:
        if kind == "event":
            visit(payload)
    for event in sim._delta_events:
        visit(event)
    return state


def _restore_signal(entry) -> None:
    """Re-seed one signal from its captured masters.

    Fresh pristine copies every time, so repeated restores from the
    same :class:`KernelState` stay uncontaminated by in-place mutation
    during the runs in between.  When no write was pending at capture,
    ``_current`` and ``_next`` are the *same* object — matching what a
    fresh build and ``_perform_update`` both leave behind.
    """
    signal, current, pending, staged, change_count = entry
    value = pristine_copy(current)
    signal._current = value
    signal._next = pristine_copy(staged) if pending else value
    signal._update_pending = pending
    signal.change_count = change_count


def restore_kernel_state(
    sim: "Simulator",
    state: KernelState,
    platform_restore: _t.Optional[_t.Callable[[], None]] = None,
) -> None:
    """Return *sim* to the captured boundary.

    ``platform_restore`` re-seeds module-level state (a replay of a
    :meth:`~repro.kernel.Module.capture_state` capture).  It runs
    **twice**: once before process priming — so preambles that *read*
    module state (cached sensor codes, thresholds) see restored
    values — and once after — so preambles that *mutate* module state
    (a watchdog biting during its first primed iteration, an ECU
    delivering its enable write) are undone.  Kernel-side queue/signal state touched by priming is
    likewise wiped and re-applied after the prime pass.
    """
    if state.schema != SCHEMA_VERSION:
        raise SnapshotRestoreError(
            f"snapshot schema {state.schema} != supported {SCHEMA_VERSION}"
        )

    # 1. Process lifecycle.  Every captured process is rebuilt (or
    # killed when captured dead), registered now or not; every process
    # registered since the capture is killed and dropped.
    # restart()/kill() scrub wait bookkeeping and may notify
    # `finished`; every queue they touch is rebuilt below.
    member_ids = {id(entry[0]) for entry in state.processes}
    for process in sim._processes:
        if id(process) not in member_ids:
            process.kill()
    for entry in state.processes:
        if entry[1] in (FINISHED, KILLED):
            entry[0].kill()
        else:
            entry[0].restart()
    sim._processes = [entry[0] for entry in state.processes]

    # 2. Signal values (first pass) — before priming, so process
    # preambles read captured values.  Signals registered since the
    # capture are dropped.
    for entry in state.signals:
        _restore_signal(entry)
    sim._signals = [entry[0] for entry in state.signals]

    # 3. Module state (first pass) — priming preambles may read it.
    if platform_restore is not None:
        platform_restore()

    # 4. Prime: advance each captured-waiting member to its first
    # yield.  The yielded condition is discarded — the recorded
    # wait-set is re-attached in step 5 instead.
    for entry in state.processes:
        process, captured_state = entry[0], entry[1]
        if captured_state not in (WAITING, RUNNABLE):
            continue
        try:
            process.generator.send(None)
        except StopIteration:
            raise SnapshotRestoreError(
                f"process {process.name!r} finished while being primed; "
                f"restorable process bodies must reach a yield"
            ) from None
        except SnapshotRestoreError:
            raise
        except BaseException as exc:  # vp-lint: disable=VP007 - no simulation runs during priming; every failure is re-raised as SnapshotRestoreError
            raise SnapshotRestoreError(
                f"process {process.name!r} raised while being primed: "
                f"{exc!r}"
            ) from exc

    # 5. Wipe whatever steps 1-4 left in the queues, then re-apply the
    # capture wholesale.
    for event in sim._delta_events:
        event._pending_kind = None
    for signal in sim._update_queue:
        signal._update_pending = False
    for entry in state.signals:
        _restore_signal(entry)  # undo any staging done by priming
    for event, waiters, pending in state.events:
        event._waiters = list(waiters)
        event._pending_kind = pending
    for process, captured_state, waiting_on, allof, resume, exc in (
        state.processes
    ):
        process.state = captured_state
        process._waiting_on = waiting_on
        process._allof_remaining = set(allof)
        process._resume_value = resume
        process.exception = exc
    sim._runnable = deque(state.runnable)
    sim._wheel = list(state.wheel)
    sim._timed_now = deque(state.timed_now)
    sim._delta_events = list(state.delta_events)
    sim._delta_resumes = list(state.delta_resumes)
    sim._update_queue = list(state.update_queue)
    sim.now = state.now
    sim.delta_count = state.delta_count
    sim.events_processed = state.events_processed
    sim.processes_stepped = state.processes_stepped
    sim.delta_cycles_total = state.delta_cycles_total
    sim._seq = state.seq
    sim.delta_hooks[:] = state.delta_hooks
    sim._stop_requested = False
    sim._errors = []
    sim._deadline_at = None
    sim._current_process = None
    if sim._sanitizer is not None:
        sim._sanitizer.on_reset()

    # 6. Module state (second pass) — undo priming's module mutations.
    if platform_restore is not None:
        platform_restore()


__all__ = [
    "SCHEMA_VERSION",
    "KernelState",
    "SnapshotUnsupported",
    "SnapshotRestoreError",
    "capture_kernel_state",
    "restore_kernel_state",
]
