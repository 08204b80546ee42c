"""Simulation processes.

A process is a Python generator driven by the kernel.  Each ``yield``
hands a *wait condition* to the scheduler — an :class:`~repro.kernel.events.Event`,
a :class:`~repro.kernel.events.Timeout` (or bare integer), an
:class:`~repro.kernel.events.AnyOf` / :class:`~repro.kernel.events.AllOf`
composite, another :class:`Process` (join), or ``None`` (yield for one
delta cycle).  This mirrors SystemC's ``SC_THREAD`` + ``wait()`` style
while staying plain, debuggable Python.
"""

from __future__ import annotations

import typing as _t

from .events import AllOf, AnyOf, Event, Timeout

if _t.TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator

#: Process lifecycle states.
CREATED = "created"
RUNNABLE = "runnable"
WAITING = "waiting"
FINISHED = "finished"
KILLED = "killed"


class ProcessError(RuntimeError):
    """Raised by the simulator when a process body raised an exception."""

    def __init__(self, process: "Process", original: BaseException):
        super().__init__(f"process {process.name!r} raised {original!r}")
        self.process = process
        self.original = original


class Process:
    """A kernel-driven coroutine.

    Not instantiated directly by user code; use
    :meth:`Simulator.spawn <repro.kernel.scheduler.Simulator.spawn>` or
    :meth:`Module.process <repro.kernel.module.Module.process>`.

    ``behavior`` may be a generator (the classic spawn style) or a
    zero-argument *factory* returning a fresh generator.  Factory-spawned
    processes are **restartable**: :meth:`restart` rebuilds the
    generator from scratch, which is what lets
    :meth:`Simulator.restore <repro.kernel.scheduler.Simulator.restore>`
    return a platform to a captured state without re-running
    elaboration.
    """

    __slots__ = (
        "sim",
        "generator",
        "factory",
        "name",
        "state",
        "finished",
        "_resume_value",
        "_waiting_on",
        "_allof_remaining",
        "exception",
    )

    def __init__(self, sim: "Simulator", behavior, name: str):
        self.sim = sim
        if hasattr(behavior, "send"):
            self.generator = behavior
            self.factory: _t.Optional[_t.Callable] = None
        elif callable(behavior):
            self.factory = behavior
            self.generator = behavior()
            if not hasattr(self.generator, "send"):
                raise TypeError(
                    f"process factory for {name!r} returned "
                    f"{self.generator!r}, not a generator"
                )
        else:
            raise TypeError(
                f"process {name!r} needs a generator or a zero-arg "
                f"factory, got {behavior!r}"
            )
        self.name = name
        self.state = CREATED
        #: Fired (delta) when the process terminates; enables join.
        self.finished = Event(sim, f"{name}.finished")
        #: Value delivered to the generator on next resume (e.g. which
        #: event of an AnyOf fired).
        self._resume_value: _t.Any = None
        # Bookkeeping for composite waits so stale waiters are cleaned up.
        self._waiting_on: tuple = ()
        self._allof_remaining: set = set()
        self.exception: _t.Optional[BaseException] = None

    # -- scheduler interface -------------------------------------------

    def _step(self) -> None:
        """Advance the generator to its next wait condition."""
        if self.state in (FINISHED, KILLED):
            return
        self.state = RUNNABLE
        try:
            condition = self.generator.send(self._resume_value)
        except StopIteration:
            self._finish()
            return
        except BaseException as exc:  # noqa: BLE001 - reported to sim  # vp-lint: disable=VP007 - recorded as ProcessError and re-raised by Simulator.run; nothing is swallowed
            self.exception = exc
            self._finish()
            self.sim._report_process_error(ProcessError(self, exc))
            return
        self._resume_value = None
        try:
            self._suspend_on(condition)
        except TypeError as exc:
            self.exception = exc
            self._finish()
            self.sim._report_process_error(ProcessError(self, exc))

    def _suspend_on(self, condition: _t.Any) -> None:
        self.state = WAITING
        if condition is None:
            # Yield for one delta cycle.
            self.sim._schedule_delta_resume(self)
        elif isinstance(condition, int):
            self.sim._schedule_timed_resume(self, condition)
        elif isinstance(condition, Timeout):
            self.sim._schedule_timed_resume(self, condition.duration)
        elif isinstance(condition, Event):
            self._waiting_on = (condition,)
            condition._add_waiter(self)
        elif isinstance(condition, AnyOf):
            self._waiting_on = condition.events
            for event in condition.events:
                event._add_waiter(self)
        elif isinstance(condition, AllOf):
            self._waiting_on = condition.events
            self._allof_remaining = set(condition.events)
            for event in condition.events:
                event._add_waiter(self)
        elif isinstance(condition, Process):
            if condition.state in (FINISHED, KILLED):
                self.sim._schedule_delta_resume(self)
            else:
                self._waiting_on = (condition.finished,)
                condition.finished._add_waiter(self)
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported wait "
                f"condition {condition!r}"
            )

    def _event_fired(self, event: Event) -> bool:
        """Called by the scheduler when *event* notified.

        Returns True when this process becomes runnable.
        """
        if self.state != WAITING:
            return False
        if self._allof_remaining:
            self._allof_remaining.discard(event)
            if self._allof_remaining:
                return False
            self._clear_waits()
            return True
        self._resume_value = event if len(self._waiting_on) > 1 else None
        self._clear_waits()
        return True

    def _clear_waits(self) -> None:
        for event in self._waiting_on:
            event._remove_waiter(self)
        self._waiting_on = ()
        self._allof_remaining = set()

    def _finish(self) -> None:
        if self.state in (FINISHED, KILLED):
            return
        self.state = FINISHED
        self._clear_waits()
        self.finished.notify(0)

    # -- user interface -------------------------------------------------

    def kill(self) -> None:
        """Terminate the process without running it further."""
        if self.state in (FINISHED, KILLED):
            return
        self._clear_waits()
        self.generator.close()
        self.state = KILLED
        self.finished.notify(0)

    def restart(self) -> None:
        """Rebuild the generator from the spawn factory.

        Only valid for factory-spawned processes; the kernel calls this
        from :meth:`Simulator.restore` with every queue about to be
        re-seeded from the capture, so no notification is emitted here.
        """
        if self.factory is None:
            raise TypeError(
                f"process {self.name!r} was spawned from a bare "
                f"generator and cannot restart"
            )
        self._clear_waits()
        self.generator.close()
        self.generator = self.factory()
        self.state = CREATED
        self._resume_value = None
        self.exception = None
        self.finished._waiters.clear()
        self.finished._pending_kind = None

    @property
    def alive(self) -> bool:
        return self.state not in (FINISHED, KILLED)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Process({self.name!r}, {self.state})"
