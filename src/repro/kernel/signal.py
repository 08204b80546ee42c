"""Primitive channels: signals with delta-cycle update semantics.

A :class:`Signal` behaves like SystemC's ``sc_signal``: writes are staged
and only become visible in the update phase of the current delta cycle,
so all processes in one evaluation phase observe a consistent snapshot.
Every committed change notifies the signal's ``changed`` event with delta
semantics, waking sensitive processes in the next delta cycle.

:class:`Wire` adds edge events for boolean signals, which clocked models
(gate-level DFFs, the watchdog) rely on.

Hot-path notes (these classes dominate campaign profiles):

* all channel classes carry ``__slots__`` — a campaign commits millions
  of signal updates and dict-based attribute access is measurable;
* :meth:`SignalBase._announce` only notifies an edge/changed event when
  it has waiters — but **only for update-phase announcements**.  Those
  happen after the evaluation phase drained, so no process can add
  itself as a waiter before the delta-notification phase that would
  consume the firing; an event without waiters at announce time wakes
  nobody, and skipping the queue round-trip is unobservable.  The
  :meth:`~SignalBase.force` path must *not* take this shortcut: it
  fires mid-evaluation, and a process scheduled later in the same
  phase may still arm a wait that the delta notification has to
  satisfy — forced announcements therefore always notify;
* observers (the tracer hook) are guarded by a truthiness check — the
  no-tracer branch pays one ``if`` instead of an empty loop setup.
"""

from __future__ import annotations

import copy as _copy
import typing as _t

from .events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Simulator

T = _t.TypeVar("T")

#: Value types that cannot be mutated in place; restoring them by
#: reference from a snapshot is exact.  Anything else is deep-copied so
#: a run that mutates a signal value in place cannot leak the mutation
#: into the value the next restored run starts from.
_ATOMIC_TYPES = (type(None), bool, int, float, complex, str, bytes, frozenset)


def pristine_copy(value):
    """*value* itself when immutable-atomic, a deep copy otherwise."""
    if isinstance(value, _ATOMIC_TYPES):
        return value
    return _copy.deepcopy(value)


class SignalBase:
    """Shared staging/update machinery for primitive channels."""

    __slots__ = (
        "sim",
        "name",
        "_initial",
        "_current",
        "_next",
        "_update_pending",
        "changed",
        "observers",
        "change_count",
    )

    def __init__(self, sim: "Simulator", name: str, initial: _t.Any):
        self.sim = sim
        self.name = name
        #: Elaboration-time value, a pristine (deep) copy for mutable
        #: values; :class:`Clock` reads its phase from it.
        self._initial = pristine_copy(initial)
        self._current = initial
        self._next = initial
        self._update_pending = False
        #: Delta-notified whenever the committed value changes.
        self.changed = Event(sim, f"{name}.changed")
        #: Observers invoked as fn(signal, old, new) on committed changes.
        self.observers: list = []
        #: Number of committed value changes (activity metric).
        self.change_count = 0
        sim._register_signal(self)

    # -- reading/writing ------------------------------------------------

    def read(self):
        """Current committed value."""
        return self._current

    def write(self, value) -> None:
        """Stage *value*; it commits at the next update phase."""
        self._next = value
        self.sim._request_update(self)

    @property
    def staged(self):
        """The value staged for the next update phase.

        Equal to :meth:`read` when no write is pending.  Public so
        diagnostic layers (the delta-race sanitizer) can report what a
        conflicting write staged without reaching into kernel-private
        state.
        """
        return self._next

    #: ``signal.value`` is sugar for read/write.
    @property
    def value(self):
        return self.read()

    @value.setter
    def value(self, new_value) -> None:
        self.write(new_value)

    def force(self, value) -> None:
        """Immediately overwrite the committed value (fault injection).

        Unlike :meth:`write` this bypasses the update phase, notifying
        sensitive processes as if the change had just been committed.
        Injectors use this to model upsets that do not originate from a
        driving process.
        """
        old = self._current
        self._current = value
        self._next = value
        if old != value:
            # forced=True: this announcement happens mid-evaluation, so
            # a process running later in the same phase may still arm a
            # wait on the event — the no-waiter skip would lose it.
            self._announce(old, value, forced=True)

    # -- kernel interface ------------------------------------------------

    def _perform_update(self) -> None:
        self._update_pending = False
        old = self._current
        if self._next != old:
            self._current = self._next
            self._announce(old, self._current)

    def _announce(self, old, new, forced: bool = False) -> None:
        self.change_count += 1
        changed = self.changed
        if forced or changed._waiters or changed._pending_kind:
            changed.notify(0)
        if self.observers:
            for observer in self.observers:
                observer(self, old, new)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.name!r}={self._current!r})"


class Signal(SignalBase, _t.Generic[T]):
    """A typed value-holding signal (``sc_signal<T>`` equivalent)."""

    __slots__ = ()


class Wire(SignalBase):
    """A boolean signal with dedicated edge events.

    ``posedge`` / ``negedge`` fire (delta) when the committed value
    transitions 0→1 / 1→0 respectively.
    """

    __slots__ = ("posedge", "negedge")

    def __init__(self, sim: "Simulator", name: str, initial: bool = False):
        super().__init__(sim, name, bool(initial))
        self.posedge = Event(sim, f"{name}.posedge")
        self.negedge = Event(sim, f"{name}.negedge")

    def write(self, value) -> None:
        super().write(bool(value))

    def _announce(self, old, new, forced: bool = False) -> None:
        super()._announce(old, new, forced)
        if new and not old:
            edge = self.posedge
            if forced or edge._waiters or edge._pending_kind:
                edge.notify(0)
        elif old and not new:
            edge = self.negedge
            if forced or edge._waiters or edge._pending_kind:
                edge.notify(0)


class Clock(Wire):
    """A free-running clock wire.

    The clock toggles with the given *period* (a 50% duty cycle), driven
    by an internal process spawned on construction.  The driver is
    factory-spawned, so a :meth:`Simulator.snapshot` can capture it and
    a restore rebuilds it at its recorded phase.
    """

    __slots__ = ("period", "_proc")

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        period: int,
        start_high: bool = False,
    ):
        if period < 2:
            raise ValueError("clock period must be at least 2 time units")
        super().__init__(sim, name, start_high)
        self.period = period
        self._proc = sim.spawn(self._toggle, name=f"{name}.driver")

    def _toggle(self):
        # Single yield site with the phase derived from the wire itself:
        # a snapshot restore rebuilds this generator and re-arms it at
        # the recorded wait, so the delay for the *next* edge must be
        # computable from restorable state alone.  ``staged`` equals the
        # committed value at any scheduling boundary, and ``_initial``
        # is the immutable phase reference: the wire sits at its initial
        # level exactly during the first half-period of each cycle.
        half = self.period // 2
        other = self.period - half
        initial = self._initial
        while True:
            yield half if self.staged == initial else other
            self.write(not self.read())

    def stop(self) -> None:
        """Halt the clock driver (used when tearing down a platform)."""
        self._proc.kill()
