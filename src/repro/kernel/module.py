"""Hierarchical modules.

:class:`Module` gives virtual-prototype components a SystemC-like
structure: a dotted hierarchical name, parent/child links, convenience
constructors for events/signals/processes, and — crucial for this
framework — a registry of *injection points* that fault injectors can
discover without the model code being modified (Sec. 3.3 of the paper:
"errors need to be injected into the DUT, but the design should not be
changed").
"""

from __future__ import annotations

import typing as _t

from .events import Event
from .process import Process
from .scheduler import Simulator
from .signal import Clock, Signal, Wire
from .state import SnapshotUnsupported

#: Values a capture stores as they are (tuples and frozensets too, when
#: every item is one of these or such a tuple).
_SCALARS = (type(None), bool, int, float, complex, str, bytes)


def _frozen(value) -> bool:
    if isinstance(value, _SCALARS):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_frozen(item) for item in value)
    return False


def _state_fields(cls: type) -> _t.Optional[_t.Tuple[str, ...]]:
    """The ``STATE_FIELDS`` of *cls*, accumulated along its MRO, or
    ``None`` when *cls* itself declares none in its class body."""
    if "STATE_FIELDS" not in vars(cls):
        return None
    return tuple(dict.fromkeys(
        field for klass in reversed(cls.__mro__)
        for field in vars(klass).get("STATE_FIELDS", ())
    ))


def _capture_fields(obj, owner: str, entries: list) -> None:
    """Append ``(object, field, value, master)`` entries for every
    field *obj* declares; *owner* names it in errors.

    Attributes are read and written only through ``getattr``/``setattr``:
    touching an instance's ``__dict__`` would materialize it and slow
    every later attribute access on that (hot) model object.
    """
    fields = _state_fields(type(obj))
    if fields is None:
        raise SnapshotUnsupported(
            f"{owner}: {type(obj).__name__} declares no STATE_FIELDS, so "
            f"its state cannot be captured"
        )
    for field in fields:
        value = getattr(obj, field)
        if _frozen(value):
            entries.append((obj, field, value, None))
        elif type(value) is bytearray:
            entries.append((obj, field, value, bytes(value)))
        elif type(value) is list and all(_frozen(item) for item in value):
            entries.append((obj, field, value, tuple(value)))
        elif _state_fields(type(value)) is not None:
            entries.append((obj, field, value, None))
            _capture_fields(value, f"{owner}.{field}", entries)
        else:
            raise SnapshotUnsupported(
                f"cannot capture {owner}.{field}: a "
                f"{type(value).__name__} value is neither immutable, a "
                f"list or bytearray of immutables, nor an object "
                f"declaring STATE_FIELDS"
            )


class Module:
    """Base class for every structural component of a virtual prototype.

    Subclasses build their children and spawn their behaviour processes
    in ``__init__`` (an ``elaborate``-style split is unnecessary in
    Python; construction order gives elaboration order).

    Each subclass lists the attributes a run mutates in its own class
    body as ``STATE_FIELDS`` (``()`` when it mutates none); fields
    accumulate along the MRO.  Plain ``Module`` declares nothing, so a
    subtree holding an undeclared module cannot be captured (see
    :meth:`capture_state`) and is rebuilt for every run instead.
    """

    def __init__(
        self,
        name: str,
        parent: _t.Optional["Module"] = None,
        sim: _t.Optional[Simulator] = None,
    ):
        if parent is None and sim is None:
            raise ValueError(
                f"module {name!r} needs either a parent or a simulator"
            )
        self.basename = name
        self.parent = parent
        self.sim: Simulator = sim if sim is not None else parent.sim
        self.children: list = []
        self._injection_points: dict = {}
        # Kernel objects created through this module's helpers, so
        # detach() can hand them back to the kernel (a warm simulator
        # would otherwise accumulate per-run signals/processes forever).
        self._owned_signals: list = []
        self._owned_processes: list = []
        if parent is not None:
            parent.children.append(self)

    # -- naming ----------------------------------------------------------

    @property
    def full_name(self) -> str:
        """Dotted hierarchical name, e.g. ``'top.ecu0.cpu'``."""
        if self.parent is None:
            return self.basename
        return f"{self.parent.full_name}.{self.basename}"

    def find(self, path: str) -> "Module":
        """Resolve a child by relative dotted *path*.

        >>> top.find("ecu0.cpu")        # doctest: +SKIP
        """
        module = self
        for part in path.split("."):
            for child in module.children:
                if child.basename == part:
                    module = child
                    break
            else:
                raise KeyError(
                    f"{module.full_name!r} has no child {part!r}"
                )
        return module

    def walk(self) -> _t.Iterator["Module"]:
        """Depth-first iteration over this module and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- construction helpers ---------------------------------------------

    def event(self, name: str) -> Event:
        return Event(self.sim, f"{self.full_name}.{name}")

    def signal(self, name: str, initial=None) -> Signal:
        signal = Signal(self.sim, f"{self.full_name}.{name}", initial)
        self._owned_signals.append(signal)
        return signal

    def wire(self, name: str, initial: bool = False) -> Wire:
        wire = Wire(self.sim, f"{self.full_name}.{name}", initial)
        self._owned_signals.append(wire)
        return wire

    def clock(self, name: str, period: int, start_high: bool = False) -> Clock:
        """A :class:`Clock` owned by this module (reclaimed on detach).

        Per-run helpers on a warm platform must create clocks through
        this helper rather than ``Clock(sim, ...)`` directly, so the
        clock wire and its driver process are handed back to the kernel
        when the helper detaches.
        """
        clk = Clock(self.sim, f"{self.full_name}.{name}", period, start_high)
        self._owned_signals.append(clk)
        self._owned_processes.append(clk._proc)
        return clk

    def process(self, behavior, name: str = "proc") -> Process:
        """Spawn *behavior* as a process owned by this module.

        *behavior* is a generator or a zero-argument factory returning
        one; pass the factory (``self._run``, not ``self._run()``) when
        the module should survive a warm :meth:`Simulator.reset`.
        """
        process = self.sim.spawn(behavior, name=f"{self.full_name}.{name}")
        self._owned_processes.append(process)
        return process

    def detach(self) -> None:
        """Tear this subtree out of the platform (warm-platform teardown).

        Per-run helpers built *onto* a reusable platform (the campaign
        stressor) must not accumulate across runs; after the run they
        detach, leaving the parent — and the kernel — exactly as
        elaborated: the subtree is unlinked from ``children``, its
        processes are killed and unregistered, and its signals are
        unregistered so a warm kernel's memory and reset cost stay
        flat no matter how many runs it serves.  Only kernel objects
        created through the module helpers (:meth:`signal`,
        :meth:`wire`, :meth:`clock`, :meth:`process`) are reclaimed;
        per-run code must not create channels via ``Signal(sim, ...)``
        directly on a warm kernel.
        """
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None
        sim = self.sim
        for module in self.walk():
            for process in module._owned_processes:
                process.kill()
                sim._unregister_process(process)
            module._owned_processes.clear()
            for signal in module._owned_signals:
                sim._unregister_signal(signal)
            module._owned_signals.clear()

    # -- state capture -------------------------------------------------------

    def capture_state(self) -> tuple:
        """Capture the declared state of this whole subtree.

        One flat ``(object, field, value, master)`` entry per declared
        field.  Immutable values are stored as they are; a ``list`` or
        ``bytearray`` keeps its live object plus a *master* copy, so a
        restore refills it in place (DMI regions alias ``Memory.data``);
        an object declaring ``STATE_FIELDS`` itself is kept by identity
        and captured recursively.  Anything else, or an undeclared
        module, raises :class:`~repro.kernel.state.SnapshotUnsupported`
        naming the module and field.
        """
        entries: list = []
        for module in self.walk():
            _capture_fields(module, module.full_name, entries)
        return tuple(entries)

    def restore_state(self, state: tuple) -> None:
        """Replay a :meth:`capture_state` capture.  Repeatable: the
        masters are never handed out, only copied from."""
        for obj, field, value, master in state:
            if master is not None:
                value[:] = master
            setattr(obj, field, value)

    # -- injection points ---------------------------------------------------

    def register_injection_point(self, name: str, point) -> None:
        """Expose *point* (an injector-compatible object) under *name*.

        Components register their corruptible state here during
        construction; the stressor discovers them by walking the module
        tree, so fault campaigns never need design edits.
        """
        if name in self._injection_points:
            raise ValueError(
                f"{self.full_name!r} already has injection point {name!r}"
            )
        self._injection_points[name] = point

    @property
    def injection_points(self) -> dict:
        """Mapping of locally registered injection-point names."""
        return dict(self._injection_points)

    @property
    def owned_signals(self) -> tuple:
        """The signals/wires created through this module's helpers.

        Read-only view for analysis layers (the static reachability
        analyzer maps signal ownership without touching bookkeeping
        lists whose lifecycle belongs to the kernel).
        """
        return tuple(self._owned_signals)

    @property
    def owned_processes(self) -> tuple:
        """The factory-spawned processes owned by this module
        (read-only view, same contract as :attr:`owned_signals`)."""
        return tuple(self._owned_processes)

    def all_injection_points(self) -> dict:
        """All injection points in this subtree, keyed by full path."""
        points: dict = {}
        for module in self.walk():
            for name, point in module._injection_points.items():
                points[f"{module.full_name}.{name}"] = point
        return points

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.full_name!r})"
