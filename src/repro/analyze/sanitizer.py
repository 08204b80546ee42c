"""The delta-race sanitizer: scheduler write-write conflict detection.

Signals have SystemC ``sc_signal`` semantics: every write in one delta
cycle stages a value and the *last* staged value commits at the update
phase.  When two **distinct processes** write the same signal in the
same delta, "last" is decided by process scheduling order — the
platform's behavior silently depends on an ordering the kernel keeps
deterministic but the model never specified.  Such platforms pass
every equivalence test today and break the day an unrelated change
(an extra sensitivity, a refactored spawn order) reorders the
evaluation phase.

The sanitizer is opt-in scheduler instrumentation
(``Simulator(sanitize=True)`` or the ``REPRO_SANITIZE=1`` environment
variable) that observes every staged write, keyed by the process the
scheduler is currently stepping, and records a :class:`DeltaRace` for
each distinct-writer conflict: both process names, the signal, the
simulation time, and the delta index.  Races are de-duplicated by
(signal, writer pair) so a racy loop produces one report plus an
occurrence count, not an unbounded flood.

Disabled (the default), the only cost is one ``is not None`` branch
per staged write and per process step — below measurement noise on
the campaign perf smoke.

This module must stay import-light: the kernel scheduler imports it
lazily, so it cannot import the kernel back at module level.
"""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..kernel.process import Process
    from ..kernel.signal import SignalBase

#: Sanitizer actions on a detected race.
RECORD = "record"
RAISE = "raise"


@dataclasses.dataclass(frozen=True)
class DeltaRace:
    """One same-delta write-write conflict between distinct processes."""

    signal: str
    writers: _t.Tuple[str, str]
    time: int
    delta: int
    values: _t.Tuple[_t.Any, _t.Any]

    def render(self) -> str:
        first, second = self.writers
        staged_first, staged_second = self.values
        return (
            f"delta-race on signal {self.signal!r} at t={self.time} "
            f"delta={self.delta}: {first!r} staged {staged_first!r}, "
            f"then {second!r} staged {staged_second!r} — commit order "
            f"depends on process scheduling"
        )


class DeltaRaceError(RuntimeError):
    """Raised (``on_race="raise"``) at the second conflicting write."""

    def __init__(self, race: DeltaRace):
        super().__init__(race.render())
        self.race = race


@dataclasses.dataclass(frozen=True)
class SanitizeConfig:
    """Sanitizer behavior knobs.

    ``on_race`` — ``"record"`` collects reports for later inspection;
    ``"raise"`` throws :class:`DeltaRaceError` from the writing
    process (the kernel surfaces it as a ``ProcessError``), pinning
    the exact stack that lost the race.  ``max_reports`` bounds the
    report list; further distinct races only bump ``race_count``.
    """

    on_race: str = RECORD
    max_reports: int = 1000

    def __post_init__(self):
        if self.on_race not in (RECORD, RAISE):
            raise ValueError(f"unknown on_race mode {self.on_race!r}")
        if self.max_reports < 1:
            raise ValueError("max_reports must be positive")


class DeltaRaceSanitizer:
    """Per-simulator write-write conflict detector.

    The scheduler drives three hooks: :meth:`on_write` for every
    staged write (with the currently stepping process), and
    :meth:`end_delta` at each delta-cycle boundary, which closes the
    same-delta window.  :meth:`on_reset` clears the in-flight window
    on :meth:`Simulator.restore` but **keeps** collected reports — the
    sanitizer gathers evidence; rewinding the kernel must not destroy
    it.
    """

    def __init__(self, config: _t.Optional[SanitizeConfig] = None):
        self.config = config or SanitizeConfig()
        self.reports: _t.List[DeltaRace] = []
        #: Total conflicts observed, including de-duplicated repeats.
        self.race_count = 0
        # signal -> (writing process, value it staged)
        self._writes: _t.Dict["SignalBase", _t.Tuple["Process", _t.Any]] = {}
        self._seen: _t.Set[_t.Tuple[str, str, str]] = set()

    # -- scheduler hooks -----------------------------------------------

    def on_write(
        self,
        signal: "SignalBase",
        process: _t.Optional["Process"],
        now: int,
        delta: int,
    ) -> None:
        """Record one staged write; flag distinct-writer conflicts.

        *process* is ``None`` for writes outside any process body
        (elaboration code, testbench driving between ``run()`` calls);
        those are construction-order deterministic and never conflict.
        """
        if process is None:
            return
        staged = self._writes.get(signal)
        if staged is None:
            self._writes[signal] = (process, signal.staged)
            return
        first, first_value = staged
        if first is process:
            # Same process re-staging is ordinary last-write-wins
            # within one deterministic body — not a race.
            self._writes[signal] = (process, signal.staged)
            return
        self.race_count += 1
        race = DeltaRace(
            signal=signal.name,
            writers=(first.name, process.name),
            time=now,
            delta=delta,
            values=(first_value, signal.staged),
        )
        key = (race.signal, race.writers[0], race.writers[1])
        if key not in self._seen and len(self.reports) < self.config.max_reports:
            self._seen.add(key)
            self.reports.append(race)
        # The later writer now owns the staged value.
        self._writes[signal] = (process, signal.staged)
        if self.config.on_race == RAISE:
            raise DeltaRaceError(race)

    def end_delta(self) -> None:
        """Close the same-delta conflict window."""
        if self._writes:
            self._writes.clear()

    def on_reset(self) -> None:
        """Kernel restore: drop in-flight state, keep the evidence."""
        self._writes.clear()

    # -- inspection ----------------------------------------------------

    @property
    def clean(self) -> bool:
        return not self.reports

    def report(self) -> _t.Dict[str, _t.Any]:
        """JSON-ready summary (CI smoke artifact, test assertions)."""
        return {
            "races": [dataclasses.asdict(race) for race in self.reports],
            "race_count": self.race_count,
            "distinct": len(self.reports),
        }


def resolve_sanitize(
    sanitize: _t.Union[None, bool, SanitizeConfig, DeltaRaceSanitizer],
) -> _t.Optional[DeltaRaceSanitizer]:
    """Normalize the ``Simulator(sanitize=...)`` argument.

    ``True`` builds a default recorder, a :class:`SanitizeConfig`
    wraps it, an existing :class:`DeltaRaceSanitizer` is shared as-is
    (lets one detector watch several kernels), ``None``/``False``
    disables.
    """
    if sanitize is None or sanitize is False:
        return None
    if sanitize is True:
        return DeltaRaceSanitizer()
    if isinstance(sanitize, SanitizeConfig):
        return DeltaRaceSanitizer(sanitize)
    if isinstance(sanitize, DeltaRaceSanitizer):
        return sanitize
    raise TypeError(f"cannot interpret sanitize={sanitize!r}")
