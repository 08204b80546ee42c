"""Per-run trace recorder armed by ``execute_runspec``.

A :class:`RunTrace` lives for exactly one simulated run, on whichever
process executes it.  While armed it:

* watches the platform's nominated signals through a bounded
  :class:`~repro.kernel.trace.Tracer` (ring buffers, so a livelocked
  run cannot grow memory without bound);
* sits on the detection hook bus (:mod:`repro.observe.hooks`)
  collecting watchdog/ECC/lockstep events, capped at the configured
  event budget — overflow is counted, not silently lost.

``finalize`` then folds in the stressor's applied-injection log and
the faulty-vs-golden comparison and produces the picklable
:class:`~repro.observe.digest.TraceDigest`; in ``full`` mode it also
spills the complete ring histories to one JSONL file per run.
Everything recorded is keyed to *simulation* time — never wall clock —
so digests are reproducible across backends.
"""

from __future__ import annotations

import json
import os
import typing as _t

from ..kernel.trace import Tracer
from . import hooks
from .config import TraceConfig
from .digest import TraceDigest
from .events import (
    CLASSIFICATION,
    DETECTION,
    DEVIATION,
    INJECTION,
    TraceEvent,
    sort_events,
)


class RunTrace:
    def __init__(self, config: TraceConfig, index: int, seed: int):
        self.config = config
        self.index = index
        self.seed = seed
        self.tracer: _t.Optional[Tracer] = None
        self._sim = None
        self._armed = False
        self._detections: _t.List[TraceEvent] = []
        self._dropped = 0

    # -- lifecycle ----------------------------------------------------------

    def arm(self, sim, signals: _t.Mapping[str, _t.Any]) -> None:
        """Start recording: watch *signals* and join the detection bus.

        *signals* maps signal name -> kernel signal; iteration order is
        normalized by sorting so every backend watches identically.
        """
        self._sim = sim
        self.tracer = Tracer(capacity=self.config.ring_capacity)
        for name in sorted(signals):
            self.tracer.watch(signals[name])
        hooks.push_sink(self)
        self._armed = True

    def disarm(self) -> None:
        """Stop recording; safe to call more than once."""
        if not self._armed:
            return
        self._armed = False
        hooks.pop_sink(self)
        if self.tracer is not None:
            self.tracer.close()

    # -- hook-bus sink protocol ---------------------------------------------

    def record_detection(
        self, time: int, source: str, mechanism: str, label: str = ""
    ) -> None:
        if len(self._detections) >= self.config.max_events:
            self._dropped += 1
            return
        full_label = f"{mechanism}:{label}" if label else mechanism
        self._detections.append(TraceEvent(time, DETECTION, source, full_label))

    def preload_detections(
        self, detections: _t.Iterable[_t.Tuple[int, str, str, str]]
    ) -> None:
        """Replay detections recorded *before* this trace was armed.

        A run from a rung of the golden-run ladder skips the
        pre-injection prefix, whose detections a
        :class:`PrefixDetectionSink` collected while the ladder was
        built; the run replays the ones up to its rung through
        :meth:`record_detection` before arming, so the event budget and
        ordering behave exactly as if this recorder had been listening
        from time zero (as it is on a fresh run).
        """
        for time, source, mechanism, label in detections:
            self.record_detection(time, source, mechanism, label)

    # -- digest assembly ----------------------------------------------------

    def finalize(
        self,
        stressor=None,
        observation: _t.Optional[_t.Mapping[str, _t.Any]] = None,
        golden: _t.Optional[_t.Mapping[str, _t.Any]] = None,
        outcome: _t.Optional[str] = None,
        partial: bool = False,
    ) -> TraceDigest:
        """Assemble the digest; the recorder is disarmed as a side
        effect."""
        self.disarm()
        end_time = self._sim.now if self._sim is not None else 0
        events: _t.List[TraceEvent] = []

        first_injection: _t.Optional[int] = None
        if stressor is not None:
            for applied in stressor.applied:
                events.append(
                    TraceEvent(
                        applied.time,
                        INJECTION,
                        applied.target_path,
                        applied.descriptor.name,
                    )
                )
                if first_injection is None or applied.time < first_injection:
                    first_injection = applied.time

        events.extend(self._signal_deviations(first_injection, end_time))
        events.extend(
            self._observation_deviations(observation, golden, end_time)
        )
        events.extend(self._detections)
        if outcome is not None and not partial:
            events.append(TraceEvent(end_time, CLASSIFICATION, "run", outcome))

        ordered = sort_events(events)
        dropped = self._dropped
        if len(ordered) > self.config.max_events:
            dropped += len(ordered) - self.config.max_events
            ordered = ordered[: self.config.max_events]

        digest = TraceDigest(
            index=self.index,
            seed=self.seed,
            events=tuple(ordered),
            outcome=outcome,
            partial=partial,
            dropped_events=dropped,
        )
        if self.config.mode == "full" and self.config.spill_dir:
            self._spill(digest)
        return digest

    def _signal_deviations(
        self, first_injection: _t.Optional[int], end_time: int
    ) -> _t.List[TraceEvent]:
        """Watched signals whose final value differs from golden.

        The deviation is stamped at its *onset*: the first recorded
        change at or after the first injection that moved the signal
        away from the golden final value (falling back to the run end
        when the ring already overflowed past the onset).
        """
        if self.tracer is None:
            return []
        golden_finals = dict(self.config.golden_signals)
        deviations: _t.List[TraceEvent] = []
        for name in self.tracer.names:
            if name not in golden_finals:
                continue
            history = self.tracer.history(name)
            if not history:
                continue
            final = history[-1].value
            expected = golden_finals[name]
            if final == expected:
                continue
            onset = end_time
            for change in history:
                if first_injection is not None and change.time < first_injection:
                    continue
                if change.value != expected:
                    onset = change.time
                    break
            deviations.append(
                TraceEvent(
                    onset, DEVIATION, name, f"{expected!r}->{final!r}"
                )
            )
        return deviations

    @staticmethod
    def _observation_deviations(
        observation: _t.Optional[_t.Mapping[str, _t.Any]],
        golden: _t.Optional[_t.Mapping[str, _t.Any]],
        end_time: int,
    ) -> _t.List[TraceEvent]:
        """Observation probes that differ from golden, stamped at run
        end (probes are sampled post-run, they carry no onset time)."""
        if observation is None or golden is None:
            return []
        deviations = []
        for key in sorted(golden):
            faulty_value = observation.get(key)
            golden_value = golden.get(key)
            if faulty_value != golden_value:
                deviations.append(
                    TraceEvent(
                        end_time,
                        DEVIATION,
                        f"obs:{key}",
                        f"{golden_value!r}->{faulty_value!r}",
                    )
                )
        return deviations

    def _spill(self, digest: TraceDigest) -> None:
        """Write the full trace (ring histories + events) as one JSONL
        file per run under the campaign trace directory."""
        os.makedirs(self.config.spill_dir, exist_ok=True)
        path = os.path.join(
            self.config.spill_dir, f"run-{self.index:06d}.jsonl"
        )
        with open(path, "w") as handle:
            meta = {
                "type": "meta",
                "schema": digest.schema,
                "index": digest.index,
                "seed": digest.seed,
                "outcome": digest.outcome,
                "partial": digest.partial,
            }
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            if self.tracer is not None:
                for name in self.tracer.names:
                    line = {
                        "type": "signal",
                        "name": name,
                        "dropped": self.tracer.dropped(name),
                        "changes": [
                            [change.time, _jsonable_value(change.value)]
                            for change in self.tracer.history(name)
                        ],
                    }
                    handle.write(json.dumps(line, sort_keys=True) + "\n")
            for event in digest.events:
                handle.write(
                    json.dumps(
                        {"type": "event", "event": event.to_jsonable()},
                        sort_keys=True,
                    )
                    + "\n"
                )


class PrefixDetectionSink:
    """Hook-bus sink that buffers raw detections for later replay.

    Armed while the golden-run ladder climbs the fault-free run; each
    rung keeps the tuples collected up to its time, and they seed the
    :class:`RunTrace` of every run from that rung via
    :meth:`RunTrace.preload_detections`.  Unbounded on purpose — the
    per-run event budget is applied at replay time, where it matches
    the fresh-run accounting.
    """

    def __init__(self):
        self.detections: _t.List[_t.Tuple[int, str, str, str]] = []

    def record_detection(
        self, time: int, source: str, mechanism: str, label: str = ""
    ) -> None:
        self.detections.append((time, source, mechanism, label))


def _jsonable_value(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def planned_digest(
    index: int,
    seed: int,
    scenario,
    outcome: _t.Optional[str] = None,
) -> TraceDigest:
    """A partial digest synthesized from the *plan* alone.

    Used by the parent process when a worker died or hung before it
    could report: the injections the scenario *would* apply (at their
    scheduled times) are the only evidence left, so record those and
    mark the digest partial.
    """
    events = [
        TraceEvent(
            injection.time, INJECTION, injection.target_path,
            injection.descriptor.name,
        )
        for injection in scenario.injections
    ]
    return TraceDigest(
        index=index,
        seed=seed,
        events=tuple(sort_events(events)),
        outcome=outcome,
        partial=True,
    )
