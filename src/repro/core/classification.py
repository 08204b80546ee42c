"""Fault–error–failure classification.

Sec. 3.3 requires "methodologies for fault/error classification and
fault-error-failure analysis ... at the monitoring side of the
testbench".  The lattice used here is the standard dependability one,
ordered by severity:

``NO_EFFECT < MASKED < DETECTED_SAFE < TIMEOUT < TIMING_FAILURE < SDC
< HAZARDOUS``

* **NO_EFFECT** — the fault never became an error (overwritten, never
  read, logically masked).
* **MASKED** — a protection mechanism absorbed the error transparently
  (ECC correction, TMR out-voting); the system behaved nominally.
* **DETECTED_SAFE** — a mechanism detected the error and the system
  reached its safe state (trap, watchdog reset, CRC rejection).
* **TIMEOUT** — the run itself never produced a verdict: the injected
  fault hung or killed the simulation (livelock past its wall-clock
  deadline, crashed worker).  Inconclusive, not a classified failure —
  it sits below the failure outcomes so campaign stop conditions on
  failures ignore it.  Synthesized by the executor layer, never by
  classifier rules.
* **TIMING_FAILURE** — outputs correct in value but late: deadline
  misses, stale signals ("the right value at the wrong time").
* **SDC** — silent data corruption: wrong outputs, nothing noticed.
* **HAZARDOUS** — the safety goal itself was violated (e.g. spurious
  airbag deployment).

A :class:`RunObservation` is a flat dict of probe values collected from
the platform after a run; the :class:`Classifier` evaluates ordered
predicate rules against the faulty observation and the golden
(fault-free) reference, returning the *most severe* matching outcome.
"""

from __future__ import annotations

import enum
import typing as _t


class Outcome(enum.IntEnum):
    """Run classification, ordered by severity (higher = worse).

    .. warning:: Ordinals encode the *severity order*, not a stable
       wire format.  Inserting :data:`TIMEOUT` between
       :data:`DETECTED_SAFE` and :data:`TIMING_FAILURE` renumbered
       ``TIMING_FAILURE``/``SDC``/``HAZARDOUS`` from 3/4/5 to 4/5/6 —
       a breaking change for anything that persisted raw ``int``
       values.  Everything this repo persists or sends (checkpoint
       and shard journals, cluster frames) stores outcome **names**;
       external consumers must do the same and rehydrate via
       ``Outcome[name]``, never via a stored integer.
    """

    NO_EFFECT = 0
    MASKED = 1
    DETECTED_SAFE = 2
    TIMEOUT = 3
    TIMING_FAILURE = 4
    SDC = 5
    HAZARDOUS = 6

    @property
    def is_failure(self) -> bool:
        """Failures in the dependability sense: service deviated."""
        return self in (Outcome.TIMING_FAILURE, Outcome.SDC, Outcome.HAZARDOUS)

    @property
    def is_dangerous(self) -> bool:
        """Undetected failures that can violate the safety goal."""
        return self in (Outcome.SDC, Outcome.HAZARDOUS)

    @property
    def is_inconclusive(self) -> bool:
        """The run produced no verdict (hung or crashed mid-flight)."""
        return self is Outcome.TIMEOUT


RunObservation = _t.Dict[str, _t.Any]

#: A rule: fn(faulty_observation, golden_observation) -> bool.
Predicate = _t.Callable[[RunObservation, RunObservation], bool]


class Classifier:
    """Ordered severity rules over (faulty, golden) observations."""

    def __init__(self):
        self._rules: _t.List[_t.Tuple[Outcome, Predicate, str]] = []

    def add_rule(
        self, outcome: Outcome, predicate: Predicate, label: str = ""
    ) -> "Classifier":
        self._rules.append((outcome, predicate, label or outcome.name))
        return self

    def classify(
        self, faulty: RunObservation, golden: RunObservation
    ) -> _t.Tuple[Outcome, _t.List[str]]:
        """Most severe matching outcome plus all matched rule labels."""
        matched: _t.List[_t.Tuple[Outcome, str]] = []
        for outcome, predicate, label in self._rules:
            if predicate(faulty, golden):
                matched.append((outcome, label))
        if not matched:
            return Outcome.NO_EFFECT, []
        worst = max(outcome for outcome, _ in matched)
        return worst, [label for _, label in matched]


def build_standard_classifier(
    hazard_keys: _t.Sequence[str] = (),
    value_keys: _t.Sequence[str] = (),
    timing_keys: _t.Sequence[str] = (),
    detection_keys: _t.Sequence[str] = (),
    masking_keys: _t.Sequence[str] = (),
) -> Classifier:
    """A classifier from observation-key conventions.

    * *hazard_keys* — truthy in the faulty run => HAZARDOUS.
    * *value_keys* — differ from golden => SDC.
    * *timing_keys* — counters that exceed golden => TIMING_FAILURE.
    * *detection_keys* — counters that exceed golden => DETECTED_SAFE.
    * *masking_keys* — counters that exceed golden => MASKED.

    The severity lattice resolves overlaps: a run that was detected
    *and* produced a hazard is HAZARDOUS.
    """
    classifier = Classifier()
    for key in hazard_keys:
        classifier.add_rule(
            Outcome.HAZARDOUS,
            lambda f, g, k=key: bool(f.get(k)),
            f"hazard:{key}",
        )
    for key in value_keys:
        classifier.add_rule(
            Outcome.SDC,
            lambda f, g, k=key: f.get(k) != g.get(k),
            f"value:{key}",
        )
    for key in timing_keys:
        classifier.add_rule(
            Outcome.TIMING_FAILURE,
            lambda f, g, k=key: _exceeds(f, g, k),
            f"timing:{key}",
        )
    for key in detection_keys:
        classifier.add_rule(
            Outcome.DETECTED_SAFE,
            lambda f, g, k=key: _exceeds(f, g, k),
            f"detected:{key}",
        )
    for key in masking_keys:
        classifier.add_rule(
            Outcome.MASKED,
            lambda f, g, k=key: _exceeds(f, g, k),
            f"masked:{key}",
        )
    return classifier


def _exceeds(faulty: RunObservation, golden: RunObservation, key: str) -> bool:
    return (faulty.get(key) or 0) > (golden.get(key) or 0)
