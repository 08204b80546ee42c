"""Formalized fault/error descriptors.

Sec. 3.3 of the paper: "Fault models for ASIC fabrication tests are
available (stuck-at, short, open, ...), but comparable fault/error
models are missing at higher levels of abstraction ... these fault
models should be available in a formalized form to enable automatic
configuration/generation of the error injectors."

:class:`FaultDescriptor` is that formalized form in this framework: a
declarative record naming *what* goes wrong (:class:`FaultKind`),
*where* it can be applied (injection-point kind), *how long* it lasts
(:class:`Persistence`), and the kind-specific parameters.  Stressors
consume descriptors and configure injectors from them — no hand-written
injection code per experiment.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t


class FaultKind(enum.Enum):
    """The fault taxonomy, spanning digital HW, analog HW, SW, and comms."""

    # Digital hardware
    BIT_FLIP = "bit_flip"            # SEU in a memory cell / register / GPR
    STUCK_AT = "stuck_at"            # permanent stuck bit
    WORD_CORRUPTION = "word_corruption"  # multi-bit pattern (cross-layer)
    # Analog hardware / wiring
    OFFSET_DRIFT = "offset_drift"    # additive sensor error
    GAIN_DRIFT = "gain_drift"        # multiplicative sensor error
    STUCK_VALUE = "stuck_value"      # sensor output frozen
    OPEN_CIRCUIT = "open_circuit"    # open load: signal floats to rail
    SHORT_TO_GROUND = "short_to_ground"  # reads as zero
    NOISE_BURST = "noise_burst"      # EMI-induced noise
    # Communication
    MESSAGE_CORRUPTION = "message_corruption"  # bits flipped on the wire
    MESSAGE_DROP = "message_drop"
    MESSAGE_DELAY = "message_delay"
    MESSAGE_MASQUERADE = "message_masquerade"  # corruption w/ forged CRC
    # Software / timing
    EXECUTION_OVERHEAD = "execution_overhead"  # recovery/retry delay
    TASK_KILL = "task_kill"          # runnable stops executing
    BEHAVIOR_MODE = "behavior_mode"  # runaway software: livelock, crash


class Persistence(enum.Enum):
    """How long the fault stays active once injected."""

    TRANSIENT = "transient"      # single event (one flip, one frame)
    INTERMITTENT = "intermittent"  # active for a bounded window
    PERMANENT = "permanent"      # active until end of run


#: Injection-point kinds each fault kind is applicable to.
APPLICABLE_TARGETS: _t.Dict[FaultKind, _t.FrozenSet[str]] = {
    FaultKind.BIT_FLIP: frozenset({"memory", "register", "cpu"}),
    FaultKind.STUCK_AT: frozenset({"register"}),
    FaultKind.WORD_CORRUPTION: frozenset({"memory", "register"}),
    FaultKind.OFFSET_DRIFT: frozenset({"analog"}),
    FaultKind.GAIN_DRIFT: frozenset({"analog"}),
    FaultKind.STUCK_VALUE: frozenset({"analog"}),
    FaultKind.OPEN_CIRCUIT: frozenset({"analog"}),
    FaultKind.SHORT_TO_GROUND: frozenset({"analog"}),
    FaultKind.NOISE_BURST: frozenset({"analog"}),
    FaultKind.MESSAGE_CORRUPTION: frozenset({"can_wire"}),
    FaultKind.MESSAGE_DROP: frozenset({"can_wire"}),
    FaultKind.MESSAGE_DELAY: frozenset({"can_wire"}),
    FaultKind.MESSAGE_MASQUERADE: frozenset({"can_wire"}),
    FaultKind.EXECUTION_OVERHEAD: frozenset({"rtos"}),
    FaultKind.TASK_KILL: frozenset({"rtos"}),
    FaultKind.BEHAVIOR_MODE: frozenset({"behavior"}),
}


@dataclasses.dataclass(frozen=True)
class FaultDescriptor:
    """A formalized, executable fault/error description.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports and coverage bins.
    kind:
        The fault class.
    persistence:
        Temporal extent; :attr:`duration` gives the window for
        intermittent faults (kernel time units).
    params:
        Kind-specific parameters, e.g. ``{"bit": 3}`` for a bit flip,
        ``{"offset": 0.8}`` for drift, ``{"patterns": {...}}`` for a
        derived word-corruption model.
    rate_per_hour:
        Expected occurrence rate (λ) from the mission-profile
        derivation; campaigns use it to weight scenario sampling and
        FMEDA uses it as the base failure rate contribution.
    """

    name: str
    kind: FaultKind
    persistence: Persistence = Persistence.TRANSIENT
    duration: int = 0
    params: _t.Mapping[str, _t.Any] = dataclasses.field(default_factory=dict)
    rate_per_hour: float = 0.0

    def __post_init__(self):
        if self.persistence is Persistence.INTERMITTENT and self.duration <= 0:
            raise ValueError(
                f"{self.name!r}: intermittent faults need a positive duration"
            )
        if self.rate_per_hour < 0:
            raise ValueError(f"{self.name!r}: negative rate")

    def applicable_to(self, target_kind: str) -> bool:
        """Whether this descriptor can act on the given injection-point
        kind."""
        return target_kind in APPLICABLE_TARGETS[self.kind]

    def with_params(self, **updates) -> "FaultDescriptor":
        """A copy with updated params (descriptors are immutable)."""
        params = dict(self.params)
        params.update(updates)
        return dataclasses.replace(self, params=params)

    def with_rate(self, rate_per_hour: float) -> "FaultDescriptor":
        # The constructor directly, not dataclasses.replace: the Fig. 2
        # derivation calls this once per descriptor per sampled profile.
        return FaultDescriptor(
            self.name, self.kind, self.persistence, self.duration,
            self.params, rate_per_hour,
        )
