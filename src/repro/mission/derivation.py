"""Deriving fault/error descriptions — and stressor configurations —
from mission profiles.

This is the pipeline of Fig. 2: *mission profile* -> *functional
fault/error descriptions* -> *stressor*.  Each fault kind in the
catalog is sensitive to particular environmental stresses; the
derivation rescales its base rate by the profile's acceleration
factors and emits descriptors ready for the error-effect simulation.

The output :class:`StressorSpec` additionally binds descriptors to the
profile's *operating states*, so campaigns weight both *what* is
injected (by derived rate) and *when/under which load* (by state
fraction, with optional boosting of the special states).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..faults import FaultDescriptor, FaultKind
from . import rates
from .profile import MissionProfile, OperatingState

#: Which environmental stress accelerates which fault kind.
STRESS_SENSITIVITY: _t.Dict[FaultKind, _t.Tuple[str, ...]] = {
    FaultKind.BIT_FLIP: ("temperature",),
    FaultKind.STUCK_AT: ("temperature",),
    FaultKind.WORD_CORRUPTION: ("temperature",),
    FaultKind.OFFSET_DRIFT: ("temperature",),
    FaultKind.GAIN_DRIFT: ("temperature",),
    FaultKind.STUCK_VALUE: ("temperature", "vibration"),
    FaultKind.OPEN_CIRCUIT: ("vibration",),
    FaultKind.SHORT_TO_GROUND: ("vibration",),
    FaultKind.NOISE_BURST: ("emi",),
    FaultKind.MESSAGE_CORRUPTION: ("emi",),
    FaultKind.MESSAGE_DROP: ("emi", "vibration"),
    FaultKind.MESSAGE_DELAY: ("emi",),
    FaultKind.MESSAGE_MASQUERADE: ("emi",),
    FaultKind.EXECUTION_OVERHEAD: ("temperature",),
    FaultKind.TASK_KILL: ("temperature",),
    # Runaway-firmware modes are design faults, not wear-out: no
    # environmental stress accelerates them, so their base rate passes
    # through the derivation unscaled.
    FaultKind.BEHAVIOR_MODE: (),
}


@dataclasses.dataclass(frozen=True)
class StateWeight:
    """Sampling weight of one operating state in the stressor."""

    state: OperatingState
    weight: float


@dataclasses.dataclass
class StressorSpec:
    """Everything a stressor needs, derived from one mission profile.

    * ``descriptors`` — derived fault descriptions with mission-scaled
      rates; sampling weight of a descriptor is its rate share.
    * ``state_weights`` — operating states with sampling weights; the
      ``special_boost`` factor over-samples the paper's special/worst
      case states relative to their real-time fraction (importance
      sampling — the correction factor is retained for reporting).
    """

    profile_name: str
    descriptors: _t.List[FaultDescriptor]
    state_weights: _t.List[StateWeight]
    special_boost: float

    @property
    def total_rate_per_hour(self) -> float:
        return sum(d.rate_per_hour for d in self.descriptors)

    def descriptor_weights(self) -> _t.List[_t.Tuple[FaultDescriptor, float]]:
        total = self.total_rate_per_hour
        if total <= 0:
            uniform = 1.0 / len(self.descriptors) if self.descriptors else 0
            return [(d, uniform) for d in self.descriptors]
        return [(d, d.rate_per_hour / total) for d in self.descriptors]

    def expected_faults(self, hours: _t.Optional[float] = None) -> float:
        """Expected number of fault events over the exposure time."""
        if hours is None:
            raise ValueError("exposure hours required")
        return rates.expected_events(self.total_rate_per_hour, hours)


class StressorDerivation:
    """The Fig. 2 derivation of one catalog, prepared once.

    Holds each catalog descriptor with its :data:`STRESS_SENSITIVITY`
    entry, already filtered to ``target_kinds`` (the injection-point
    kinds actually present in the platform under test — a profile for
    a sensor ECU should not emit CAN faults if the DUT has no bus), so
    deriving for one more profile is a single rescale loop.  A planner
    that derives per sampled profile builds one and reuses it;
    :func:`derive_descriptors` and :func:`derive_stressor_spec` are its
    one-profile case.
    """

    def __init__(
        self,
        catalog: _t.Sequence[FaultDescriptor],
        target_kinds: _t.Optional[_t.Iterable[str]] = None,
    ):
        kinds = None if target_kinds is None else set(target_kinds)
        self._entries = [
            (descriptor, STRESS_SENSITIVITY[descriptor.kind])
            for descriptor in catalog
            if kinds is None
            or any(descriptor.applicable_to(k) for k in kinds)
        ]

    def descriptors(
        self, profile: MissionProfile
    ) -> _t.List[FaultDescriptor]:
        """Rescale every prepared descriptor's rate for *profile*.

        A fault kind sensitive to several stresses gets the product of
        the involved acceleration factors (independent mechanisms).
        """
        factors = rates.mission_scaling_factors(
            profile.temperature, profile.vibration, profile.emi
        )
        derived: _t.List[FaultDescriptor] = []
        for descriptor, stresses in self._entries:
            factor = 1.0
            for stress in stresses:
                factor *= factors[stress]
            derived.append(
                descriptor.with_rate(descriptor.rate_per_hour * factor)
            )
        return derived

    def stressor_spec(
        self, profile: MissionProfile, special_boost: float = 10.0
    ) -> StressorSpec:
        """Profile -> stressor configuration over the prepared catalog."""
        if special_boost < 1.0:
            raise ValueError("special_boost must be >= 1")
        states = profile.states
        weights = [
            state.fraction * (special_boost if state.special else 1.0)
            for state in states
        ]
        total = sum(weights)
        if total > 0:
            weights = [weight / total for weight in weights]
        return StressorSpec(
            profile_name=profile.name,
            descriptors=self.descriptors(profile),
            state_weights=[
                StateWeight(state, weight)
                for state, weight in zip(states, weights)
            ],
            special_boost=special_boost,
        )


def derive_descriptors(
    profile: MissionProfile,
    catalog: _t.Sequence[FaultDescriptor],
) -> _t.List[FaultDescriptor]:
    """Rescale every catalog descriptor's rate for *profile*."""
    return StressorDerivation(catalog).descriptors(profile)


def derive_stressor_spec(
    profile: MissionProfile,
    catalog: _t.Sequence[FaultDescriptor],
    target_kinds: _t.Optional[_t.Iterable[str]] = None,
    special_boost: float = 10.0,
) -> StressorSpec:
    """Fig. 2 end-to-end: profile + catalog -> stressor configuration.

    ``target_kinds`` filters the catalog to the injection-point kinds
    actually present in the platform under test.
    """
    return StressorDerivation(catalog, target_kinds).stressor_spec(
        profile, special_boost
    )
