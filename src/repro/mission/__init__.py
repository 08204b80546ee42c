"""Mission profiles (substrate S8): stresses, states, rate derivation."""

from .derivation import (
    STRESS_SENSITIVITY,
    StateWeight,
    StressorDerivation,
    StressorSpec,
    derive_descriptors,
    derive_stressor_spec,
)
from .profile import (
    EmiProfile,
    MissionProfile,
    OperatingState,
    ProfileTransfer,
    SupplyChainLevel,
    TemperatureProfile,
    VibrationProfile,
    standard_passenger_car_profile,
)
from .rates import (
    arrhenius_factor,
    emi_factor,
    expected_events,
    mission_scaling_factors,
    probability_of_at_least_one,
    temperature_factor,
    vibration_factor,
)

__all__ = [
    "STRESS_SENSITIVITY",
    "StateWeight",
    "StressorDerivation",
    "StressorSpec",
    "derive_descriptors",
    "derive_stressor_spec",
    "EmiProfile",
    "MissionProfile",
    "OperatingState",
    "ProfileTransfer",
    "SupplyChainLevel",
    "TemperatureProfile",
    "VibrationProfile",
    "standard_passenger_car_profile",
    "arrhenius_factor",
    "emi_factor",
    "expected_events",
    "mission_scaling_factors",
    "probability_of_at_least_one",
    "temperature_factor",
    "vibration_factor",
]
