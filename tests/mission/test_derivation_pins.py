"""Exact-value pins for the Fig. 2 derivation.

sha256 digests of the exact ``repr`` of :func:`derive_stressor_spec`
over the standard catalog, for every injection-point kind as the
target filter (and no filter), at special boosts 1, 10 and 37.5, on
the OEM reference profile and a refined Tier-1 profile.  A change to
the rescale loop or the state weighting that moves a single rate or
weight by one ulp fails here.
"""

import hashlib

import pytest

from repro.faults import APPLICABLE_TARGETS, STANDARD_CATALOG
from repro.mission import (
    ProfileTransfer,
    derive_stressor_spec,
    standard_passenger_car_profile,
)

TARGET_KINDS = sorted(set().union(*APPLICABLE_TARGETS.values()))
BOOSTS = (1.0, 10.0, 37.5)

DERIVATION_DIGESTS = {
    None: "883554ae63040aa847e7c137619e49315a8b20e9dcda7e1e616f667b08d4d4e1",
    "analog": "659dc81a36318a3a4fd05cf1437e7d5482bc9099a93f9c3763cfab71fe5ab7fc",
    "behavior": "77b06666515c7321ee8daa3afe10b7f8aec0820e0879464eb05943f2946e5081",
    "can_wire": "8ce7fda4197f59b7b71d76fcfa5f463feb27d94a0ec0c5ae75f588e63052aa29",
    "cpu": "ab8870df9d9dd92e19eb5a2382af4bc88370fc153e0bc198a0f8ad16e70dd93c",
    "memory": "ab8870df9d9dd92e19eb5a2382af4bc88370fc153e0bc198a0f8ad16e70dd93c",
    "register": "36407059d0a659a59ccdc973709ebed6387c9c3de9070b64d1c1c7154f253413",
    "rtos": "4caf1870760b1c02b6494018100f2c0da476dc9586271c6617447e5d8fb6f99f",
}


def profiles():
    oem = standard_passenger_car_profile()
    tier1 = oem.refine(ProfileTransfer(
        "ecu", temperature_rise_c=15.0, vibration_amplification=1.8,
        emi_shielding=0.5, duty_cycle=0.5,
    ))
    return oem, tier1


def test_every_target_kind_is_pinned():
    assert sorted(k for k in DERIVATION_DIGESTS if k) == TARGET_KINDS


@pytest.mark.parametrize("kind", [None] + TARGET_KINDS)
def test_stressor_specs_are_pinned(kind):
    target_kinds = None if kind is None else [kind]
    specs = [
        derive_stressor_spec(
            profile, STANDARD_CATALOG,
            target_kinds=target_kinds, special_boost=boost,
        )
        for profile in profiles()
        for boost in BOOSTS
    ]
    digest = hashlib.sha256(repr(specs).encode()).hexdigest()
    assert digest == DERIVATION_DIGESTS[kind]
