"""Unit tests for rate models and the fault-description derivation."""

import pytest

from repro.faults import (
    FaultKind,
    SENSOR_OPEN_LOAD,
    SRAM_SEU,
    STANDARD_CATALOG,
)
from repro.mission import (
    STRESS_SENSITIVITY,
    EmiProfile,
    ProfileTransfer,
    StressorDerivation,
    TemperatureProfile,
    VibrationProfile,
    arrhenius_factor,
    derive_descriptors,
    derive_stressor_spec,
    emi_factor,
    expected_events,
    probability_of_at_least_one,
    standard_passenger_car_profile,
    temperature_factor,
    vibration_factor,
)


class TestArrhenius:
    def test_reference_temperature_is_unity(self):
        assert arrhenius_factor(55.0, 55.0) == pytest.approx(1.0)

    def test_hotter_accelerates(self):
        assert arrhenius_factor(85.0, 55.0) > 1.0

    def test_colder_decelerates(self):
        assert arrhenius_factor(25.0, 55.0) < 1.0

    def test_higher_activation_energy_steeper(self):
        mild = arrhenius_factor(85.0, 55.0, activation_energy_ev=0.3)
        steep = arrhenius_factor(85.0, 55.0, activation_energy_ev=0.9)
        assert steep > mild

    def test_absolute_zero_guard(self):
        with pytest.raises(ValueError):
            arrhenius_factor(-300.0)

    def test_histogram_weighting(self):
        cool = TemperatureProfile({25.0: 1.0})
        hot = TemperatureProfile({85.0: 1.0})
        mixed = TemperatureProfile({25.0: 0.5, 85.0: 0.5})
        assert (
            temperature_factor(cool)
            < temperature_factor(mixed)
            < temperature_factor(hot)
        )


class TestVibrationAndEmi:
    def test_reference_vibration_is_unity(self):
        assert vibration_factor(VibrationProfile(1.0)) == pytest.approx(1.0)

    def test_power_law(self):
        double = vibration_factor(VibrationProfile(2.0), exponent=2.5)
        assert double == pytest.approx(2**2.5)

    def test_emi_quadratic(self):
        assert emi_factor(EmiProfile(20.0)) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            vibration_factor(VibrationProfile(1.0), reference_grms=0.0)
        with pytest.raises(ValueError):
            emi_factor(EmiProfile(1.0), reference_v_per_m=0.0)


class TestExposure:
    def test_expected_events(self):
        assert expected_events(1e-6, 8000) == pytest.approx(8e-3)

    def test_probability_bounds(self):
        assert probability_of_at_least_one(0.0, 100.0) == 0.0
        assert probability_of_at_least_one(1.0, 1e9) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expected_events(-1.0, 1.0)


class TestDerivation:
    def test_vibration_scales_wiring_faults(self):
        profile = standard_passenger_car_profile()
        rough_road = profile.refine(
            __import__(
                "repro.mission", fromlist=["ProfileTransfer"]
            ).ProfileTransfer(
                component_name="engine_bay", vibration_amplification=3.0
            )
        )
        base = {d.name: d for d in derive_descriptors(profile, STANDARD_CATALOG)}
        rough = {d.name: d for d in derive_descriptors(rough_road, STANDARD_CATALOG)}
        ratio = (
            rough["sensor_open_load"].rate_per_hour
            / base["sensor_open_load"].rate_per_hour
        )
        assert ratio == pytest.approx(3.0**2.5, rel=1e-6)

    def test_temperature_scales_seu(self):
        profile = standard_passenger_car_profile()
        derived = {
            d.name: d for d in derive_descriptors(profile, STANDARD_CATALOG)
        }
        # BIT_FLIP is temperature-sensitive only: derived rate is the
        # base rate times the lifetime-weighted Arrhenius factor.
        expected = SRAM_SEU.rate_per_hour * temperature_factor(
            profile.temperature
        )
        assert derived["sram_seu"].rate_per_hour == pytest.approx(expected)

    def test_derivation_preserves_catalog_size(self):
        profile = standard_passenger_car_profile()
        assert len(derive_descriptors(profile, STANDARD_CATALOG)) == len(
            STANDARD_CATALOG
        )

    def test_every_fault_kind_has_a_sensitivity(self):
        assert set(STRESS_SENSITIVITY) == set(FaultKind)

    def test_behavior_modes_pass_through_unscaled(self):
        from repro.platforms import hostile

        livelock = hostile.LIVELOCK.with_rate(2e-6)
        hot = standard_passenger_car_profile().refine(
            ProfileTransfer("ecu", temperature_rise_c=30.0)
        )
        catalog = [livelock, hostile.RAISE, hostile.CRASH, SRAM_SEU]
        derived = {d.name: d for d in derive_descriptors(hot, catalog)}
        assert derived[livelock.name].rate_per_hour == 2e-6
        assert derived[hostile.CRASH.name].rate_per_hour == 0.0
        # Filtered out by the target kinds, they still must not fail.
        spec = derive_stressor_spec(hot, catalog, target_kinds=["memory"])
        assert [d.name for d in spec.descriptors] == [SRAM_SEU.name]


class TestStressorDerivation:
    def test_one_derivation_serves_many_profiles(self):
        # Prepared once, reused: no state carries from one profile's
        # derivation into the next.
        oem = standard_passenger_car_profile()
        profiles = [
            oem,
            oem.refine(ProfileTransfer(
                "ecu", temperature_rise_c=20.0,
                vibration_amplification=2.0, emi_shielding=0.3,
            )),
        ]
        kinds = ["analog", "can_wire"]
        derivation = StressorDerivation(STANDARD_CATALOG, kinds)
        for profile in profiles:
            for boost in (1.0, 4.0):
                assert derivation.stressor_spec(profile, boost) == (
                    derive_stressor_spec(
                        profile, STANDARD_CATALOG,
                        target_kinds=kinds, special_boost=boost,
                    )
                )
        assert StressorDerivation(STANDARD_CATALOG).descriptors(oem) == (
            derive_descriptors(oem, STANDARD_CATALOG)
        )


class TestStressorSpec:
    def test_spec_filters_by_target_kind(self):
        profile = standard_passenger_car_profile()
        spec = derive_stressor_spec(
            profile, STANDARD_CATALOG, target_kinds=["analog"]
        )
        assert spec.descriptors
        assert all(
            d.applicable_to("analog") for d in spec.descriptors
        )

    def test_descriptor_weights_sum_to_one(self):
        profile = standard_passenger_car_profile()
        spec = derive_stressor_spec(profile, STANDARD_CATALOG)
        total = sum(w for _, w in spec.descriptor_weights())
        assert total == pytest.approx(1.0)

    def test_special_state_boosted(self):
        profile = standard_passenger_car_profile()
        spec = derive_stressor_spec(
            profile, STANDARD_CATALOG, special_boost=10.0
        )
        weights = {w.state.name: w.weight for w in spec.state_weights}
        # Real-time fraction ratio city:curbstone is 45:1; boosted
        # sampling ratio must be 45:10.
        assert weights["city_driving"] / weights["curbstone_steering"] == (
            pytest.approx(4.5)
        )

    def test_state_weights_normalized(self):
        profile = standard_passenger_car_profile()
        spec = derive_stressor_spec(profile, STANDARD_CATALOG)
        assert sum(w.weight for w in spec.state_weights) == pytest.approx(1.0)

    def test_boost_validation(self):
        profile = standard_passenger_car_profile()
        with pytest.raises(ValueError):
            derive_stressor_spec(profile, STANDARD_CATALOG, special_boost=0.5)

    def test_expected_faults_requires_hours(self):
        profile = standard_passenger_car_profile()
        spec = derive_stressor_spec(profile, STANDARD_CATALOG)
        assert spec.expected_faults(hours=8000) > 0
        with pytest.raises(ValueError):
            spec.expected_faults()
