"""SampledScenarioStrategy: the bridge into the campaign machinery."""

import random

from repro.core.runspec import fork_time, shared_fork_times
from repro.kernel import simtime
from repro.risk import SampledScenarioStrategy, StressSampler


def make_strategy(space, profile, seed=11, **kwargs):
    return SampledScenarioStrategy(
        space, StressSampler(profile, seed=seed), **kwargs
    )


class TestScenarioGeneration:
    def test_scenarios_carry_sample_metadata(self, space, profile):
        strategy = make_strategy(space, profile)
        rng = random.Random(7)
        scenario = strategy.next_scenario(rng)
        assert scenario.name.startswith("risk-0-")
        assert len(scenario.injections) == 1
        assert scenario.operating_state is not None
        assert scenario.sampling_weight > 0

    def test_samples_recorded_in_scenario_order(self, space, profile):
        strategy = make_strategy(space, profile)
        rng = random.Random(7)
        for _ in range(5):
            strategy.next_scenario(rng)
        assert [s.index for s in strategy.samples] == [0, 1, 2, 3, 4]
        assert len(strategy.specs) == 5

    def test_multi_fault_scenarios(self, space, profile):
        strategy = make_strategy(space, profile, faults_per_scenario=3)
        scenario = strategy.next_scenario(random.Random(7))
        assert len(scenario.injections) == 3

    def test_injections_stay_in_space_window(self, space, profile):
        strategy = make_strategy(space, profile)
        rng = random.Random(7)
        for _ in range(20):
            for injection in strategy.next_scenario(rng).injections:
                assert space.window_start <= injection.time < space.window_end

    def test_descriptors_come_from_space_pairs(self, space, profile):
        strategy = make_strategy(space, profile)
        names = {descriptor.name for _, descriptor in space.pairs}
        rng = random.Random(7)
        for _ in range(20):
            for injection in strategy.next_scenario(rng).injections:
                assert injection.descriptor.name in names

    def test_per_sample_specs_rescale_rates(self, space, profile):
        strategy = make_strategy(space, profile)
        rng = random.Random(7)
        for _ in range(10):
            strategy.next_scenario(rng)
        totals = {
            round(spec.total_rate_per_hour, 18) for spec in strategy.specs
        }
        # Different sampled environments produce different derived
        # total rates — the per-sample Fig. 2 re-derivation is live.
        assert len(totals) > 1

    def test_importance_weight_is_true_over_sampled(self, space, profile):
        strategy = make_strategy(space, profile)
        rng = random.Random(7)
        for _ in range(30):
            scenario = strategy.next_scenario(rng)
            spec = strategy.specs[-1]
            weights = {w.state.name: w.weight for w in spec.state_weights}
            state = scenario.operating_state
            assert scenario.sampling_weight == (
                state.fraction / weights[state.name]
            )


class TestForkGrouping:
    def test_pinned_injection_time_forms_single_fork_group(
        self, space, profile, campaign
    ):
        pin = simtime.ms(50)
        strategy = make_strategy(space, profile, injection_time=pin)
        specs = campaign.plan_batch(
            strategy, random.Random(3), count=8, start_index=0
        )
        for spec in specs:
            assert fork_time(spec) == pin
        # One shared time: the whole batch runs from one batch rung.
        assert shared_fork_times(specs) == {("airbag-normal", pin)}

    def test_unpinned_times_vary(self, space, profile):
        strategy = make_strategy(space, profile)
        rng = random.Random(3)
        times = {
            injection.time
            for _ in range(10)
            for injection in strategy.next_scenario(rng).injections
        }
        assert len(times) > 1


class TestDeterminism:
    def test_same_seeds_same_stream(self, space, profile):
        def stream():
            strategy = make_strategy(space, profile, seed=23)
            rng = random.Random(5)
            return [
                (
                    s.name,
                    [(i.time, i.target_path, i.descriptor.name)
                     for i in s.injections],
                    s.operating_state.name,
                    s.sampling_weight,
                )
                for s in (strategy.next_scenario(rng) for _ in range(15))
            ]

        assert stream() == stream()
