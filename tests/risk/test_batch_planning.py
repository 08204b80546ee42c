"""Batch planning: a batch of n equals n one-sample calls, exactly.

``StressSampler.iter_draws`` draws a whole batch of normals at once
and ``SampledScenarioStrategy.next_batch`` plans from it; both must be
indistinguishable from the one-sample entry points, however a stream
is cut into batches and whether or not the sampler shares its
``random.Random`` with the planner.
"""

import random

import pytest

from repro.core import FaultSpace
from repro.faults import SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.platforms import hostile
from repro.risk import (
    DEFAULT_EVENTS,
    BlackSwanEvent,
    SampledScenarioStrategy,
    StressSampler,
)

#: Frequent overlays, so the black-swan rolls and spans are exercised
#: inside every batch, not once in a thousand samples.
FREQUENT = tuple(
    BlackSwanEvent(
        event.name, rate_per_hour=1e-4,
        temperature_delta_c=event.temperature_delta_c,
        emi_factor=event.emi_factor, load_factor=event.load_factor,
        span_fraction=event.span_fraction,
    )
    for event in DEFAULT_EVENTS
)


class TestSamplerBatches:
    @pytest.mark.parametrize("events", [DEFAULT_EVENTS, FREQUENT])
    def test_batch_split_and_single_draws_agree(self, profile, events):
        def sampler():
            return StressSampler(profile, seed=13, events=events)

        whole, split, single = sampler(), sampler(), sampler()
        batch = whole.draw_many(37)
        halves = split.draw_many(5) + split.draw_many(32)
        singles = [single.draw() for _ in range(37)]
        assert batch == halves == singles
        assert [env.index for env in batch] == list(range(37))
        assert (
            whole.rng.getstate() == split.rng.getstate()
            == single.rng.getstate()
        )
        # The normal streams stay in step too.
        assert whole.draw() == split.draw() == single.draw()

    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_batches_advance_nothing(self, profile, count):
        sampler = StressSampler(profile, seed=21, events=FREQUENT)
        fresh = StressSampler(profile, seed=21, events=FREQUENT)
        state = sampler.rng.getstate()
        assert sampler.draw_many(count) == []
        assert sampler.rng.getstate() == state
        # Neither the discrete nor the normal stream moved.
        assert sampler.draw() == fresh.draw()


class TestStrategyBatches:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("injection_time", [simtime.ms(50), None])
    def test_batches_equal_single_scenarios(
        self, space, profile, shared, injection_time
    ):
        def plan(sizes):
            rng = random.Random(9)
            sampler = (
                StressSampler(profile, rng=rng, events=FREQUENT) if shared
                else StressSampler(profile, seed=31, events=FREQUENT)
            )
            strategy = SampledScenarioStrategy(
                space, sampler, faults_per_scenario=2,
                injection_time=injection_time,
            )
            if sizes is None:
                scenarios = [strategy.next_scenario(rng) for _ in range(70)]
            else:
                scenarios = []
                for size in sizes:
                    scenarios += strategy.next_batch(rng, size)
            return (
                scenarios, strategy.samples, strategy.specs,
                strategy.scenario_count, rng.random(),
            )

        assert plan([64, 6]) == plan(None)

    def test_empty_batch_plans_nothing(self, space, profile):
        strategy = SampledScenarioStrategy(
            space, StressSampler(profile, seed=2)
        )
        rng = random.Random(1)
        state = rng.getstate()
        assert strategy.next_batch(rng, 0) == []
        assert rng.getstate() == state
        assert strategy.samples == [] and strategy.specs == []


class TestHostileSpace:
    """Behavior-mode descriptors in the catalog must not break the
    per-sample derivation."""

    def test_plans_on_the_hostile_dut(self, profile):
        livelock = hostile.LIVELOCK.with_rate(1e-6)
        space = FaultSpace(
            hostile.build_hostile(Simulator()),
            [livelock, SRAM_SEU],
            window_start=hostile.TICK,
            window_end=hostile.DURATION // 2,
            time_bins=2,
        )
        strategy = SampledScenarioStrategy(
            space, StressSampler(profile, seed=5)
        )
        rng = random.Random(5)
        scenarios = strategy.next_batch(rng, 6)
        scenarios += [strategy.next_scenario(rng) for _ in range(2)]
        assert len(scenarios) == 8
        names = {
            injection.descriptor.name
            for scenario in scenarios
            for injection in scenario.injections
        }
        assert names <= {livelock.name, SRAM_SEU.name}
        for spec in strategy.specs:
            rates = {d.name: d.rate_per_hour for d in spec.descriptors}
            # No stress accelerates a behavior mode: its base rate
            # passes through every sample's derivation unscaled.
            assert rates[livelock.name] == livelock.rate_per_hour
