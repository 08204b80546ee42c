"""Example-based equivalence and plumbing tests for the golden-run
ladder.

The contract under test: starting each run from the latest capture of
the platform's fault-free run before the run's first injection — a
rung of the ladder (:meth:`Simulator.snapshot` + the module capture the
components' ``STATE_FIELDS`` declare), or a batch rung at a first
injection time several specs share — is *invisible* in campaign
results: outcomes, observations, kernel counters (minus wall clock),
trace digests and journals are byte-identical to per-run execution
from a fresh build, and anything that cannot be captured builds fresh
without simulating any prefix.  The generative version lives in
``tests/property/test_snapshot_properties.py``.
"""

import dataclasses
import inspect

import pytest

from repro.core import Campaign, RandomStrategy, TraceConfig
from repro.core.checkpoint import campaign_key
from repro.core.executors import SerialExecutor
from repro.core.runspec import (
    LADDER_RUNGS,
    _WARM_PLATFORMS,
    RunSpec,
    clear_warm_platforms,
    dispatch_batch,
    execute_chunk_tolerant,
    execute_fork_group,
    execute_runspec,
    execute_runspec_tolerant,
    fork_time,
    shared_fork_times,
)
from repro.core.scenario import ErrorScenario, FaultSpace, PlannedInjection
from repro.faults import SENSOR_OFFSET_DRIFT, SENSOR_STUCK, SRAM_SEU
from repro.kernel import Module, Simulator, simtime
from repro.platforms import registry

DURATION = simtime.ms(40)
T1 = simtime.ms(20)


@pytest.fixture(autouse=True)
def _fresh_warm_cache():
    clear_warm_platforms()
    yield
    clear_warm_platforms()


def _campaign(key):
    return Campaign(duration=DURATION, seed=5, platform=key)


def _space(key, descriptors):
    bundle = registry.get_platform(key)
    return FaultSpace(
        bundle.factory(Simulator()),
        descriptors,
        window_start=simtime.ms(5),
        window_end=DURATION - 1,
        time_bins=2,
    )


def _spec(key, index, injections, golden, trace=None, run_seed=None):
    return RunSpec(
        index=index,
        scenario=ErrorScenario(name=f"fork_{index}", injections=injections),
        run_seed=index * 7919 + 13 if run_seed is None else run_seed,
        duration=DURATION,
        platform=key,
        golden=golden,
        trace=trace,
    )


def _group_specs(key, descriptors, count=3, trace=None, t1=T1):
    space = _space(key, descriptors)
    campaign = _campaign(key)
    golden = campaign.golden()
    specs = []
    for index in range(count):
        path, descriptor = space.pairs[index % len(space.pairs)]
        injections = [
            PlannedInjection(time=t1, target_path=path, descriptor=descriptor)
        ]
        if index % 2:
            later_path, later_descriptor = space.pairs[
                (index + 1) % len(space.pairs)
            ]
            injections.append(
                PlannedInjection(
                    time=t1 + simtime.ms(4) * index,
                    target_path=later_path,
                    descriptor=later_descriptor,
                )
            )
        specs.append(_spec(key, index, injections, golden, trace=trace))
    return specs


def _outcome_bytes(outcome):
    stats = {
        key: value
        for key, value in outcome.kernel_stats.items()
        if key != "wall_s"
    }
    return (
        outcome.index,
        outcome.outcome,
        outcome.matched_rules,
        tuple(sorted(outcome.observation.items())),
        outcome.injections_applied,
        tuple(sorted(stats.items())),
        outcome.stressor_errors,
        outcome.digest.canonical() if outcome.digest else None,
    )


def _fresh(specs, key):
    bundle = registry.get_platform(key)
    classifier = bundle.classifier_factory()
    return [
        execute_runspec(
            dataclasses.replace(spec, reuse_platform=False),
            bundle.factory, bundle.observe, classifier,
        )
        for spec in specs
    ]


# ---------------------------------------------------------------------------
# fork_time / shared_fork_times plumbing
# ---------------------------------------------------------------------------

class TestForkPlanning:
    def _one(self, **kwargs):
        base = dict(
            key="airbag-normal",
            index=0,
            injections=[
                PlannedInjection(
                    time=T1, target_path="caps.param_mem",
                    descriptor=SRAM_SEU,
                )
            ],
            golden={},
        )
        base.update(kwargs)
        return _spec(**base)

    def test_fork_time_of_an_eligible_spec(self):
        assert fork_time(self._one()) == T1

    def test_fork_time_needs_no_opt_in(self):
        """The retired ``fork`` flag is gone from the spec; a frame from
        a sender that still writes it decodes, and the spec still forks
        from the ladder."""
        payload = self._one().to_jsonable()
        assert "fork" not in payload
        legacy = RunSpec.from_jsonable({**payload, "fork": False})
        assert legacy == self._one()
        assert fork_time(legacy) == T1

    def test_fork_time_requires_platform_key(self):
        spec = self._one()
        spec = RunSpec(
            index=spec.index, scenario=spec.scenario,
            run_seed=spec.run_seed, duration=spec.duration,
            platform=None, golden={},
        )
        assert fork_time(spec) is None

    def test_fork_time_requires_injections(self):
        assert fork_time(self._one(injections=[])) is None

    def test_fork_time_rejects_out_of_window_injections(self):
        at_zero = [
            PlannedInjection(
                time=0, target_path="caps.param_mem", descriptor=SRAM_SEU
            )
        ]
        past_end = [
            PlannedInjection(
                time=DURATION + 1, target_path="caps.param_mem",
                descriptor=SRAM_SEU,
            )
        ]
        assert fork_time(self._one(injections=at_zero)) is None
        assert fork_time(self._one(injections=past_end)) is None

    def test_fork_time_is_the_earliest_injection(self):
        spec = self._one(
            injections=[
                PlannedInjection(
                    time=T1 + 5, target_path="caps.param_mem",
                    descriptor=SRAM_SEU,
                ),
                PlannedInjection(
                    time=T1, target_path="caps.param_mem",
                    descriptor=SRAM_SEU,
                ),
            ]
        )
        assert fork_time(spec) == T1

    def test_groups_key_on_platform_and_time(self):
        """A batch rung keys on (platform, fork time), and only times
        that two or more specs share get one."""
        golden = {}
        inject = lambda t: [  # noqa: E731
            PlannedInjection(
                time=t, target_path="caps.param_mem", descriptor=SRAM_SEU
            )
        ]
        specs = [
            _spec("airbag-normal", 0, inject(T1), golden),
            _spec("airbag-normal", 1, inject(T1 + 1), golden),
            _spec("airbag-normal", 2, inject(T1), golden),
            _spec("airbag-normal", 3, [], golden),
            _spec("airbag-normal", 4, inject(T1 + 1), golden),
            _spec("airbag-normal", 5, [], golden),
            _spec("steering", 6, inject(T1), golden),
        ]
        assert shared_fork_times(specs) == {
            ("airbag-normal", T1), ("airbag-normal", T1 + 1),
        }
        assert shared_fork_times(specs[:2]) == set()

    def test_batch_rungs_live_for_one_batch(self):
        """A shared time gets its rung on first use and loses it when
        the batch ends; a shared time on a fixed rung needs none.
        Records come back in spec order, equal to fresh builds."""
        key = "airbag-normal"
        golden = _campaign(key).golden()
        path, descriptor = _space(key, [SRAM_SEU]).pairs[0]
        inject = lambda t: [  # noqa: E731
            PlannedInjection(time=t, target_path=path, descriptor=descriptor)
        ]
        spacing = DURATION // LADDER_RUNGS
        assert (T1 - 1) % spacing and T1 % spacing == 0
        specs = [
            _spec(key, index, inject(T1 + index % 2), golden)
            for index in range(4)
        ]
        live = []

        def run_one(spec):
            outcome = execute_runspec_tolerant(spec)
            live.append(sorted(_WARM_PLATFORMS[key].batch_rungs))
            return outcome

        outcomes = dispatch_batch(specs, run_one)
        assert live == [[T1 - 1]] * 4
        assert not _WARM_PLATFORMS[key].batch_rungs
        assert [_outcome_bytes(o) for o in outcomes] == [
            _outcome_bytes(o) for o in _fresh(specs, key)
        ]

    def test_singleton_buckets_fall_back_to_singles(self):
        """A fork time no other spec shares gets no batch rung: the run
        starts from the fixed rung at or before it."""
        golden = _campaign("airbag-normal").golden()
        path, descriptor = _space("airbag-normal", [SRAM_SEU]).pairs[0]
        spec = _spec(
            "airbag-normal", 0,
            [
                PlannedInjection(
                    time=T1, target_path=path, descriptor=descriptor
                )
            ],
            golden,
        )
        assert shared_fork_times([spec]) == set()
        execute_chunk_tolerant([spec])
        entry = _WARM_PLATFORMS["airbag-normal"]
        spacing = DURATION // LADDER_RUNGS
        assert not entry.batch_rungs
        assert {
            index: rung.time for index, rung in entry.ladders[spacing].items()
        } == {0: 0, (T1 - 1) // spacing: (T1 - 1) // spacing * spacing}


# ---------------------------------------------------------------------------
# Fork-vs-fresh byte equivalence
# ---------------------------------------------------------------------------

class TestForkEquivalence:
    @pytest.mark.parametrize("key,descriptors", [
        ("airbag-normal", [SRAM_SEU, SENSOR_STUCK]),
        ("airbag-crash", [SRAM_SEU, SENSOR_OFFSET_DRIFT]),
        ("steering", [SENSOR_OFFSET_DRIFT, SENSOR_STUCK]),
    ])
    def test_fork_group_matches_fresh_runs_traced(self, key, descriptors):
        campaign = _campaign(key)
        trace = TraceConfig(golden_signals=campaign.golden_signals())
        specs = _group_specs(key, descriptors, trace=trace)
        forked = execute_chunk_tolerant(specs)
        fresh = _fresh(specs, key)
        assert [_outcome_bytes(o) for o in forked] == [
            _outcome_bytes(o) for o in fresh
        ]

    def test_two_durations_keep_two_ladders(self):
        """A platform serving two run durations keeps one ladder per
        rung spacing, each holding only the rungs its runs start from,
        both starting from the one elaboration capture; records match
        fresh builds."""
        key = "airbag-normal"
        long_duration = simtime.ms(60)
        specs = _group_specs(key, [SRAM_SEU, SENSOR_STUCK], count=2)
        golden = Campaign(
            duration=long_duration, seed=5, platform=key
        ).golden()
        longer = [
            dataclasses.replace(
                spec, index=spec.index + 2, duration=long_duration,
                golden=golden,
            )
            for spec in _group_specs(
                key, [SRAM_SEU, SENSOR_STUCK], count=2, t1=T1 + 7
            )
        ]
        outcomes = execute_chunk_tolerant(specs + longer)
        entry = _WARM_PLATFORMS[key]
        short_spacing = DURATION // LADDER_RUNGS
        long_spacing = long_duration // LADDER_RUNGS
        assert sorted(entry.ladders) == [short_spacing, long_spacing]
        for spacing, t1 in ((short_spacing, T1), (long_spacing, T1 + 7)):
            ladder = entry.ladders[spacing]
            assert ladder[0] is entry.elaboration
            assert sorted(ladder) == [0, (t1 - 1) // spacing]
        assert [_outcome_bytes(o) for o in outcomes] == [
            _outcome_bytes(o) for o in _fresh(specs + longer, key)
        ]

    def test_serial_executor_reassembles_group_results_in_spec_order(self):
        key = "airbag-normal"
        bundle = registry.get_platform(key)
        specs = _group_specs(key, [SRAM_SEU, SENSOR_STUCK], count=4)
        executor = SerialExecutor(
            bundle.factory, bundle.observe, bundle.classifier_factory(),
        )
        outcomes = executor.run_batch(specs)
        assert [o.index for o in outcomes] == [s.index for s in specs]
        assert [_outcome_bytes(o) for o in outcomes] == [
            _outcome_bytes(o) for o in _fresh(specs, key)
        ]

    def test_campaign_fork_flag_is_invisible_in_results(self):
        """``fork=`` is accepted and ignored: a campaign passing it runs
        from the ladder and matches fresh builds."""
        key = "steering"
        space = _space(key, [SENSOR_OFFSET_DRIFT, SENSOR_STUCK])

        def run(**kwargs):
            campaign = _campaign(key)
            return campaign.run(
                RandomStrategy(space, faults_per_scenario=1),
                runs=6, batch_size=6, trace=True, **kwargs,
            )

        plain = run(reuse_platform=False)
        forked = run(fork=True)
        assert [
            (r.index, r.outcome, tuple(r.matched_rules),
             tuple(sorted(r.observation.items())),
             r.digest.canonical() if r.digest else None)
            for r in plain.records
        ] == [
            (r.index, r.outcome, tuple(r.matched_rules),
             tuple(sorted(r.observation.items())),
             r.digest.canonical() if r.digest else None)
            for r in forked.records
        ]


# ---------------------------------------------------------------------------
# Fallback paths
# ---------------------------------------------------------------------------

class Undeclared(Module):
    """A component whose class declares no ``STATE_FIELDS``."""


class TestForkFallback:
    def test_group_with_undeclared_module_builds_fresh(self):
        """One undeclared module makes the platform uncapturable: the
        group builds fresh per run, caches nothing, and matches fresh
        records."""
        specs = _group_specs("airbag-normal", [SRAM_SEU], count=2)
        bundle = registry.get_platform("airbag-normal")
        built = []

        def factory(sim):
            built.append(sim)
            root = bundle.factory(sim)
            Undeclared("extra", parent=root)
            return root

        outcomes = execute_fork_group(
            specs, factory, bundle.observe, bundle.classifier_factory(),
        )
        assert len(built) == 2
        assert "airbag-normal" not in _WARM_PLATFORMS
        assert [_outcome_bytes(o) for o in outcomes] == [
            _outcome_bytes(o) for o in _fresh(specs, "airbag-normal")
        ]

    def test_mixed_fork_times_share_one_batch(self):
        """The group entry point no longer needs one fork time: each
        member starts from its own rung."""
        specs = _group_specs("airbag-normal", [SRAM_SEU], count=2)
        odd = _group_specs(
            "airbag-normal", [SRAM_SEU], count=2, t1=T1 + 1
        )
        mixed = [specs[0], dataclasses.replace(odd[0], index=1)]
        bundle = registry.get_platform("airbag-normal")
        outcomes = execute_fork_group(
            mixed, bundle.factory, bundle.observe,
            bundle.classifier_factory(),
        )
        assert [_outcome_bytes(o) for o in outcomes] == [
            _outcome_bytes(o) for o in _fresh(mixed, "airbag-normal")
        ]

    def test_chunk_tolerant_falls_back_for_hookless_platform(
        self, run_counter,
    ):
        """acc declares no state: a batch sharing one injection time
        builds fresh per run and simulates no prefix it would throw
        away — 4 specs, 4 ``Simulator.run`` calls — with the records of
        ``reuse_platform=False``."""
        key = "acc"
        campaign = _campaign(key)
        golden = campaign.golden()
        bundle = registry.get_platform(key)
        space = FaultSpace(
            bundle.factory(Simulator()),
            [SRAM_SEU, SENSOR_OFFSET_DRIFT, SENSOR_STUCK],
            window_start=simtime.ms(5),
            window_end=DURATION - 1,
            time_bins=2,
        )
        path, descriptor = space.pairs[0]
        injections = [
            PlannedInjection(time=T1, target_path=path, descriptor=descriptor)
        ]
        specs = [_spec(key, index, injections, golden) for index in range(4)]
        assert shared_fork_times(specs) == {(key, T1)}
        run_counter.reset()
        batched = execute_chunk_tolerant(specs)
        assert (run_counter.calls, run_counter.simulated) == (
            4, 4 * DURATION
        )
        assert [_outcome_bytes(o) for o in batched] == [
            _outcome_bytes(o) for o in _fresh(specs, key)
        ]


# ---------------------------------------------------------------------------
# Checkpoint identity
# ---------------------------------------------------------------------------

class TestForkCheckpointIdentity:
    def test_fork_is_not_part_of_the_campaign_key(self):
        """Like reuse_platform, fork is execution strategy: two
        journals recorded with and without it must share an identity."""
        assert "fork" not in inspect.signature(campaign_key).parameters
        key = "airbag-normal"
        space = _space(key, [SRAM_SEU])
        strategy = RandomStrategy(space, faults_per_scenario=1)
        assert campaign_key(_campaign(key), strategy) == campaign_key(
            _campaign(key), strategy
        )
