"""Warm-platform reuse must be invisible in campaign results.

The tentpole contract of the warm-reuse fast path: a campaign that
keeps one platform per worker and, before each run, restores the
kernel snapshot and module capture (``Module.capture_state``, driven by
the components' ``STATE_FIELDS``) taken right after elaboration produces
outcomes, digests, and checkpoint journals **byte-identical** to one
that elaborates a fresh platform for every run.  Only wall-clock fields
may differ — they are stripped by the canonicalizers here, exactly as
``TraceDigest.canonical()`` already excludes wall time.

A warm run restores the latest rung of the platform's golden-run
ladder before its first injection, so ``TestLadderEngagement`` also
pins how much it simulates: its suffix, not the shared prefix.
"""

import contextlib
import dataclasses
import json
import random

import pytest

from repro.core import Campaign, RandomStrategy, TraceConfig
from repro.core.runspec import (
    LADDER_RUNGS,
    RunSpec,
    _WARM_PLATFORMS,
    clear_warm_platforms,
    execute_chunk_tolerant,
    execute_runspec,
    execute_runspec_from_registry,
)
from repro.distributed.worker import execute_lease
from repro.core.scenario import ErrorScenario, FaultSpace
from repro.faults import (
    SENSOR_OFFSET_DRIFT,
    SENSOR_STUCK,
    SRAM_SEU,
    FaultDescriptor,
    FaultKind,
    Persistence,
)
from repro.hw.memory import Memory
from repro.kernel import Module, Simulator, simtime
from repro.platforms import airbag, registry

STUCK_HIGH = FaultDescriptor(
    name="sensor_stuck_high",
    kind=FaultKind.STUCK_VALUE,
    persistence=Persistence.PERMANENT,
    params={"value": 4.5},
    rate_per_hour=1e-6,
)

DURATION = simtime.ms(60)

SPARE_BANKS = "airbag-spares"


@pytest.fixture(autouse=True)
def _fresh_warm_cache():
    clear_warm_platforms()
    yield
    clear_warm_platforms()


@contextlib.contextmanager
def reregistered(key, **changes):
    """*key* re-registered (``replace=True``) with *changes* for the
    duration of the block, then restored."""
    original = registry.get_platform(key)
    registry.register_platform(*original._replace(**changes), replace=True)
    try:
        yield
    finally:
        registry.register_platform(*original, replace=True)


def counting(factory, built):
    """*factory*, recording in *built* every kernel it elaborates into."""
    def build(sim):
        built.append(sim)
        return factory(sim)

    return build


def build_spare_banks(sim):
    """The CAPS airbag plus two unreferenced spare SRAM banks."""
    platform = airbag.build_normal_operation(sim)
    for i in range(2):
        Memory(f"spare{i}", parent=platform, size=8)
    return platform


@pytest.fixture()
def spare_banks():
    registry.register_platform(
        SPARE_BANKS,
        build_spare_banks,
        airbag.observe,
        airbag.normal_operation_classifier,
        trace_signals=airbag.trace_signals,
        replace=True,
    )
    yield SPARE_BANKS
    registry._REGISTRY.pop(SPARE_BANKS, None)  # vp-lint: disable=VP006 - test-only registry cleanup


class Undeclared(Module):
    """A component whose class declares no ``STATE_FIELDS``."""


def with_undeclared(factory, built):
    """*factory* plus one :class:`Undeclared` child, counted in *built*."""
    def build(sim):
        built.append(sim)
        root = factory(sim)
        Undeclared("extra", parent=root)
        return root

    return build


def airbag_campaign(seed=7):
    return Campaign(duration=DURATION, seed=seed, platform="airbag-normal")


def airbag_strategy(seed=7):
    sim = Simulator()
    root = airbag.build_normal_operation(sim)
    space = FaultSpace(
        root,
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )
    return RandomStrategy(space, faults_per_scenario=1)


def canonical_records(result):
    """Everything simulation-deterministic about each record.

    ``kernel_stats`` participates minus ``wall_s`` — the event /
    process-step / delta-cycle counters must match exactly (a warm
    kernel that schedules even one extra delta cycle is a state-protocol
    bug), but wall clock never can.
    """
    rows = []
    for record in result.records:
        stats = dict(record.kernel_stats or {})
        stats.pop("wall_s", None)
        rows.append((
            record.index,
            record.outcome,
            tuple(record.matched_rules),
            tuple(sorted(record.observation.items())),
            record.injections_applied,
            tuple(sorted(stats.items())),
            record.attempts,
            record.failure,
            record.digest.canonical() if record.digest else None,
        ))
    return rows


def canonical_journal(path):
    """Journal lines with wall clock stripped (still full JSON rows)."""
    rows = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        if isinstance(payload, dict):
            stats = payload.get("kernel_stats")
            if isinstance(stats, dict):
                stats.pop("wall_s", None)
        rows.append(payload)
    return rows


def outcome_row(outcome):
    """One ``RunOutcome``'s simulation-deterministic content."""
    stats = dict(outcome.kernel_stats)
    stats.pop("wall_s", None)
    return (
        outcome.index,
        outcome.outcome,
        outcome.matched_rules,
        tuple(sorted(outcome.observation.items())),
        outcome.injections_applied,
        tuple(sorted(stats.items())),
        outcome.stressor_errors,
    )


class TestWarmCampaignEquivalence:
    def test_outcomes_and_digests_byte_identical(self):
        fresh = airbag_campaign().run(
            airbag_strategy(), runs=16, trace=True, reuse_platform=False,
        )
        clear_warm_platforms()
        warm = airbag_campaign().run(
            airbag_strategy(), runs=16, trace=True, reuse_platform=True,
        )
        assert canonical_records(warm) == canonical_records(fresh)
        assert _WARM_PLATFORMS  # the warm path actually engaged

    def test_reuse_platform_false_never_caches(self):
        airbag_campaign().run(
            airbag_strategy(), runs=4, reuse_platform=False,
        )
        assert not _WARM_PLATFORMS

    def test_unforkable_platform_never_caches(self):
        """acc's modules and ``HostileDut`` declare no ``STATE_FIELDS``:
        their runs never enter the warm cache; airbag and steering do."""
        duration = simtime.ms(10)
        for key in ("acc", "hostile-dut", "airbag-normal", "steering"):
            golden = Campaign(duration=duration, seed=1, platform=key).golden()
            execute_runspec_from_registry(RunSpec(
                index=0, scenario=ErrorScenario(name="clean", injections=[]),
                run_seed=1, duration=duration, platform=key, golden=golden,
            ))
        assert set(_WARM_PLATFORMS) == {"airbag-normal", "steering"}

    def test_journals_byte_identical(self, tmp_path):
        fresh_path = tmp_path / "fresh.jsonl"
        warm_path = tmp_path / "warm.jsonl"
        airbag_campaign().run(
            airbag_strategy(), runs=8, trace=True, batch_size=4,
            checkpoint=str(fresh_path), reuse_platform=False,
        )
        clear_warm_platforms()
        airbag_campaign().run(
            airbag_strategy(), runs=8, trace=True, batch_size=4,
            checkpoint=str(warm_path), reuse_platform=True,
        )
        assert canonical_journal(warm_path) == canonical_journal(fresh_path)

    def test_reuse_is_not_part_of_checkpoint_identity(self, tmp_path):
        """A journal written fresh resumes under warm reuse (and the
        other way around): the flag must not change the campaign key."""
        path = tmp_path / "journal.jsonl"
        first = airbag_campaign().run(
            airbag_strategy(), runs=6, batch_size=3,
            checkpoint=str(path), reuse_platform=False,
        )
        resumed = airbag_campaign().run(
            airbag_strategy(), runs=6, batch_size=3,
            checkpoint=str(path), reuse_platform=True,
        )
        assert resumed.resumed == 6
        assert canonical_records(resumed) == canonical_records(first)


class TestWarmRunspecProtocol:
    """Runspec-level behavior of the warm cache itself."""

    def _spec(self, scenario=None, **kwargs):
        campaign = airbag_campaign()
        return RunSpec(
            index=kwargs.pop("index", 0),
            scenario=scenario or ErrorScenario(name="clean", injections=[]),
            run_seed=kwargs.pop("run_seed", 1234),
            duration=DURATION,
            platform="airbag-normal",
            golden=campaign.golden(),
            **kwargs,
        )

    def _bundle(self):
        return registry.get_platform("airbag-normal")

    def test_platform_elaborated_once_and_reused(self):
        bundle = self._bundle()
        built = []
        counting_factory = counting(bundle.factory, built)
        classifier = bundle.classifier_factory()
        for index in range(3):
            execute_runspec(
                self._spec(index=index), counting_factory, bundle.observe,
                classifier,
            )
        assert len(built) == 1
        assert "airbag-normal" in _WARM_PLATFORMS

    def test_timeout_interrupted_platform_stays_warm_and_equivalent(self):
        """A run cut off by its wall-clock deadline leaves the platform
        mid-flight; restoring the elaboration capture must still return
        it to its start state — the next run on the interrupted
        platform matches a fresh-build run."""
        bundle = self._bundle()
        classifier = bundle.classifier_factory()

        fresh = execute_runspec(
            self._spec(index=1, reuse_platform=False),
            bundle.factory, bundle.observe, classifier,
        )

        timed_out = execute_runspec(
            self._spec(index=0, deadline_s=1e-6),
            bundle.factory, bundle.observe, classifier,
        )
        assert timed_out.failure == "timeout"
        assert "airbag-normal" in _WARM_PLATFORMS  # kept, not discarded

        warm = execute_runspec(
            self._spec(index=1),
            bundle.factory, bundle.observe, classifier,
        )
        fresh_stats = {
            k: v for k, v in fresh.kernel_stats.items() if k != "wall_s"
        }
        warm_stats = {
            k: v for k, v in warm.kernel_stats.items() if k != "wall_s"
        }
        assert warm.outcome == fresh.outcome
        assert warm.matched_rules == fresh.matched_rules
        assert warm.observation == fresh.observation
        assert warm_stats == fresh_stats

    def test_raising_run_discards_the_warm_entry(self):
        """Unwinding with the platform in an unknown mid-run state must
        not trust a restore to repair it: the cache entry is dropped and
        the next run re-elaborates."""
        bundle = self._bundle()
        built = []
        counting_factory = counting(bundle.factory, built)
        classifier = bundle.classifier_factory()

        execute_runspec(
            self._spec(index=0), counting_factory, bundle.observe,
            classifier,
        )
        assert "airbag-normal" in _WARM_PLATFORMS

        def raising_observe(root):
            raise RuntimeError("probe exploded")

        with pytest.raises(RuntimeError):
            execute_runspec(
                self._spec(index=1), counting_factory, raising_observe,
                classifier,
            )
        assert "airbag-normal" not in _WARM_PLATFORMS

        execute_runspec(
            self._spec(index=2), counting_factory, bundle.observe,
            classifier,
        )
        assert len(built) == 2  # re-elaborated after the discard


class TestWarmEligibility:
    """Which platforms reuse a warm build: exactly those whose modules
    all declare ``STATE_FIELDS`` and whose elaboration a snapshot can
    capture."""

    @pytest.mark.parametrize("key,descriptors", [
        ("steering", [SENSOR_OFFSET_DRIFT, SENSOR_STUCK]),
        (SPARE_BANKS, [SRAM_SEU.with_rate(5e-7), STUCK_HIGH]),
    ], ids=["steering", SPARE_BANKS])
    def test_warm_is_byte_identical(
        self, key, descriptors, spare_banks, tmp_path,
    ):
        bundle = registry.get_platform(key)
        space = FaultSpace(
            bundle.factory(Simulator()),
            descriptors,
            window_start=simtime.ms(5),
            window_end=simtime.ms(35),
            time_bins=2,
        )
        built = []

        def run(reuse, path):
            campaign = Campaign(
                duration=simtime.ms(40), seed=11, platform=key
            )
            campaign.golden()
            campaign.golden_signals()
            before = len(built)
            result = campaign.run(
                RandomStrategy(space, faults_per_scenario=2), runs=12,
                batch_size=4, trace=True, checkpoint=str(path),
                reuse_platform=reuse,
            )
            return result, len(built) - before

        with reregistered(key, factory=counting(bundle.factory, built)):
            fresh, fresh_builds = run(False, tmp_path / "fresh.jsonl")
            warm, warm_builds = run(True, tmp_path / "warm.jsonl")
        assert (fresh_builds, warm_builds) == (12, 1)
        assert canonical_records(warm) == canonical_records(fresh)
        assert canonical_journal(tmp_path / "warm.jsonl") == (
            canonical_journal(tmp_path / "fresh.jsonl")
        )

    def test_undeclared_module_builds_fresh(self):
        """One module whose class declares no ``STATE_FIELDS`` makes
        the whole platform uncapturable: every run elaborates, and the
        records match ``reuse_platform=False``."""
        bundle = registry.get_platform("airbag-normal")
        built = []
        with reregistered(
            "airbag-normal", factory=with_undeclared(bundle.factory, built),
        ):
            runs = {}
            for reuse in (True, False):
                campaign = airbag_campaign()
                campaign.golden()
                before = len(built)
                runs[reuse] = campaign.run(
                    airbag_strategy(), runs=4, reuse_platform=reuse,
                )
                assert len(built) - before == 4
        assert "airbag-normal" not in _WARM_PLATFORMS
        assert canonical_records(runs[True]) == canonical_records(runs[False])

    def test_bare_generator_platform_builds_fresh(self):
        """Declarations alone are not enough: a factory that leaves a
        bare-generator process alive cannot be snapshotted, so every run
        builds fresh — and matches a fresh build."""
        bundle = registry.get_platform("airbag-normal")
        built = []

        def bumping_factory(sim):
            built.append(sim)
            root = bundle.factory(sim)

            def bump():
                yield simtime.ms(2)
                root.ecu.plausibility_rejects += 1

            root.process(bump(), name="bump")
            return root

        golden = airbag_campaign().golden()
        classifier = bundle.classifier_factory()
        outcomes = {}
        for reuse in (True, False):
            outcomes[reuse] = [
                execute_runspec(
                    RunSpec(
                        index=index, scenario=scenario, run_seed=index,
                        duration=DURATION, platform="airbag-normal",
                        golden=golden, reuse_platform=reuse,
                    ),
                    bumping_factory, bundle.observe, classifier,
                )
                for index, scenario in enumerate(
                    airbag_strategy().next_batch(random.Random(3), 3)
                )
            ]
        assert len(built) == 6
        assert "airbag-normal" not in _WARM_PLATFORMS
        assert all(o.observation["detected"] >= 1 for o in outcomes[True])
        assert [outcome_row(o) for o in outcomes[True]] == [
            outcome_row(o) for o in outcomes[False]
        ]

    def test_mid_run_bare_generator_freezes_the_ladder(self):
        """A platform that spawns a bare-generator process at 5 ms is
        capturable up to then only: the first rung asked for past 5 ms
        freezes its ladder, runs start from the nearest rung below, and
        records still match fresh builds."""
        bundle = registry.get_platform("airbag-normal")

        def late_spawning_factory(sim):
            root = bundle.factory(sim)

            def idle():
                while True:
                    yield simtime.ms(1)

            def spawner():
                yield simtime.ms(5)
                root.process(idle(), name="late")
                while True:
                    yield DURATION

            root.process(spawner, name="spawner")
            return root

        golden = airbag_campaign().golden()
        classifier = bundle.classifier_factory()
        scenarios = [
            scenario for scenario in
            airbag_strategy().next_batch(random.Random(5), 8)
            if min(p.time for p in scenario.injections) > simtime.ms(6)
        ][:3]
        assert len(scenarios) == 3
        outcomes = {}
        for reuse in (True, False):
            outcomes[reuse] = [
                execute_runspec(
                    RunSpec(
                        index=index, scenario=scenario, run_seed=index,
                        duration=DURATION, platform="airbag-normal",
                        golden=golden, reuse_platform=reuse,
                    ),
                    late_spawning_factory, bundle.observe, classifier,
                )
                for index, scenario in enumerate(scenarios)
            ]
        entry = _WARM_PLATFORMS["airbag-normal"]
        assert entry.frozen
        assert entry.ladders == {
            DURATION // LADDER_RUNGS: {0: entry.elaboration}
        }
        assert [outcome_row(o) for o in outcomes[True]] == [
            outcome_row(o) for o in outcomes[False]
        ]

    def test_reregistered_platform_does_not_run_the_old_warm_build(self):
        """``register_platform(..., replace=True)`` must not leave the
        warm cache serving what the old factory built."""
        airbag_campaign().run(airbag_strategy(), runs=2)
        assert "airbag-normal" in _WARM_PLATFORMS

        def crash_early(sim):
            return airbag.AirbagPlatform(sim, crash_at=simtime.ms(5))

        with reregistered("airbag-normal", factory=crash_early):
            replaced = airbag_campaign().run(airbag_strategy(), runs=4)
            clear_warm_platforms()
            fresh = airbag_campaign().run(
                airbag_strategy(), runs=4, reuse_platform=False,
            )
        assert all(r.observation["squib_fired"] for r in replaced.records)
        assert canonical_records(replaced) == canonical_records(fresh)


class Part(Module):
    """The declared child a :class:`Ticker` adds mid-run."""

    STATE_FIELDS = ()


class Ticker(Module):
    """At 5 ms spawns a 1 ms ticker, from a factory or a bare generator,
    or adds a :class:`Part` child; the ticker counts in ``ticks``."""

    STATE_FIELDS = ("ticks",)

    def __init__(self, name, parent, spawns):
        super().__init__(name, parent=parent)
        self.spawns = spawns
        self.ticks = 0
        self.process(self._spawn, name="spawner")

    def _spawn(self):
        yield simtime.ms(5)
        if self.spawns == "child":
            Part("part", parent=self)
        else:
            bare = self.spawns == "bare"
            self.process(self._tick() if bare else self._tick, name="tick")

    def _tick(self):
        while True:
            yield simtime.ms(1)
            self.ticks += 1


def observe_ticks(root):
    ticker = root.find("ticker")
    return dict(
        airbag.observe(root), ticks=ticker.ticks, parts=len(ticker.children),
    )


@pytest.fixture(params=["factory", "bare", "child"])
def ticker_platform(request):
    """airbag-normal plus a :class:`Ticker` spawning from a factory or a
    bare generator, or adding a child, registered under its own key."""
    key = f"airbag-ticker-{request.param}"

    def build(sim):
        root = airbag.build_normal_operation(sim)
        Ticker("ticker", parent=root, spawns=request.param)
        return root

    registry.register_platform(
        key, build, observe_ticks, airbag.normal_operation_classifier,
        trace_signals=airbag.trace_signals, replace=True,
    )
    yield key
    registry._REGISTRY.pop(key, None)  # vp-lint: disable=VP006 - test-only registry cleanup


class TestProcessesSpawnedAfterTheCapture:
    """A process a platform spawns, or a child it adds, mid-run is not
    part of any capture taken before it: a restore to such a capture
    kills and drops it, so warm runs equal fresh ones and the kernel's
    processes, the module's owned list and its children stay flat
    however many runs a platform serves."""

    RUNS = 30
    DURATION = simtime.ms(20)

    def _campaign(self, key):
        return Campaign(duration=self.DURATION, seed=5, platform=key)

    def _strategy(self, key):
        space = FaultSpace(
            registry.get_platform(key).factory(Simulator()),
            [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
            window_start=simtime.ms(1),
            window_end=simtime.ms(19),
            time_bins=4,
        )
        return RandomStrategy(space, faults_per_scenario=1)

    def test_warm_equals_fresh(self, ticker_platform, tmp_path):
        key = ticker_platform
        results = {}
        for reuse in (False, True):
            path = tmp_path / f"reuse-{reuse}.jsonl"
            results[reuse] = self._campaign(key).run(
                self._strategy(key), runs=self.RUNS, batch_size=self.RUNS,
                trace=True, checkpoint=str(path), reuse_platform=reuse,
            )
        assert key in _WARM_PLATFORMS
        assert canonical_records(results[True]) == (
            canonical_records(results[False])
        )
        assert canonical_journal(tmp_path / "reuse-True.jsonl") == (
            canonical_journal(tmp_path / "reuse-False.jsonl")
        )

    def test_processes_and_owned_list_stay_flat(self, ticker_platform):
        key = ticker_platform

        def counts():
            entry = _WARM_PLATFORMS[key]
            ticker = entry.root.find("ticker")
            return (
                len(entry.sim.processes), len(ticker.owned_processes),
                len(ticker.children),
            )

        self._campaign(key).run(self._strategy(key), runs=1)
        after_one = counts()
        self._campaign(key).run(
            self._strategy(key), runs=self.RUNS, batch_size=self.RUNS,
        )
        assert counts() == after_one


class TestLadderEngagement:
    """Once the ladder stands, a warm run simulates no more than its
    suffix from one unit before its first injection plus one rung
    spacing — on the serial executor and on the pool's and the
    cluster's worker entry points alike — and its records, digests and
    journal equal those of ``reuse_platform=False``."""

    RUNS = 64

    def _strategy(self):
        """caps-serial's: two faults a scenario over the 5-30 ms space."""
        return RandomStrategy(airbag_strategy().space, faults_per_scenario=2)

    @staticmethod
    def _bound(scenarios):
        spacing = DURATION // LADDER_RUNGS
        return sum(
            DURATION - (min(p.time for p in scenario.injections) - 1)
            + spacing
            for scenario in scenarios
        )

    def test_serial_campaign_skips_the_prefix(self, tmp_path, run_counter):
        def run(journal, **kwargs):
            campaign = airbag_campaign()
            campaign.golden()
            campaign.golden_signals()
            run_counter.reset()
            result = campaign.run(
                self._strategy(), runs=self.RUNS, trace=True,
                checkpoint=str(tmp_path / journal), **kwargs,
            )
            return result, run_counter.simulated

        run("climb.jsonl")  # builds the ladder as far as the runs need
        laddered, simulated = run("ladder.jsonl")
        fresh, fresh_simulated = run("fresh.jsonl", reuse_platform=False)
        assert fresh_simulated == self.RUNS * DURATION
        assert simulated <= self._bound(
            record.scenario for record in laddered.records
        )
        assert canonical_records(laddered) == canonical_records(fresh)
        assert canonical_journal(tmp_path / "ladder.jsonl") == (
            canonical_journal(tmp_path / "fresh.jsonl")
        )

    @pytest.mark.parametrize("entry,injects", [
        ("pool-chunk", "random"),
        ("cluster-lease", "random"),
        ("pool-chunk", "pinned"),
        ("cluster-lease", "pinned"),
    ], ids=[
        "pool-chunk", "cluster-lease", "pool-chunk-pinned",
        "cluster-lease-pinned",
    ])
    def test_worker_entry_points_skip_the_prefix(
        self, entry, injects, run_counter,
    ):
        """``pinned`` moves every injection to 50 of 60 ms: a pool chunk
        and a cluster lease alike build one batch rung at 50 ms minus
        one and run every spec from there."""
        execute = {
            "pool-chunk": execute_chunk_tolerant,
            "cluster-lease": lambda specs: execute_lease(
                specs, lambda outcome: None
            ),
        }[entry]
        campaign = airbag_campaign()
        trace = TraceConfig(golden_signals=campaign.golden_signals())
        specs = campaign.plan_batch(
            self._strategy(), random.Random(7), self.RUNS, 0, trace=trace,
        )
        if injects == "pinned":
            fork_point = simtime.ms(50) - 1
            specs = [
                dataclasses.replace(spec, scenario=dataclasses.replace(
                    spec.scenario, injections=tuple(
                        dataclasses.replace(planned, time=fork_point + 1)
                        for planned in spec.scenario.injections
                    ),
                ))
                for spec in specs
            ]
        execute(specs)  # builds the ladder
        run_counter.reset()
        laddered = execute(specs)
        assert run_counter.simulated <= self._bound(
            spec.scenario for spec in specs
        )
        if injects == "pinned":
            spacing = DURATION // LADDER_RUNGS
            batch_rung = fork_point - fork_point // spacing * spacing
            assert run_counter.simulated == (
                batch_rung + self.RUNS * (DURATION - fork_point)
            )
        fresh = execute([
            dataclasses.replace(spec, reuse_platform=False) for spec in specs
        ])

        def rows(outcomes):
            return [
                (outcome_row(o), o.digest.canonical()) for o in outcomes
            ]

        assert rows(laddered) == rows(fresh)
