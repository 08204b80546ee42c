"""Warm-platform reuse must be invisible in campaign results.

The tentpole contract of the warm-reuse fast path: a campaign that
keeps one platform per worker and, before each run, restores the
kernel snapshot and module capture (``Module.capture_state``, driven by
the components' ``STATE_FIELDS``) taken right after elaboration produces
outcomes, digests, and checkpoint journals **byte-identical** to one
that elaborates a fresh platform for every run.  Only wall-clock fields
may differ — they are stripped by the canonicalizers here, exactly as
``TraceDigest.canonical()`` already excludes wall time.
"""

import contextlib
import json
import random

import pytest

from repro.core import Campaign, RandomStrategy
from repro.core.runspec import (
    RunSpec,
    _WARM_PLATFORMS,
    clear_warm_platforms,
    execute_runspec,
    execute_runspec_from_registry,
)
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
    all declare ``STATE_FIELDS`` and whose elaboration a strict snapshot
    can capture."""

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
        bare-generator process alive cannot be snapshotted strictly, so
        every run builds fresh — and matches a fresh build, where a
        lenient capture would have dropped the process from warm runs."""
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
