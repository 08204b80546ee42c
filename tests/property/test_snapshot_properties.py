"""Property-based equivalence of the golden-run ladder.

For *any* batch of scenarios — arbitrary injection targets,
descriptors, extra injections (at the first injection's time or
later), and run seeds, with first-injection times drawn from the
ladder's edges: ``t1 = 1`` (rung 0), ``t1 - 1`` exactly on a fixed
rung, ``t1 = duration``, and times two or more specs of the batch
share (a batch rung) — running the batch through the worker path
(:func:`~repro.core.runspec.execute_chunk_tolerant`), where each run
starts from the latest capture of the fault-free run at or before its
first injection minus one, must produce the same
:class:`~repro.core.runspec.RunOutcome` content and the same
:class:`~repro.observe.digest.TraceDigest` bytes as running each
scenario on its own freshly elaborated platform.  This is the
generative version of the example-based tests in
``tests/core/test_fork_equivalence.py``: hypothesis searches the
scenario space for any kernel or module state the snapshot/restore
protocol fails to reproduce.  A traced case whose fault-free prefix
fires a detection pins the per-rung replay of prefix detections.

A second property covers the fallback contract: a platform that
cannot be captured (hostile-dut) must journal byte-identically whether or
not ``fork=True`` was requested — including when its runs crash and
are retried.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Campaign, TraceConfig
from repro.core.runspec import (
    LADDER_RUNGS,
    RunSpec,
    _WARM_PLATFORMS,
    clear_warm_platforms,
    execute_chunk_tolerant,
    execute_runspec,
    shared_fork_times,
)
from repro.core.scenario import ErrorScenario, FaultSpace, PlannedInjection
from repro.faults import SENSOR_OFFSET_DRIFT, SENSOR_STUCK, SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.platforms import airbag, hostile, registry


def _platform_fixture(key, duration, descriptors):
    """Shared per-platform constants: campaign, golden, trace, space."""
    campaign = Campaign(duration=duration, seed=3, platform=key)
    bundle = registry.get_platform(key)
    space = FaultSpace(
        bundle.factory(Simulator()),
        descriptors,
        window_start=duration // 4,
        window_end=duration - 1,
        time_bins=2,
    )
    return {
        "key": key,
        "duration": duration,
        "bundle": bundle,
        "golden": campaign.golden(),
        "trace": TraceConfig(golden_signals=campaign.golden_signals()),
        "space": space,
    }


_AIRBAG = _platform_fixture(
    "airbag-normal", simtime.ms(40),
    [SRAM_SEU, SENSOR_OFFSET_DRIFT, SENSOR_STUCK],
)
_STEERING = _platform_fixture(
    "steering", simtime.ms(50),
    [SENSOR_OFFSET_DRIFT, SENSOR_STUCK],
)


def _spec(fixture, index, injections, run_seed):
    return RunSpec(
        index=index,
        scenario=ErrorScenario(name=f"prop_{index}", injections=injections),
        run_seed=run_seed,
        duration=fixture["duration"],
        platform=fixture["key"],
        golden=fixture["golden"],
        trace=fixture["trace"],
    )


@st.composite
def ladder_batch_specs(draw, fixture):
    """2-4 RunSpecs whose first injection times cover the ladder's
    edges, some of them shared within the batch."""
    space = fixture["space"]
    duration = fixture["duration"]
    spacing = duration // LADDER_RUNGS
    first_times = st.one_of(
        st.just(1),
        st.integers(1, LADDER_RUNGS - 1).map(lambda k: k * spacing + 1),
        st.just(duration),
        st.integers(1, duration),
    )
    pairs = st.integers(0, len(space.pairs) - 1).map(
        lambda i: space.pairs[i]
    )
    times = []
    specs = []
    for index in range(draw(st.integers(2, 4))):
        if times and draw(st.booleans()):
            t1 = draw(st.sampled_from(times))
        else:
            t1 = draw(first_times)
        times.append(t1)
        path, descriptor = draw(pairs)
        injections = [
            PlannedInjection(time=t1, target_path=path, descriptor=descriptor)
        ]
        for _ in range(draw(st.integers(0, 2))):
            extra_path, extra_descriptor = draw(pairs)
            injections.append(
                PlannedInjection(
                    time=draw(st.one_of(
                        st.just(t1), st.integers(t1, duration)
                    )),
                    target_path=extra_path,
                    descriptor=extra_descriptor,
                )
            )
        specs.append(
            _spec(fixture, index, injections, draw(st.integers(0, 2**31 - 1)))
        )
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


def _fresh(specs, fixture):
    bundle = fixture["bundle"]
    classifier = bundle.classifier_factory()
    return [
        execute_runspec(
            dataclasses.replace(spec, reuse_platform=False),
            bundle.factory, bundle.observe, classifier,
        )
        for spec in specs
    ]


def _assert_ladder_equals_fresh(specs, fixture):
    clear_warm_platforms()
    try:
        laddered = execute_chunk_tolerant(specs)
    finally:
        clear_warm_platforms()
    fresh = _fresh(specs, fixture)
    assert [_outcome_bytes(o) for o in laddered] == [
        _outcome_bytes(o) for o in fresh
    ]


def _edge_batch(fixture):
    """One spec per ladder edge, a time two specs share, and a second
    injection at the first one's time."""
    duration = fixture["duration"]
    spacing = duration // LADDER_RUNGS
    (path_a, seu), (path_b, other) = (
        fixture["space"].pairs[0], fixture["space"].pairs[-1]
    )
    times = [1, 5 * spacing + 1, duration, duration // 2, duration // 2]
    specs = [
        _spec(
            fixture, index,
            [PlannedInjection(time=t1, target_path=path_a, descriptor=seu)],
            index * 7919 + 13,
        )
        for index, t1 in enumerate(times)
    ]
    specs.append(_spec(
        fixture, len(specs),
        [
            PlannedInjection(time=spacing + 3, target_path=path_a,
                             descriptor=seu),
            PlannedInjection(time=spacing + 3, target_path=path_b,
                             descriptor=other),
        ],
        17,
    ))
    return specs


class TestForkEquivalenceProperty:
    @given(ladder_batch_specs(_AIRBAG))
    @settings(max_examples=25, deadline=None)
    def test_airbag_fork_group_equals_fresh_runs(self, specs):
        _assert_ladder_equals_fresh(specs, _AIRBAG)

    @given(ladder_batch_specs(_STEERING))
    @settings(max_examples=20, deadline=None)
    def test_steering_fork_group_equals_fresh_runs(self, specs):
        _assert_ladder_equals_fresh(specs, _STEERING)

    @pytest.mark.parametrize(
        "fixture", [_AIRBAG, _STEERING], ids=["airbag", "steering"]
    )
    def test_every_ladder_edge_equals_fresh_runs(self, fixture):
        specs = _edge_batch(fixture)
        duration = fixture["duration"]
        assert shared_fork_times(specs) == {
            (fixture["key"], duration // 2)
        }
        _assert_ladder_equals_fresh(specs, fixture)


# ---------------------------------------------------------------------------
# Prefix detections: every rung carries the ones fired up to its time.
# ---------------------------------------------------------------------------

PREFLIPPED = "airbag-preflipped"


def build_preflipped(sim):
    """airbag-normal with one codeword bit of the deploy threshold
    flipped at elaboration: the golden run's first parameter read, at
    1 ms, corrects it — a detection inside every fault-free prefix."""
    platform = airbag.build_normal_operation(sim)
    platform.param_mem.injection_points["codewords"].flip(0, 3)
    return platform


@pytest.fixture(scope="module")
def preflipped():
    registry.register_platform(
        PREFLIPPED,
        build_preflipped,
        airbag.observe,
        airbag.normal_operation_classifier,
        trace_signals=airbag.trace_signals,
        replace=True,
    )
    try:
        yield _platform_fixture(
            PREFLIPPED, simtime.ms(40), [SRAM_SEU, SENSOR_STUCK]
        )
    finally:
        clear_warm_platforms()
        registry._REGISTRY.pop(PREFLIPPED, None)  # vp-lint: disable=VP006 - test-only registry cleanup


class TestPrefixDetections:
    def test_prefix_detection_replays_from_every_rung(self, preflipped):
        assert preflipped["golden"]["ecc_corrected"] == 1
        duration = preflipped["duration"]
        spacing = duration // LADDER_RUNGS
        detected_at = simtime.ms(1)
        path, descriptor = preflipped["space"].pairs[0]
        # Rung 0, the rung just before the detection, the rung just
        # after it, and a time two specs share.
        times = [1, spacing + 1, 2 * spacing + 1, duration // 2,
                 duration // 2]
        specs = [
            _spec(
                preflipped, index,
                [PlannedInjection(time=t1, target_path=path,
                                  descriptor=descriptor)],
                index + 1,
            )
            for index, t1 in enumerate(times)
        ]
        clear_warm_platforms()
        laddered = execute_chunk_tolerant(specs)
        rungs = list(_WARM_PLATFORMS[PREFLIPPED].ladders[spacing].values())
        assert [len(rung.detections) for rung in rungs] == [
            int(rung.time >= detected_at) for rung in rungs
        ]
        assert all(
            rung.detections[0][0] == detected_at
            for rung in rungs if rung.detections
        )
        fresh = _fresh(specs, preflipped)
        assert [_outcome_bytes(o) for o in laddered] == [
            _outcome_bytes(o) for o in fresh
        ]
        assert all(
            any(event.time == detected_at for event in o.digest.events)
            for o in laddered
        )


# ---------------------------------------------------------------------------
# Fallback contract: fork=True on a snapshot-less platform is inert.
# ---------------------------------------------------------------------------

def _canonical_journal(path):
    rows = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        if isinstance(payload, dict):
            stats = payload.get("kernel_stats")
            if isinstance(stats, dict):
                stats.pop("wall_s", None)
            if payload.get("failure") == "timeout":
                payload["kernel_stats"] = {}
        rows.append(payload)
    return rows


def _scripted_hostile(runs, hostility):
    from repro.core.strategies import Strategy

    class Scripted(Strategy):
        def __init__(self):
            self.cursor = 0
            self.faults_per_scenario = 1
            self.space = None

        def next_scenario(self, rng):
            index = self.cursor
            self.cursor += 1
            injections = []
            descriptor = hostility.get(index)
            if descriptor is not None:
                injections.append(
                    PlannedInjection(
                        time=3 * hostile.TICK,
                        target_path=hostile.TRAP_PATH,
                        descriptor=descriptor,
                    )
                )
            return ErrorScenario(
                name=f"scripted_{index}", injections=injections
            )

    return Scripted()


def _run_hostile(fork, checkpoint, hostility):
    campaign = Campaign(
        duration=hostile.DURATION, seed=11, platform="hostile-dut"
    )
    return campaign.run(
        _scripted_hostile(6, hostility),
        runs=6,
        backend="serial",
        batch_size=6,
        run_timeout_s=0.5,
        max_retries=2,
        retry_backoff_s=0.0,
        trace=True,
        checkpoint=checkpoint,
        fork=fork,
    )


class TestForkFallbackJournal:
    def test_hostile_journal_identical_with_fork_requested(self, tmp_path):
        """hostile-dut declares no state: fork=True must take the
        per-run path and journal byte-identically, livelocks and all."""
        hostility = {1: hostile.LIVELOCK}
        plain_path = tmp_path / "plain.jsonl"
        forked_path = tmp_path / "forked.jsonl"
        _run_hostile(False, str(plain_path), hostility)
        _run_hostile(True, str(forked_path), hostility)
        assert _canonical_journal(forked_path) == _canonical_journal(
            plain_path
        )

    def test_fork_flag_outside_checkpoint_identity(self, tmp_path):
        """A campaign journaled with fork=False must resume cleanly
        with fork=True — the knob is execution strategy, not identity
        (exactly like ``reuse_platform``)."""
        path = tmp_path / "resume.jsonl"
        first = _run_hostile(False, str(path), {})
        resumed = _run_hostile(True, str(path), {})
        assert [r.index for r in resumed.records] == [
            r.index for r in first.records
        ]
        assert [r.outcome for r in resumed.records] == [
            r.outcome for r in first.records
        ]
