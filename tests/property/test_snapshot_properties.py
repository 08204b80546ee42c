"""Property-based equivalence of snapshot-fork execution.

For *any* group of scenarios sharing an earliest injection time —
arbitrary injection targets, descriptors, extra later injections, and
run seeds — simulating the fault-free prefix once and forking every
run from the mid-run kernel snapshot
(:func:`~repro.core.runspec.execute_fork_group_from_registry`) must
produce the same :class:`~repro.core.runspec.RunOutcome` content and
the same :class:`~repro.observe.digest.TraceDigest` bytes as running
each scenario on its own freshly elaborated platform.  This is the
generative version of the example-based tests in
``tests/core/test_fork_equivalence.py``: hypothesis searches the
scenario space for any kernel or module state the snapshot/restore
protocol fails to reproduce.

A second property covers the fallback contract: a platform that
cannot be captured (hostile-dut) must journal byte-identically whether or
not ``fork=True`` was requested — including when its runs crash and
are retried.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro.core import Campaign, TraceConfig
from repro.core.runspec import (
    RunSpec,
    clear_warm_platforms,
    execute_fork_group_from_registry,
    execute_runspec,
    fork_groups,
)
from repro.core.scenario import ErrorScenario, FaultSpace, PlannedInjection
from repro.faults import SENSOR_OFFSET_DRIFT, SENSOR_STUCK, SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.platforms import hostile, registry


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


@st.composite
def fork_group_specs(draw, fixture):
    """2-3 RunSpecs sharing an earliest injection time ``t1``."""
    space = fixture["space"]
    duration = fixture["duration"]
    t1 = draw(st.integers(duration // 4, duration - 2))
    count = draw(st.integers(2, 3))
    specs = []
    for index in range(count):
        pair_index = draw(st.integers(0, len(space.pairs) - 1))
        path, descriptor = space.pairs[pair_index]
        injections = [
            PlannedInjection(time=t1, target_path=path, descriptor=descriptor)
        ]
        for _ in range(draw(st.integers(0, 1))):
            extra_index = draw(st.integers(0, len(space.pairs) - 1))
            extra_path, extra_descriptor = space.pairs[extra_index]
            extra_time = draw(st.integers(t1, duration - 1))
            injections.append(
                PlannedInjection(
                    time=extra_time,
                    target_path=extra_path,
                    descriptor=extra_descriptor,
                )
            )
        specs.append(
            RunSpec(
                index=index,
                scenario=ErrorScenario(
                    name=f"prop_{index}", injections=injections
                ),
                run_seed=draw(st.integers(0, 2**31 - 1)),
                duration=duration,
                platform=fixture["key"],
                golden=fixture["golden"],
                trace=fixture["trace"],
                fork=True,
            )
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


def _assert_fork_equals_fresh(specs, fixture):
    groups, singles = fork_groups(specs)
    assert len(groups) == 1 and not singles
    clear_warm_platforms()
    try:
        forked = execute_fork_group_from_registry(specs)
    finally:
        clear_warm_platforms()
    fresh = _fresh(specs, fixture)
    assert [_outcome_bytes(o) for o in forked] == [
        _outcome_bytes(o) for o in fresh
    ]


class TestForkEquivalenceProperty:
    @given(fork_group_specs(_AIRBAG))
    @settings(max_examples=12, deadline=None)
    def test_airbag_fork_group_equals_fresh_runs(self, specs):
        _assert_fork_equals_fresh(specs, _AIRBAG)

    @given(fork_group_specs(_STEERING))
    @settings(max_examples=10, deadline=None)
    def test_steering_fork_group_equals_fresh_runs(self, specs):
        _assert_fork_equals_fresh(specs, _STEERING)


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
