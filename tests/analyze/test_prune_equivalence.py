"""Reachability pruning must not perturb anything it does not skip.

The contract (see ``Campaign.run(prune=...)``): planning is untouched
— same spec stream, same RNG draws, same run seeds — so every
*non-pruned* run record and journal line is byte-identical (modulo
wall clock) to the unpruned campaign's.  Pruned runs become explicit
``pruned:unreachable`` records, are never journaled, and are excluded
from the checkpoint identity, so a pruned journal resumes cleanly and
re-derives the skips from the same static analysis.

The fixture platform is the airbag system with two provisioned spare
memory banks that nothing references — statically-dead SRAM sites
that the single-fault SEU space samples about two thirds of the time.
"""

import json

import pytest

from repro.analyze.reach import ReachabilityPruner, analyze_platform
from repro.core import Campaign, RandomStrategy
from repro.core.scenario import FaultSpace
from repro.faults import SRAM_SEU
from repro.hw.memory import Memory
from repro.kernel import Simulator, simtime
from repro.platforms import airbag, registry

KEY = "airbag-islands"
RUNS = 24
PRUNED_TAG = "pruned:unreachable"


def build_islanded(sim):
    platform = airbag.build_normal_operation(sim)
    for i in range(2):
        # Parented but never referenced: statically-dead SRAM banks.
        Memory(f"spare{i}", parent=platform, size=8)
    return platform


@pytest.fixture()
def islanded(request):
    registry.register_platform(
        KEY,
        build_islanded,
        airbag.observe,
        airbag.normal_operation_classifier,
        trace_signals=airbag.trace_signals,
        reach_surface=airbag.reach_surface,
        replace=True,
    )
    yield KEY
    registry._REGISTRY.pop(KEY, None)  # vp-lint: disable=VP006 - test-only registry cleanup


def fresh_campaign(seed=7):
    return Campaign(duration=simtime.ms(60), seed=seed, platform=KEY)


def fresh_strategy():
    root = build_islanded(Simulator())
    space = FaultSpace(
        root,
        [SRAM_SEU.with_rate(5e-7)],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )
    return RandomStrategy(space, faults_per_scenario=1)


def pruner():
    return ReachabilityPruner.for_platform(KEY)


def record_key(record):
    """Everything identity-relevant about a run record, minus wall_s."""
    stats = {
        key: value
        for key, value in (record.kernel_stats or {}).items()
        if key != "wall_s"
    }
    return (
        record.index,
        record.scenario.name,
        record.outcome,
        tuple(record.matched_rules),
        tuple(sorted(record.observation.items())),
        record.injections_applied,
        tuple(sorted(stats.items())),
        record.attempts,
        record.failure,
    )


def journal_lines(path):
    """(header, {index: line-sans-wall_s}) from a checkpoint journal."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    records = {}
    for line in lines[1:]:
        payload = json.loads(line)
        payload.get("kernel_stats", {}).pop("wall_s", None)
        records[payload["index"]] = json.dumps(payload, sort_keys=True)
    return header, records


def test_non_pruned_records_are_byte_identical(islanded):
    baseline = fresh_campaign().run(fresh_strategy(), runs=RUNS)
    pruned = fresh_campaign().run(fresh_strategy(), runs=RUNS, prune=pruner())
    skipped = {
        r.index for r in pruned.records
        if tuple(r.matched_rules) == (PRUNED_TAG,)
    }
    assert skipped, "fixture must actually prune something"
    assert len(skipped) < RUNS, "fixture must actually execute something"
    base_by_index = {r.index: r for r in baseline.records}
    kept_by_index = {r.index: r for r in pruned.records}
    assert set(base_by_index) == set(kept_by_index) == set(range(RUNS))
    for index in set(range(RUNS)) - skipped:
        assert record_key(kept_by_index[index]) == record_key(
            base_by_index[index]
        )


def test_pruned_records_are_explicit_golden_no_effects(islanded):
    campaign = fresh_campaign()
    result = campaign.run(fresh_strategy(), runs=RUNS, prune=pruner())
    skipped = [
        r for r in result.records
        if tuple(r.matched_rules) == (PRUNED_TAG,)
    ]
    golden = campaign.golden()
    for record in skipped:
        assert record.outcome.name == "NO_EFFECT"
        assert record.observation == golden
        assert record.injections_applied == 0
        # Every injection of a pruned scenario targeted a dead site.
        dead = set(pruner().dead)
        assert {
            inj.target_path for inj in record.scenario.injections
        } <= dead


def test_report_exposes_prune_counters(islanded):
    result = fresh_campaign().run(fresh_strategy(), runs=RUNS, prune=pruner())
    section = result.report()["pruning"]
    assert section["pruned"] == result.pruned > 0
    assert section["executed"] == RUNS - result.pruned
    # And the section is absent when nothing was pruned.
    bare = fresh_campaign().run(fresh_strategy(), runs=4)
    assert "pruning" not in bare.report()


def test_journals_agree_and_share_identity(islanded, tmp_path):
    base_path = tmp_path / "base.jsonl"
    pruned_path = tmp_path / "pruned.jsonl"
    fresh_campaign().run(fresh_strategy(), runs=RUNS, checkpoint=str(base_path))
    result = fresh_campaign().run(
        fresh_strategy(), runs=RUNS, checkpoint=str(pruned_path),
        prune=pruner(),
    )
    base_header, base_records = journal_lines(base_path)
    pruned_header, pruned_records = journal_lines(pruned_path)
    # prune= is not part of the checkpoint identity.
    assert pruned_header == base_header
    # Pruned indices never reach the journal; everything else is
    # byte-identical to the unpruned journal (modulo wall_s).
    skipped = {
        r.index for r in result.records
        if tuple(r.matched_rules) == (PRUNED_TAG,)
    }
    assert set(pruned_records) == set(base_records) - skipped
    for index, line in pruned_records.items():
        assert line == base_records[index]


def test_resume_rederives_pruned_records(islanded, tmp_path):
    path = tmp_path / "journal.jsonl"
    first = fresh_campaign().run(
        fresh_strategy(), runs=RUNS, checkpoint=str(path), prune=pruner(),
    )
    resumed = fresh_campaign().run(
        fresh_strategy(), runs=RUNS, checkpoint=str(path), prune=pruner(),
    )
    assert resumed.pruned == first.pruned
    assert resumed.resumed == RUNS - first.pruned
    assert [record_key(r) for r in resumed.records] == [
        record_key(r) for r in first.records
    ]


def test_static_analysis_finds_the_island_sites(islanded):
    report = analyze_platform(KEY)
    assert report.surface_known
    assert report.audit().dead_sites() == (
        "caps.spare0.array", "caps.spare1.array",
    )
