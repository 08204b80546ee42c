"""Backend equivalence for sampled risk campaigns.

The acceptance contract of the risk engine: a fixed-seed sampled
campaign yields the *same* `RiskReport.canonical()` bytes — and the
same checkpoint journal, modulo wall-clock fields — whether it executes
serially or on the process pool, from fresh builds or from the
golden-run ladder.
"""

import json

import pytest

from repro.core import Campaign, FaultSpace
from repro.kernel import Simulator, simtime
from repro.platforms import airbag
from repro.risk import RiskReport, SampledScenarioStrategy, StressSampler
from repro.mission import standard_passenger_car_profile

from .conftest import DURATION, STUCK_HIGH
from repro.faults import SRAM_SEU

RUNS = 24
PIN = simtime.ms(50)


def build_campaign():
    return Campaign(duration=DURATION, seed=7, platform="airbag-normal")


def build_space():
    probe = Simulator()
    return FaultSpace(
        airbag.build_normal_operation(probe),
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )


def run_risk(
    backend="serial", reuse_platform=True, checkpoint=None,
    injection_time=None,
):
    profile = standard_passenger_car_profile()
    strategy = SampledScenarioStrategy(
        build_space(),
        StressSampler(profile, seed=11),
        injection_time=injection_time,
    )
    kwargs = dict(
        backend=backend, batch_size=8, trace=True,
        reuse_platform=reuse_platform, checkpoint=checkpoint,
    )
    if backend == "parallel":
        kwargs["workers"] = 2
    result = build_campaign().run(strategy, runs=RUNS, **kwargs)
    return RiskReport.from_campaign(result, strategy)


def canonical_journal(path):
    rows = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        if isinstance(payload, dict):
            stats = payload.get("kernel_stats")
            if isinstance(stats, dict):
                stats.pop("wall_s", None)
        rows.append(payload)
    return rows


class TestBackendEquivalence:
    def test_serial_parallel_identical_reports(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        assert run_risk("serial").canonical() == run_risk(
            "parallel"
        ).canonical()

    def test_fork_identical_to_per_run(self):
        # Same pinned-time strategy from fresh builds and from the
        # golden-run ladder (one batch rung per batch): the fast path
        # must be invisible in the report.
        per_run = run_risk(
            "serial", reuse_platform=False, injection_time=PIN
        )
        forked = run_risk("serial", injection_time=PIN)
        assert per_run.canonical() == forked.canonical()

    def test_parallel_fork_identical_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        serial = run_risk("serial", injection_time=PIN)
        parallel = run_risk("parallel", injection_time=PIN)
        assert serial.canonical() == parallel.canonical()

    def test_repeat_runs_are_byte_identical(self):
        assert run_risk("serial").canonical() == run_risk(
            "serial"
        ).canonical()


class TestJournalEquivalence:
    def test_serial_parallel_journals_match(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_POOL", "1")
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        run_risk("serial", checkpoint=serial_path)
        run_risk("parallel", checkpoint=parallel_path)
        assert canonical_journal(serial_path) == canonical_journal(
            parallel_path
        )

    def test_fork_journal_matches_per_run(self, tmp_path):
        fork_path = tmp_path / "fork.jsonl"
        plain_path = tmp_path / "plain.jsonl"
        run_risk("serial", checkpoint=fork_path, injection_time=PIN)
        run_risk(
            "serial", reuse_platform=False, checkpoint=plain_path,
            injection_time=PIN,
        )
        assert canonical_journal(fork_path) == canonical_journal(plain_path)


class TestCheckpointResume:
    def test_interrupted_campaign_resumes_to_same_report(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        # "Interrupt" after 8 of 24 runs, then resume to completion
        # with a freshly constructed strategy + sampler.
        profile = standard_passenger_car_profile()
        strategy = SampledScenarioStrategy(
            build_space(), StressSampler(profile, seed=11)
        )
        build_campaign().run(
            strategy, runs=8, backend="serial", batch_size=8,
            trace=True, checkpoint=path,
        )
        resumed = run_risk("serial", checkpoint=path)
        fresh = run_risk("serial")
        assert resumed.canonical() == fresh.canonical()
        assert resumed.runs == RUNS
