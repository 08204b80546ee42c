"""Distributed execution must be invisible in campaign results.

The loopback :class:`LocalCluster` spawns real worker subprocesses
speaking the real socket protocol, so these tests pin the exact
contract a multi-host deployment relies on: records, reports, digests,
and journals byte-identical to a serial run of the same seed — through
work stealing, mid-campaign worker death, elastic join/leave, poison
specs, and hung leases.
"""

import json
import os
import threading
import time

import pytest

from repro.core import Campaign, FaultSpace, RandomStrategy
from repro.core.checkpoint import merge_shards, shard_paths_in
from repro.core.executors import RetryPolicy, make_executor
from repro.core.runspec import clear_warm_platforms
from repro.core.scenario import ErrorScenario, PlannedInjection
from repro.core.strategies import Strategy
from repro.distributed import DistributedExecutor, LocalCluster
from repro.faults import FaultDescriptor, FaultKind, Persistence, SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.observe.telemetry import JsonlTelemetry
from repro.platforms import airbag, hostile

MULTI_CPU = (
    (os.cpu_count() or 1) >= 2
    or os.environ.get("REPRO_FORCE_POOL") == "1"
)

needs_multicore = pytest.mark.skipif(
    not MULTI_CPU, reason="needs >= 2 CPUs for a meaningful cluster"
)

STUCK_HIGH = FaultDescriptor(
    name="sensor_stuck_high",
    kind=FaultKind.STUCK_VALUE,
    persistence=Persistence.PERMANENT,
    params={"value": 4.5},
    rate_per_hour=2e-7,
)

DURATION = simtime.ms(60)
RUNS = 12


@pytest.fixture(autouse=True)
def _fresh_warm_cache():
    clear_warm_platforms()
    yield
    clear_warm_platforms()


def airbag_space():
    probe = Simulator()
    return FaultSpace(
        airbag.build_normal_operation(probe),
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )


def run_airbag(backend, runs=RUNS, checkpoint=None, telemetry=None,
               workers=None):
    campaign = Campaign(duration=DURATION, seed=7, platform="airbag-normal")
    strategy = RandomStrategy(airbag_space(), faults_per_scenario=2)
    return campaign.run(
        strategy, runs=runs, backend=backend, workers=workers,
        batch_size=runs, trace=True, checkpoint=checkpoint,
        telemetry=telemetry,
    )


def canonical_records(result):
    rows = []
    for record in result.records:
        stats = dict(record.kernel_stats or {})
        stats.pop("wall_s", None)
        if record.failure == "timeout":
            stats = {}
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


def sans_attempts(rows):
    return [row[:6] + row[7:] for row in rows]


def canonical_report(result):
    report = result.report()
    report.get("kernel", {}).pop("sim_wall_s", None)
    report.get("kernel", {}).pop("runs_per_s", None)
    return report


def canonical_journal(path, drop_attempts=False):
    rows = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        if isinstance(payload, dict):
            stats = payload.get("kernel_stats")
            if isinstance(stats, dict):
                stats.pop("wall_s", None)
            if payload.get("failure") == "timeout":
                payload["kernel_stats"] = {}
            if drop_attempts:
                payload.pop("attempts", None)
        rows.append(payload)
    return rows


@needs_multicore
class TestDistributedEquivalence:
    def test_matches_serial_end_to_end(self, tmp_path):
        serial_journal = tmp_path / "serial.jsonl"
        dist_journal = tmp_path / "dist.jsonl"
        shard_dir = tmp_path / "shards"
        serial = run_airbag("serial", checkpoint=str(serial_journal))
        executor = DistributedExecutor(
            "airbag-normal", workers=2, shard_dir=shard_dir
        )
        try:
            distributed = run_airbag(executor, checkpoint=str(dist_journal))
        finally:
            executor.close()
        assert canonical_records(distributed) == canonical_records(serial)
        assert canonical_report(distributed) == canonical_report(serial)
        # The campaign-level journal is backend-independent...
        assert canonical_journal(dist_journal) == canonical_journal(
            serial_journal
        )
        # ...and so is the merge of the per-worker shards.
        merged = tmp_path / "merged.jsonl"
        key = json.loads(serial_journal.read_text().splitlines()[0])["key"]
        stats = merge_shards(merged, shard_paths_in(shard_dir), key)
        assert stats["records"] == RUNS
        assert stats["dropped_lines"] == 0
        assert canonical_journal(merged) == canonical_journal(serial_journal)
        # However the runs were spread, every shard is a valid journal
        # for the campaign key (the merge opens each against it) and
        # the shards hold each run exactly once between them.
        assert stats["shards"] == len(shard_paths_in(shard_dir)) >= 1
        assert stats["duplicates"] == 0

    def test_worker_killed_mid_campaign_stays_equivalent(self, tmp_path):
        """SIGKILL one of four workers mid-batch: the dead lease
        requeues, innocents re-run uncharged, and everything but the
        in-flight casualty's attempt count (execution history, exactly
        as in the chunked-fallback tests) stays byte-identical."""
        serial_journal = tmp_path / "serial.jsonl"
        dist_journal = tmp_path / "dist.jsonl"
        shard_dir = tmp_path / "shards"
        serial = run_airbag("serial", checkpoint=str(serial_journal))
        executor = DistributedExecutor(
            "airbag-normal", workers=4, shard_dir=shard_dir,
            heartbeat_s=0.1, lease_timeout_s=0.5,
        )

        def assassin():
            while executor._cluster is None:
                time.sleep(0.01)
            time.sleep(0.05)
            executor._cluster.kill_worker(0)

        killer = threading.Thread(target=assassin)
        killer.start()
        try:
            distributed = run_airbag(executor, checkpoint=str(dist_journal))
        finally:
            killer.join()
            executor.close()
        assert sans_attempts(canonical_records(distributed)) == sans_attempts(
            canonical_records(serial)
        )
        assert canonical_journal(
            dist_journal, drop_attempts=True
        ) == canonical_journal(serial_journal, drop_attempts=True)
        merged = tmp_path / "merged.jsonl"
        key = json.loads(serial_journal.read_text().splitlines()[0])["key"]
        merge_shards(merged, shard_paths_in(shard_dir), key)
        assert canonical_journal(
            merged, drop_attempts=True
        ) == canonical_journal(serial_journal, drop_attempts=True)

    def test_elastic_join_mid_campaign(self):
        """Workers attaching *after* the batch started still serve it —
        the coordinator never assumes a fixed fleet."""
        serial = run_airbag("serial")
        executor = DistributedExecutor(
            "airbag-normal", workers=2, spawn_local=False
        )
        outcome = {}

        def campaign_thread():
            try:
                outcome["result"] = run_airbag(executor)
            except Exception as exc:  # pragma: no cover - surfaced below
                outcome["error"] = exc

        runner = threading.Thread(target=campaign_thread)
        runner.start()
        # Attach workers only once the batch is queued with none.
        coordinator = executor.coordinator
        with coordinator._lock:
            assert coordinator._lock.wait_for(
                lambda: coordinator._specs, timeout=60
            )
        cluster = LocalCluster(executor.endpoint, workers=2)
        try:
            runner.join(timeout=120)
            assert not runner.is_alive()
        finally:
            executor.close()
            cluster.close()
        assert "error" not in outcome, outcome.get("error")
        assert canonical_records(outcome["result"]) == canonical_records(
            serial
        )

    def test_elastic_leave_after_max_leases(self, tmp_path):
        """Workers bowing out cleanly (--max-leases) hand their place
        back without being counted as losses; a late-joining peer
        finishes the batch."""
        serial = run_airbag("serial")
        telemetry = JsonlTelemetry(str(tmp_path / "telemetry.jsonl"))
        executor = DistributedExecutor(
            "airbag-normal", workers=2, spawn_local=False, chunk_size=2,
            telemetry=telemetry,
        )
        cluster = LocalCluster(
            executor.endpoint, workers=2,
            extra_args=["--max-leases", "1"],
        )
        cluster.add_worker(extra_args=[])  # one unrestricted closer
        try:
            distributed = run_airbag(executor, telemetry=telemetry)
        finally:
            executor.close()
            cluster.close()
            telemetry.close()
        assert canonical_records(distributed) == canonical_records(serial)
        assert executor.workers_lost == 0
        # Whether or not it joined in time to get one, each restricted
        # worker ran at most one lease: at most chunk_size runs.
        for name in ("w0", "w1"):
            assert telemetry.worker_runs.get(name, 0) <= 2

    def test_make_executor_distributed_backend(self):
        serial = run_airbag("serial")
        distributed = run_airbag("distributed", workers=2)
        assert canonical_records(distributed) == canonical_records(serial)

    def test_per_worker_telemetry_attribution(self, tmp_path):
        stream = tmp_path / "telemetry.jsonl"
        telemetry = JsonlTelemetry(str(stream))
        executor = DistributedExecutor(
            "airbag-normal", workers=2, telemetry=telemetry
        )
        try:
            run_airbag(executor, telemetry=telemetry)
        finally:
            executor.close()
            telemetry.close()
        assert sum(telemetry.worker_runs.values()) == RUNS
        assert executor.workers_lost == 0
        events = [json.loads(line) for line in stream.read_text().splitlines()]
        kinds = {event["event"] for event in events}
        assert {"worker_join", "worker_result", "campaign_end"} <= kinds
        # Attribution never precedes registration, however many workers
        # joined before the queue drained.
        joined = set()
        for event in events:
            if event["event"] == "worker_join":
                joined.add(event["worker"])
            elif event["event"] == "worker_result":
                assert event["worker"] in joined
        end = [e for e in events if e["event"] == "campaign_end"][-1]
        assert sum(end["worker_runs"].values()) == RUNS


class ScriptedHostility(Strategy):
    def __init__(self, hostility, runs):
        self.scenarios = []
        for index in range(runs):
            descriptor = hostility.get(index)
            injections = (
                [PlannedInjection(
                    time=3 * hostile.TICK,
                    target_path=hostile.TRAP_PATH,
                    descriptor=descriptor,
                )]
                if descriptor is not None else []
            )
            self.scenarios.append(
                ErrorScenario(name=f"scripted_{index}", injections=injections)
            )
        self.cursor = 0
        self.faults_per_scenario = 1
        self.space = None

    def next_scenario(self, rng):
        scenario = self.scenarios[self.cursor % len(self.scenarios)]
        self.cursor += 1
        return scenario


@needs_multicore
class TestDistributedFaultTolerance:
    def test_poison_spec_becomes_terminal_crash_record(self):
        """A spec that kills every worker it lands on burns the PR-2
        retry budget against fresh replacements, then degrades to a
        terminal ``crash:worker`` record; innocents stay uncharged."""
        campaign = Campaign(
            duration=hostile.DURATION, seed=11, platform="hostile-dut"
        )
        executor = DistributedExecutor(
            "hostile-dut", workers=2,
            retry=RetryPolicy(max_retries=2, backoff_s=0.05),
            heartbeat_s=0.2, lease_timeout_s=1.0, chunk_size=1,
        )
        try:
            result = campaign.run(
                ScriptedHostility({2: hostile.CRASH}, 6), runs=6,
                batch_size=6, backend=executor, run_timeout_s=5.0,
            )
        finally:
            executor.close()
        terminal = result.records[2]
        assert terminal.failure == "crash"
        assert terminal.attempts == 1 + executor.coordinator.retry.max_retries
        assert terminal.matched_rules == ["crash:worker"]
        assert executor.workers_lost >= 3
        for record in result.records:
            if record.index != 2:
                assert record.failure is None
                assert record.attempts == 1
        robustness = result.report()["robustness"]
        assert robustness["terminally_failed"] == 1
        assert robustness["retried"] == 2

    def test_hung_lease_times_out_terminally(self):
        """A livelocked run with no worker-side deadline trips the
        lease-level hard timeout while heartbeats still flow: the
        in-flight run is recorded ``timeout:pool`` (a rerun would just
        hang again) and the rest of the batch completes normally."""
        campaign = Campaign(
            duration=hostile.DURATION, seed=11, platform="hostile-dut"
        )
        executor = DistributedExecutor(
            "hostile-dut", workers=2, hard_timeout_s=2.0,
            heartbeat_s=0.2, lease_timeout_s=30.0, chunk_size=1,
        )
        try:
            result = campaign.run(
                ScriptedHostility({1: hostile.LIVELOCK}, 4), runs=4,
                batch_size=4, backend=executor,
            )
        finally:
            executor.close()
        hung = result.records[1]
        assert hung.failure == "timeout"
        assert hung.matched_rules == ["timeout:pool"]
        for record in result.records:
            if record.index != 1:
                assert record.failure is None
