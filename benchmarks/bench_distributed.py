"""Distributed-backend speed floor (E19).

The loopback :class:`~repro.distributed.LocalCluster` runs the exact
coordinator/worker protocol a multi-host fleet would — real
subprocesses, real sockets, JSON frames, per-worker shard journals —
so its speedup over the in-process serial loop is the honest lower
bound on what distribution buys.  perfbench's caps-cluster2 measures
the 2-worker rate itself; this suite keeps the ratio floor, >= 2x on 4
workers, on hosts with at least 4 CPUs.

Content before cost, as everywhere in this suite: the distributed
histogram and matched-rule stream must equal serial's before the
ratio counts.
"""

import pytest

from _workloads import CPUS, timed_campaign, timed_distributed_campaign

DIST_WORKERS = 4
ACCEPT_RUNS = 480


@pytest.mark.skipif(
    CPUS < DIST_WORKERS,
    reason=f"speedup acceptance needs >= {DIST_WORKERS} CPUs",
)
def test_distributed_speedup_acceptance():
    """>= 2x runs/sec on a 4-worker loopback cluster, identical
    results run for run."""
    serial, serial_wall = timed_campaign(
        "serial", runs=ACCEPT_RUNS, batch_size=ACCEPT_RUNS
    )
    distributed, dist_wall = timed_distributed_campaign(
        ACCEPT_RUNS, workers=DIST_WORKERS
    )
    assert distributed.outcome_histogram() == serial.outcome_histogram()
    assert [r.matched_rules for r in distributed.records] == [
        r.matched_rules for r in serial.records
    ]
    serial_rate = ACCEPT_RUNS / serial_wall
    dist_rate = ACCEPT_RUNS / dist_wall
    assert dist_rate >= 2.0 * serial_rate, (
        f"distributed {dist_rate:.1f} runs/s vs serial "
        f"{serial_rate:.1f} runs/s"
    )
