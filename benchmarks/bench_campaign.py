"""Campaign hot-path speed floors on the Fig. 3 CAPS campaign.

The paper names simulation speed as the limiting factor of
quantitative safety evaluation (Sec. 3.4).  Absolute runs per second
are measured by ``perfbench/`` (host-normalised, fingerprint-checked);
this suite keeps the ratio floors, which transfer across hosts:

* the golden-run ladder >= 3x over simulating every run from time 0
  (``RungZeroExecutor``) on a prefix-heavy workload (one shared
  injection time at 50 of 60 ms), the median of 5 alternating pairs;
* warm-platform reuse >= 0.8x per-run elaboration;
* the process pool >= 2x serial on 4 workers, on hosts with >= 4 CPUs;
* chunked dispatch changes cost, never content.
"""

import pytest

from _workloads import (
    CPUS,
    POOL_OK,
    median_speedup,
    timed_campaign,
    timed_fork_campaign,
)

THROUGHPUT_RUNS = 60
FORK_RUNS = 128
FORK_BATCH = 64
SPEEDUP_RUNS = 160
SPEEDUP_WORKERS = 4


def test_campaign_fork_speedup_acceptance():
    """>= 3x runs/sec from the golden-run ladder over simulating every
    run from time 0 on a >= 80%-prefix workload, identical results run
    for run; the floor holds for the median of 5 alternating trial
    pairs, since single trials swing by tens of percent on a shared
    host."""
    prefix, _ = timed_fork_campaign(
        FORK_RUNS, ladder=False, batch_size=FORK_BATCH
    )
    forked, _ = timed_fork_campaign(
        FORK_RUNS, ladder=True, batch_size=FORK_BATCH
    )
    assert forked.outcome_histogram() == prefix.outcome_histogram()
    assert [r.matched_rules for r in forked.records] == [
        r.matched_rules for r in prefix.records
    ]
    speedup = median_speedup(
        lambda: timed_fork_campaign(
            FORK_RUNS, ladder=False, batch_size=FORK_BATCH
        )[1],
        lambda: timed_fork_campaign(
            FORK_RUNS, ladder=True, batch_size=FORK_BATCH
        )[1],
    )
    assert speedup >= 3.0, (
        f"ladder vs rung-0 median speedup {speedup:.2f}x over "
        f"{FORK_RUNS} runs"
    )


def test_campaign_warm_reuse_is_not_slower():
    """Warm reuse must never lose to per-run elaboration.

    perfbench's caps-serial measures the warm rate itself; this guard
    only catches the sign being wrong — a restore protocol that got
    more expensive than elaboration itself.  The 0.8 factor absorbs CI
    timer noise."""
    fresh, fresh_wall = timed_campaign(
        "serial", runs=THROUGHPUT_RUNS, reuse_platform=False
    )
    warm, warm_wall = timed_campaign("serial", runs=THROUGHPUT_RUNS)
    assert warm.outcome_histogram() == fresh.outcome_histogram()
    # A clean campaign accounts every run as completed: a silent timeout
    # would read as speed while degrading the result.
    assert warm.completed == fresh.completed == THROUGHPUT_RUNS
    assert warm_wall <= fresh_wall / 0.8, (
        f"warm {THROUGHPUT_RUNS / warm_wall:.1f} runs/s vs fresh "
        f"{THROUGHPUT_RUNS / fresh_wall:.1f} runs/s"
    )


@pytest.mark.skipif(
    CPUS < SPEEDUP_WORKERS,
    reason=f"speedup acceptance needs >= {SPEEDUP_WORKERS} CPUs",
)
def test_campaign_parallel_speedup_acceptance():
    """>= 2x runs/sec on 4 workers at >= 120 runs, identical results."""
    serial, serial_wall = timed_campaign("serial", runs=SPEEDUP_RUNS)
    parallel, parallel_wall = timed_campaign(
        "parallel", runs=SPEEDUP_RUNS, workers=SPEEDUP_WORKERS
    )
    assert parallel.outcome_histogram() == serial.outcome_histogram()
    assert [r.matched_rules for r in parallel.records] == [
        r.matched_rules for r in serial.records
    ]
    serial_rate = SPEEDUP_RUNS / serial_wall
    parallel_rate = SPEEDUP_RUNS / parallel_wall
    assert parallel_rate >= 2.0 * serial_rate, (
        f"parallel {parallel_rate:.1f} runs/s vs serial "
        f"{serial_rate:.1f} runs/s"
    )


@pytest.mark.skipif(not POOL_OK, reason="needs >= 2 CPUs or a forced pool")
def test_campaign_chunked_matches_per_run_dispatch():
    """Chunked dispatch changes cost, never content: same campaign,
    chunk_size auto vs 1, identical outcome sequence."""
    chunked, _ = timed_campaign(
        "parallel", runs=48, workers=2, chunk_size=None
    )
    per_run, _ = timed_campaign(
        "parallel", runs=48, workers=2, chunk_size=1
    )
    assert [r.outcome for r in chunked.records] == [
        r.outcome for r in per_run.records
    ]
    assert [r.matched_rules for r in chunked.records] == [
        r.matched_rules for r in per_run.records
    ]
