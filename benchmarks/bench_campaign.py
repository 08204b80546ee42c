"""Campaign hot-path throughput — the ``BENCH_campaign.json`` emitter.

The paper names simulation speed as the limiting factor of
quantitative safety evaluation (Sec. 3.4); this suite tracks the
runs-per-second trajectory of the Fig. 3 CAPS campaign across PRs:

* ``serial`` — the default in-process loop, warm-platform reuse on
  (one elaborated platform; each run restores the latest rung of its
  golden-run ladder before its first injection);
* ``serial-fresh`` — the same campaign with ``reuse_platform=False``,
  isolating what warm reuse buys over per-run elaboration;
* ``parallel`` — the process-pool backend with chunked dispatch.  The
  emitter *always* attempts it when the host can make it meaningful
  (>= 2 CPUs, or ``REPRO_FORCE_POOL=1``) and otherwise records an
  explicit ``skipped: single-cpu`` entry instead of omitting the row;
* ``serial-prefix`` / ``fork`` — the prefix-heavy workload (one shared
  injection time at 50 of 60 ms) on ``RungZeroExecutor``, which
  simulates every run from time 0, and on the default ladder path.

Every non-serial entry carries ``speedup_vs_serial``; the CI
perf-smoke step (``perf_smoke.py``) compares a fresh serial
measurement against the committed JSON and fails on a >30%
regression.
"""

import os

import pytest

from _workloads import (
    CPUS,
    POOL_OK,
    campaign_bench_entry,
    emit_campaign_bench,
    median_speedup,
    skipped_entry,
    timed_campaign,
    timed_fork_campaign,
)

THROUGHPUT_RUNS = 60
FORK_RUNS = 128
FORK_BATCH = 64
SPEEDUP_RUNS = 160
SPEEDUP_WORKERS = 4
PARALLEL_WORKERS = min(4, max(2, CPUS))


def canonical_histograms(*results):
    return [r.outcome_histogram() for r in results]


def test_campaign_backend_throughput_json():
    """Emit BENCH_campaign.json: serial (warm), serial-fresh, parallel."""
    serial, serial_wall = timed_campaign("serial", runs=THROUGHPUT_RUNS)
    fresh, fresh_wall = timed_campaign(
        "serial", runs=THROUGHPUT_RUNS, reuse_platform=False
    )
    # Warm reuse must be invisible in results (the equivalence suite
    # pins byte-identity; the emitter re-checks the outcome histogram
    # so a drift can never land in the trajectory unnoticed).
    assert serial.outcome_histogram() == fresh.outcome_histogram()
    entries = [
        campaign_bench_entry("serial", serial, serial_wall, 1),
        campaign_bench_entry("serial-fresh", fresh, fresh_wall, 1),
    ]
    # Clean campaigns must account every run as completed — a silent
    # timeout would inflate runs/sec while degrading the result.
    assert entries[0]["robustness"]["completed"] == serial.runs
    if POOL_OK:
        parallel, parallel_wall = timed_campaign(
            "parallel", runs=THROUGHPUT_RUNS, workers=PARALLEL_WORKERS
        )
        assert parallel.outcome_histogram() == serial.outcome_histogram()
        entries.append(
            campaign_bench_entry(
                "parallel", parallel, parallel_wall, PARALLEL_WORKERS
            )
        )
    else:
        entries.append(skipped_entry("parallel", "single-cpu"))
    # Fork rows: the prefix-heavy workload (one shared injection time,
    # >= 80% fault-free prefix) simulated from time 0 on every run, and
    # started from the golden-run ladder.  The fork entry's speedup is
    # precomputed against its own baseline — the workloads differ, so
    # the generic vs-"serial" ratio would compare apples to oranges.
    prefix, prefix_wall = timed_fork_campaign(
        FORK_RUNS, ladder=False, batch_size=FORK_BATCH
    )
    forked, forked_wall = timed_fork_campaign(
        FORK_RUNS, ladder=True, batch_size=FORK_BATCH
    )
    assert forked.outcome_histogram() == prefix.outcome_histogram()
    prefix_entry = campaign_bench_entry(
        "serial-prefix", prefix, prefix_wall, 1
    )
    fork_entry = campaign_bench_entry("fork", forked, forked_wall, 1)
    fork_entry["speedup_vs_serial"] = round(
        fork_entry["runs_per_s"] / prefix_entry["runs_per_s"], 2
    )
    entries.extend([prefix_entry, fork_entry])
    path = emit_campaign_bench(entries)
    assert path.exists()


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

    The real speedup target lives in the committed JSON (and is
    enforced against regression by ``perf_smoke.py``); this guard only
    catches the sign being wrong — a reset protocol that got more
    expensive than elaboration itself.  The 0.8 factor absorbs CI
    timer noise."""
    fresh, fresh_wall = timed_campaign(
        "serial", runs=THROUGHPUT_RUNS, reuse_platform=False
    )
    warm, warm_wall = timed_campaign("serial", runs=THROUGHPUT_RUNS)
    assert warm.outcome_histogram() == fresh.outcome_histogram()
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
    emit_campaign_bench([
        campaign_bench_entry("serial", serial, serial_wall, 1),
        campaign_bench_entry(
            "parallel", parallel, parallel_wall, SPEEDUP_WORKERS
        ),
    ])
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
