"""E13 — observability overhead on the Fig. 3 campaign loop.

Tracing is only admissible if it does not distort the experiment it
observes.  This suite runs the three trace modes on the same seeded
CAPS campaign:

* ``off`` — no recorder armed;
* ``digest`` — bounded rings + event digest riding ``RunOutcome``
  (the always-on candidate; budget: <= 15% CPU-time overhead over
  off, the median of 31 alternating pairs after an untimed warm-up —
  process CPU time, which other processes on a shared host do not
  inflate the way they inflate wall time);
* ``full`` — digest plus per-run JSONL spill to disk (the debugging
  mode, checked for content, not budgeted).
"""

import time

from repro.core import RandomStrategy, TraceConfig

from _workloads import airbag_campaign, airbag_space, median_speedup

RUNS = 40
DIGEST_OVERHEAD_BUDGET = 0.15
#: A 40-run trial takes 25-45 ms of CPU, and a shared host's speed
#: shifts for longer than that: on a shared 2-CPU host, with a ~5%
#: overhead, the median of 5 pairs read over the budget in 5 of 30
#: measurements, of 15 pairs in 1 of 45, of 31 pairs in none of 15
#: (at most 6.5%).
PAIRS = 31


def timed_campaign(trace):
    """One seeded CAPS campaign; returns (result, cpu_s)."""
    campaign = airbag_campaign()
    campaign.golden()  # prime outside the timed region for every mode
    if trace is not None:
        campaign.golden_signals()  # ditto for the trace reference
    strategy = RandomStrategy(airbag_space(), faults_per_scenario=1)
    start = time.process_time()
    result = campaign.run(strategy, runs=RUNS, trace=trace)
    return result, time.process_time() - start


def test_digest_trace_overhead_budget(tmp_path):
    # The content runs double as the untimed warm-up of each mode.
    off_result, _ = timed_campaign(None)
    digest_result, _ = timed_campaign(TraceConfig())
    full_config = TraceConfig(mode="full", spill_dir=str(tmp_path))
    full_result, _ = timed_campaign(full_config)

    # Tracing must be observational: outcomes are untouched.
    assert (
        digest_result.outcome_histogram() == off_result.outcome_histogram()
    )
    assert (
        full_result.outcome_histogram() == off_result.outcome_histogram()
    )
    # Digest mode delivers: every record carries one.
    assert len(digest_result.digests()) == RUNS
    # Full mode spilled one JSONL per run.
    assert len(list(tmp_path.glob("run-*.jsonl"))) >= RUNS

    # Digest CPU time over off CPU time: 1 + the overhead.
    ratio = median_speedup(
        lambda: timed_campaign(TraceConfig())[1],
        lambda: timed_campaign(None)[1],
        pairs=PAIRS,
    )
    digest_overhead = ratio - 1.0
    assert digest_overhead <= DIGEST_OVERHEAD_BUDGET, (
        f"digest tracing costs {digest_overhead:.1%} CPU time over "
        f"tracing off (median of {PAIRS} pairs; budget "
        f"{DIGEST_OVERHEAD_BUDGET:.0%})"
    )


def test_digest_only_campaign_loop(benchmark):
    """pytest-benchmark view of the digest-mode loop, comparable to
    ``test_fig3_campaign_of_20`` (same workload, tracing on)."""

    def run_campaign():
        campaign = airbag_campaign()
        strategy = RandomStrategy(airbag_space(), faults_per_scenario=1)
        return campaign.run(strategy, runs=20, trace=True)

    result = benchmark(run_campaign)
    assert result.runs == 20
    assert len(result.digests()) == 20
    graph = result.propagation()
    benchmark.extra_info["traced_runs"] = graph.runs
    benchmark.extra_info["detection_mechanisms"] = sorted(
        graph.detection_latencies
    )
