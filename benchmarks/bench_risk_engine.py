"""Risk-engine speed floor (E18).

The Monte Carlo risk engine pays for per-sample environment drawing
(Cholesky-correlated trajectories plus the per-sample Fig. 2 stressor
re-derivation) on top of a plain campaign.  perfbench's risk-sampled
measures the sampled campaign's rate itself; this suite keeps the
ratio floor: on the sampled stream, whose injection instant is pinned
so whole batches share one batch rung, the golden-run ladder must beat
``RungZeroExecutor`` (every run simulated from time 0) by >= 1.80x,
and both must fold to a byte-identical ``RiskReport.canonical()``.
"""

from _workloads import median_speedup, timed_risk_campaign

ACCEPT_RUNS = 256
REPEAT_RUNS = 200
MIN_SPEEDUP = 1.80


def test_risk_fork_speedup_acceptance():
    """The golden-run ladder must still pay off under per-sample
    derivation.

    The sampled strategy does strictly more planning work per run than
    the plain prefix workload; the acceptance floor is therefore lower
    than the raw fork bound (3x) but must stay clearly above break-even
    — a regression that made sampling dominate execution shows up here.
    The floor holds for the median of 5 alternating trial pairs, and
    every trial of either side folds to the same canonical report.
    """
    reports = set()

    def trial(ladder):
        report, wall = timed_risk_campaign(ACCEPT_RUNS, ladder=ladder)
        reports.add(report.canonical())
        return wall

    speedup = median_speedup(lambda: trial(False), lambda: trial(True))
    assert len(reports) == 1, "the ladder changed the folded risk report"
    assert speedup >= MIN_SPEEDUP, (
        f"risk ladder vs rung-0 median speedup {speedup:.2f}x over "
        f"{ACCEPT_RUNS} runs (floor {MIN_SPEEDUP}x)"
    )


def test_risk_repeat_campaign_is_byte_identical():
    """Same seeds, same canonical report — the determinism contract
    holds at bench scale, not just at the test suite's 24 runs."""
    first, _ = timed_risk_campaign(REPEAT_RUNS)
    second, _ = timed_risk_campaign(REPEAT_RUNS)
    assert first.canonical() == second.canonical()
