"""Risk-engine throughput — the ``BENCH_risk.json`` emitter (E18).

The Monte Carlo risk engine pays two costs on top of a plain campaign:
per-sample environment drawing (Cholesky-correlated trajectories plus
the per-sample Fig. 2 stressor re-derivation) and the report fold
(interval pairs, tail metrics, ASIL gates).  This suite measures the
1k-sample mission campaign on the backends that matter:

* ``serial`` — the sampled stream on ``RungZeroExecutor``, which
  simulates every run from time 0;
* ``fork`` — the same stream on the default path, where each run
  starts from the golden-run ladder (the sampled strategy pins the
  injection instant, so whole batches share one batch rung exactly
  like the plain fork workload);
* ``parallel`` — the process pool, attempted when the host can make
  it meaningful (>= 2 CPUs or ``REPRO_FORCE_POOL=1``) and recorded as
  an explicit ``skipped`` row otherwise.

Every emission re-checks the content contract before writing numbers:
all measured backends must produce byte-identical
``RiskReport.canonical()`` output, whose sha is committed alongside
the throughput rows.  ``REPRO_RISK_BENCH_RUNS`` shrinks the campaign
for CI smoke runs.
"""

import hashlib
import os

from _workloads import (
    CPUS,
    POOL_OK,
    campaign_bench_entry,
    emit_risk_bench,
    median_speedup,
    skipped_entry,
    timed_risk_campaign,
)

RISK_RUNS = int(os.environ.get("REPRO_RISK_BENCH_RUNS", "1000"))
PARALLEL_WORKERS = min(4, max(2, CPUS))


def _entry(label, result, wall, workers, report_wall):
    entry = campaign_bench_entry(label, result, wall, workers)
    entry["report_s"] = round(report_wall, 4)
    return entry


def test_risk_engine_throughput_json():
    """Emit BENCH_risk.json: 1k-sample serial vs fork (+ parallel)."""
    serial_report, serial, serial_wall, serial_report_wall = (
        timed_risk_campaign(RISK_RUNS, ladder=False)
    )
    fork_report, forked, fork_wall, fork_report_wall = timed_risk_campaign(
        RISK_RUNS, ladder=True
    )
    # Content before cost: the ladder must be invisible in the folded
    # report, byte for byte, before its speedup is recorded.
    assert serial_report.canonical() == fork_report.canonical()
    entries = [
        _entry("serial", serial, serial_wall, 1, serial_report_wall),
        _entry("fork", forked, fork_wall, 1, fork_report_wall),
    ]
    assert entries[0]["robustness"]["completed"] == serial.runs
    if POOL_OK:
        pool_report, pooled, pool_wall, pool_report_wall = (
            timed_risk_campaign(
                RISK_RUNS, backend="parallel", workers=PARALLEL_WORKERS
            )
        )
        assert pool_report.canonical() == serial_report.canonical()
        entries.append(
            _entry(
                "parallel", pooled, pool_wall, PARALLEL_WORKERS,
                pool_report_wall,
            )
        )
    else:
        entries.append(skipped_entry("parallel", "single-cpu"))
    sha = hashlib.sha256(
        serial_report.canonical().encode()
    ).hexdigest()[:16]
    path = emit_risk_bench(entries, report_sha=sha)
    assert path.exists()


def test_risk_fork_speedup_acceptance():
    """The golden-run ladder must still pay off under per-sample
    derivation.

    The sampled strategy does strictly more planning work per run than
    the plain prefix workload; the acceptance floor is therefore lower
    than the raw fork bound (3x) but must stay clearly above break-even
    — a regression that made sampling dominate execution shows up here.
    The baseline simulates every run from time 0 (``RungZeroExecutor``);
    the floor holds for the median of 5 alternating trial pairs.
    """
    runs = min(RISK_RUNS, 256)
    speedup = median_speedup(
        lambda: timed_risk_campaign(runs, ladder=False)[2],
        lambda: timed_risk_campaign(runs, ladder=True)[2],
    )
    assert speedup >= 1.5, (
        f"risk ladder vs rung-0 median speedup {speedup:.2f}x over "
        f"{runs} runs"
    )


def test_risk_repeat_emission_is_byte_identical():
    """Same seeds, same canonical report — the determinism contract
    holds at bench scale, not just at the test suite's 24 runs."""
    runs = min(RISK_RUNS, 200)
    first, _, _, _ = timed_risk_campaign(runs)
    second, _, _, _ = timed_risk_campaign(runs)
    assert first.canonical() == second.canonical()
