"""CI perf smoke: guard serial campaign throughput against regression.

Runs the Fig. 3 CAPS campaign serially at a reduced run count and
compares the measured runs/sec against the ``"serial"`` entry of the
*committed* ``BENCH_campaign.json``.  Exits non-zero when throughput
regressed by more than the tolerance (default 30%), so a PR that
quietly loses the warm-reuse / scheduler fast paths fails CI instead
of shipping.  Further *ratio* guards ride along (ratios transfer
across hosts): the golden-run ladder's speedup over simulating every
run from time 0 on the prefix-heavy and the sampled risk workloads
(the median of 5 alternating trial pairs each), the loopback-cluster
speedup, and the gate vector-engine speedup on the alu8 fault
enumeration, all against their committed JSON rows.

Environment knobs:

* ``REPRO_PERF_SMOKE_RUNS`` — campaign length (default 40; small
  enough for CI, large enough to amortize interpreter warm-up);
* ``REPRO_PERF_TOLERANCE`` — allowed fractional regression (default
  ``0.30``).  CI runners are noisy; the tolerance is a tripwire for
  real regressions (the hot path got O(n) slower), not a +-5% gate.

Usage::

    cd benchmarks && PYTHONPATH=../src python perf_smoke.py
"""

import json
import os
import subprocess
import sys

from _workloads import (
    CAMPAIGN_BENCH_PATH,
    DIST_BENCH_PATH,
    GATE_BENCH_PATH,
    POOL_OK,
    RISK_BENCH_PATH,
    median_speedup,
    timed_campaign,
    timed_distributed_campaign,
    timed_fork_campaign,
    timed_gate_campaign,
    timed_risk_campaign,
)


def committed_text(path) -> str:
    """The committed JSON, not the working-tree file.

    A bench run earlier in the same CI job may already have rewritten
    the JSON with this runner's own numbers — comparing against those
    would make the smoke test compare a measurement with itself.
    ``git show HEAD:`` pins the committed baseline; the working-tree
    file is only a fallback outside a git checkout.
    """
    try:
        return subprocess.run(
            ["git", "show", f"HEAD:benchmarks/{path.name}"],
            cwd=path.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return path.read_text()


def committed_baseline_text() -> str:
    return committed_text(CAMPAIGN_BENCH_PATH)


def committed_serial_rate() -> float:
    payload = json.loads(committed_baseline_text())
    for entry in payload["entries"]:
        if entry.get("backend") == "serial" and not entry.get("skipped"):
            rate = entry.get("runs_per_s")
            if rate:
                return float(rate)
    raise SystemExit(
        f"no measured serial entry in {CAMPAIGN_BENCH_PATH}; "
        f"regenerate it with bench_campaign.py"
    )


def committed_fork_speedup() -> float:
    """The committed ``fork`` row's speedup over its serial baseline.

    ``None``-safe by construction: a baseline without a fork row (or
    with the row skipped) fails loudly — the row is part of the bench
    contract once fork execution exists."""
    payload = json.loads(committed_baseline_text())
    for entry in payload["entries"]:
        if entry.get("backend") == "fork" and not entry.get("skipped"):
            speedup = entry.get("speedup_vs_serial")
            if speedup:
                return float(speedup)
    raise SystemExit(
        f"no measured fork entry in {CAMPAIGN_BENCH_PATH}; "
        f"regenerate it with bench_campaign.py"
    )


def committed_gate_speedup() -> float:
    """The committed worst-circuit vector-vs-scalar speedup.

    The acceptance block is part of the ``BENCH_gate.json`` contract;
    a baseline without it fails loudly rather than skipping the guard.
    """
    payload = json.loads(committed_text(GATE_BENCH_PATH))
    speedup = payload.get("acceptance", {}).get("worst_speedup")
    if speedup:
        return float(speedup)
    raise SystemExit(
        f"no acceptance speedup in {GATE_BENCH_PATH}; "
        f"regenerate it with bench_gate_vector.py"
    )


def committed_risk_speedup() -> float:
    """The committed risk-engine ``fork`` row's speedup over serial.

    Part of the ``BENCH_risk.json`` contract once the risk engine
    exists; a baseline without the row fails loudly."""
    payload = json.loads(committed_text(RISK_BENCH_PATH))
    for entry in payload["entries"]:
        if entry.get("backend") == "fork" and not entry.get("skipped"):
            speedup = entry.get("speedup_vs_serial")
            if speedup:
                return float(speedup)
    raise SystemExit(
        f"no measured fork entry in {RISK_BENCH_PATH}; "
        f"regenerate it with bench_risk_engine.py"
    )


def distributed_guard(tolerance: float, runs: int) -> int:
    """Guard the loopback-cluster speedup *ratio* over serial.

    A scheduling regression — steal quantum stuck at the full chunk,
    leases serialized behind one worker, frame churn on the hot path —
    collapses the measured ratio toward (or below) 1x and fails here.
    Explicitly skipped, not silent, when either side cannot measure:
    a single-CPU host, or a committed baseline whose distributed row
    is itself a ``skipped`` entry (the BENCH_risk convention)."""
    payload = json.loads(committed_text(DIST_BENCH_PATH))
    entry = next(
        (
            e for e in payload.get("entries", [])
            if e.get("backend") == "distributed"
        ),
        None,
    )
    if entry is None:
        raise SystemExit(
            f"no distributed entry in {DIST_BENCH_PATH}; "
            f"regenerate it with bench_distributed.py"
        )
    if entry.get("skipped"):
        print(
            f"perf-smoke: distributed speedup guard skipped "
            f"(committed baseline row skipped: {entry['skipped']})"
        )
        return 0
    if not POOL_OK:
        print(
            "perf-smoke: distributed speedup guard skipped (single-cpu "
            "host; set REPRO_FORCE_POOL=1 to force)"
        )
        return 0
    baseline = float(entry["speedup_vs_serial"])
    _, serial_wall = timed_campaign("serial", runs=runs, batch_size=runs)
    _, dist_wall = timed_distributed_campaign(runs, workers=4)
    speedup = serial_wall / dist_wall
    floor = baseline * (1.0 - tolerance)
    verdict = "ok" if speedup >= floor else "REGRESSION"
    print(
        f"perf-smoke: distributed speedup {speedup:.2f}x over {runs} "
        f"runs on a 4-worker loopback cluster (committed "
        f"{baseline:.2f}x, floor {floor:.2f}x at -{tolerance:.0%}): "
        f"{verdict}"
    )
    if speedup < floor:
        print(
            "distributed-backend speedup regressed beyond tolerance; "
            "if intentional, regenerate BENCH_distributed.json via "
            "bench_distributed.py and commit it with the change",
            file=sys.stderr,
        )
        return 1
    return 0


def risk_engine_guard(tolerance: float, runs: int) -> int:
    """Guard the sampled campaign's ladder speedup *ratio* over the
    rung-0 baseline (every run simulated from time 0).

    The risk strategy adds per-sample environment drawing and stressor
    re-derivation to every planned run; if that planning work quietly
    became O(catalog) slower — or the ladder stopped skipping the
    pinned injection time's prefix — the measured ratio collapses
    toward 1x and fails here, on any host."""
    baseline = committed_risk_speedup()
    speedup = median_speedup(
        lambda: timed_risk_campaign(runs, ladder=False)[2],
        lambda: timed_risk_campaign(runs, ladder=True)[2],
    )
    floor = baseline * (1.0 - tolerance)
    verdict = "ok" if speedup >= floor else "REGRESSION"
    print(
        f"perf-smoke: risk ladder speedup {speedup:.2f}x over {runs} "
        f"sampled runs (median of 5 pairs; committed {baseline:.2f}x, "
        f"floor {floor:.2f}x at -{tolerance:.0%}): {verdict}"
    )
    if speedup < floor:
        print(
            "risk-engine ladder speedup regressed beyond tolerance; "
            "if intentional, regenerate BENCH_risk.json via "
            "bench_risk_engine.py and commit it with the change",
            file=sys.stderr,
        )
        return 1
    return 0


def gate_vector_guard(tolerance: float) -> int:
    """Guard the gate engine's speedup *ratio* — ratios transfer
    across hosts.  A vector path that quietly degenerated to per-site
    scalar execution measures ~1x and fails here."""
    baseline = committed_gate_speedup()
    # Warm-up absorbs numpy import and program-compile costs.
    timed_gate_campaign("vector", "alu8", runs_per_site=1)
    _, _, _, scalar_wall = timed_gate_campaign(
        "scalar", "alu8", runs_per_site=2
    )
    _, _, _, vector_wall = timed_gate_campaign(
        "vector", "alu8", runs_per_site=2
    )
    speedup = scalar_wall / vector_wall
    floor = baseline * (1.0 - tolerance)
    verdict = "ok" if speedup >= floor else "REGRESSION"
    print(
        f"perf-smoke: gate vector speedup {speedup:.1f}x on the alu8 "
        f"enumeration (committed {baseline:.1f}x, floor {floor:.1f}x "
        f"at -{tolerance:.0%}): {verdict}"
    )
    if speedup < floor:
        print(
            "gate vector-engine speedup regressed beyond tolerance; "
            "if intentional, regenerate BENCH_gate.json via "
            "bench_gate_vector.py and commit it with the change",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> int:
    runs = int(os.environ.get("REPRO_PERF_SMOKE_RUNS", "40"))
    tolerance = float(os.environ.get("REPRO_PERF_TOLERANCE", "0.30"))
    baseline = committed_serial_rate()

    # One untimed warm-up campaign absorbs import costs, ECC table
    # construction, and platform elaboration, then the measured
    # campaign sees the same steady state the committed number did.
    timed_campaign("serial", runs=min(runs, 10))
    result, wall = timed_campaign("serial", runs=runs)
    measured = result.runs / wall

    floor = baseline * (1.0 - tolerance)
    verdict = "ok" if measured >= floor else "REGRESSION"
    print(
        f"perf-smoke: serial {measured:.1f} runs/s over {result.runs} runs "
        f"(committed baseline {baseline:.1f}, floor {floor:.1f} at "
        f"-{tolerance:.0%}): {verdict}"
    )
    if measured < floor:
        print(
            "serial campaign throughput regressed beyond tolerance; "
            "if intentional, regenerate BENCH_campaign.json via "
            "bench_campaign.py and commit it with the change",
            file=sys.stderr,
        )
        return 1

    # Ladder guard: the *speedup ratio* of the prefix-heavy workload
    # over the rung-0 baseline, not an absolute rate — ratios transfer
    # across hosts, so the same tolerance applies.  A ladder that
    # silently stopped skipping the prefix measures ~1.0 and fails here.
    fork_baseline = committed_fork_speedup()
    fork_speedup = median_speedup(
        lambda: timed_fork_campaign(runs, ladder=False, batch_size=runs)[1],
        lambda: timed_fork_campaign(runs, ladder=True, batch_size=runs)[1],
    )
    fork_floor = fork_baseline * (1.0 - tolerance)
    fork_verdict = "ok" if fork_speedup >= fork_floor else "REGRESSION"
    print(
        f"perf-smoke: ladder speedup {fork_speedup:.2f}x over {runs} "
        f"runs (median of 5 pairs; committed {fork_baseline:.2f}x, floor "
        f"{fork_floor:.2f}x at -{tolerance:.0%}): {fork_verdict}"
    )
    if fork_speedup < fork_floor:
        print(
            "golden-run ladder speedup regressed beyond tolerance; "
            "if intentional, regenerate BENCH_campaign.json via "
            "bench_campaign.py and commit it with the change",
            file=sys.stderr,
        )
        return 1

    # Risk-engine guard: the sampled campaign's fork ratio — catches
    # per-sample planning work swamping execution.
    if risk_engine_guard(tolerance, runs=max(runs, 64)):
        return 1

    # Distributed-backend guard: the loopback-cluster speedup ratio.
    if distributed_guard(tolerance, runs=max(runs, 160)):
        return 1

    # Gate vector-engine guard: same ratio logic as fork.
    return gate_vector_guard(tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
