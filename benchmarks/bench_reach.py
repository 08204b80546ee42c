"""E20 — pricing static reach analysis and the pruning payoff.

Two claims to keep honest:

* **Analysis is cheap.** The structural reach analysis runs once per
  platform, before any campaign; its wall time must stay negligible
  next to even a handful of simulation runs.  The bench times
  :func:`repro.analyze.reach.analyze_platform` on every built-in.
* **Pruning buys hazard-finding efficiency.** On a dead-site-heavy
  platform (the CAPS airbag with six provisioned-but-unwired spare
  SRAM banks — two thirds of the SEU fault space is statically dead),
  a reachability-pruned campaign finds the *same* hazards while
  executing far fewer runs.  The metric is hazards found per 1k
  *executed* runs; the acceptance floor is a 1.2x improvement, well
  under the ~1.8x the 44%-dead two-fault workload predicts but enough
  to fail loudly if pruning ever stops pruning.

Soundness is not re-proven here (tests/analyze/test_reach_soundness.py
and test_prune_equivalence.py own that); the bench does assert the
pruned campaign found the identical hazard count, since a cheaper
campaign that misses hazards would be worse than useless.
"""
# vp-lint: disable-file=VP005 - benchmark: wall-clock timing is the measurement, not model behavior

import json
import pathlib
import time

from repro.analyze.reach import ReachabilityPruner, analyze_platform
from repro.core import Campaign, Outcome, RandomStrategy
from repro.core.scenario import FaultSpace
from repro.faults import SRAM_SEU
from repro.hw.memory import Memory
from repro.kernel import Simulator, simtime
from repro.platforms import airbag, registry

from _workloads import STUCK_HIGH

REACH_BENCH_PATH = pathlib.Path(__file__).parent / "BENCH_reach.json"

PLATFORMS = (
    "airbag-normal", "airbag-crash", "acc", "steering", "hostile-dut",
)
ANALYSIS_REPEATS = 3

ISLANDED_KEY = "airbag-islands-bench"
SPARES = 6
RUNS = 300
SEED = 7
#: Acceptance floor for hazards-per-1k-executed improvement.
EFFICIENCY_FLOOR = 1.2


def build_islanded(sim):
    platform = airbag.build_normal_operation(sim)
    for i in range(SPARES):
        # Unreferenced spare banks: statically-dead SEU sites that
        # dominate the memory side of the fault space.
        Memory(f"spare{i}", parent=platform, size=8)
    return platform


registry.register_platform(
    ISLANDED_KEY,
    build_islanded,
    airbag.observe,
    airbag.normal_operation_classifier,
    description="CAPS airbag plus dead spare SRAM banks (E20 workload)",
    reach_surface=airbag.reach_surface,
    replace=True,
)


def timed_analysis(name):
    best = None
    for _ in range(ANALYSIS_REPEATS):
        start = time.perf_counter()
        report = analyze_platform(name)
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
    return report, best


def islanded_strategy():
    space = FaultSpace(
        build_islanded(Simulator()),
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )
    return RandomStrategy(space, faults_per_scenario=2)


def run_campaign(prune=None):
    campaign = Campaign(
        duration=simtime.ms(60), seed=SEED, platform=ISLANDED_KEY,
    )
    campaign.golden()
    start = time.perf_counter()
    result = campaign.run(islanded_strategy(), runs=RUNS, prune=prune)
    wall = time.perf_counter() - start
    return result, wall


def campaign_entry(label, result, wall):
    executed = result.runs - result.pruned
    hazards = result.count(Outcome.HAZARDOUS)
    return {
        "mode": label,
        "planned_runs": result.runs,
        "executed_runs": executed,
        "pruned_runs": result.pruned,
        "hazards": hazards,
        "hazards_per_1k_executed": round(
            1000.0 * hazards / executed, 3
        ) if executed else None,
        "wall_s": round(wall, 4),
    }


def test_reach_bench_json():
    analysis_rows = []
    for name in PLATFORMS:
        report, wall = timed_analysis(name)
        analysis_rows.append({
            "platform": name,
            "wall_s": round(wall, 5),
            "sites": len(report.sites),
            "graph_nodes": len(report.graph.nodes),
            "graph_edges": report.graph.edge_count,
            "surface_known": report.surface_known,
        })

    baseline, base_wall = run_campaign()
    pruner = ReachabilityPruner.for_platform(ISLANDED_KEY)
    assert pruner.dead, "bench workload must expose dead sites"
    pruned, pruned_wall = run_campaign(prune=pruner)

    base_entry = campaign_entry("unpruned", baseline, base_wall)
    pruned_entry = campaign_entry("pruned", pruned, pruned_wall)

    # Pruning must not change what was found — only what was paid.
    assert pruned_entry["hazards"] == base_entry["hazards"]
    assert pruned_entry["planned_runs"] == base_entry["planned_runs"]
    assert pruned_entry["pruned_runs"] > 0

    ratio = (
        pruned_entry["hazards_per_1k_executed"]
        / base_entry["hazards_per_1k_executed"]
    )
    payload = {
        "experiment": "reach_pruning",
        "analysis": analysis_rows,
        "pruning_workload": {
            "platform": ISLANDED_KEY,
            "spare_banks": SPARES,
            "dead_sites": sorted(pruner.dead),
            "runs": RUNS,
            "faults_per_scenario": 2,
            "seed": SEED,
        },
        "campaigns": [base_entry, pruned_entry],
        "efficiency_ratio": round(ratio, 3),
        "efficiency_floor": EFFICIENCY_FLOOR,
    }
    REACH_BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert ratio >= EFFICIENCY_FLOOR, (
        f"pruned campaign found {pruned_entry['hazards_per_1k_executed']} "
        f"hazards/1k executed vs {base_entry['hazards_per_1k_executed']} "
        f"unpruned — ratio {ratio:.2f} under the {EFFICIENCY_FLOOR}x floor"
    )
