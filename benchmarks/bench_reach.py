"""E20 — pricing static reach analysis and the pruning payoff.

Two claims to keep honest:

* **Analysis is cheap.** The structural reach analysis runs once per
  platform, before any campaign; its wall time must stay negligible
  next to even a handful of simulation runs.  The bench times
  :func:`repro.analyze.reach.analyze_platform` on every built-in
  (pytest-benchmark).
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

import pytest

from repro.analyze.reach import ReachabilityPruner, analyze_platform
from repro.core import Campaign, Outcome, RandomStrategy
from repro.core.scenario import FaultSpace
from repro.faults import SRAM_SEU
from repro.hw.memory import Memory
from repro.kernel import Simulator, simtime
from repro.platforms import airbag, registry

from _workloads import STUCK_HIGH

PLATFORMS = (
    "airbag-normal", "airbag-crash", "acc", "steering", "hostile-dut",
)

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


@pytest.mark.parametrize("name", PLATFORMS)
def test_reach_analysis_cost(benchmark, name):
    report = benchmark(analyze_platform, name)
    benchmark.extra_info["sites"] = len(report.sites)
    benchmark.extra_info["graph_edges"] = report.graph.edge_count


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
    return campaign.run(islanded_strategy(), runs=RUNS, prune=prune)


def hazards_per_1k_executed(result):
    return 1000.0 * result.count(Outcome.HAZARDOUS) / (
        result.runs - result.pruned
    )


def test_reach_pruning_efficiency():
    baseline = run_campaign()
    pruner = ReachabilityPruner.for_platform(ISLANDED_KEY)
    assert pruner.dead, "bench workload must expose dead sites"
    pruned = run_campaign(prune=pruner)

    # Pruning must not change what was found — only what was paid.
    assert pruned.count(Outcome.HAZARDOUS) == baseline.count(
        Outcome.HAZARDOUS
    )
    assert pruned.runs == baseline.runs
    assert pruned.pruned > 0

    pruned_rate = hazards_per_1k_executed(pruned)
    base_rate = hazards_per_1k_executed(baseline)
    ratio = pruned_rate / base_rate
    assert ratio >= EFFICIENCY_FLOOR, (
        f"pruned campaign found {pruned_rate:.3f} hazards/1k executed vs "
        f"{base_rate:.3f} unpruned — ratio {ratio:.2f} under the "
        f"{EFFICIENCY_FLOOR}x floor"
    )
