"""E2 (Fig. 3) — the closed-loop error effect simulation.

Regenerates the paper's Fig. 3 architecture as a running artifact: the
stressor injects scenario faults through the injectors into the CAPS
virtual prototype, the run is classified against the golden reference,
and coverage is updated.  Benchmarked quantities:

* one full loop iteration (scenario -> simulate -> classify), the
  quantity that bounds campaign throughput;
* a 20-run campaign including coverage update and strategy feedback;
* the always-armed deadline checker's overhead.

``extra_info`` records the outcome distribution — the quantitative
evaluation the paper says repeated stress tests enable.  The backend
speed floors (ladder, warm reuse, pool) live in ``bench_campaign.py``;
``perfbench/`` measures the campaign's absolute rates.
"""

from repro.core import (
    FaultSpaceCoverage,
    Outcome,
    RandomStrategy,
)

from _workloads import (
    airbag_campaign,
    airbag_space,
)


def test_fig3_single_loop_iteration(benchmark):
    campaign = airbag_campaign()
    campaign.golden()  # prime the cache: measure the loop, not setup
    space = airbag_space()
    strategy = RandomStrategy(space, faults_per_scenario=1)
    import random

    rng = random.Random(0)
    scenarios = [strategy.next_scenario(rng) for _ in range(200)]
    state = {"i": 0}

    def one_iteration():
        scenario = scenarios[state["i"] % len(scenarios)]
        state["i"] += 1
        return campaign.execute_scenario(scenario, run_seed=state["i"])

    outcome, labels, obs, applied = benchmark(one_iteration)
    assert applied >= 1


def test_fig3_campaign_of_20(benchmark):
    def run_campaign():
        campaign = airbag_campaign()
        space = airbag_space()
        coverage = FaultSpaceCoverage(space)
        strategy = RandomStrategy(space, faults_per_scenario=1)
        result = campaign.run(strategy, runs=20, coverage=coverage)
        return result, coverage

    result, coverage = benchmark(run_campaign)
    assert result.runs == 20
    # Single faults never violate the safety goal on this platform.
    assert result.count(Outcome.HAZARDOUS) == 0
    histogram = result.outcome_histogram()
    benchmark.extra_info["outcomes"] = {
        outcome.name: count for outcome, count in histogram.items() if count
    }
    benchmark.extra_info["fault_space_closure"] = round(coverage.closure, 2)
    benchmark.extra_info["kernel"] = result.report().get("kernel")


def test_fig3_deadline_check_overhead(benchmark):
    """The per-run wall-clock deadline is enforced inside the kernel
    loop (a ``perf_counter`` check every 256 process steps), so armed
    campaigns pay a small per-run tax even when no run times out.
    This benchmark keeps that tax visible: it is the same 20-run
    campaign as above, but with a deadline armed that never fires."""

    def run_campaign():
        campaign = airbag_campaign()
        strategy = RandomStrategy(airbag_space(), faults_per_scenario=1)
        return campaign.run(strategy, runs=20, run_timeout_s=60.0)

    result = benchmark(run_campaign)
    assert result.runs == 20
    # The deadline must never fire on this workload: any timed-out run
    # here means the checker is broken, not the platform slow.
    assert result.timed_out == 0 and result.terminally_failed == 0
    benchmark.extra_info["robustness"] = result.report().get(
        "robustness", {"completed": result.runs}
    )
