"""E17 — bit-parallel gate-level fault simulation: the vector engine's
speed floor.

``repro.gate`` compiles netlists to vectorized numpy bitwise ops so one
sweep evaluates 64+ fault scenarios per machine word.  This suite
measures the classic parallel-pattern payoff on the acceptance
workload — full (net x kind) fault enumeration of the 8-bit ALU and
the registered adder, all three fault kinds, shared stimulus vectors —
and re-checks the soundness side in the same breath: the vector
profile must be *byte-identical* to the scalar ground truth before its
speed counts.

Acceptance: vector >= 20x scalar on both circuits, and >= 27.2x on
alu8.  perfbench's gate-enum measures the vector rate itself.
"""

import pytest

from _workloads import timed_gate_campaign

RUNS_PER_SITE = 4
#: Vector-over-scalar floors: 20x on both circuits, 27.2x on alu8.
MIN_SPEEDUP = {"alu8": 27.2, "registered_adder8": 20.0}


def measure(circuit_name, runs_per_site=RUNS_PER_SITE):
    """Scalar wall over vector wall on one enumeration, identical
    profiles and outcomes required."""
    scalar_profile, scalar_outcomes, scalar_wall = timed_gate_campaign(
        "scalar", circuit_name, runs_per_site
    )
    vector_profile, vector_outcomes, vector_wall = timed_gate_campaign(
        "vector", circuit_name, runs_per_site
    )
    # Soundness before speed: a fast wrong engine must never pass.
    assert scalar_profile.canonical() == vector_profile.canonical()
    assert scalar_outcomes == vector_outcomes
    return scalar_wall / vector_wall


@pytest.mark.parametrize("circuit_name", sorted(MIN_SPEEDUP))
def test_gate_vector_speedup_acceptance(circuit_name):
    """The vector engine's fault-campaign throughput over the scalar
    engine on the enumeration workload (best of 2 to shave interpreter
    warm-up noise)."""
    floor = MIN_SPEEDUP[circuit_name]
    best = max(measure(circuit_name) for _ in range(2))
    assert best >= floor, (
        f"{circuit_name}: vector engine only {best:.1f}x over scalar "
        f"(acceptance {floor}x)"
    )


@pytest.mark.parametrize("circuit_name", sorted(MIN_SPEEDUP))
def test_gate_campaign_throughput(benchmark, circuit_name):
    """Headline series: vector-engine comparisons per second."""
    def run():
        profile, _, _ = timed_gate_campaign("vector", circuit_name)
        return profile

    profile = benchmark(run)
    benchmark.extra_info["comparisons"] = profile.total
    assert profile.total > 0
