"""Shared workload builders for the benchmark suite.

Each experiment file (``bench_*.py``) regenerates one figure or claim
of the paper; the builders here keep the platforms consistent across
them.  See DESIGN.md's experiment index (E1-E10) and EXPERIMENTS.md
for the mapping to the paper.
"""
# vp-lint: disable-file=VP005 - benchmark: wall-clock timing is the measurement, not model behavior

from __future__ import annotations

import dataclasses
import os
import random
import statistics
import time
import typing as _t

from repro.core import (
    Campaign,
    ErrorScenario,
    FaultSpace,
    PlannedInjection,
    SerialExecutor,
    Strategy,
)
from repro.core import runspec
from repro.faults import FaultDescriptor, FaultKind, Persistence, SRAM_SEU
from repro.kernel import Simulator, simtime
from repro.platforms import airbag

#: The stuck-high sensor fault used by strategy experiments.
STUCK_HIGH = FaultDescriptor(
    name="sensor_stuck_high",
    kind=FaultKind.STUCK_VALUE,
    persistence=Persistence.PERMANENT,
    params={"value": 4.5},
    rate_per_hour=2e-7,
)

#: Mostly-benign fault classes that pad the fault space — realistic
#: small drifts and a stuck-at-nominal, none of which can push a
#: channel over the deploy threshold on their own.
BENIGN_CATALOG = [
    FaultDescriptor(
        name="sensor_stuck_nominal",
        kind=FaultKind.STUCK_VALUE,
        persistence=Persistence.PERMANENT,
        params={"value": 2.6},
        rate_per_hour=1e-7,
    ),
    FaultDescriptor(
        name="sensor_offset_small",
        kind=FaultKind.OFFSET_DRIFT,
        persistence=Persistence.PERMANENT,
        params={"offset": 0.1},
        rate_per_hour=3e-7,
    ),
    FaultDescriptor(
        name="sensor_gain_small",
        kind=FaultKind.GAIN_DRIFT,
        persistence=Persistence.PERMANENT,
        params={"gain": 1.03},
        rate_per_hour=2e-7,
    ),
]

AIRBAG_DURATION = simtime.ms(60)

#: Injection time of the prefix-heavy fork workload: 50 of 60 ms
#: (>= 80% of every run) is fault-free prefix shared by the whole
#: batch — the shape the golden-run ladder skips.
FORK_INJECT_TIME = simtime.ms(50)

#: The scenario the rung-0 baseline acquires its platform for: with no
#: injection, the warm platform comes back at its elaboration capture.
_NO_FAULTS = ErrorScenario(name="rung-0", injections=[])


class RungZeroExecutor(SerialExecutor):
    """The speed gates' baseline: every run restores the warm
    platform's elaboration capture (rung 0) and simulates from time 0.

    That is the per-run path before the golden-run ladder, so the fork
    and risk gates still compare skipping the fault-free prefix against
    simulating it, now that the default path skips it too.  Records are
    byte-identical to the ladder's.
    """

    def __init__(self, platform: str = "airbag-normal"):
        from repro.platforms import registry

        bundle = registry.get_platform(platform)
        super().__init__(
            bundle.factory, bundle.observe, registry.get_classifier(platform)
        )

    def _run_one(self, spec):
        wall_start = time.perf_counter()
        sim, root, rung = runspec._acquire_platform(
            dataclasses.replace(spec, scenario=_NO_FAULTS), self.factory
        )
        return runspec._run(
            spec, sim, root, self.observe, self.classifier, None, None,
            wall_start, rung,
        )


def median_speedup(
    baseline: _t.Callable[[], float],
    candidate: _t.Callable[[], float],
    pairs: int = 5,
) -> float:
    """The median over *pairs* alternating trial pairs of baseline
    seconds over candidate seconds, each callable timing one trial: on
    a shared host one trial's ratio swings by tens of percent, a median
    of pairs far less."""
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            candidate_s = candidate()
            baseline_s = baseline()
        else:
            baseline_s = baseline()
            candidate_s = candidate()
        ratios.append(baseline_s / candidate_s)
    return statistics.median(ratios)


def airbag_campaign(seed: int = 7) -> Campaign:
    # Registry-backed so the same campaign can run on every executor
    # backend; the key resolves to exactly the CAPS callables above.
    return Campaign(
        duration=AIRBAG_DURATION,
        seed=seed,
        platform="airbag-normal",
    )


def airbag_space(
    time_bins: int = 2, padded: bool = False
) -> FaultSpace:
    """The CAPS fault space.

    ``padded=True`` adds the benign catalog, growing the space so that
    the one hazardous combination (both sensors stuck high) becomes a
    genuine needle in a haystack — the configuration the strategy
    comparison (E5) needs.
    """
    descriptors = [SRAM_SEU.with_rate(5e-7), STUCK_HIGH]
    if padded:
        descriptors += BENIGN_CATALOG
    probe = Simulator()
    return FaultSpace(
        airbag.build_normal_operation(probe),
        descriptors,
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=time_bins,
    )


class PrefixHeavyStrategy(Strategy):
    """Random fault draws at one fixed injection time.

    Every scenario injects at the same instant, so a whole batch
    shares one fault-free prefix and one batch rung of the golden-run
    ladder.  The fault *content* still varies per scenario (uniform
    over the space's injection pairs), so outcomes stay diverse enough
    to exercise the classifier.
    """

    def __init__(self, space: FaultSpace, time: int):
        super().__init__(space, faults_per_scenario=1)
        self.time = time

    def next_scenario(self, rng: random.Random) -> ErrorScenario:
        self.scenario_count += 1
        path, descriptor = self.space.pairs[
            rng.randrange(len(self.space.pairs))
        ]
        return ErrorScenario(
            name=f"prefix-{self.scenario_count}",
            injections=[
                PlannedInjection(
                    time=self.time, target_path=path, descriptor=descriptor
                )
            ],
        )


def timed_fork_campaign(
    runs: int,
    ladder: bool,
    batch_size: int = 32,
    seed: int = 7,
):
    """One seeded prefix-heavy CAPS campaign; returns (result, wall).

    In-process either way: ``ladder`` runs the default serial path,
    which starts every run from the golden-run ladder, and otherwise
    :class:`RungZeroExecutor` simulates every run from time 0 — the
    identical spec stream, so the pair isolates exactly what skipping
    the shared prefix buys.
    """
    campaign = airbag_campaign(seed=seed)
    campaign.golden()
    strategy = PrefixHeavyStrategy(airbag_space(), FORK_INJECT_TIME)
    backend = "serial" if ladder else RungZeroExecutor()
    start = time.perf_counter()
    result = campaign.run(
        strategy, runs=runs, backend=backend, batch_size=batch_size,
    )
    return result, time.perf_counter() - start


CPUS = os.cpu_count() or 1

#: Whether a pool run is meaningful on this host: at least 2 CPUs, or
#: ``REPRO_FORCE_POOL=1`` pinning the pool on regardless.
POOL_OK = CPUS >= 2 or os.environ.get("REPRO_FORCE_POOL") == "1"


def timed_campaign(
    backend: str,
    runs: int,
    workers: _t.Optional[int] = None,
    batch_size: int = 16,
    reuse_platform: bool = True,
    chunk_size: _t.Optional[int] = None,
    seed: int = 7,
):
    """One seeded CAPS campaign on *backend*; returns (result, wall).

    The golden run is primed outside the timed region on every variant
    so the comparison measures the loop, not setup.
    """
    from repro.core import RandomStrategy

    campaign = airbag_campaign(seed=seed)
    campaign.golden()
    strategy = RandomStrategy(airbag_space(), faults_per_scenario=2)
    start = time.perf_counter()
    result = campaign.run(
        strategy, runs=runs, backend=backend, workers=workers,
        batch_size=batch_size,
        reuse_platform=reuse_platform,
        chunk_size=chunk_size,
    )
    return result, time.perf_counter() - start


# -- distributed-backend workloads (E19) -------------------------------------


def timed_distributed_campaign(
    runs: int,
    workers: int = 4,
    batch_size: _t.Optional[int] = None,
    seed: int = 7,
):
    """One seeded CAPS campaign on a loopback LocalCluster; returns
    ``(result, wall)``.

    Cluster spawn and worker warm-up happen *outside* the timed region
    — a short priming campaign on the same executor brings every
    worker process up, imports paid, platform elaborated and cached —
    mirroring how the other timed helpers prime the golden run.  The row
    then measures the distributed loop itself (leases, result frames,
    steal-quantum scheduling), which is the part that must beat
    serial, not interpreter start-up.
    """
    from repro.core import RandomStrategy
    from repro.distributed import DistributedExecutor

    batch_size = batch_size or runs
    executor = DistributedExecutor("airbag-normal", workers=workers)
    try:
        warm_campaign = airbag_campaign(seed=seed + 1)
        warm_campaign.golden()
        warm_runs = workers * 4
        warm_campaign.run(
            RandomStrategy(airbag_space(), faults_per_scenario=2),
            runs=warm_runs, backend=executor, batch_size=warm_runs,
        )
        campaign = airbag_campaign(seed=seed)
        campaign.golden()
        strategy = RandomStrategy(airbag_space(), faults_per_scenario=2)
        start = time.perf_counter()
        result = campaign.run(
            strategy, runs=runs, backend=executor, batch_size=batch_size,
        )
        wall = time.perf_counter() - start
    finally:
        executor.close()
    return result, wall


# -- risk-engine workloads (E18) ---------------------------------------------


def timed_risk_campaign(
    runs: int,
    ladder: bool = True,
    batch_size: int = 64,
    seed: int = 7,
    sampler_seed: int = 11,
):
    """One seeded mission-sampled CAPS campaign; returns
    ``(report, campaign_wall_s)``.

    The strategy draws correlated environment trajectories per run and
    re-derives the stressor spec per sample (the per-sample Fig. 2
    loop), with the injection time pinned to the prefix-heavy instant,
    so the ladder skips the shared fault-free prefix exactly as in the
    plain fork workload; ``ladder=False`` runs the serial spec stream
    on :class:`RungZeroExecutor` instead, which simulates it.  The
    report fold is pure post-processing and stays outside the timed
    region.
    """
    from repro.mission import standard_passenger_car_profile
    from repro.risk import RiskReport, SampledScenarioStrategy, StressSampler

    campaign = airbag_campaign(seed=seed)
    campaign.golden()
    strategy = SampledScenarioStrategy(
        airbag_space(),
        StressSampler(standard_passenger_car_profile(), seed=sampler_seed),
        injection_time=FORK_INJECT_TIME,
    )
    backend = "serial" if ladder else RungZeroExecutor()
    start = time.perf_counter()
    result = campaign.run(
        strategy, runs=runs, backend=backend, batch_size=batch_size,
    )
    campaign_wall = time.perf_counter() - start
    return RiskReport.from_campaign(result, strategy), campaign_wall


def adder_vectors(circuit) -> _t.Callable[[random.Random], dict]:
    """Random input vectors for an 8-bit adder-style circuit."""
    from repro.gate import GateSimulator

    def source(rng: random.Random) -> dict:
        inputs: dict = {}
        inputs.update(GateSimulator.pack(circuit.buses["a"], rng.randrange(256)))
        inputs.update(GateSimulator.pack(circuit.buses["b"], rng.randrange(256)))
        return inputs

    return source


# -- gate-level fault-campaign workloads (E17) -------------------------------

#: The enumeration workloads of the vector-engine acceptance: every
#: (net, kind) site of the two headline circuits, all three fault
#: kinds, shared stimulus vectors.
GATE_CIRCUITS: _t.Dict[str, _t.Callable[[], _t.Any]] = {}


def _gate_circuits() -> _t.Dict[str, _t.Any]:
    from repro.gate import alu, registered_adder

    if not GATE_CIRCUITS:
        GATE_CIRCUITS["alu8"] = alu(8)
        GATE_CIRCUITS["registered_adder8"] = registered_adder(8)
    return GATE_CIRCUITS


def timed_gate_campaign(
    engine: str,
    circuit_name: str = "alu8",
    runs_per_site: int = 4,
    seed: int = 17,
):
    """One full fault-enumeration campaign; returns (profile, outcomes,
    wall_s).

    The workload is the acceptance one: every net x (seu, stuck0,
    stuck1) site of the named circuit, ``runs_per_site`` shared
    vectors, golden-vs-faulty word comparison on the output bus.
    """
    from repro.gate import enumerate_sites, run_campaign
    from repro.gate.faults import FAULT_KINDS

    circuit = _gate_circuits()[circuit_name]
    sites = enumerate_sites(circuit, FAULT_KINDS)
    start = time.perf_counter()
    # vector_source=None: uniform random bits on *every* primary input
    # (including the ALU opcode lines, so the MUX tree gets exercised).
    profile, outcomes = run_campaign(
        circuit,
        "out",
        None,
        sites=sites,
        runs_per_site=runs_per_site,
        seed=seed,
        engine=engine,
    )
    return profile, outcomes, time.perf_counter() - start
