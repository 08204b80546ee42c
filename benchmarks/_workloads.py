"""Shared workload builders for the benchmark suite.

Each experiment file (``bench_*.py``) regenerates one figure or claim
of the paper; the builders here keep the platforms consistent across
them.  See DESIGN.md's experiment index (E1-E10) and EXPERIMENTS.md
for the mapping to the paper.
"""
# vp-lint: disable-file=VP005 - benchmark: wall-clock timing is the measurement, not model behavior

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
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
    """The median over *pairs* alternating trial pairs of baseline wall
    over candidate wall: on a shared host one trial's ratio swings by
    tens of percent, a median of pairs far less."""
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            candidate_wall = candidate()
            baseline_wall = baseline()
        else:
            baseline_wall = baseline()
            candidate_wall = candidate()
        ratios.append(baseline_wall / candidate_wall)
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


#: Where the campaign-throughput trajectory lands, next to the suite.
CAMPAIGN_BENCH_PATH = pathlib.Path(__file__).parent / "BENCH_campaign.json"

CPUS = os.cpu_count() or 1

#: Whether the parallel backend is worth measuring on this host.  The
#: emitter *always* attempts it when this holds — including when
#: ``REPRO_FORCE_POOL=1`` pins the pool on a single-CPU host — and
#: records an explicit ``skipped`` entry otherwise, so a missing
#: parallel measurement is visible in the JSON instead of silent.
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


def campaign_bench_entry(label: str, result, wall_s: float, workers: int):
    """One backend measurement for ``BENCH_campaign.json``.

    ``result`` is a finished :class:`~repro.core.CampaignResult`; the
    per-run kernel counters come from the executor instrumentation, so
    throughput can be compared as *simulation work per second*, not
    just runs per second.
    """
    runs = result.runs
    totals = result.kernel_totals
    per_run = {
        key: (totals[key] / runs if runs else 0)
        for key in ("events", "process_steps", "delta_cycles", "wall_s")
    }
    return {
        "backend": label,
        "workers": workers,
        "runs": runs,
        "wall_s": round(wall_s, 4),
        "runs_per_s": round(runs / wall_s, 2) if wall_s else None,
        "per_run_kernel": {
            "events": round(per_run["events"], 1),
            "process_steps": round(per_run["process_steps"], 1),
            "delta_cycles": round(per_run["delta_cycles"], 1),
            "sim_wall_s": round(per_run["wall_s"], 6),
        },
        "outcomes": {
            outcome.name: count
            for outcome, count in result.outcome_histogram().items()
            if count
        },
        # Fault-tolerance accounting (see CampaignResult.report()):
        # degraded or resumed runs must be visible in the trajectory,
        # otherwise a regression that silently times runs out would
        # read as a throughput *improvement*.
        "robustness": {
            "completed": result.completed,
            "timed_out": result.timed_out,
            "terminally_failed": result.terminally_failed,
            "retried": result.retried,
            "resumed": result.resumed,
        },
    }


def skipped_entry(label: str, reason: str) -> dict:
    """A placeholder entry for a backend this host could not measure.

    An explicit ``{"backend": ..., "skipped": reason}`` row keeps the
    trajectory honest: downstream readers can tell "not measured here"
    apart from "someone dropped the measurement"."""
    return {"backend": label, "skipped": reason}


def emit_campaign_bench(entries: _t.Sequence[dict]) -> pathlib.Path:
    """Write ``BENCH_campaign.json`` so the runs/sec trajectory (and
    the per-backend speedup over serial) is tracked across PRs.

    Every measured non-serial entry gains ``speedup_vs_serial``
    relative to the ``"serial"`` entry of the same emission — unless
    the caller precomputed one (the ``fork`` entry measures a
    different, prefix-heavy workload, so its speedup is taken against
    the matching ``serial-prefix`` row, not the standard campaign)."""
    entries = [dict(e) for e in entries]
    serial = next(
        (
            e for e in entries
            if e["backend"] == "serial" and not e.get("skipped")
        ),
        None,
    )
    if serial and serial.get("runs_per_s"):
        for entry in entries:
            if entry is serial or entry.get("skipped"):
                continue
            if entry.get("runs_per_s") and "speedup_vs_serial" not in entry:
                entry["speedup_vs_serial"] = round(
                    entry["runs_per_s"] / serial["runs_per_s"], 2
                )
    payload: _t.Dict[str, _t.Any] = {"campaign": "fig3-caps-airbag",
                                     "entries": entries}
    parallel = [
        e for e in entries
        if e["backend"].startswith("parallel") and not e.get("skipped")
    ]
    if serial and parallel and serial["runs_per_s"]:
        best = max(e["runs_per_s"] or 0 for e in parallel)
        payload["parallel_speedup"] = round(best / serial["runs_per_s"], 2)
    CAMPAIGN_BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return CAMPAIGN_BENCH_PATH


# -- distributed-backend workloads (E19, BENCH_distributed.json) ------------

DIST_BENCH_PATH = pathlib.Path(__file__).parent / "BENCH_distributed.json"


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
    mirroring how the other emitters prime the golden run.  The row
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


def emit_distributed_bench(
    entries: _t.Sequence[dict], min_speedup: float = 2.0
) -> pathlib.Path:
    """Write ``BENCH_distributed.json``: serial vs loopback-cluster rows
    plus the speedup acceptance.

    The acceptance block records the best measured distributed speedup
    against *min_speedup*; ``"speedup": null`` (skipped row) means the
    emitting host could not measure it — visible, not silent — and the
    ``perf_smoke.py`` guard then skips rather than inventing a ratio.
    """
    entries = [dict(entry) for entry in entries]
    serial = next(
        (
            e for e in entries
            if e["backend"] == "serial" and not e.get("skipped")
        ),
        None,
    )
    if serial and serial.get("runs_per_s"):
        for entry in entries:
            if entry is serial or entry.get("skipped"):
                continue
            if entry.get("runs_per_s") and "speedup_vs_serial" not in entry:
                entry["speedup_vs_serial"] = round(
                    entry["runs_per_s"] / serial["runs_per_s"], 2
                )
    measured = [
        entry["speedup_vs_serial"] for entry in entries
        if entry["backend"].startswith("distributed")
        and not entry.get("skipped")
        and entry.get("speedup_vs_serial")
    ]
    payload = {
        "campaign": "distributed-caps-airbag",
        "entries": entries,
        "acceptance": {
            "min_speedup": min_speedup,
            "speedup": max(measured) if measured else None,
            "met": (max(measured) >= min_speedup) if measured else None,
        },
    }
    DIST_BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return DIST_BENCH_PATH


# -- risk-engine workloads (E18, BENCH_risk.json) ---------------------------

RISK_BENCH_PATH = pathlib.Path(__file__).parent / "BENCH_risk.json"


def timed_risk_campaign(
    runs: int,
    ladder: bool = True,
    backend: str = "serial",
    workers: _t.Optional[int] = None,
    batch_size: int = 64,
    seed: int = 7,
    sampler_seed: int = 11,
):
    """One seeded mission-sampled CAPS campaign; returns
    ``(report, result, campaign_wall_s, report_wall_s)``.

    The strategy draws correlated environment trajectories per run and
    re-derives the stressor spec per sample (the per-sample Fig. 2
    loop), with the injection time pinned to the prefix-heavy instant,
    so the ladder skips the shared fault-free prefix exactly as in the
    plain fork workload; ``ladder=False`` runs the serial spec stream
    on :class:`RungZeroExecutor` instead, which simulates it.  The
    report fold is timed separately — it is pure post-processing and
    must not pollute the backend comparison.
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
    if not ladder:
        backend = RungZeroExecutor()
    start = time.perf_counter()
    result = campaign.run(
        strategy, runs=runs, backend=backend, workers=workers,
        batch_size=batch_size,
    )
    campaign_wall = time.perf_counter() - start
    start = time.perf_counter()
    report = RiskReport.from_campaign(result, strategy)
    report_wall = time.perf_counter() - start
    return report, result, campaign_wall, report_wall


def emit_risk_bench(
    entries: _t.Sequence[dict], report_sha: str
) -> pathlib.Path:
    """Write ``BENCH_risk.json``: per-backend rows plus the canonical
    report fingerprint.

    The sha pins the *content* side of the contract in the same file
    as the throughput numbers: every measured backend in the emission
    produced a byte-identical ``RiskReport.canonical()``, so a reader
    comparing trajectories across PRs can also see at a glance whether
    the sampled campaign itself changed."""
    entries = [dict(entry) for entry in entries]
    serial = next(
        (
            e for e in entries
            if e["backend"] == "serial" and not e.get("skipped")
        ),
        None,
    )
    if serial and serial.get("runs_per_s"):
        for entry in entries:
            if entry is serial or entry.get("skipped"):
                continue
            if entry.get("runs_per_s") and "speedup_vs_serial" not in entry:
                entry["speedup_vs_serial"] = round(
                    entry["runs_per_s"] / serial["runs_per_s"], 2
                )
    payload = {
        "campaign": "risk-engine-sampled-airbag",
        "entries": entries,
        "report_sha": report_sha,
    }
    RISK_BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return RISK_BENCH_PATH


def adder_vectors(circuit) -> _t.Callable[[random.Random], dict]:
    """Random input vectors for an 8-bit adder-style circuit."""
    from repro.gate import GateSimulator

    def source(rng: random.Random) -> dict:
        inputs: dict = {}
        inputs.update(GateSimulator.pack(circuit.buses["a"], rng.randrange(256)))
        inputs.update(GateSimulator.pack(circuit.buses["b"], rng.randrange(256)))
        return inputs

    return source


# -- gate-level fault-campaign workloads (E17, BENCH_gate.json) -------------

GATE_BENCH_PATH = pathlib.Path(__file__).parent / "BENCH_gate.json"

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
    sites, wall_s).

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
    return profile, outcomes, sites, time.perf_counter() - start


def gate_bench_entry(
    circuit_name: str,
    engine: str,
    profile,
    sites,
    runs_per_site: int,
    wall_s: float,
) -> dict:
    """One engine measurement for ``BENCH_gate.json``.

    ``runs`` counts golden-vs-faulty comparisons (sites x vectors) —
    the unit the scalar engine pays one full simulator run for."""
    runs = profile.total
    return {
        "circuit": circuit_name,
        "engine": engine,
        "sites": len(sites),
        "runs_per_site": runs_per_site,
        "runs": runs,
        "wall_s": round(wall_s, 4),
        "runs_per_s": round(runs / wall_s, 1) if wall_s else None,
        "masking_rate": round(profile.masking_rate, 4),
        "multi_bit_fraction": round(profile.multi_bit_fraction, 4),
        "profile_sha": hashlib.sha256(profile.canonical()).hexdigest()[:16],
    }


def emit_gate_bench(
    entries: _t.Sequence[dict], min_speedup: float = 20.0
) -> pathlib.Path:
    """Write ``BENCH_gate.json``: per-circuit scalar/vector rows plus
    the speedup-vs-scalar acceptance.

    Every vector entry gains ``speedup_vs_scalar`` against the scalar
    row of the same circuit; the acceptance block records the worst
    per-circuit speedup against *min_speedup* so the CI guard
    (``perf_smoke.py``) has a committed baseline ratio to compare to.
    """
    entries = [dict(entry) for entry in entries]
    scalar_by_circuit = {
        e["circuit"]: e for e in entries if e["engine"] == "scalar"
    }
    speedups = []
    for entry in entries:
        if entry["engine"] != "vector":
            continue
        scalar = scalar_by_circuit.get(entry["circuit"])
        if scalar and entry["wall_s"]:
            speedup = round(scalar["wall_s"] / entry["wall_s"], 1)
            entry["speedup_vs_scalar"] = speedup
            speedups.append(speedup)
    payload = {
        "campaign": "gate-fault-enumeration",
        "entries": entries,
        "acceptance": {
            "min_speedup": min_speedup,
            "worst_speedup": min(speedups) if speedups else None,
            "met": bool(speedups) and min(speedups) >= min_speedup,
        },
    }
    GATE_BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return GATE_BENCH_PATH
