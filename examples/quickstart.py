#!/usr/bin/env python3
"""Quickstart: build a virtual prototype, run an error-effect campaign.

This walks the whole Fig. 3 loop in ~60 lines of user code:

1. a platform factory building a tiny protected system,
2. an observation function probing its state after a run,
3. a classifier mapping observations to the fault-error-failure lattice,
4. a fault space + strategy,
5. the campaign loop with coverage,
6. the same campaign fanned over a process pool (``backend="parallel"``),
7. a fault-tolerant, resumable variant: per-run wall-clock
   deadlines plus a checkpoint journal that lets an interrupted
   campaign pick up where it stopped,
8. a traced campaign: ``trace=True`` returns per-run fault →
   error → failure digests that fold into a propagation graph with
   fault-to-detection latencies,
9. and snapshot-fork execution (``fork=True``): runs sharing an
   injection time simulate their fault-free prefix once and fork from
   a mid-run kernel snapshot — same results, fraction of the cost.

Run:  python examples/quickstart.py
"""

import os
import time

from repro.core import (
    Campaign,
    ErrorScenario,
    FaultSpace,
    FaultSpaceCoverage,
    Outcome,
    PlannedInjection,
    RandomStrategy,
    build_standard_classifier,
    summarize,
)
from repro.faults import SRAM_SEU
from repro.hw import EccMemory, Memory
from repro.kernel import Module, Simulator, simtime
from repro.platforms import register_platform, registry
from repro.tlm import GenericPayload


def build_platform(sim: Simulator) -> Module:
    """A DMA-style copier moving data from ECC RAM to plain RAM."""
    top = Module("demo", sim=sim)
    source = EccMemory("source", parent=top, size=64)
    source.load(0, bytes(range(64)))
    dest = Memory("dest", parent=top, size=64)
    top.bus_errors = 0

    def copier():
        for address in range(64):
            yield 1000  # 1 us per byte
            read = GenericPayload.read(address, 1)
            source.tsock.deliver(read, 0)
            if not read.ok:
                top.bus_errors += 1  # ECC said uncorrectable: skip byte
                continue
            dest.tsock.deliver(GenericPayload.write(address, read.data), 0)

    top.process(copier(), name="dma")
    return top


def observe(root: Module) -> dict:
    source = root.find("source")
    dest = root.find("dest")
    return {
        "dest_image": bytes(dest.data).hex(),
        "ecc_corrected": source.corrected_errors,
        "ecc_detected": source.detected_errors + root.bus_errors,
    }


def make_classifier():
    return build_standard_classifier(
        value_keys=["dest_image"],          # wrong copied data = SDC
        detection_keys=["ecc_detected"],    # uncorrectable, flagged
        masking_keys=["ecc_corrected"],     # corrected transparently
    )


# Registering the platform by name is what lets parallel workers
# rebuild it in their own processes; registration must run at import
# time so spawned workers see it too.
register_platform(
    "quickstart-dma", build_platform, observe, make_classifier,
    description="ECC RAM -> plain RAM copier from the quickstart",
)


def main() -> None:
    campaign = Campaign(
        duration=70_000,  # 70 us: the full copy
        seed=1,
        platform="quickstart-dma",
    )

    # The fault space: SEUs in *both* memories (ECC-protected source
    # codewords and unprotected destination bytes), any time during
    # the copy.  Expect source flips to be masked and destination
    # flips to surface as silent data corruption.
    probe = Simulator()
    space = FaultSpace(
        build_platform(probe),
        [SRAM_SEU],
        window_start=0,
        window_end=70_000,
        time_bins=4,
    )
    coverage = FaultSpaceCoverage(space)

    # Single-fault Monte Carlo: everything should be masked (ECC
    # corrects single flips) except flips in bytes already copied.
    single = campaign.run(
        RandomStrategy(space, faults_per_scenario=1), runs=50,
        coverage=coverage,
    )
    print("=== single-fault campaign ===")
    print(summarize(single))

    # Double faults: two flips can land in one codeword -> detected,
    # or corrupt two different words.
    double = campaign.run(
        RandomStrategy(space, faults_per_scenario=2), runs=50,
    )
    print("\n=== double-fault campaign ===")
    print(summarize(double))

    # The same seeded campaign through the process-pool backend: the
    # planner freezes each run into a picklable RunSpec, workers
    # rebuild "quickstart-dma" from the registry, and the aggregated
    # result is identical to the serial one (same seed + batch size).
    workers = min(4, os.cpu_count() or 1) or 1
    serial = campaign.run(
        RandomStrategy(space, faults_per_scenario=1), runs=40,
        batch_size=2 * workers,
    )
    parallel = campaign.run(
        RandomStrategy(space, faults_per_scenario=1), runs=40,
        backend="parallel", workers=workers, batch_size=2 * workers,
    )
    print(f"\n=== parallel backend ({workers} workers) ===")
    print(summarize(parallel))
    assert parallel.outcome_histogram() == serial.outcome_histogram()
    kernel = parallel.report()["kernel"]
    print(f"kernel work/run: {kernel['events'] // parallel.runs} events, "
          f"{kernel['delta_cycles'] // parallel.runs} delta cycles")

    # Long campaigns survive interruption: run_timeout_s degrades any
    # hung run to an inconclusive TIMEOUT record instead of stalling
    # the campaign, and checkpoint= journals every completed outcome
    # to an append-only JSONL file.  Re-running the same seeded
    # campaign against the same journal skips the journaled runs — so
    # this second call executes nothing and resumes to the identical
    # result.
    journal_path = "quickstart_campaign.jsonl"
    robust = campaign.run(
        RandomStrategy(space, faults_per_scenario=1), runs=30,
        run_timeout_s=10.0, checkpoint=journal_path,
    )
    resumed = campaign.run(
        RandomStrategy(space, faults_per_scenario=1), runs=30,
        run_timeout_s=10.0, checkpoint=journal_path,
    )
    print(f"\n=== checkpoint/resume ({journal_path}) ===")
    print(f"first pass executed {robust.runs - robust.resumed} runs; "
          f"second pass resumed {resumed.resumed} from the journal")
    assert resumed.resumed == resumed.runs == robust.runs
    assert resumed.outcome_histogram() == robust.outcome_histogram()
    os.remove(journal_path)

    # trace=True arms a per-run recorder: every record comes back
    # with a TraceDigest (injections, deviations vs golden, detection
    # events from the ECC hardware, verdict — all in sim time).
    # Folding the digests yields the propagation graph: which fault
    # sites reached which detection mechanism, and how fast.
    traced = campaign.run(
        RandomStrategy(space, faults_per_scenario=1), runs=40,
        trace=True,
    )
    graph = traced.propagation()
    print("\n=== traced campaign ===")
    print(f"digests: {len(traced.digests())}, graph: {graph!r}")
    for site, mechanism, latency in graph.detection_paths[:3]:
        print(f"  {site} -> {mechanism} after {latency} time units")
    medians = graph.median_detection_latency()
    if medians:
        print("median fault-to-detection latency:", medians)
    assert len(traced.digests()) == traced.runs

    # Snapshot-fork execution.  The quickstart DMA platform is
    # deliberately *not* fork-capable (its top is a plain Module that
    # declares no STATE_FIELDS, and its copier keeps state in a
    # generator local, which a mid-run restore cannot rebuild), so
    # this demo uses the built-in airbag platform, whose components
    # all declare their STATE_FIELDS.  Pinning every scenario's
    # injection at 50 of 60 ms makes the whole batch one fork group:
    # ~83% of every run is shared prefix, simulated once instead of 32
    # times.
    class LateInjectionStrategy(RandomStrategy):
        """Random fault draws at one fixed (late) injection time."""

        def next_scenario(self, rng):
            self.scenario_count += 1
            path, descriptor = self.space.pairs[
                rng.randrange(len(self.space.pairs))
            ]
            return ErrorScenario(
                name=f"late-{self.scenario_count}",
                injections=[PlannedInjection(
                    time=simtime.ms(50), target_path=path,
                    descriptor=descriptor,
                )],
            )

    airbag = Campaign(
        duration=simtime.ms(60), seed=2, platform="airbag-normal"
    )
    airbag.golden()  # prime outside the timed region
    airbag_space = FaultSpace(
        registry.get_platform("airbag-normal").factory(Simulator()),
        [SRAM_SEU],
        window_start=simtime.ms(5),
        window_end=simtime.ms(55),
        time_bins=2,
    )

    def timed_airbag(fork):
        start = time.perf_counter()  # vp-lint: disable=VP005 - harness-side speedup demo, not model behaviour
        result = airbag.run(
            LateInjectionStrategy(airbag_space), runs=32,
            batch_size=32, fork=fork,
        )
        return result, time.perf_counter() - start  # vp-lint: disable=VP005 - harness-side speedup demo, not model behaviour

    per_run, per_run_wall = timed_airbag(fork=False)
    forked, forked_wall = timed_airbag(fork=True)
    print("\n=== snapshot-fork execution (airbag-normal) ===")
    print(f"per-run {per_run_wall:.3f}s vs fork {forked_wall:.3f}s "
          f"({per_run_wall / forked_wall:.1f}x)")
    assert forked.outcome_histogram() == per_run.outcome_histogram()

    print("\nfault-space coverage:", f"{coverage.closure:.0%}")
    assert single.count(Outcome.HAZARDOUS) == 0
    print("done.")


if __name__ == "__main__":
    main()
