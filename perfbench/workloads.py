"""The benchmark's workloads.

Each workload makes its inputs from the seed alone, sets itself up once
(golden runs, fault space, executor spawn, warm-up: all reported as
``setup_s``), and then runs identical *rounds* of closed-loop work: the
campaign planner plans a batch and waits for its results before it
plans the next, exactly as ``Campaign.run`` works.  Every round of one
seed must produce the same fingerprint.

Only ``src/`` and this directory are imported, so the workloads do not
move when the repository's figure-regenerating benches change.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import typing as _t

from repro.core import Campaign, ErrorScenario, Outcome, PlannedInjection
from repro.core import RandomStrategy, Strategy
from repro.core.runspec import RunOutcome
from repro.core.scenario import FaultSpace
from repro.faults import SRAM_SEU, FaultDescriptor, FaultKind, Persistence
from repro.hw.memory import Memory
from repro.kernel import Simulator, simtime
from repro.platforms import airbag, registry

DURATION = simtime.ms(60)
#: 50 of 60 ms is fault-free prefix shared by a whole batch: the shape
#: snapshot-fork execution amortizes.
FORK_INJECT_TIME = simtime.ms(50)
CAPS_BATCH = 256
FORK_BATCH = 64
POOL_WORKERS = 2

STUCK_HIGH = FaultDescriptor(
    name="sensor_stuck_high",
    kind=FaultKind.STUCK_VALUE,
    persistence=Persistence.PERMANENT,
    params={"value": 4.5},
    rate_per_hour=2e-7,
)

ISLANDS = "airbag-islands"
SPARE_BANKS = 6


def build_islands(sim: Simulator):
    """The CAPS airbag plus unreferenced spare SRAM banks: statically
    dead SEU sites that reachability pruning skips."""
    platform = airbag.build_normal_operation(sim)
    for i in range(SPARE_BANKS):
        Memory(f"spare{i}", parent=platform, size=8)
    return platform


# No warm-reset hook: the airbag hook does not know the spare banks.
registry.register_platform(  # vp-lint: disable=VP009 - benchmark variant; every run builds fresh
    ISLANDS,
    build_islands,
    airbag.observe,
    airbag.normal_operation_classifier,
    description="CAPS airbag plus dead spare SRAM banks (benchmark workload)",
    reach_surface=airbag.reach_surface,
    replace=True,
)


def input_seeds(seed: int) -> _t.Dict[str, int]:
    """Every input seed a workload uses, derived from the one seed."""
    rng = random.Random(seed)
    return {
        "campaign": rng.randrange(2**31),
        "sampler": rng.randrange(2**31),
        "gate": rng.randrange(2**31),
    }


def fault_space(factory) -> FaultSpace:
    return FaultSpace(
        factory(Simulator()),
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )


class PrefixHeavyStrategy(Strategy):
    """Uniform single-fault draws, all injected at one instant, so a
    whole batch shares one fault-free prefix (one fork group)."""

    def __init__(self, space: FaultSpace, time: int):
        super().__init__(space, faults_per_scenario=1)
        self.time = time

    def next_scenario(self, rng: random.Random) -> ErrorScenario:
        self.scenario_count += 1
        path, descriptor = self.space.pairs[rng.randrange(len(self.space.pairs))]
        return ErrorScenario(
            name=f"prefix-{self.scenario_count}",
            injections=[
                PlannedInjection(
                    time=self.time, target_path=path, descriptor=descriptor
                )
            ],
        )


class IslandsStrategy(Strategy):
    """Two uniform faults per scenario, both on statically dead sites
    for every other scenario and both on live sites otherwise.

    Exactly half of every round is pruned whatever the seed, so the
    seed moves which runs execute but not how many: under uniform draws
    over the whole space the pruned share, and with it the round's
    cost, varied by several percent from seed to seed."""

    def __init__(self, space: FaultSpace, dead: _t.AbstractSet[str]):
        super().__init__(space, faults_per_scenario=2)
        self.pools = (
            [pair for pair in space.pairs if pair[0] not in dead],
            [pair for pair in space.pairs if pair[0] in dead],
        )

    def next_scenario(self, rng: random.Random) -> ErrorScenario:
        self.scenario_count += 1
        pool = self.pools[self.scenario_count % 2]
        return ErrorScenario(
            name=f"islands-{self.scenario_count}",
            injections=[
                self.space.sample_injection(rng, pair=pool[rng.randrange(len(pool))])
                for _ in range(self.faults_per_scenario)
            ],
        )


def result_fingerprint(result) -> str:
    """sha256 over the records as ``RunOutcome.to_jsonable`` lines,
    with the wall-clock ``wall_s`` counter stripped."""
    digest = hashlib.sha256()
    for record in result.records:
        stats = {
            key: value for key, value in (record.kernel_stats or {}).items()
            if key != "wall_s"
        }
        outcome = RunOutcome(
            index=record.index,
            outcome=record.outcome,
            matched_rules=tuple(record.matched_rules),
            observation=record.observation,
            injections_applied=record.injections_applied,
            kernel_stats=stats,
            attempts=record.attempts,
            failure=record.failure,
            digest=record.digest,
        )
        digest.update(
            json.dumps(
                outcome.to_jsonable(), sort_keys=True, separators=(",", ":")
            ).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def campaign_counts(result) -> _t.Dict[str, _t.Any]:
    totals = result.kernel_totals
    return {
        "runs": result.runs,
        "executed": result.runs - result.pruned - result.resumed,
        "failed": result.timed_out + result.terminally_failed,
        "hazards": result.count(Outcome.HAZARDOUS),
        "events": int(totals["events"]),
        "process_steps": int(totals["process_steps"]),
        "delta_cycles": int(totals["delta_cycles"]),
        "journal_bytes": 0,
        "fingerprint": result_fingerprint(result),
    }


class Workload:
    """One set-up plus repeatable rounds; subclasses fill in the work.

    ``round()`` is the timed work; ``summary(output)`` turns its output
    into counts and a fingerprint outside the timed region;
    ``reference()`` recomputes the fingerprint another way (``None``
    where there is no second way).
    """

    name = ""
    #: Planned runs per round (site x vector comparisons for gate-enum).
    runs = 0
    #: Processes that execute the runs (the child itself, or pool or
    #: cluster workers).
    workers = 1
    params: _t.Dict[str, _t.Any] = {}

    def __init__(self, seed: int, work_dir: str, runs: _t.Optional[int] = None):
        """*work_dir* is scratch space inside the checkout; *runs*
        overrides the round size (vectors per site for gate-enum)."""
        self.seeds = input_seeds(seed)
        if runs is not None:
            self.runs = runs

    def round(self) -> _t.Any:
        raise NotImplementedError

    def summary(self, output: _t.Any) -> _t.Dict[str, _t.Any]:
        return campaign_counts(output)

    def reference(self) -> _t.Optional[str]:
        return None

    def close(self) -> None:
        """Release executors and worker processes."""


class CapsSerial(Workload):
    name = "caps-serial"
    runs = 1024
    platform = "airbag-normal"
    batch = CAPS_BATCH
    fork = False
    params = {
        "platform": "airbag-normal", "strategy": "RandomStrategy(2 faults)",
        "backend": "serial", "reuse_platform": True, "fork": False,
        "batch_size": CAPS_BATCH,
    }

    def __init__(self, seed, work_dir, runs=None):
        super().__init__(seed, work_dir, runs)
        self.campaign = Campaign(
            duration=DURATION, seed=self.seeds["campaign"], platform=self.platform,
        )
        self.space = fault_space(registry.get_platform(self.platform).factory)
        self.campaign.golden()
        self.backend = self.make_backend()
        self.run_campaign(self.batch, self.backend)  # warm-up

    def make_backend(self):
        return "serial"

    def strategy(self) -> Strategy:
        return RandomStrategy(self.space, faults_per_scenario=2)

    def run_campaign(self, runs: int, backend, **options):
        return self.campaign.run(
            self.strategy(), runs=runs, backend=backend,
            batch_size=self.batch, fork=self.fork, **options,
        )

    def round(self):
        return self.run_campaign(self.runs, self.backend)


class CapsPool2(CapsSerial):
    """caps-serial's spec stream on a pre-built, pre-warmed pool."""

    name = "caps-pool2"
    workers = POOL_WORKERS
    params = {**CapsSerial.params, "backend": "ParallelExecutor",
              "workers": POOL_WORKERS, "chunk_size": "auto"}

    def make_backend(self):
        from repro.core import ParallelExecutor

        return ParallelExecutor(self.platform, workers=POOL_WORKERS)

    def reference(self):
        return result_fingerprint(self.run_campaign(self.runs, "serial"))

    def close(self):
        self.backend.close()


class CapsCluster2(CapsPool2):
    """caps-serial's spec stream on a loopback cluster, warmed up first.

    Half-size rounds: at about half of serial speed, that still gives
    two rounds per trial to take medians over."""

    name = "caps-cluster2"
    runs = 512
    params = {**CapsSerial.params, "backend": "DistributedExecutor",
              "workers": POOL_WORKERS}

    def make_backend(self):
        from repro.distributed import DistributedExecutor

        return DistributedExecutor(self.platform, workers=POOL_WORKERS)


class CapsFork(CapsSerial):
    name = "caps-fork"
    runs = 4096
    batch = FORK_BATCH
    fork = True
    params = {
        "platform": "airbag-normal", "strategy": "PrefixHeavyStrategy(50 ms)",
        "backend": "serial", "fork": True, "batch_size": FORK_BATCH,
    }

    def strategy(self):
        return PrefixHeavyStrategy(self.space, FORK_INJECT_TIME)


class RiskSampled(CapsSerial):
    """Sampled mission environments feeding the fork path, then the
    risk report fold, both inside the round."""

    name = "risk-sampled"
    runs = 2048
    batch = FORK_BATCH
    fork = True
    params = {
        "platform": "airbag-normal",
        "strategy": "SampledScenarioStrategy(StressSampler(standard passenger car))",
        "injection_time_ms": 50, "backend": "serial", "fork": True,
        "batch_size": FORK_BATCH, "report": "RiskReport.from_campaign",
    }

    def __init__(self, seed, work_dir, runs=None):
        from repro.mission import standard_passenger_car_profile

        self.profile = standard_passenger_car_profile()
        super().__init__(seed, work_dir, runs)

    def strategy(self):
        from repro.risk import SampledScenarioStrategy, StressSampler

        return SampledScenarioStrategy(
            self.space,
            StressSampler(self.profile, seed=self.seeds["sampler"]),
            injection_time=FORK_INJECT_TIME,
        )

    def run_campaign(self, runs, backend):
        from repro.risk import RiskReport

        strategy = self.strategy()
        result = self.campaign.run(
            strategy, runs=runs, backend=backend, batch_size=self.batch,
            fork=self.fork,
        )
        return result, RiskReport.from_campaign(result, strategy)

    def summary(self, output):
        result, report = output
        counts = campaign_counts(result)
        counts["fingerprint"] = hashlib.sha256(
            report.canonical().encode()
        ).hexdigest()
        return counts


class CapsAudit(CapsSerial):
    """A pruned, traced, journaled campaign, then a second pass that
    resumes every run from the journal and must reproduce the first."""

    name = "caps-audit"
    #: Half pruned, so 512 executed runs: short enough for two rounds
    #: per trial.
    runs = 1024
    platform = ISLANDS
    params = {
        "platform": ISLANDS, "spare_banks": SPARE_BANKS,
        "strategy": "IslandsStrategy(2 faults, alternately dead and live)",
        "backend": "serial", "batch_size": CAPS_BATCH,
        "prune": "ReachabilityPruner", "trace": "digest",
        "checkpoint": "fresh journal, then full resume",
    }

    def __init__(self, seed, work_dir, runs=None):
        from repro.analyze.reach import ReachabilityPruner

        self.pruner = ReachabilityPruner.for_platform(ISLANDS)
        self.journal = os.path.join(work_dir, "audit-journal.jsonl")
        super().__init__(seed, work_dir, runs)

    def strategy(self):
        return IslandsStrategy(self.space, self.pruner.dead)

    def run_campaign(self, runs, backend):
        if os.path.exists(self.journal):
            os.remove(self.journal)
        audit = {"trace": "digest", "checkpoint": self.journal, "prune": self.pruner}
        written = super().run_campaign(runs, backend, **audit)
        resumed = super().run_campaign(runs, backend, **audit)
        return written, resumed, os.path.getsize(self.journal)

    def summary(self, output):
        written, resumed, journal_bytes = output
        counts = campaign_counts(written)
        counts["journal_bytes"] = journal_bytes
        if result_fingerprint(resumed) != counts["fingerprint"]:
            counts["fingerprint"] = "resume-mismatch"
        return counts


class GateEnum(Workload):
    """Bit-parallel enumeration of every net x {seu, stuck0, stuck1}
    site of two circuits over shared random vectors.  It never enters
    the kernel or the campaign loop: the control workload."""

    name = "gate-enum"
    #: Shared input vectors per site and circuit.
    vectors = 256
    params = {"circuits": ["alu8", "registered_adder8"],
              "kinds": ["seu", "stuck0", "stuck1"], "engine": "vector",
              "output_bus": "out"}

    def __init__(self, seed, work_dir, runs=None):
        from repro.gate import alu, enumerate_sites, registered_adder
        from repro.gate.faults import FAULT_KINDS

        super().__init__(seed, work_dir)
        if runs is not None:
            self.vectors = runs
        circuits = (alu(8), registered_adder(8))
        self.targets = [(c, enumerate_sites(c, FAULT_KINDS)) for c in circuits]
        self.runs = self.vectors * sum(len(sites) for _, sites in self.targets)
        self.enumerate(8)  # warm-up

    def enumerate(self, vectors: int):
        from repro.gate import run_campaign

        return [
            run_campaign(
                circuit, "out", None, sites=sites, runs_per_site=vectors,
                seed=self.seeds["gate"], engine="vector",
            )[0]
            for circuit, sites in self.targets
        ]

    def round(self):
        return self.enumerate(self.vectors)

    def summary(self, profiles):
        digest = hashlib.sha256()
        for profile in profiles:
            digest.update(profile.canonical() + b"\n")
        runs = sum(profile.total for profile in profiles)
        return {
            "runs": runs, "executed": runs, "failed": 0, "hazards": 0,
            "events": 0, "process_steps": 0, "delta_cycles": 0,
            "journal_bytes": 0, "fingerprint": digest.hexdigest(),
        }


WORKLOADS: _t.Dict[str, _t.Type[Workload]] = {
    cls.name: cls
    for cls in (
        CapsSerial, CapsFork, RiskSampled, CapsPool2, CapsCluster2,
        CapsAudit, GateEnum,
    )
}
