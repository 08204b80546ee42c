"""The closed-loop stress-test campaign (Fig. 3).

One :class:`Campaign` object owns the loop the paper draws: build a
fresh virtual prototype, let the strategy pick an error scenario, arm
the stressor, simulate, observe, classify against the golden run,
update coverage, feed the outcome back to the strategy — and repeat.
"Repeated stress tests enable a quantitative evaluation, e.g. to
determine the safety integrity level" (Sec. 3.4): the campaign result
carries exactly those quantities (failure probabilities with exact
confidence intervals, measured diagnostic coverage per fault class).

Since the planner/executor split, the loop is three layers:

* the **planner** (:meth:`Campaign.plan_batch`) asks the strategy for
  a batch of scenarios and freezes each into a picklable
  :class:`~repro.core.runspec.RunSpec` carrying its run seed, the run
  duration, the platform registry key, and the golden observation;
* an **executor** (:mod:`repro.core.executors`) runs the batch —
  serially in-process, or fanned out over a process pool;
* the **aggregation** layer below folds the returned
  :class:`~repro.core.runspec.RunOutcome`s into records, coverage,
  and batched strategy feedback, strictly in run-index order, so the
  result is independent of worker scheduling.
"""

from __future__ import annotations

import os
import random
import time
import typing as _t

from ..kernel import Module, Simulator
from ..observe.config import TraceConfig, resolve_trace
from ..observe.digest import TraceDigest
from ..observe.graph import PropagationGraph
from ..observe.telemetry import CampaignTelemetry
from ..stats import WeightedRateEstimator, clopper_pearson
from .checkpoint import CampaignCheckpoint, campaign_key
from .classification import Classifier, Outcome, RunObservation
from .coverage import FaultSpaceCoverage
from .executors import Executor, RetryPolicy, make_executor
from .runspec import RunOutcome, RunSpec
from .scenario import ErrorScenario, FaultSpace
from .strategies import Strategy
from .stressor import Stressor

#: Builds a fresh platform into the given simulator; returns its root.
PlatformFactory = _t.Callable[[Simulator], Module]
#: Collects probe values after a run.
ObserveFn = _t.Callable[[Module], RunObservation]

#: Kernel counters accumulated across a campaign (see
#: ``Simulator.stats`` plus the executor-measured wall clock).
KERNEL_COUNTER_KEYS = ("events", "process_steps", "delta_cycles", "wall_s")


def _pruned_outcome(spec: RunSpec) -> RunOutcome:
    """The explicit skip record for a statically-dead injection.

    ``NO_EFFECT`` is not a guess: the pruner only fires on scenarios
    whose every injection targets a site with no structural path to
    any detector or observed output, so the run's observation provably
    equals the golden reference.  The ``pruned:unreachable`` tag keeps
    the skip auditable in every record stream (never a silent drop).
    """
    return RunOutcome(
        index=spec.index,
        outcome=Outcome.NO_EFFECT,
        matched_rules=("pruned:unreachable",),
        observation=spec.golden,
        injections_applied=0,
        kernel_stats={},
    )


class RunRecord(_t.NamedTuple):
    """Everything retained about one campaign run.

    ``failure`` is ``None`` for a conclusive run, else the degradation
    kind (``"timeout"`` / ``"crash"`` / ``"error"``, see
    :class:`~repro.core.runspec.RunOutcome`); ``attempts`` counts
    executions including crash-forced redispatches.  ``digest`` is the
    per-run propagation trace when the campaign ran with ``trace=``
    (see :mod:`repro.observe`), ``None`` otherwise.
    """

    index: int
    scenario: ErrorScenario
    outcome: Outcome
    matched_rules: _t.List[str]
    observation: RunObservation
    injections_applied: int
    kernel_stats: _t.Optional[_t.Dict[str, _t.Any]] = None
    attempts: int = 1
    failure: _t.Optional[str] = None
    digest: _t.Optional[TraceDigest] = None


class CampaignResult:
    """Aggregated campaign outcome."""

    def __init__(self, duration: int):
        self.duration = duration
        self.records: _t.List[RunRecord] = []
        self._estimators: _t.Dict[Outcome, WeightedRateEstimator] = {}
        # Incremental per-outcome counters: count()/outcome_histogram()
        # used to rescan every record on every call, which made result
        # queries O(runs * |Outcome|) inside hot campaign loops.
        self._counts: _t.Dict[Outcome, int] = {o: 0 for o in Outcome}
        self.kernel_totals: _t.Dict[str, float] = dict.fromkeys(
            KERNEL_COUNTER_KEYS, 0
        )
        # Fault-tolerance bookkeeping (see report()["robustness"]):
        # every planned run lands in exactly one of completed /
        # timed_out / terminally_failed.
        self.timed_out = 0
        self.terminally_failed = 0
        #: Extra executions beyond each run's first attempt.
        self.retried = 0
        #: Runs restored from a checkpoint journal instead of executed.
        self.resumed = 0
        #: Runs skipped by static reachability pruning (explicit
        #: ``pruned:unreachable`` records, never executed).
        self.pruned = 0

    def append(self, record: RunRecord) -> None:
        self.records.append(record)
        self._counts[record.outcome] += 1
        if record.failure == "timeout":
            self.timed_out += 1
        elif record.failure is not None:
            self.terminally_failed += 1
        self.retried += max(0, record.attempts - 1)
        for outcome in Outcome:
            estimator = self._estimators.setdefault(
                outcome, WeightedRateEstimator()
            )
            estimator.record(
                record.scenario.sampling_weight or 1.0,
                record.outcome is outcome,
            )
        if record.kernel_stats:
            for key in KERNEL_COUNTER_KEYS:
                self.kernel_totals[key] += record.kernel_stats.get(key, 0)

    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        """Runs that produced a genuine classification."""
        return self.runs - self.timed_out - self.terminally_failed

    def count(self, outcome: Outcome) -> int:
        return self._counts[outcome]

    def outcome_histogram(self) -> _t.Dict[Outcome, int]:
        return dict(self._counts)

    def probability(self, outcome: Outcome) -> float:
        """Importance-weighted probability of *outcome* per run."""
        estimator = self._estimators.get(outcome)
        if estimator is None or estimator.n == 0:
            raise ValueError("no runs recorded")
        return estimator.estimate

    def confidence_interval(self, outcome: Outcome, confidence: float = 0.95):
        """Exact (unweighted) binomial CI on the outcome frequency."""
        return clopper_pearson(self.count(outcome), self.runs, confidence)

    def first_run_with(self, outcome: Outcome) -> _t.Optional[int]:
        """1-based index of the first run with *outcome* (cost metric)."""
        for record in self.records:
            if record.outcome is outcome:
                return record.index + 1
        return None

    def digests(self) -> _t.List[TraceDigest]:
        """The per-run trace digests, in run order (traced runs only)."""
        return [r.digest for r in self.records if r.digest is not None]

    def propagation(self) -> PropagationGraph:
        """The fault → error → detection/failure propagation graph
        folded from every traced run's digest (empty when the campaign
        ran without ``trace=``)."""
        return PropagationGraph.from_result(self)

    def failures(self) -> _t.List[RunRecord]:
        return [r for r in self.records if r.outcome.is_failure]

    def dangerous(self) -> _t.List[RunRecord]:
        return [r for r in self.records if r.outcome.is_dangerous]

    def diagnostic_coverage_by_descriptor(self) -> _t.Dict[str, float]:
        """Measured DC per fault class: of the runs where this
        descriptor caused *any* effect, the fraction handled safely
        (masked or detected).  This is the number that replaces the
        FMEDA expert estimate (see ``Fmeda.set_measured_coverage``)."""
        effects: _t.Dict[str, int] = {}
        handled: _t.Dict[str, int] = {}
        for record in self.records:
            if record.outcome is Outcome.NO_EFFECT:
                continue
            if record.outcome is Outcome.TIMEOUT:
                # Inconclusive: the run never produced a verdict, so it
                # can neither credit nor debit a protection mechanism.
                continue
            for name in {
                inj.descriptor.name for inj in record.scenario.injections
            }:
                effects[name] = effects.get(name, 0) + 1
                if record.outcome in (Outcome.MASKED, Outcome.DETECTED_SAFE):
                    handled[name] = handled.get(name, 0) + 1
        return {
            name: handled.get(name, 0) / count
            for name, count in effects.items()
        }

    def report(self) -> _t.Dict[str, _t.Any]:
        histogram = self.outcome_histogram()
        report: _t.Dict[str, _t.Any] = {
            "runs": self.runs,
            "outcomes": {o.name: n for o, n in histogram.items()},
            "failure_runs": len(self.failures()),
            "dangerous_runs": len(self.dangerous()),
        }
        wall = self.kernel_totals.get("wall_s", 0)
        if self.runs and wall:
            report["kernel"] = {
                "events": int(self.kernel_totals["events"]),
                "process_steps": int(self.kernel_totals["process_steps"]),
                "delta_cycles": int(self.kernel_totals["delta_cycles"]),
                "sim_wall_s": round(wall, 6),
                "runs_per_s": round(self.runs / wall, 3),
            }
        if self.timed_out or self.terminally_failed or self.retried \
                or self.resumed:
            # Only present when the campaign actually degraded or
            # resumed, so clean-run reports stay byte-identical to the
            # pre-fault-tolerance format (and to each other).
            report["robustness"] = {
                "completed": self.completed,
                "timed_out": self.timed_out,
                "terminally_failed": self.terminally_failed,
                "retried": self.retried,
                "resumed": self.resumed,
            }
        if self.pruned:
            # Present only when a pruner actually skipped something,
            # same conditional-section contract as "robustness".
            report["pruning"] = {
                "pruned": self.pruned,
                "executed": self.runs - self.pruned - self.resumed,
            }
        digests = self.digests()
        if digests:
            # Present only when the campaign was traced, so untraced
            # reports stay byte-identical to the previous format.
            graph = self.propagation()
            report["propagation"] = {
                "traced_runs": len(digests),
                "partial_digests": sum(1 for d in digests if d.partial),
                "nodes": len(graph.nodes),
                "edges": len(graph.edges),
                "top_fault_sites": [
                    {"site": site, "hazard_runs": count}
                    for site, count in graph.top_fault_sites(
                        at_least="HAZARDOUS", limit=5
                    )
                ],
                "detection_latency_median": {
                    mechanism: latency
                    for mechanism, latency
                    in graph.median_detection_latency().items()
                },
            }
        return report


class Campaign:
    """The Fig. 3 loop, parameterised by platform, probes, and strategy.

    Two construction styles:

    * explicit callables (``platform_factory``/``observe``/
      ``classifier``) — serial execution only, since closures do not
      cross process boundaries;
    * a registry key (``platform="airbag-normal"``) — resolves the
      callables from :mod:`repro.platforms.registry` and additionally
      enables the parallel backend, whose workers rebuild the
      platform from the key.
    """

    def __init__(
        self,
        platform_factory: _t.Optional[PlatformFactory] = None,
        observe: _t.Optional[ObserveFn] = None,
        classifier: _t.Optional[Classifier] = None,
        duration: int = 0,
        seed: int = 0,
        platform: _t.Optional[str] = None,
    ):
        if duration <= 0:
            raise ValueError("campaign run duration must be positive")
        if platform is not None:
            from ..platforms import registry

            bundle = registry.get_platform(platform)
            platform_factory = platform_factory or bundle.factory
            observe = observe or bundle.observe
            classifier = classifier or bundle.classifier_factory()
        if platform_factory is None or observe is None or classifier is None:
            raise ValueError(
                "campaign needs platform_factory/observe/classifier, "
                "either explicitly or via a platform registry key"
            )
        self.platform_factory = platform_factory
        self.observe = observe
        self.classifier = classifier
        self.duration = duration
        self.seed = seed
        self.platform = platform
        self._golden: _t.Optional[RunObservation] = None
        self._golden_signals: _t.Optional[
            _t.Tuple[_t.Tuple[str, _t.Any], ...]
        ] = None

    # -- golden reference -----------------------------------------------------

    def golden(self) -> RunObservation:
        """The fault-free reference observation (cached).

        Platforms must be deterministic without faults, so one golden
        run serves the whole campaign.  :meth:`run` computes it
        eagerly before dispatching any batch and embeds it in every
        :class:`RunSpec`, so parallel workers never race on it.
        """
        if self._golden is None:
            sim = Simulator()
            root = self.platform_factory(sim)
            sim.run(until=self.duration)
            self._golden = self.observe(root)
        return self._golden

    def golden_signals(self) -> _t.Tuple[_t.Tuple[str, _t.Any], ...]:
        """Fault-free final values of the platform's trace signals.

        The reference that per-run signal-deviation events are computed
        against (cached; one extra golden simulation when the platform
        bundle nominates ``trace_signals``, empty otherwise).
        """
        if self._golden_signals is None:
            signals_fn = None
            if self.platform is not None:
                from ..platforms import registry

                signals_fn = registry.get_platform(
                    self.platform
                ).trace_signals
            if signals_fn is None:
                self._golden_signals = ()
            else:
                sim = Simulator()
                root = self.platform_factory(sim)
                sim.run(until=self.duration)
                signals = signals_fn(root) or {}
                self._golden_signals = tuple(
                    (name, signals[name].read())
                    for name in sorted(signals)
                )
        return self._golden_signals

    # -- single run -----------------------------------------------------------

    def execute_scenario(
        self, scenario: ErrorScenario, run_seed: int
    ) -> _t.Tuple[Outcome, _t.List[str], RunObservation, int]:
        """Run one scenario on a fresh platform; classify it."""
        spec = RunSpec(
            index=0,
            scenario=scenario,
            run_seed=run_seed,
            duration=self.duration,
            platform=self.platform,
            golden=self.golden(),
            reuse_platform=False,
        )
        from .runspec import execute_runspec

        outcome = execute_runspec(
            spec, self.platform_factory, self.observe, self.classifier
        )
        return (
            outcome.outcome,
            list(outcome.matched_rules),
            outcome.observation,
            outcome.injections_applied,
        )

    # -- planning -------------------------------------------------------------

    def plan_batch(
        self,
        strategy: Strategy,
        rng: random.Random,
        count: int,
        start_index: int,
        deadline_s: _t.Optional[float] = None,
        trace: _t.Optional[TraceConfig] = None,
        reuse_platform: bool = True,
        fork: bool = False,
    ) -> _t.List[RunSpec]:
        """Freeze the next *count* runs into self-contained specs.

        Scenarios are drawn first (``Strategy.next_batch``), then one
        run seed per scenario — with a batch size of one this is the
        exact draw order of the historical sequential loop, so legacy
        campaigns replay byte-identically.  Determinism contract: the
        same (campaign seed, strategy, batch size) yields the same
        spec stream on every backend — and on every *restart*, which is
        what lets checkpoint resume skip journaled indices safely.
        """
        golden = self.golden()
        scenarios = strategy.next_batch(rng, count)
        return [
            RunSpec(
                index=start_index + offset,
                scenario=scenario,
                run_seed=rng.randrange(2**31),
                duration=self.duration,
                platform=self.platform,
                golden=golden,
                deadline_s=deadline_s,
                trace=trace,
                reuse_platform=reuse_platform,
                fork=fork,
            )
            for offset, scenario in enumerate(scenarios)
        ]

    # -- the loop -------------------------------------------------------------

    def run(
        self,
        strategy: Strategy,
        runs: int,
        coverage: _t.Optional[FaultSpaceCoverage] = None,
        stop_on: _t.Optional[Outcome] = None,
        backend: _t.Union[str, Executor] = "serial",
        workers: _t.Optional[int] = None,
        batch_size: _t.Optional[int] = None,
        run_timeout_s: _t.Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        hard_timeout_s: _t.Optional[float] = None,
        checkpoint: _t.Union[None, str, _t.Any] = None,
        trace: _t.Union[None, bool, str, TraceConfig] = None,
        telemetry: _t.Optional[CampaignTelemetry] = None,
        reuse_platform: bool = True,
        chunk_size: _t.Optional[int] = None,
        fork: bool = False,
        prune: _t.Optional[_t.Any] = None,
    ) -> CampaignResult:
        """Execute *runs* iterations of the closed loop.

        ``backend`` selects the executor: ``"serial"`` (default, the
        historical in-process loop), ``"parallel"`` (process pool over
        ``workers`` workers; requires a registry-backed campaign),
        ``"distributed"`` (a :mod:`repro.distributed` coordinator
        serving ``workers`` auto-spawned loopback worker processes;
        attach remote hosts by building a
        :class:`~repro.distributed.DistributedExecutor` yourself), any
        other name in the executor backend registry (see
        :func:`~repro.core.executors.register_backend`), or a
        pre-built :class:`Executor` instance.  ``batch_size`` sets
        how many runs are planned between feedback points — the
        default is 1 for serial (legacy-identical) and twice the
        worker count for parallel.  Adaptive strategies receive their
        feedback *between batches*.

        ``stop_on`` ends the campaign early once an outcome at least
        that severe occurs (used by "time to first hazard" metrics);
        runs planned after the triggering index are discarded.
        :data:`Outcome.TIMEOUT` sits below every failure outcome, so
        degraded runs never trip a failure stop condition.

        Fault tolerance: ``run_timeout_s`` is the per-run wall-clock
        deadline embedded in every spec (hangs degrade to ``TIMEOUT``
        records); ``max_retries``/``retry_backoff_s`` configure the
        crash-retry policy of an owned parallel executor; and
        ``hard_timeout_s`` overrides the pool-level backstop.  A
        caller-provided :class:`Executor` instance keeps its own
        policy.

        ``checkpoint`` — a path or a
        :class:`~repro.core.checkpoint.CampaignCheckpoint` — journals
        every completed outcome to an append-only JSONL file and, on
        restart with the same (seed, strategy, scenario set, batch
        size, run timeout), skips execution of already-journaled run
        indices: the resumed result aggregates identically to an
        uninterrupted campaign.  Any of those knobs differing — the
        batch size in particular defaults to twice the host's worker
        count — raises :class:`CheckpointKeyMismatch` instead of
        silently mixing two different spec streams.

        ``trace`` arms per-run propagation observability
        (:mod:`repro.observe`): ``True``/``"digest"`` for compact
        digests on every record, or a
        :class:`~repro.observe.TraceConfig` (``mode="full"`` spills
        complete per-run traces under its ``spill_dir``).  The result
        then answers :meth:`CampaignResult.propagation` queries and
        its report gains a ``"propagation"`` section.

        ``telemetry`` is an opt-in
        :class:`~repro.observe.CampaignTelemetry` observer of
        *execution* progress (throughput, retries, resumes) — wall
        clock, host-specific, and outside every determinism contract.

        ``reuse_platform`` (default True) lets each worker keep one
        warm platform per registry key and, instead of rebuilding,
        restore before each run the kernel snapshot and module capture
        (derived from the components' ``STATE_FIELDS``) taken at
        elaboration — outcomes are bit-for-bit identical either way
        (equivalence-tested), so the knob exists only for A/B
        measurement and debugging.
        ``chunk_size`` overrides the parallel executor's per-future
        batch size (``None`` auto-tunes; serial ignores it).  Neither
        knob is part of the checkpoint identity.

        ``fork`` (default False) opts the campaign into snapshot-fork
        execution: runs sharing a platform and earliest injection time
        are grouped *within each batch*, their fault-free prefix is
        simulated once, and every run in the group forks from a
        mid-run kernel snapshot (:meth:`Simulator.snapshot`).  Requires
        a platform whose modules all declare ``STATE_FIELDS``; anything
        ineligible silently takes the per-run path.
        Outcomes are bit-for-bit identical either way
        (equivalence-tested), so like ``reuse_platform`` the knob is
        excluded from the checkpoint identity.  Note the serial
        default ``batch_size=1`` leaves nothing to group — pass an
        explicit batch size to see fork-mode speedups.

        ``prune`` (default None) accepts a
        :class:`~repro.analyze.reach.ReachabilityPruner`: planning is
        untouched (identical spec stream, RNG draws, and run seeds),
        but specs whose injections all target statically-dead fault
        sites are never executed — each becomes an explicit
        ``Outcome.NO_EFFECT`` record tagged ``pruned:unreachable``
        (sound because a dead site provably cannot reach any detector
        or observed output).  Pruned records are excluded from the
        checkpoint journal and from the checkpoint identity — resume
        re-derives them from the same static analysis — so every
        non-pruned record and journal line is byte-identical (modulo
        ``wall_s``) to the unpruned campaign's.  The decision is
        visible in ``report()["pruning"]`` (pruned/executed counters).
        """
        trace_config = resolve_trace(trace)
        if trace_config is not None:
            # Fold the golden signal reference in once; every spec
            # (and so every worker) then traces against the same
            # fault-free final values.
            trace_config = TraceConfig(
                mode=trace_config.mode,
                ring_capacity=trace_config.ring_capacity,
                max_events=trace_config.max_events,
                spill_dir=trace_config.spill_dir,
                golden_signals=self.golden_signals(),
            )
            if trace_config.spill_dir:
                os.makedirs(trace_config.spill_dir, exist_ok=True)
        executor, owned = make_executor(
            backend,
            factory=self.platform_factory,
            observe=self.observe,
            classifier=self.classifier,
            platform=self.platform,
            workers=workers,
            retry=RetryPolicy(max_retries, retry_backoff_s),
            hard_timeout_s=hard_timeout_s,
            chunk_size=chunk_size,
            telemetry=telemetry,
        )
        if batch_size is None:
            batch_size = 1 if executor.workers == 1 else 2 * executor.workers
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        if hasattr(executor, "bind_campaign_key"):
            # Shard-journaling backends (repro.distributed) stamp each
            # worker's shard with the same identity the campaign-level
            # journal carries, so merged shards are interchangeable
            # with — and byte-identical to — a serial journal.
            executor.bind_campaign_key(
                campaign_key(
                    self,
                    strategy,
                    batch_size=batch_size,
                    run_timeout_s=run_timeout_s,
                    trace=trace_config,
                )
            )
        journal: _t.Optional[CampaignCheckpoint] = None
        if checkpoint is not None:
            journal = (
                checkpoint
                if isinstance(checkpoint, CampaignCheckpoint)
                else CampaignCheckpoint(checkpoint)
            )
            # The key pins the *effective* batch size and deadline:
            # both change what a journaled run index means (adaptive
            # strategies plan batch-shaped streams; deadlines change
            # outcomes), and the default batch size follows the host's
            # CPU count, so resuming elsewhere must fail loudly.
            journal.open(
                campaign_key(
                    self,
                    strategy,
                    batch_size=batch_size,
                    run_timeout_s=run_timeout_s,
                    trace=trace_config,
                )
            )
        self.golden()  # eager: no executor ever computes it implicitly
        result = CampaignResult(self.duration)
        rng = random.Random(self.seed)
        if telemetry is not None:
            telemetry.on_campaign_start({
                "runs": runs,
                "backend": backend if isinstance(backend, str)
                else type(backend).__name__,
                "workers": executor.workers,
                "batch_size": batch_size,
                "platform": self.platform,
                "traced": trace_config is not None,
                "resuming": bool(journal is not None and journal.outcomes),
            })
        try:
            index = 0
            while index < runs:
                batch_start = time.perf_counter()  # vp-lint: disable=VP005 - campaign throughput accounting, not model behavior
                specs = self.plan_batch(
                    strategy, rng, min(batch_size, runs - index), index,
                    deadline_s=run_timeout_s,
                    trace=trace_config,
                    reuse_platform=reuse_platform,
                    fork=fork,
                )
                index += len(specs)
                if journal is not None:
                    cached = [
                        journal.outcomes[spec.index]
                        for spec in specs
                        if spec.index in journal.outcomes
                    ]
                    fresh = [
                        spec for spec in specs
                        if spec.index not in journal.outcomes
                    ]
                else:
                    cached, fresh = [], specs
                if prune is not None:
                    skipped = [
                        _pruned_outcome(spec) for spec in fresh
                        if prune.is_dead(spec.scenario)
                    ]
                    fresh = [
                        spec for spec in fresh
                        if not prune.is_dead(spec.scenario)
                    ]
                else:
                    skipped = []
                if telemetry is not None:
                    for spec in fresh:
                        telemetry.on_run_start(spec)
                executed = executor.run_batch(fresh) if fresh else []
                if journal is not None and executed:
                    journal.record_batch(executed)
                result.resumed += len(cached)
                result.pruned += len(skipped)
                if telemetry is not None:
                    for outcome in executed:
                        if outcome.attempts > 1:
                            telemetry.on_retry(outcome)
                        telemetry.on_run_end(outcome)
                    for outcome in cached:
                        telemetry.on_resume(outcome)
                stopped = self._aggregate_batch(
                    result, specs, executed + cached + skipped, strategy,
                    coverage, stop_on,
                )
                if telemetry is not None:
                    batch_wall = time.perf_counter() - batch_start  # vp-lint: disable=VP005 - campaign throughput accounting, not model behavior
                    sim_wall = sum(
                        (o.kernel_stats or {}).get("wall_s", 0.0)
                        for o in executed
                    )
                    telemetry.on_batch_end({
                        "batch_runs": len(specs),
                        "executed": len(executed),
                        "resumed": len(cached),
                        "wall_s": round(batch_wall, 6),
                        "runs_per_s": round(
                            len(specs) / batch_wall, 3
                        ) if batch_wall > 0 else None,
                        "worker_utilization": round(
                            sim_wall / (executor.workers * batch_wall), 4
                        ) if batch_wall > 0 else None,
                        "total_runs": result.runs,
                    })
                if stopped:
                    break
        finally:
            if owned:
                executor.close()
            if journal is not None:
                journal.close()
            if telemetry is not None:
                telemetry.on_campaign_end({
                    "runs": result.runs,
                    "completed": result.completed,
                    "timed_out": result.timed_out,
                    "terminally_failed": result.terminally_failed,
                    "retried": result.retried,
                    "resumed": result.resumed,
                })
        return result

    def _aggregate_batch(
        self,
        result: CampaignResult,
        specs: _t.Sequence[RunSpec],
        outcomes: _t.Sequence[RunOutcome],
        strategy: Strategy,
        coverage: _t.Optional[FaultSpaceCoverage],
        stop_on: _t.Optional[Outcome],
    ) -> bool:
        """Fold one completed batch into the result, in index order.

        Returns True when ``stop_on`` triggered; records planned after
        the triggering run are dropped, mirroring the sequential loop
        which would never have executed them.
        """
        by_index = {outcome.index: outcome for outcome in outcomes}
        feedback: _t.List[_t.Tuple[ErrorScenario, Outcome]] = []
        stopped = False
        for spec in specs:
            outcome = by_index[spec.index]
            record = RunRecord(
                spec.index,
                spec.scenario,
                outcome.outcome,
                list(outcome.matched_rules),
                outcome.observation,
                outcome.injections_applied,
                outcome.kernel_stats,
                outcome.attempts,
                outcome.failure,
                outcome.digest,
            )
            result.append(record)
            if coverage is not None:
                coverage.record(spec.scenario, outcome.outcome)
            feedback.append((spec.scenario, outcome.outcome))
            if stop_on is not None and outcome.outcome >= stop_on:
                stopped = True
                break
        strategy.feedback_batch(feedback)
        return stopped
