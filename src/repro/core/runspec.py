"""The serializable planner/executor boundary of the campaign loop.

The Fig. 3 loop is split into three layers (see DESIGN.md, "Campaign
execution backends"):

1. the **planner** turns strategy output into :class:`RunSpec`s —
   self-contained, picklable descriptions of one run (scenario, run
   seed, duration, platform key, golden reference);
2. an **executor** (``repro.core.executors``) runs specs — in-process
   or fanned out to a worker pool — and returns :class:`RunOutcome`s;
3. the aggregation layer folds outcomes back into
   :class:`~repro.core.campaign.CampaignResult`, coverage, and
   strategy feedback.

Every backend runs specs through the same code, which is what makes
serial and parallel campaigns bit-equal: :func:`dispatch_batch` forms a
batch's fork groups, :func:`execute_runspec` and
:func:`execute_fork_group` bring a platform to a run's start state —
a fresh build, or a restore of a captured (kernel snapshot, module
capture) pair — and both hand it to :func:`_run`, the one per-run body.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import time
import typing as _t

from ..kernel import DeadlineExceeded, Simulator, SnapshotUnsupported
from ..observe import hooks
from ..observe.config import TraceConfig
from ..observe.digest import TraceDigest
from ..observe.runtrace import PrefixDetectionSink, RunTrace, planned_digest
from .classification import Classifier, Outcome, RunObservation
from .scenario import ErrorScenario
from .stressor import Stressor

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..kernel import KernelState, Module

#: Version of the serialized :class:`RunOutcome` layout, stamped into
#: checkpoint journal headers.  Bump on any incompatible change to
#: :meth:`RunOutcome.to_jsonable`.  v2 added the optional ``digest``
#: field (absent/None when the run was untraced, so v1 journals load).
OUTCOME_SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything one campaign run needs, picklable and self-contained.

    ``platform`` is a key into the :mod:`repro.platforms.registry`;
    worker processes rebuild the prototype from it.  ``golden`` is the
    fault-free reference observation, computed once by the campaign
    and shipped with every spec so no worker ever re-runs (or races
    on) the golden simulation.

    ``deadline_s`` is the per-run wall-clock budget, enforced inside
    the simulation loop (see :class:`~repro.kernel.DeadlineExceeded`);
    ``attempt`` counts prior executions of this spec — zero on the
    first try, bumped by the executor when a worker crash forces a
    redispatch.

    ``trace`` arms per-run propagation observability (see
    :mod:`repro.observe`): when set, ``execute_runspec`` records
    injection/deviation/detection events and attaches a
    :class:`~repro.observe.digest.TraceDigest` to the outcome.  The
    campaign resolves it once (including the golden signal reference)
    and embeds it here so every worker traces identically.

    ``reuse_platform`` lets the executing side keep a warm platform
    between runs when every module of the platform declares its
    ``STATE_FIELDS``; ``False`` forces a fresh build for every run.
    Reuse never changes simulation content (that equivalence is
    test-pinned), so the flag is not part of the checkpoint identity.

    ``fork`` opts the run into **snapshot-fork execution**: the
    executing side may group specs sharing a platform and earliest
    injection time, simulate the fault-free prefix once, snapshot the
    kernel (:meth:`Simulator.snapshot`), and fork every run in the
    group from the captured state.  Like ``reuse_platform`` it is an
    execution strategy, not simulation content — fork-vs-fresh
    equivalence is test-pinned — so it is likewise excluded from the
    checkpoint identity.  Platforms opt in by declaring their modules'
    ``STATE_FIELDS``; anything else silently falls back to per-run
    execution.
    """

    index: int
    scenario: ErrorScenario
    run_seed: int
    duration: int
    platform: _t.Optional[str] = None
    golden: _t.Optional[RunObservation] = None
    deadline_s: _t.Optional[float] = None
    attempt: int = 0
    trace: _t.Optional[TraceConfig] = None
    reuse_platform: bool = True
    fork: bool = False

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("run duration must be positive")
        if self.index < 0:
            raise ValueError("run index must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("run deadline must be positive")
        if self.attempt < 0:
            raise ValueError("attempt count must be non-negative")

    def to_jsonable(self) -> _t.Dict[str, _t.Any]:
        """A JSON-serializable dict — the wire form of one run.

        The distributed backend ships specs to remote workers as JSON
        frames (see :mod:`repro.distributed.protocol`), where pickling
        is off the table: frames must be inspectable, versioned, and
        safe to receive from another host.  Everything a spec carries
        is JSON-native already (the golden observation is by the same
        contract the checkpoint journal relies on) except the scenario
        tree and the trace config, which get explicit codecs below.
        """
        return {
            "index": self.index,
            "scenario": _scenario_to_jsonable(self.scenario),
            "run_seed": self.run_seed,
            "duration": self.duration,
            "platform": self.platform,
            "golden": dict(self.golden) if self.golden is not None else None,
            "deadline_s": self.deadline_s,
            "attempt": self.attempt,
            "trace": (
                _trace_to_jsonable(self.trace)
                if self.trace is not None else None
            ),
            "reuse_platform": self.reuse_platform,
            "fork": self.fork,
        }

    @classmethod
    def from_jsonable(cls, payload: _t.Mapping[str, _t.Any]) -> "RunSpec":
        return cls(
            index=payload["index"],
            scenario=_scenario_from_jsonable(payload["scenario"]),
            run_seed=payload["run_seed"],
            duration=payload["duration"],
            platform=payload.get("platform"),
            golden=(
                dict(payload["golden"])
                if payload.get("golden") is not None else None
            ),
            deadline_s=payload.get("deadline_s"),
            attempt=payload.get("attempt", 0),
            trace=(
                _trace_from_jsonable(payload["trace"])
                if payload.get("trace") is not None else None
            ),
            reuse_platform=payload.get("reuse_platform", True),
            fork=payload.get("fork", False),
        )


# -- RunSpec wire codec ------------------------------------------------------
#
# The scenario tree (scenario -> planned injections -> fault
# descriptors, plus the optional operating state) and the trace config
# are plain frozen dataclasses of JSON-native fields; these helpers
# flatten them for the distributed protocol and rebuild them verbatim.
# Enum members travel by value, tuples are restored as tuples, and a
# non-JSON-native descriptor param fails at *encode* time with the run
# named — not as an opaque json.dumps error deep inside a socket write.


def _descriptor_to_jsonable(descriptor) -> _t.Dict[str, _t.Any]:
    params = dict(descriptor.params)
    try:
        import json as _json

        _json.dumps(params)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"fault descriptor {descriptor.name!r} has non-JSON-native "
            f"params and cannot cross the distributed wire: {exc}"
        ) from None
    return {
        "name": descriptor.name,
        "kind": descriptor.kind.value,
        "persistence": descriptor.persistence.value,
        "duration": descriptor.duration,
        "params": params,
        "rate_per_hour": descriptor.rate_per_hour,
    }


def _descriptor_from_jsonable(payload: _t.Mapping[str, _t.Any]):
    from ..faults.models import FaultDescriptor, FaultKind, Persistence

    return FaultDescriptor(
        name=payload["name"],
        kind=FaultKind(payload["kind"]),
        persistence=Persistence(payload["persistence"]),
        duration=payload["duration"],
        params=dict(payload["params"]),
        rate_per_hour=payload["rate_per_hour"],
    )


def _scenario_to_jsonable(scenario: ErrorScenario) -> _t.Dict[str, _t.Any]:
    state = scenario.operating_state
    return {
        "name": scenario.name,
        "injections": [
            {
                "time": planned.time,
                "target_path": planned.target_path,
                "descriptor": _descriptor_to_jsonable(planned.descriptor),
            }
            for planned in scenario.injections
        ],
        "operating_state": (
            {
                "name": state.name,
                "fraction": state.fraction,
                "loads": dict(state.loads),
                "special": state.special,
            }
            if state is not None else None
        ),
        "sampling_weight": scenario.sampling_weight,
    }


def _scenario_from_jsonable(payload: _t.Mapping[str, _t.Any]) -> ErrorScenario:
    from ..mission.profile import OperatingState
    from .scenario import PlannedInjection

    state_payload = payload.get("operating_state")
    state = None
    if state_payload is not None:
        state = OperatingState(
            name=state_payload["name"],
            fraction=state_payload["fraction"],
            loads=dict(state_payload["loads"]),
            special=state_payload["special"],
        )
    return ErrorScenario(
        name=payload["name"],
        injections=tuple(
            PlannedInjection(
                time=planned["time"],
                target_path=planned["target_path"],
                descriptor=_descriptor_from_jsonable(planned["descriptor"]),
            )
            for planned in payload["injections"]
        ),
        operating_state=state,
        sampling_weight=payload.get("sampling_weight", 1.0),
    )


def _trace_to_jsonable(trace: TraceConfig) -> _t.Dict[str, _t.Any]:
    return {
        "mode": trace.mode,
        "ring_capacity": trace.ring_capacity,
        "max_events": trace.max_events,
        "spill_dir": trace.spill_dir,
        "golden_signals": [
            [name, value] for name, value in trace.golden_signals
        ],
    }


def _trace_from_jsonable(payload: _t.Mapping[str, _t.Any]) -> TraceConfig:
    return TraceConfig(
        mode=payload["mode"],
        ring_capacity=payload["ring_capacity"],
        max_events=payload["max_events"],
        spill_dir=payload.get("spill_dir"),
        golden_signals=tuple(
            (name, value) for name, value in payload["golden_signals"]
        ),
    )


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """The compact result an executor returns for one :class:`RunSpec`.

    Deliberately free of live simulation objects: only the
    classification verdict, the probe observation, and the kernel cost
    counters cross the process boundary back to the planner.

    ``failure`` is ``None`` for a conclusive run, or the degradation
    kind — ``"timeout"`` (deadline exceeded in the worker or at the
    pool), ``"crash"`` (worker process died and retries ran out), or
    ``"error"`` (the run raised) — with the detail in ``error``.
    ``attempts`` counts executions including the successful one.

    ``digest`` is the per-run trace digest when the spec was traced
    (``None`` otherwise) — simulation-deterministic content only, so
    it participates in the serial/parallel byte-equality contract
    while ``attempts`` (execution history) does not.
    """

    index: int
    outcome: Outcome
    matched_rules: _t.Tuple[str, ...]
    observation: RunObservation
    injections_applied: int
    kernel_stats: _t.Dict[str, _t.Any]
    stressor_errors: _t.Tuple[str, ...] = ()
    attempts: int = 1
    failure: _t.Optional[str] = None
    error: _t.Optional[str] = None
    digest: _t.Optional[TraceDigest] = None

    def to_jsonable(self) -> _t.Dict[str, _t.Any]:
        """A JSON-serializable dict (checkpoint journal line).

        Only JSON-native observation values survive the round trip;
        the built-in platforms observe ints, floats, bools, and hex
        strings, which is exactly that set.
        """
        return {
            "index": self.index,
            "outcome": self.outcome.name,
            "matched_rules": list(self.matched_rules),
            "observation": dict(self.observation),
            "injections_applied": self.injections_applied,
            "kernel_stats": dict(self.kernel_stats),
            "stressor_errors": list(self.stressor_errors),
            "attempts": self.attempts,
            "failure": self.failure,
            "error": self.error,
            "digest": (
                self.digest.to_jsonable() if self.digest is not None else None
            ),
        }

    @classmethod
    def from_jsonable(cls, payload: _t.Mapping[str, _t.Any]) -> "RunOutcome":
        return cls(
            index=payload["index"],
            outcome=Outcome[payload["outcome"]],
            matched_rules=tuple(payload["matched_rules"]),
            observation=dict(payload["observation"]),
            injections_applied=payload["injections_applied"],
            kernel_stats=dict(payload["kernel_stats"]),
            stressor_errors=tuple(payload.get("stressor_errors", ())),
            attempts=payload.get("attempts", 1),
            failure=payload.get("failure"),
            error=payload.get("error"),
            digest=(
                TraceDigest.from_jsonable(payload["digest"])
                if payload.get("digest") is not None
                else None
            ),
        )


def failure_outcome(
    spec: RunSpec,
    failure: str,
    error: str,
    attempts: int = 1,
    kernel_stats: _t.Optional[_t.Dict[str, _t.Any]] = None,
    label: _t.Optional[str] = None,
    digest: _t.Optional[TraceDigest] = None,
) -> RunOutcome:
    """Synthesize the terminal :data:`Outcome.TIMEOUT` record for a run
    that could not produce a classification (hang, crash, raise).

    The matched-rule *label* (e.g. ``"timeout:deadline"``,
    ``"crash:worker"``) carries the degradation kind so reports can
    distinguish deadline timeouts from crashed workers without a new
    record field downstream.

    Traced runs still get a digest: the caller passes whatever
    evidence survived (the worker-side deadline path finalizes its
    recorder), and when nothing did — dead or hung worker, raising
    platform — a partial digest is synthesized from the scenario's
    *planned* injections, so even a post-mortem with no worker left
    alive knows which faults were on the table.
    """
    if digest is None and spec.trace is not None:
        digest = planned_digest(
            spec.index,
            spec.run_seed,
            spec.scenario,
            outcome=Outcome.TIMEOUT.name,
        )
    return RunOutcome(
        index=spec.index,
        outcome=Outcome.TIMEOUT,
        matched_rules=(label or failure,),
        observation={},
        injections_applied=0,
        kernel_stats=kernel_stats or {},
        attempts=attempts,
        failure=failure,
        error=error,
        digest=digest,
    )


def error_outcome(spec: RunSpec, exc: BaseException) -> RunOutcome:
    """The terminal record of a run whose body raised *exc*.

    A deterministic raise would fail identically on every retry, so
    the run is charged one attempt and labelled ``error:<type>``.
    """
    return failure_outcome(
        spec,
        failure="error",
        error=f"{type(exc).__name__}: {exc}",
        attempts=spec.attempt + 1,
        label=f"error:{type(exc).__name__}",
    )


def _resolve_trace_signals(
    spec: RunSpec,
    root: "Module",
    trace_signals: _t.Optional[_t.Callable] = None,
) -> _t.Mapping[str, _t.Any]:
    """Which kernel signals this run's trace should watch.

    Explicit *trace_signals* (a ``root -> {name: signal}`` callable)
    wins; registry-backed specs fall back to their platform bundle's
    ``trace_signals``; otherwise nothing is watched (the digest still
    carries injections, observation deviations, and detections).
    """
    if trace_signals is not None:
        return trace_signals(root) or {}
    if spec.platform is not None:
        from ..platforms import registry

        bundle = registry.get_platform(spec.platform)
        if bundle.trace_signals is not None:
            return bundle.trace_signals(root) or {}
    return {}


class _WarmPlatform(_t.NamedTuple):
    """A cached platform, the factory that built it, and its
    elaboration capture."""

    factory: _t.Callable
    sim: Simulator
    root: "Module"
    kernel_state: "KernelState"
    platform_restore: _t.Callable[[], None]


#: Per-process warm-platform cache: platform key -> :class:`_WarmPlatform`.
_WARM_PLATFORMS: _t.Dict[str, _WarmPlatform] = {}


def clear_warm_platforms() -> None:
    """Drop every cached warm platform (tests, defensive teardown)."""
    _WARM_PLATFORMS.clear()


def _drop_warm(key: _t.Optional[str], sim: Simulator) -> None:
    """Forget *sim* if it is the cached warm platform for *key*."""
    entry = _WARM_PLATFORMS.get(key)
    if entry is not None and entry.sim is sim:
        del _WARM_PLATFORMS[key]


def _acquire_platform(
    spec: RunSpec,
    factory: "_t.Callable[[Simulator], Module]",
    kernel_factory: _t.Optional[_t.Callable[[], Simulator]] = None,
) -> _t.Tuple[Simulator, "Module", bool]:
    """``(sim, root, warm)`` to run *spec* on.

    The warm path engages when the spec allows reuse and carries a
    platform key.  A miss elaborates and caches the platform with a
    module capture (:meth:`Module.capture_state`) and a strict
    :meth:`Simulator.snapshot`, both taken before any per-run
    scaffolding is armed; a hit from the same factory restores that
    pair.  A key re-registered with another factory — or a
    caller-supplied factory sharing a key — therefore misses.  A
    platform with an undeclared module fails its module capture, and
    one whose elaboration leaves a bare-generator process alive (which
    a lenient snapshot would silently drop from every warm run) fails
    the strict snapshot: either builds fresh every time.

    A non-default *kernel_factory* (instrumented kernels: the
    order-sensitivity checker's shuffled scheduler) forces the fresh
    path — an instrumented kernel must never be cached as a warm
    platform other runs would silently inherit.
    """
    key = spec.platform
    if kernel_factory is None and spec.reuse_platform and key:
        entry = _WARM_PLATFORMS.get(key)
        if entry is not None and entry.factory is factory:
            entry.sim.restore(
                entry.kernel_state, platform_restore=entry.platform_restore
            )
            return entry.sim, entry.root, True
        sim = Simulator()
        root = factory(sim)
        try:
            module_state = root.capture_state()
            kernel_state = sim.snapshot()
        except SnapshotUnsupported:
            return sim, root, False
        _WARM_PLATFORMS[key] = _WarmPlatform(
            factory, sim, root, kernel_state,
            functools.partial(root.restore_state, module_state),
        )
        return sim, root, True
    sim = Simulator() if kernel_factory is None else kernel_factory()
    return sim, factory(sim), False


def _run(
    spec: RunSpec,
    sim: Simulator,
    root: "Module",
    observe: "_t.Callable[[Module], RunObservation]",
    classifier: Classifier,
    golden: _t.Optional[RunObservation],
    trace_signals: _t.Optional[_t.Callable],
    wall_start: float,
    outlives: bool,
    seq_base: _t.Optional[int] = None,
    prefix_detections: _t.Optional[_t.Sequence[_t.Any]] = None,
) -> RunOutcome:
    """Run *spec* on a platform already at its start state.

    The stressor arms normally, or with :meth:`Stressor.arm_forked`
    above *seq_base* on a forked kernel; a traced spec's recorder is
    armed before simulation starts, seeded with a fork prefix's
    *prefix_detections*.  On every exit the recorder is disarmed (the
    detection hook bus is process-global), and when the platform
    *outlives* the run — warm, or a fork group's base — the stressor
    subtree is detached.  A raise evicts the platform from the warm
    cache and propagates.
    """
    reference = spec.golden if spec.golden is not None else golden
    if reference is None:
        raise ValueError(
            f"run {spec.index}: no golden reference (neither embedded "
            f"in the spec nor passed by the caller)"
        )
    stressor = Stressor(
        "stressor", parent=root, platform_root=root,
        rng=random.Random(spec.run_seed),
    )
    run_trace: _t.Optional[RunTrace] = None
    try:
        if seq_base is None:
            stressor.arm(spec.scenario)
        else:
            stressor.arm_forked(spec.scenario, seq_base)
        if spec.trace is not None:
            run_trace = RunTrace(spec.trace, spec.index, spec.run_seed)
            if prefix_detections is not None:
                run_trace.preload_detections(prefix_detections)
            run_trace.arm(
                sim, _resolve_trace_signals(spec, root, trace_signals)
            )
        try:
            sim.run(until=spec.duration, deadline_s=spec.deadline_s)
        except DeadlineExceeded as exc:
            # The injected fault hung the DUT (e.g. a livelocked control
            # loop): degrade to one classified-inconclusive record
            # instead of stalling the campaign.  Partial kernel counters
            # still ship so the wasted simulation work is accounted for,
            # and the trace recorded up to the hang survives as a
            # partial digest — the hung-run post-mortem evidence.  The
            # platform stays cached: a restore returns a merely
            # interrupted platform to its start state (test-pinned).
            kernel_stats = sim.stats()
            kernel_stats["wall_s"] = time.perf_counter() - wall_start  # vp-lint: disable=VP005 - wall_s accounting, not model behavior
            digest = None
            if run_trace is not None:
                digest = run_trace.finalize(
                    stressor=stressor,
                    outcome=Outcome.TIMEOUT.name,
                    partial=True,
                )
            return failure_outcome(
                spec,
                failure="timeout",
                error=str(exc),
                attempts=spec.attempt + 1,
                kernel_stats=kernel_stats,
                label="timeout:deadline",
                digest=digest,
            )
        observation = observe(root)
        outcome, matched = classifier.classify(observation, reference)
        digest = None
        if run_trace is not None:
            digest = run_trace.finalize(
                stressor=stressor,
                observation=observation,
                golden=reference,
                outcome=outcome.name,
            )
        kernel_stats = sim.stats()
        kernel_stats["wall_s"] = time.perf_counter() - wall_start  # vp-lint: disable=VP005 - wall_s accounting, not model behavior
        return RunOutcome(
            index=spec.index,
            outcome=outcome,
            matched_rules=tuple(matched),
            observation=observation,
            injections_applied=len(stressor.applied),
            kernel_stats=kernel_stats,
            stressor_errors=tuple(stressor.errors),
            attempts=spec.attempt + 1,
            digest=digest,
        )
    except BaseException:
        # Unwinding with the platform in an unknown mid-run state
        # (raising process body, observation/classification bug): the
        # next run re-elaborates rather than trusting a restore to
        # repair it.
        _drop_warm(spec.platform, sim)
        raise
    finally:
        if run_trace is not None:
            run_trace.disarm()
        if outlives:
            # Detach reaps the stressor subtree — kills its injection
            # processes and unregisters anything it created from the
            # kernel — so a reused kernel's memory stays flat and the
            # parent never accumulates same-named stressor children.
            stressor.detach()


def execute_runspec(
    spec: RunSpec,
    factory: "_t.Callable[[Simulator], Module]",
    observe: "_t.Callable[[Module], RunObservation]",
    classifier: Classifier,
    golden: _t.Optional[RunObservation] = None,
    trace_signals: _t.Optional[_t.Callable] = None,
    kernel_factory: _t.Optional[_t.Callable[[], Simulator]] = None,
) -> RunOutcome:
    """Execute one spec and classify the result.

    A spec that permits ``reuse_platform`` keeps the elaborated
    platform between calls, restoring its elaboration capture instead
    of rebuilding, whenever the platform can be captured (see
    :func:`_acquire_platform`); otherwise every call builds a fresh
    kernel and platform — semantically identical, just slower.

    *kernel_factory* (default: plain :class:`Simulator`) builds the
    kernel for the fresh path — diagnostic harnesses pass an
    instrumented one (e.g. ``Simulator(order_seed=...)`` from the
    order-sensitivity checker); supplying it disables warm reuse for
    this call.

    The golden reference is taken from the spec when present,
    otherwise from the *golden* argument; planners always embed it so
    executors need no shared state.
    """
    wall_start = time.perf_counter()  # vp-lint: disable=VP005 - wall_s accounting, not model behavior
    sim, root, warm = _acquire_platform(spec, factory, kernel_factory)
    return _run(
        spec, sim, root, observe, classifier, golden, trace_signals,
        wall_start, outlives=warm,
    )


def execute_runspec_from_registry(spec: RunSpec) -> RunOutcome:
    """Worker-side entry point: resolve the platform key, then run.

    Module-level (hence picklable by reference) so process pools can
    ship it; the lazy import keeps ``repro.core`` importable without
    ``repro.platforms`` and triggers built-in registration inside
    freshly spawned workers.
    """
    if spec.platform is None:
        raise ValueError(
            f"run {spec.index}: spec carries no platform key — only "
            f"registry-backed campaigns can execute out of process"
        )
    from ..platforms import registry

    bundle = registry.get_platform(spec.platform)
    classifier = registry.get_classifier(spec.platform)
    return execute_runspec(spec, bundle.factory, bundle.observe, classifier)


# -- snapshot-fork execution -------------------------------------------------


class ForkUnsupported(RuntimeError):
    """This group cannot run fork-mode; callers fall back to per-run
    execution (which is always semantically equivalent, just slower)."""


def fork_time(spec: RunSpec) -> _t.Optional[int]:
    """The pre-injection fork point of *spec*, or ``None``.

    A spec can fork when it opted in, carries a platform key, and its
    scenario's earliest injection lands strictly inside the run window
    (``1 <= t1 <= duration``) — the shared prefix is then ``[0, t1-1]``
    and every injector's anchor wait (see ``Stressor._inject_at``)
    crosses the fork boundary identically on forked and fresh runs.
    """
    if not spec.fork or spec.platform is None:
        return None
    if not spec.scenario.injections:
        return None
    t1 = min(planned.time for planned in spec.scenario.injections)
    if t1 < 1 or t1 > spec.duration:
        return None
    return t1


def fork_groups(
    specs: _t.Sequence[RunSpec],
) -> _t.Tuple[
    _t.List[_t.Tuple[_t.Tuple[str, int], _t.List[RunSpec]]],
    _t.List[RunSpec],
]:
    """Partition *specs* into ``(groups, singles)``.

    A group keys on ``(platform, fork_time)`` — the prefix those specs
    share.  Groups of one fall back to ``singles`` (a one-run "group"
    pays the snapshot without amortizing it).  Order within a group and
    among singles follows the input; callers reassemble results by
    spec index.
    """
    buckets: _t.Dict[_t.Tuple[str, int], _t.List[RunSpec]] = {}
    order: _t.List[_t.Tuple[str, int]] = []
    singles: _t.List[RunSpec] = []
    for spec in specs:
        t1 = fork_time(spec)
        if t1 is None:
            singles.append(spec)
            continue
        key = (spec.platform, t1)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(spec)
    groups = []
    for key in order:
        members = buckets[key]
        if len(members) == 1:
            singles.append(members[0])
        else:
            groups.append((key, members))
    return groups, singles


def execute_fork_group(
    specs: _t.Sequence[RunSpec],
    factory: "_t.Callable[[Simulator], Module]",
    observe: "_t.Callable[[Module], RunObservation]",
    classifier: Classifier,
    golden: _t.Optional[RunObservation] = None,
    trace_signals: _t.Optional[_t.Callable] = None,
) -> _t.List[RunOutcome]:
    """Execute a fork group: one shared prefix, N forked runs.

    All *specs* must share a platform and fork time (as produced by
    :func:`fork_groups`).  The fault-free prefix ``[0, t1-1]`` is
    simulated once on the platform :func:`_acquire_platform` hands out
    (the warm one when the lead spec allows reuse); a module capture
    plus :meth:`Simulator.snapshot` then pin the boundary, and each
    spec runs the suffix through :func:`_run` from a restore of that
    capture.  Every result record — outcome, observation, kernel
    counters (minus wall clock), digest — is byte-identical to per-run
    execution; that equivalence is property-test pinned.  A member that raises comes back as the same
    terminal record the tolerant per-run path emits.

    Raises :class:`ForkUnsupported` when the platform holds an
    undeclared module or a bare-generator process, or the prefix itself
    fails — callers fall back to per-run execution, which reproduces
    any prefix failure verbatim in each run's own record.
    """
    t1 = fork_time(specs[0])
    if t1 is None:
        raise ForkUnsupported("lead spec has no fork point")
    for spec in specs:
        if fork_time(spec) != t1 or spec.platform != specs[0].platform:
            raise ValueError(
                "execute_fork_group requires specs sharing one "
                "(platform, fork_time); use fork_groups() to partition"
            )

    sim, root, _warm = _acquire_platform(specs[0], factory)

    # Probe the tie-break counter at the end of delta cycle 0: on a
    # fresh run the stressor's injectors step *last* in that cycle (the
    # stressor is built after the platform), so their wheel entries
    # take the sequence numbers just above this value.  arm_forked
    # re-arms them at fractional offsets above the same base, which
    # reproduces the fresh ordering exactly (see Stressor.arm_forked).
    seq_box: _t.List[int] = []

    def _seq_probe(_sim):
        if not seq_box:
            seq_box.append(sim._seq)

    sim.delta_hooks.append(_seq_probe)

    # Detections fired during the prefix (a watchdog absorbing a glitch,
    # ECC scrubbing) belong to every forked run's trace, exactly as a
    # fresh run's recorder — armed from time zero — would see them.
    prefix_sink: _t.Optional[PrefixDetectionSink] = None
    if any(spec.trace is not None for spec in specs):
        prefix_sink = PrefixDetectionSink()
        hooks.push_sink(prefix_sink)
    try:
        try:
            sim.run(until=t1 - 1, deadline_s=specs[0].deadline_s)
        except Exception as exc:  # vp-lint: disable=VP007 - prefix failure aborts fork mode; the per-run fallback re-raises identically inside each run's own record
            _drop_warm(specs[0].platform, sim)
            raise ForkUnsupported(
                f"prefix failed: {type(exc).__name__}: {exc}"
            ) from exc
    finally:
        if prefix_sink is not None:
            hooks.pop_sink(prefix_sink)
        sim.delta_hooks.remove(_seq_probe)
    if not seq_box:
        raise ForkUnsupported("prefix executed no delta cycle")
    seq_base = seq_box[0]

    try:
        platform_restore = functools.partial(
            root.restore_state, root.capture_state()
        )
        kernel_state = sim.snapshot()
    except SnapshotUnsupported as exc:
        raise ForkUnsupported(str(exc)) from exc
    prefix_detections = (
        prefix_sink.detections if prefix_sink is not None else None
    )

    outcomes: _t.List[RunOutcome] = []
    for position, spec in enumerate(specs):
        wall_start = time.perf_counter()  # vp-lint: disable=VP005 - wall_s accounting, not model behavior
        try:
            if position > 0:
                sim.restore(kernel_state, platform_restore=platform_restore)
            # Boundary compensation: resuming run() at t1-1 executes one
            # empty delta cycle a continuous run would not; undo it so
            # forked kernel counters equal fresh ones byte-for-byte.
            sim.delta_cycles_total -= 1
            outcomes.append(_run(
                spec, sim, root, observe, classifier, golden,
                trace_signals, wall_start, outlives=True,
                seq_base=seq_base, prefix_detections=prefix_detections,
            ))
        except Exception as exc:  # vp-lint: disable=VP007 - degraded to the same terminal record the tolerant per-run path emits; the next iteration restores the snapshot regardless
            outcomes.append(error_outcome(spec, exc))
    return outcomes


def execute_fork_group_from_registry(
    specs: _t.Sequence[RunSpec],
) -> _t.List[RunOutcome]:
    """Worker-side fork-group entry point (picklable by reference)."""
    spec = specs[0]
    if spec.platform is None:
        raise ValueError(
            f"run {spec.index}: spec carries no platform key — only "
            f"registry-backed campaigns can execute out of process"
        )
    from ..platforms import registry

    bundle = registry.get_platform(spec.platform)
    classifier = registry.get_classifier(spec.platform)
    return execute_fork_group(
        specs, bundle.factory, bundle.observe, classifier
    )


def dispatch_batch(
    specs: _t.Sequence[RunSpec],
    run_group: _t.Callable[[_t.Sequence[RunSpec]], _t.List[RunOutcome]],
    run_one: _t.Callable[[RunSpec], RunOutcome],
) -> _t.List[RunOutcome]:
    """Run a batch: fork groups through *run_group*, the rest — and
    every member of a group the platform cannot fork
    (:class:`ForkUnsupported`) — one by one through *run_one*.

    Specs sharing a platform and fork time form a group (see
    :func:`fork_groups`); records come back in spec order either way.
    """
    groups, singles = fork_groups(specs)
    done: _t.Dict[int, RunOutcome] = {}
    for _key, members in groups:
        try:
            results = run_group(members)
        except ForkUnsupported:
            results = [run_one(spec) for spec in members]
        for spec, outcome in zip(members, results):
            done[spec.index] = outcome
    for spec in singles:
        done[spec.index] = run_one(spec)
    return [done[spec.index] for spec in specs]


def execute_runspec_tolerant(spec: RunSpec) -> RunOutcome:
    """Worker-side entry point that never raises back across the pool.

    Exceptions from the run body (platform bugs, fault-induced process
    errors) are folded into a terminal :data:`Outcome.TIMEOUT` record
    worker-side — remote exceptions often do not survive pickling (a
    :class:`~repro.kernel.ProcessError` holds a live generator), and a
    deterministic raise would fail identically on every retry anyway.
    Worker *crashes* (``os._exit``, OOM kills) cannot be caught here;
    the pool executor sees those as ``BrokenProcessPool`` and handles
    the retry/terminal bookkeeping on the parent side.
    """
    try:
        return execute_runspec_from_registry(spec)
    except Exception as exc:  # noqa: BLE001 - degraded to a record  # vp-lint: disable=VP007 - deadlines degrade to TIMEOUT inside execute_runspec; anything that escapes must become a record, never kill the worker
        return error_outcome(spec, exc)


def execute_chunk_tolerant(
    specs: _t.Sequence[RunSpec],
) -> _t.List[RunOutcome]:
    """Worker-side entry point for one contiguous chunk of specs.

    Runs the chunk through :func:`dispatch_batch` — the same grouping
    and per-run fallback the serial executor uses — with the tolerant
    per-run path, so a chunk's records are byte-identical to the same
    specs dispatched one future each: per-run deadlines, degradation
    labels, and digests all come from the same code.  One pickled
    future per *chunk* instead of per *run* is where the dispatch
    saving comes from (and within a chunk, warm-platform reuse never
    pays the pool's pickling round-trip between consecutive runs).

    Worker death mid-chunk surfaces pool-side as a failure of the
    whole chunk's future; the executor then falls back to per-run
    dispatch for exactly these specs (see
    ``ParallelExecutor.run_batch``), which re-derives the crash /
    hang attribution at run granularity.
    """
    return dispatch_batch(
        specs, execute_fork_group_from_registry, execute_runspec_tolerant
    )
