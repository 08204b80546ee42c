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
serial and parallel campaigns bit-equal: :func:`dispatch_batch` runs a
batch spec by spec through :func:`execute_runspec`, which brings a
platform to the run's start state — a fresh build, or a restore of a
rung of the platform's golden-run ladder, a (kernel snapshot, module
capture) pair taken along the fault-free run — and hands it to
:func:`_run`, the one per-run body.
"""

from __future__ import annotations

import collections
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

    A warm platform also starts each run from its **golden-run
    ladder**: the latest capture of the fault-free run at or before the
    spec's first injection time minus one (see :func:`_acquire_platform`).
    That too is execution strategy, not simulation content.
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
        }

    @classmethod
    def from_jsonable(cls, payload: _t.Mapping[str, _t.Any]) -> "RunSpec":
        # Unknown keys are ignored, so frames from a sender that still
        # writes the retired ``fork`` flag decode unchanged.
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


#: Fixed rungs per golden-run ladder: rung *k* sits at
#: ``k * (duration // LADDER_RUNGS)``.  A constant, not an option.
LADDER_RUNGS = 64


class _Rung(_t.NamedTuple):
    """The platform as its fault-free run leaves it at ``time``.

    Rung 0 is the elaboration capture: time 0, before delta cycle 0,
    so a run from it arms its stressor normally.  Every later rung sits
    between two :meth:`Simulator.run` calls and carries the counters a
    continuous run reads there; a run from it arms its stressor with
    :meth:`Stressor.arm_forked` above ``seq_base``, and a traced run
    replays ``detections``, the ones the golden run fired up to
    ``time``.
    """

    time: int
    kernel_state: "KernelState"
    platform_restore: _t.Callable[[], None]
    seq_base: _t.Optional[int] = None
    detections: _t.Tuple[_t.Tuple[int, str, str, str], ...] = ()


class _WarmPlatform:
    """A cached platform, the factory that built it, and its golden-run
    ladder."""

    __slots__ = (
        "factory", "sim", "root", "elaboration", "ladders", "frozen",
        "batch_rungs",
    )

    def __init__(self, factory, sim: Simulator, root: "Module", elaboration):
        self.factory = factory
        self.sim = sim
        self.root = root
        #: Rung 0: the capture taken right after elaboration.
        self.elaboration: _Rung = elaboration
        #: Fixed rungs built so far, by spacing and index:
        #: ``ladders[s][k]`` sits at ``k * s``; ``ladders[s][0]`` is the
        #: elaboration capture.
        self.ladders: _t.Dict[int, _t.Dict[int, _Rung]] = {}
        #: Set when the golden run reached state a capture refuses; the
        #: ladder then stops growing.
        self.frozen = False
        #: Shared-time rungs of the batch in flight, by time.
        self.batch_rungs: _t.Dict[int, _Rung] = {}


#: Per-process warm-platform cache: platform key -> :class:`_WarmPlatform`.
_WARM_PLATFORMS: _t.Dict[str, _WarmPlatform] = {}

#: ``(platform, fork time)`` pairs two or more specs of the batch in
#: flight share; :func:`dispatch_batch` fills and clears it.  Process-wide
#: like the warm cache it serves: a process runs one batch at a time.
_SHARED_FORK_TIMES: _t.Set[_t.Tuple[str, int]] = set()


def clear_warm_platforms() -> None:
    """Drop every cached warm platform (tests, defensive teardown)."""
    _WARM_PLATFORMS.clear()


def _drop_warm(key: _t.Optional[str], sim: Simulator) -> None:
    """Forget *sim* if it is the cached warm platform for *key*."""
    entry = _WARM_PLATFORMS.get(key)
    if entry is not None and entry.sim is sim:
        del _WARM_PLATFORMS[key]


def fork_time(spec: RunSpec) -> _t.Optional[int]:
    """The earliest injection time of *spec*, or ``None`` when a run of
    it cannot start past rung 0.

    That takes a platform key and an earliest injection ``t1`` inside
    the run window (``1 <= t1 <= duration``): the run then starts from
    the latest rung at or before ``t1 - 1``, and every injector's
    anchor wait (see ``Stressor._inject_at``) crosses that rung
    identically on laddered and fresh runs.
    """
    if spec.platform is None or not spec.scenario.injections:
        return None
    t1 = min(planned.time for planned in spec.scenario.injections)
    if t1 < 1 or t1 > spec.duration:
        return None
    return t1


def _extend(
    entry: _WarmPlatform, base: _Rung, time: int
) -> _t.Optional[_Rung]:
    """A rung at *time*, simulated along the golden run from *base*, or
    ``None`` when the state there refuses a capture, which freezes the
    ladder where it stands.

    A :meth:`Simulator.run` call that resumes at a boundary runs one
    empty delta cycle a continuous run would not; it is subtracted
    before the capture, so a rung's counters are the continuous run's.
    A climb from rung 0 probes the tie-break counter at the end of
    delta cycle 0, where a fresh run's injectors take theirs (see
    :meth:`Stressor.arm_forked`).  The new rung carries *base*'s
    detections plus those fired on the way.
    """
    sim, root = entry.sim, entry.root
    sim.restore(base.kernel_state, platform_restore=base.platform_restore)
    sink = PrefixDetectionSink()
    sink.detections.extend(base.detections)
    seq_box: _t.List[int] = []

    def _seq_probe(_sim):
        if not seq_box:
            seq_box.append(sim._seq)

    if base.seq_base is None:
        sim.delta_hooks.append(_seq_probe)
    hooks.push_sink(sink)
    try:
        sim.run(until=time)
    finally:
        hooks.pop_sink(sink)
        if _seq_probe in sim.delta_hooks:
            sim.delta_hooks.remove(_seq_probe)
    if base.time:
        sim.delta_cycles_total -= 1
    try:
        platform_restore = functools.partial(
            root.restore_state, root.capture_state()
        )
        kernel_state = sim.snapshot()
    except SnapshotUnsupported:
        entry.frozen = True
        return None
    return _Rung(
        time, kernel_state, platform_restore,
        seq_box[0] if base.seq_base is None else base.seq_base,
        tuple(sink.detections),
    )


def _climb(entry: _WarmPlatform, spacing: int, index: int) -> _Rung:
    """Fixed rung *index* of the ladder at *spacing*, built on first
    need by climbing the golden run from the nearest rung below it —
    or that rung itself, once the ladder is frozen."""
    ladder = entry.ladders.get(spacing)
    if ladder is None:
        ladder = entry.ladders[spacing] = {0: entry.elaboration}
    rung = ladder.get(index)
    if rung is not None:
        return rung
    base = ladder[max(k for k in ladder if k < index)]
    rung = None if entry.frozen else _extend(entry, base, index * spacing)
    if rung is None:
        return base
    ladder[index] = rung
    return rung


def _rung_for(entry: _WarmPlatform, spec: RunSpec) -> _Rung:
    """The rung a run of *spec* starts from: the latest one at or before
    its fork time minus one, or that time's batch rung when the batch
    in flight shares it (see :func:`dispatch_batch`)."""
    t1 = fork_time(spec)
    spacing = spec.duration // LADDER_RUNGS
    if t1 is None or spacing == 0:
        return entry.elaboration
    fork_point = t1 - 1
    fixed = _climb(entry, spacing, fork_point // spacing)
    if (
        fixed.time == fork_point
        or entry.frozen
        or (spec.platform, t1) not in _SHARED_FORK_TIMES
    ):
        return fixed
    rung = entry.batch_rungs.get(fork_point)
    if rung is None:
        rung = _extend(entry, fixed, fork_point)
        if rung is None:
            return fixed
        entry.batch_rungs[fork_point] = rung
    return rung


def _acquire_platform(
    spec: RunSpec,
    factory: "_t.Callable[[Simulator], Module]",
    kernel_factory: _t.Optional[_t.Callable[[], Simulator]] = None,
) -> _t.Tuple[Simulator, "Module", _t.Optional[_Rung]]:
    """``(sim, root, rung)`` to run *spec* on; *rung* is the golden-run
    capture the platform was restored to, ``None`` for a fresh build.

    The warm path engages when the spec allows reuse and carries a
    platform key.  A miss elaborates and caches the platform with rung
    0 of its ladder: a module capture (:meth:`Module.capture_state`)
    and a :meth:`Simulator.snapshot`, both taken before any per-run
    scaffolding is armed.  A key re-registered with another factory —
    or a caller-supplied factory sharing a key — therefore misses.  A
    platform with an undeclared module fails its module capture, and
    one whose elaboration leaves a bare-generator process alive fails
    the snapshot: either builds fresh every time.

    A cached platform is restored to the latest rung at or before the
    spec's fork time minus one (:func:`_rung_for`), built on first need
    by climbing the fault-free run from the nearest rung below, so the
    run re-simulates none of the prefix it shares with the golden run.

    A non-default *kernel_factory* (instrumented kernels: the
    order-sensitivity checker's shuffled scheduler) forces the fresh
    path — an instrumented kernel must never be cached as a warm
    platform other runs would silently inherit.
    """
    key = spec.platform
    if kernel_factory is None and spec.reuse_platform and key:
        entry = _WARM_PLATFORMS.get(key)
        if entry is None or entry.factory is not factory:
            sim = Simulator()
            root = factory(sim)
            try:
                module_state = root.capture_state()
                kernel_state = sim.snapshot()
            except SnapshotUnsupported:
                return sim, root, None
            entry = _WARM_PLATFORMS[key] = _WarmPlatform(
                factory, sim, root, _Rung(
                    0, kernel_state,
                    functools.partial(root.restore_state, module_state),
                ),
            )
        try:
            rung = _rung_for(entry, spec)
        except BaseException:
            # The golden run raised on the climb: the platform is
            # mid-run in an unknown state, so the next run re-elaborates.
            _drop_warm(key, entry.sim)
            raise
        entry.sim.restore(
            rung.kernel_state, platform_restore=rung.platform_restore
        )
        if rung.time:
            # Resuming run() at a rung executes one empty delta cycle a
            # continuous run would not; undo it so the run's counters
            # equal a fresh run's byte for byte.
            entry.sim.delta_cycles_total -= 1
        return entry.sim, entry.root, rung
    sim = Simulator() if kernel_factory is None else kernel_factory()
    return sim, factory(sim), None


def _run(
    spec: RunSpec,
    sim: Simulator,
    root: "Module",
    observe: "_t.Callable[[Module], RunObservation]",
    classifier: Classifier,
    golden: _t.Optional[RunObservation],
    trace_signals: _t.Optional[_t.Callable],
    wall_start: float,
    rung: _t.Optional[_Rung],
) -> RunOutcome:
    """Run *spec* on a platform already at its start state.

    The stressor arms normally on a fresh build or at rung 0, and with
    :meth:`Stressor.arm_forked` at a later *rung*; a traced spec's
    recorder is armed before simulation starts, seeded with the rung's
    prefix detections.  On every exit the recorder is disarmed (the
    detection hook bus is process-global), and on a cached platform
    (any *rung*) the stressor subtree is detached.  A raise evicts the
    platform from the warm cache and propagates.
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
        if rung is None or rung.seq_base is None:
            stressor.arm(spec.scenario)
        else:
            stressor.arm_forked(spec.scenario, rung.seq_base)
        if spec.trace is not None:
            run_trace = RunTrace(spec.trace, spec.index, spec.run_seed)
            if rung is not None:
                run_trace.preload_detections(rung.detections)
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
        if rung is not None:
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
    platform between calls and starts from the latest capture of its
    fault-free run before the spec's first injection, instead of
    rebuilding and re-simulating that prefix, whenever the platform can
    be captured (see :func:`_acquire_platform`); otherwise every call
    builds a fresh kernel and platform — semantically identical, just
    slower.

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
    sim, root, rung = _acquire_platform(spec, factory, kernel_factory)
    return _run(
        spec, sim, root, observe, classifier, golden, trace_signals,
        wall_start, rung,
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


def shared_fork_times(
    specs: _t.Sequence[RunSpec],
) -> _t.Set[_t.Tuple[str, int]]:
    """The ``(platform, fork time)`` pairs two or more of *specs* share."""
    counts = collections.Counter(
        (spec.platform, fork_time(spec)) for spec in specs
    )
    return {
        key for key, count in counts.items()
        if count > 1 and key[1] is not None
    }


def dispatch_batch(
    specs: _t.Sequence[RunSpec],
    run_one: _t.Callable[[RunSpec], RunOutcome],
) -> _t.List[RunOutcome]:
    """Run a batch through *run_one*, one spec at a time, in spec order.

    Every run starts from its platform's ladder.  A fork time two or
    more specs of the batch share on one platform
    (:func:`shared_fork_times`) also gets a rung of its own at that
    time minus one, built on first use from the nearest fixed rung and
    dropped when the batch ends: a batch pinned to one injection time
    simulates its prefix once.
    """
    _SHARED_FORK_TIMES.update(shared_fork_times(specs))
    try:
        return [run_one(spec) for spec in specs]
    finally:
        _SHARED_FORK_TIMES.clear()
        for entry in _WARM_PLATFORMS.values():
            entry.batch_rungs.clear()


def execute_fork_group(
    specs: _t.Sequence[RunSpec],
    factory: "_t.Callable[[Simulator], Module]",
    observe: "_t.Callable[[Module], RunObservation]",
    classifier: Classifier,
    golden: _t.Optional[RunObservation] = None,
    trace_signals: _t.Optional[_t.Callable] = None,
) -> _t.List[RunOutcome]:
    """Run *specs* as one batch (:func:`dispatch_batch`); a member that
    raises comes back as its terminal error record.

    Kept under its old name for callers that still wrap it: every run
    now starts from the golden-run ladder, so a group needs no prefix
    of its own.
    """

    def run_one(spec: RunSpec) -> RunOutcome:
        try:
            return execute_runspec(
                spec, factory, observe, classifier, golden, trace_signals
            )
        except Exception as exc:  # vp-lint: disable=VP007 - deadlines degrade to TIMEOUT inside execute_runspec; a raise becomes the same terminal record the tolerant path emits
            return error_outcome(spec, exc)

    return dispatch_batch(specs, run_one)


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

    Runs the chunk through :func:`dispatch_batch` — the same batch
    rungs the serial executor uses — with the tolerant per-run path,
    so a chunk's records are byte-identical to the same specs
    dispatched one future each: per-run deadlines, degradation labels,
    and digests all come from the same code.  One pickled
    future per *chunk* instead of per *run* is where the dispatch
    saving comes from (and within a chunk, warm-platform reuse never
    pays the pool's pickling round-trip between consecutive runs).

    Worker death mid-chunk surfaces pool-side as a failure of the
    whole chunk's future; the executor then falls back to per-run
    dispatch for exactly these specs (see
    ``ParallelExecutor.run_batch``), which re-derives the crash /
    hang attribution at run granularity.
    """
    return dispatch_batch(specs, execute_runspec_tolerant)
