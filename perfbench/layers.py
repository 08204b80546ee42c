"""The layers a traced run splits the wall into: which public callables
each one's spans wrap (:func:`install`), and which end-to-end metric on
which workload each per-layer metric should move (:data:`MOVES`).

Layer names follow the program's modules.  The mapping is written
down before anything is measured, so a later change that claims a
gain on one layer has its prediction on record.
"""

from __future__ import annotations

import os
import typing as _t

from spans import RESIDUAL, Tracer

#: Layers in report order; ``residual`` is the loop glue outside every span.
LAYERS = (
    "kernel.run",
    "kernel.state",
    "core.plan",
    "core.strategy",
    "risk.sampler",
    "core.stressor",
    "core.runspec",
    "core.classify",
    "core.execute",
    "core.aggregate",
    "core.checkpoint",
    "observe.runtrace",
    "analyze.prune",
    "risk.report",
    "distributed.protocol",
    "gate.engine",
    "gate.vector",
    "gate.compile",
    "platforms.elaborate",
    RESIDUAL,
)

_LAYER_MOVES: _t.Dict[str, _t.List[_t.Tuple[str, str]]] = {
    "kernel.run": [("runs_per_s", "caps-serial"), ("runs_per_s", "caps-fork")],
    "kernel.state": [("runs_per_s", "caps-fork"), ("runs_per_s", "risk-sampled")],
    "core.plan": [("runs_per_s", "risk-sampled")],
    "core.strategy": [("runs_per_s", "risk-sampled")],
    "risk.sampler": [("runs_per_s", "risk-sampled")],
    "core.stressor": [("runs_per_s", "caps-fork")],
    "core.runspec": [("runs_per_s", "caps-serial")],
    "core.classify": [("runs_per_s", "caps-serial")],
    "core.execute": [("runs_per_s", "caps-pool2"), ("cpu_ms_per_run", "caps-pool2")],
    "core.aggregate": [("runs_per_s", "caps-fork")],
    "core.checkpoint": [("runs_per_s", "caps-audit")],
    "observe.runtrace": [("runs_per_s", "caps-audit")],
    "analyze.prune": [("cpu_ms_per_run", "caps-audit")],
    "risk.report": [("runs_per_s", "risk-sampled")],
    "distributed.protocol": [("runs_per_s", "caps-cluster2")],
    "gate.engine": [("runs_per_s", "gate-enum")],
    "gate.vector": [("runs_per_s", "gate-enum")],
    "gate.compile": [("runs_per_s", "gate-enum"), ("setup_s", "gate-enum")],
    "platforms.elaborate": [("setup_s", "caps-serial"), ("runs_per_s", "caps-audit")],
    RESIDUAL: [("runs_per_s", "caps-serial")],
}

#: Per-layer metric -> ``(end-to-end metric, workload)`` pairs it should
#: move.  ``trace.overhead`` describes the measurement, not the program.
MOVES: _t.Dict[str, _t.List[_t.Tuple[str, str]]] = {
    **{f"{layer}.share": moves for layer, moves in _LAYER_MOVES.items()},
    **{
        f"{layer}.calls_per_run": moves
        for layer, moves in _LAYER_MOVES.items() if layer != RESIDUAL
    },
    "kernel.events_per_run": _LAYER_MOVES["kernel.run"],
    "kernel.process_steps_per_run": _LAYER_MOVES["kernel.run"],
    "kernel.delta_cycles_per_run": _LAYER_MOVES["kernel.run"],
    "kernel.events_per_s": _LAYER_MOVES["kernel.run"],
    "core.warm.hit_frac": [("runs_per_s", "caps-fork"), ("runs_per_s", "caps-audit")],
    "core.checkpoint.bytes_per_run": _LAYER_MOVES["core.checkpoint"],
    "analyze.prune.executed_frac": _LAYER_MOVES["analyze.prune"],
    "distributed.protocol.bytes_per_run": _LAYER_MOVES["distributed.protocol"],
    "trace.overhead": [],
}


def _defining(base: type, name: str) -> _t.List[type]:
    """*base* and every subclass that defines *name* itself."""
    found, frontier = [], [base]
    while frontier:
        cls = frontier.pop()
        if name in vars(cls):
            found.append(cls)
        frontier.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables in spans of *tracer*.

    Runs at child start, before any workload object exists, so
    campaigns pick up the wrapped platform bundles.  Pool workers
    forked later inherit the wrappers but never record.
    """
    from repro.analyze.reach import ReachabilityPruner
    from repro.core import executors, runspec
    from repro.core.campaign import Campaign, CampaignResult
    from repro.core.checkpoint import CampaignCheckpoint
    from repro.core.classification import Classifier
    from repro.core.strategies import Strategy
    from repro.core.stressor import Stressor
    from repro.distributed import protocol
    from repro.gate import vector
    from repro.gate.vector import GateProgram, VectorGateSimulator
    from repro.kernel import Simulator
    from repro.observe.runtrace import RunTrace
    from repro.platforms import registry
    from repro.risk import RiskReport, StressSampler

    wrap = tracer.wrap_attr
    wrap(Simulator, "run", "kernel.run")
    for name in ("snapshot", "restore", "reset"):
        wrap(Simulator, name, "kernel.state")
    wrap(Campaign, "plan_batch", "core.plan")
    for cls in _defining(Strategy, "next_batch"):
        wrap(cls, "next_batch", "core.strategy")
    wrap(StressSampler, "draw", "risk.sampler")
    for name in ("arm", "arm_forked", "detach"):
        wrap(Stressor, name, "core.stressor")
    # The executors import these by name, so both bindings are wrapped.
    for module in (runspec, executors):
        for name in ("execute_runspec", "execute_fork_group"):
            wrap(module, name, "core.runspec")
    for cls in _defining(Classifier, "classify"):
        wrap(cls, "classify", "core.classify")
    for cls in _defining(executors.Executor, "run_batch"):
        wrap(cls, "run_batch", "core.execute")
    wrap(CampaignResult, "append", "core.aggregate")
    for cls in _defining(Strategy, "feedback_batch"):
        wrap(cls, "feedback_batch", "core.aggregate")
    for name in ("open", "record_batch"):
        wrap(CampaignCheckpoint, name, "core.checkpoint")
    for name in ("arm", "finalize"):
        wrap(RunTrace, name, "observe.runtrace")
    wrap(ReachabilityPruner, "is_dead", "analyze.prune")
    wrap(RiskReport, "from_campaign", "risk.report")
    wrap(protocol, "encode_frame", "distributed.protocol",
         size=lambda args, frame: len(frame))
    wrap(protocol, "decode_payload", "distributed.protocol",
         size=lambda args, message: len(args[0]))
    # The engine's self time is lane packing, unpacking and result
    # triples; the profile fold around it stays in residual.
    wrap(vector, "run_vector_outcomes", "gate.engine")
    for name in ("evaluate", "step"):
        wrap(VectorGateSimulator, name, "gate.vector")
    wrap(GateProgram, "__init__", "gate.compile")
    for name in registry.available_platforms():
        bundle = registry.get_platform(name)
        registry.register_platform(
            name,
            tracer.wrap(bundle.factory, "platforms.elaborate"),
            tracer.wrap(bundle.observe, "core.classify"),
            bundle.classifier_factory,
            description=bundle.description,
            trace_signals=bundle.trace_signals,
            reset=bundle.reset,
            capture_state=bundle.capture_state,
            restore_state=bundle.restore_state,
            reach_surface=bundle.reach_surface,
            replace=True,
        )
    os.register_at_fork(after_in_child=tracer.disable)
