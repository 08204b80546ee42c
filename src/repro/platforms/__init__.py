"""Ready-made automotive virtual prototypes used by the examples,
tests, and benchmarks: the CAPS airbag system, a distributed adaptive
cruise control, and an electric power steering unit.

Each prototype is also registered in the platform :mod:`registry` so
campaign workers in other processes can rebuild it from its key alone
(``"airbag-normal"``, ``"airbag-crash"``, ``"acc"``, ``"steering"``).
"""

from . import acc, airbag, hostile, steering
from .registry import (
    PlatformBundle,
    available_platforms,
    get_classifier,
    get_platform,
    register_platform,
)
from ..kernel import simtime

#: Deadline used by the registered crash-scenario classifier (G2): the
#: squib must fire within this margin of the golden deployment time.
CRASH_DEPLOY_DEADLINE = simtime.ms(10)


def _crash_classifier():
    return airbag.crash_classifier(CRASH_DEPLOY_DEADLINE)


def _steering_factory(sim):
    return steering.build_steering()(sim)


register_platform(
    "airbag-normal",
    airbag.build_normal_operation,
    airbag.observe,
    airbag.normal_operation_classifier,
    description="CAPS airbag, normal operation (safety goal G1: "
    "no spurious deployment)",
    trace_signals=airbag.trace_signals,
    reach_surface=airbag.reach_surface,
)
register_platform(
    "airbag-crash",
    airbag.build_crash_scenario,
    airbag.observe,
    _crash_classifier,
    description="CAPS airbag, crash pulse at 50 ms (goal G2: deploy "
    "in time)",
    trace_signals=airbag.trace_signals,
    reach_surface=airbag.reach_surface,
)
register_platform(
    "acc",
    acc.build_acc,
    acc.observe,
    acc.acc_classifier,
    description="distributed adaptive cruise control over CAN",
)
register_platform(
    "steering",
    _steering_factory,
    steering.observe,
    steering.steering_classifier,
    description="electric power steering servo, nominal load",
)
register_platform(
    "hostile-dut",
    hostile.build_hostile,
    hostile.observe,
    hostile.hostile_classifier,
    description="deliberately misbehaving DUT (livelock/raise/die "
    "behavior faults) used by the fault-tolerance test suite",
)

__all__ = [
    "acc",
    "airbag",
    "hostile",
    "steering",
    "PlatformBundle",
    "available_platforms",
    "get_classifier",
    "get_platform",
    "register_platform",
    "CRASH_DEPLOY_DEADLINE",
]
