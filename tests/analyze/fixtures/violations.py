"""Deliberate VP-lint violation corpus — at least one hit per rule.

This file is *never imported by the product*; the test suite and the
CI analysis job lint it to prove (a) every registered rule code fires
on real syntax and (b) the CLI exits nonzero when findings exist.  If
you add a rule VP0xx, add a violation here — `test_lint_rules.py`
asserts corpus coverage equals the registry.

All violations live inside function bodies so that even an accidental
import of this module executes nothing hazardous.
"""

import random
import socket
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core.runspec import RunSpec
from repro.kernel import Signal

#: Module-level mutable container: VP003 bait when used as an initial.
SHARED_INITIAL = []


def build_outside_module(sim):
    leaked = Signal(sim, "leaked", 0)  # VP001
    aliased = Signal(sim, "aliased", SHARED_INITIAL)  # VP001 + VP003
    sim.spawn(_driver(leaked))  # VP002
    return leaked, aliased


def _driver(signal):
    yield 1
    signal.write(random.random())  # VP004
    yield 1
    signal.write(time.time())  # VP005


def unseeded_source():
    return random.Random()  # VP004 (seedless instance)


def peek_kernel_state(sim, signal):
    leaked_registry = sim._signals  # VP006
    return leaked_registry, signal._value  # VP006


def swallow_everything(action):
    try:
        return action()
    except Exception:  # VP007: no DeadlineExceeded re-raise anywhere
        return None


def build_unpicklable_spec(scenario):
    return RunSpec(
        index=0,
        scenario=scenario,
        run_seed=0,
        duration=1,
        golden=lambda: {},  # VP008
    )


def undeclared_run_state():
    class Counter:
        STATE_FIELDS = ("count",)

        def __init__(self):
            self.count = 0
            self.last = None

        def tick(self, value):
            self.count += 1
            self.last = value  # VP009: "last" missing from STATE_FIELDS

    return Counter


def bail_out_of_the_campaign():
    sys.exit(3)  # VP010


def hand_rolled_execution(specs, target, endpoint):
    pool = ProcessPoolExecutor(4)  # VP013 (bypasses make_executor)
    agent = threading.Thread(target=target)  # VP013
    link = socket.create_connection(endpoint)  # VP013
    return pool, agent, link


def numpy_global_draws():
    noise = np.random.normal(0.0, 1.0)  # VP012 (global numpy RNG)
    generator = np.random.default_rng()  # VP012 (seedless Generator)
    return noise, generator
