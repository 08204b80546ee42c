"""Shared platform fixtures for the core-framework tests.

``build_airbag_platform`` is a miniature CAPS-style system (Sec. 1 of
the paper): two redundant acceleration sensors, an ECC-protected
parameter memory, a plausibility-checking control loop, and a squib
actuator.  The safety goal is the paper's own: *no single component
fault may fire the airbag in normal operation.*  Firing requires both
sensor channels to agree above the threshold — so a hazard needs a
double fault, which is what makes the strategy-comparison experiments
meaningful.
"""

import pytest

from repro.core import build_standard_classifier
from repro.hw import (
    AdcSensor,
    EccMemory,
    RangeChecker,
    Squib,
    constant,
)
from repro.kernel import Module, Simulator
from repro.tlm import GenericPayload


THRESHOLD_CODE = 2000  # ADC code above which a crash is assumed
SAMPLE_PERIOD = 1_000_000  # 1 ms


class AirbagEcu(Module):
    """Control loop: redundant sensors -> plausibility -> squib."""

    def __init__(self, name, parent, sensor_a, sensor_b, param_mem, squib):
        super().__init__(name, parent=parent)
        self.sensor_a = sensor_a
        self.sensor_b = sensor_b
        self.param_mem = param_mem
        self.squib = squib
        self.plausibility = RangeChecker("delta", low=0, high=200)
        self.detected_errors = 0
        self.cycles = 0
        self.process(self._control(), name="control")

    def _read_threshold(self):
        payload = GenericPayload.read(0, 4)
        self.param_mem.tsock.deliver(payload, 0)
        if not payload.ok:
            self.detected_errors += 1
            return None
        return payload.word

    def _control(self):
        while True:
            yield SAMPLE_PERIOD
            self.cycles += 1
            threshold = self._read_threshold()
            if threshold is None:
                continue  # detected memory fault: skip cycle (safe state)
            code_a = self.sensor_a.output.read()
            code_b = self.sensor_b.output.read()
            if not self.plausibility.check(abs(code_a - code_b)):
                self.detected_errors += 1
                continue  # channels disagree: refuse to act
            if code_a > threshold and code_b > threshold:
                self._fire()

    def _fire(self):
        self.squib.tsock.deliver(
            GenericPayload.write_word(0x0, Squib.ARM_KEY), 0
        )
        self.squib.tsock.deliver(
            GenericPayload.write_word(0x4, Squib.FIRE_KEY), 0
        )


def build_airbag_platform(sim: Simulator) -> Module:
    top = Module("plat", sim=sim)
    sensor_a = AdcSensor(
        "sensor_a", parent=top, source=constant(1.0), period=SAMPLE_PERIOD,
    )
    sensor_b = AdcSensor(
        "sensor_b", parent=top, source=constant(1.0), period=SAMPLE_PERIOD,
    )
    param_mem = EccMemory("params", parent=top, size=16)
    param_mem.load(0, THRESHOLD_CODE.to_bytes(4, "little"))
    squib = Squib("squib", parent=top)
    AirbagEcu(
        "ecu", parent=top,
        sensor_a=sensor_a, sensor_b=sensor_b,
        param_mem=param_mem, squib=squib,
    )
    return top


def observe_airbag(root: Module) -> dict:
    ecu = root.find("ecu")
    squib = root.find("squib")
    params = root.find("params")
    return {
        "squib_fired": squib.fired,
        "spurious_commands": squib.spurious_commands,
        "ecc_corrected": params.corrected_errors,
        "detected": ecu.detected_errors + params.detected_errors,
        "threshold_word": params.injection_points["codewords"].peek(0),
        "cycles": ecu.cycles,
    }


def airbag_classifier():
    return build_standard_classifier(
        hazard_keys=["squib_fired"],
        value_keys=["threshold_word"],
        detection_keys=["detected", "spurious_commands"],
        masking_keys=["ecc_corrected"],
    )


@pytest.fixture
def airbag_campaign():
    from repro.core import Campaign

    return Campaign(
        platform_factory=build_airbag_platform,
        observe=observe_airbag,
        classifier=airbag_classifier(),
        duration=20_000_000,  # 20 ms
        seed=42,
    )


class RunCounter:
    """Counts ``Simulator.run`` calls and sums the span each one
    simulates (``until - now`` at entry)."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.simulated = 0


@pytest.fixture
def run_counter(monkeypatch):
    """A :class:`RunCounter` over every ``Simulator.run`` call in the
    test."""
    counter = RunCounter()
    original = Simulator.run

    def run(sim, until=None, deadline_s=None):
        counter.calls += 1
        counter.simulated += until - sim.now
        return original(sim, until=until, deadline_s=deadline_s)

    monkeypatch.setattr(Simulator, "run", run)
    return counter
