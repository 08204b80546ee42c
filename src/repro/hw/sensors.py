"""Sensor models: analog sources sampled through a faultable front-end.

A sensor chain is ``environment signal -> analog front-end -> ADC ->
register``.  Faults enter at the analog stage (offset, gain drift,
stuck output, noise burst — the classic wiring/aging faults a mission
profile's vibration and temperature stresses produce) and at the
digital stage (register bit flips, handled by the register file's own
injection point).

The analog front-end registers an injection point of kind ``"analog"``
whose knobs an :class:`~repro.core.injector.AnalogInjector` turns.
"""

from __future__ import annotations

import math
import typing as _t

from ..kernel import Module, Signal


class AnalogFault:
    """Mutable fault state of an analog front-end."""

    STATE_FIELDS = (
        "offset", "gain", "stuck_value", "open_circuit", "noise_sigma",
        "noise_rng",
    )

    def __init__(self):
        self.offset = 0.0
        self.gain = 1.0
        self.stuck_value: _t.Optional[float] = None
        self.open_circuit = False  # output floats to rail (reads as 0.0)
        self.noise_sigma = 0.0
        #: RNG supplied by the injector arming a noise fault; used when
        #: the component itself has none.
        self.noise_rng = None

    def clear(self) -> None:
        self.__init__()

    @property
    def active(self) -> bool:
        return (
            self.offset != 0.0
            or self.gain != 1.0
            or self.stuck_value is not None
            or self.open_circuit
            or self.noise_sigma != 0.0
        )


class AnalogInjectionPoint:
    """Injector-facing handle on an analog front-end."""

    def __init__(self, name: str, fault: AnalogFault):
        self.name = name
        self.kind = "analog"
        self.fault = fault

    def set_offset(self, volts: float) -> None:
        self.fault.offset = volts

    def set_gain(self, gain: float) -> None:
        self.fault.gain = gain

    def stick_at(self, volts: float) -> None:
        self.fault.stuck_value = volts

    def open_circuit(self) -> None:
        self.fault.open_circuit = True

    def set_noise(self, sigma: float, rng=None) -> None:
        self.fault.noise_sigma = sigma
        if rng is not None:
            self.fault.noise_rng = rng

    def clear(self) -> None:
        self.fault.clear()


class AdcSensor(Module):
    """Periodic sampling sensor with an n-bit ADC.

    Parameters
    ----------
    source:
        ``fn(time_units) -> float`` giving the physical quantity in
        engineering units (the environment model).
    period:
        Sampling period in kernel time units.
    vmin, vmax:
        ADC input range; samples clamp to it.
    bits:
        ADC resolution.
    rng:
        ``random.Random``-like object used for noise; required only when
        a noise fault is armed (keeps nominal runs deterministic).
    """

    STATE_FIELDS = (
        "fault", "rng", "samples_taken", "_cached_physical", "_cached_code",
    )

    def __init__(
        self,
        name: str,
        parent: Module,
        source: _t.Callable[[int], float],
        period: int,
        vmin: float = 0.0,
        vmax: float = 5.0,
        bits: int = 12,
        rng=None,
    ):
        super().__init__(name, parent=parent)
        if vmax <= vmin:
            raise ValueError("vmax must exceed vmin")
        if not 1 <= bits <= 24:
            raise ValueError("ADC resolution out of range")
        self.source = source
        self.period = period
        self.vmin = vmin
        self.vmax = vmax
        self.bits = bits
        self.rng = rng
        self.fault = AnalogFault()
        #: Latest raw ADC code, as a kernel signal others can watch.
        #: Initialised from the source at t=0 so early readers see a
        #: physical value, not an arbitrary power-on zero.
        self.output: Signal = self.signal(
            "output", self.quantize(source(0))
        )
        self.samples_taken = 0
        # Clean-path cache: (physical value -> code) for the last sample
        # while no analog fault is armed (see _sample_loop).
        self._cached_physical: _t.Optional[float] = None
        self._cached_code = 0
        self.register_injection_point(
            "frontend",
            AnalogInjectionPoint(f"{self.full_name}.frontend", self.fault),
        )
        self.process(self._sample_loop, name="sampler")

    # -- conversion ---------------------------------------------------------

    def _condition(self, value: float) -> float:
        """Apply the (possibly faulty) analog front-end."""
        fault = self.fault
        if fault.open_circuit:
            return self.vmin  # input floats to the low rail
        if fault.stuck_value is not None:
            return fault.stuck_value
        value = value * fault.gain + fault.offset
        if fault.noise_sigma:
            rng = self.rng if self.rng is not None else fault.noise_rng
            if rng is None:
                raise RuntimeError(
                    f"{self.full_name}: noise fault armed but no rng given"
                )
            value += rng.gauss(0.0, fault.noise_sigma)
        return value

    def quantize(self, volts: float) -> int:
        """Clamp to range and convert to an ADC code."""
        volts = min(max(volts, self.vmin), self.vmax)
        span = self.vmax - self.vmin
        code = round((volts - self.vmin) / span * ((1 << self.bits) - 1))
        return code

    def code_to_volts(self, code: int) -> float:
        span = self.vmax - self.vmin
        return self.vmin + code / ((1 << self.bits) - 1) * span

    def _sample_loop(self):
        while True:
            yield self.period
            physical = self.source(self.sim.now)
            if self.fault.active:
                code = self.quantize(self._condition(physical))
                self._cached_physical = None
            elif physical == self._cached_physical:
                # Fault-free front-end is the identity (gain 1, offset
                # 0), so an unchanged physical value quantizes to the
                # cached code — skips float clamp/scale/round on every
                # steady-state sample.
                code = self._cached_code
            else:
                code = self.quantize(self._condition(physical))
                self._cached_physical = physical
                self._cached_code = code
            self.output.write(code)
            self.samples_taken += 1


# ---------------------------------------------------------------------------
# Ready-made environment sources for the automotive examples
# ---------------------------------------------------------------------------

def constant(value: float) -> _t.Callable[[int], float]:
    """A source that always reads *value*."""
    return lambda _now: value


def ramp(start: float, slope_per_second: float) -> _t.Callable[[int], float]:
    """Linear ramp in engineering units per second of simulated time."""

    def source(now: int) -> float:
        return start + slope_per_second * (now / 1e9)

    return source


def sine(
    amplitude: float, frequency_hz: float, offset: float = 0.0
) -> _t.Callable[[int], float]:
    """Sinusoid — vibration profiles and wheel-speed ripple."""

    def source(now: int) -> float:
        return offset + amplitude * math.sin(
            2 * math.pi * frequency_hz * (now / 1e9)
        )

    return source


def piecewise(
    segments: _t.Sequence[_t.Tuple[int, float]]
) -> _t.Callable[[int], float]:
    """Step function: ``segments`` is [(start_time, value), ...] sorted.

    Used to script crash pulses and steering maneuvers: the value of the
    last segment whose start time is <= now applies.
    """
    if not segments:
        raise ValueError("piecewise needs at least one segment")
    starts = [t for t, _ in segments]
    if starts != sorted(starts):
        raise ValueError("piecewise segments must be time-sorted")

    def source(now: int) -> float:
        value = segments[0][1]
        for start, seg_value in segments:
            if now >= start:
                value = seg_value
            else:
                break
        return value

    return source


def crash_pulse(
    t_impact: int, peak_g: float, duration: int
) -> _t.Callable[[int], float]:
    """Half-sine deceleration pulse, the standard crash test shape."""

    def source(now: int) -> float:
        if now < t_impact or now > t_impact + duration:
            return 0.0
        phase = (now - t_impact) / duration
        return peak_g * math.sin(math.pi * phase)

    return source
