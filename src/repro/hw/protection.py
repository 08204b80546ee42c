"""Redundancy and plausibility protection mechanisms.

These are the "failsafe measures and redundancy at several levels"
(Sec. 3.4) that make naive Monte-Carlo injection ineffective: most
single faults are masked or detected here, so only carefully placed
fault combinations reach an actuator.  The weak-spot analysis and the
symbolic stimulus generator both target these components.
"""

from __future__ import annotations

import typing as _t

from ..kernel import Module
from ..observe.hooks import emit_detection


class TmrVoter(Module):
    """Triple-modular-redundancy majority voter over integer inputs.

    ``vote(a, b, c)`` returns the majority value; a full three-way
    disagreement is unresolvable and reported via ``on_unresolvable``
    (counted, and the *first* input is passed through — matching the
    common hardware fallback of channel A priority).
    """

    #: See :data:`repro.hw.watchdog.Watchdog.DETECTION_MECHANISMS`.
    DETECTION_MECHANISMS = ("tmr",)

    def __init__(
        self,
        name: str,
        parent: Module,
        on_unresolvable: _t.Optional[_t.Callable[[], None]] = None,
    ):
        super().__init__(name, parent=parent)
        self.on_unresolvable = on_unresolvable
        self.votes = 0
        self.mismatches = 0  # one channel disagreed (masked fault)
        self.unresolvable = 0

    def vote(self, a: int, b: int, c: int) -> int:
        self.votes += 1
        if a == b == c:
            return a
        self.mismatches += 1
        emit_detection(self, "tmr", "outvoted")
        if a == b or a == c:
            return a
        if b == c:
            return b
        self.unresolvable += 1
        emit_detection(self, "tmr", "unresolvable")
        if self.on_unresolvable is not None:
            self.on_unresolvable()
        return a


class LockstepChecker(Module):
    """Compares two redundant computation channels sample by sample.

    Models a lockstep core pair's compare unit: every call to
    :meth:`compare` checks the two channels' outputs; any divergence is
    flagged immediately (``detected`` counter + event) — the strongest
    detection mechanism in the library, with the classic blind spot of
    common-mode faults (the same corruption in both channels passes).
    """

    #: See :data:`repro.hw.watchdog.Watchdog.DETECTION_MECHANISMS`.
    DETECTION_MECHANISMS = ("lockstep",)

    def __init__(self, name: str, parent: Module):
        super().__init__(name, parent=parent)
        self.comparisons = 0
        self.detected = 0
        self.mismatch_event = self.event("mismatch")

    def compare(self, channel_a: int, channel_b: int) -> bool:
        """Returns True when the channels agree."""
        self.comparisons += 1
        if channel_a != channel_b:
            self.detected += 1
            emit_detection(self, "lockstep", "mismatch")
            self.mismatch_event.notify(0)
            return False
        return True


class RangeChecker:
    """Static plausibility: value must lie in ``[low, high]``."""

    def __init__(self, name: str, low: float, high: float):
        if high < low:
            raise ValueError("empty range")
        self.name = name
        self.low = low
        self.high = high
        self.checks = 0
        self.violations = 0

    def check(self, value: float) -> bool:
        self.checks += 1
        if self.low <= value <= self.high:
            return True
        self.violations += 1
        return False


class RateChecker:
    """Dynamic plausibility: successive values may differ by at most
    ``max_delta`` (per sample).

    Catches realistic sensor faults that a range check misses — a stuck
    value is in range but has zero rate when the vehicle moves, and a
    bit flip in a high bit produces an impossible jump.
    """

    STATE_FIELDS = ("previous", "checks", "violations")

    def __init__(self, name: str, max_delta: float):
        if max_delta <= 0:
            raise ValueError("max_delta must be positive")
        self.name = name
        self.max_delta = max_delta
        self.previous: _t.Optional[float] = None
        self.checks = 0
        self.violations = 0

    def check(self, value: float) -> bool:
        self.checks += 1
        ok = True
        if self.previous is not None:
            ok = abs(value - self.previous) <= self.max_delta
        if not ok:
            self.violations += 1
        self.previous = value
        return ok

    def reset(self) -> None:
        self.previous = None


class CrcChecker:
    """End-to-end message protection (AUTOSAR E2E style).

    Messages carry an 8-bit CRC and a 4-bit alive counter; the checker
    validates both, catching corruption *and* stale/repeated messages
    (a masked timing fault a plain CRC cannot see).
    """

    def __init__(self, name: str):
        self.name = name
        self.expected_counter: _t.Optional[int] = None
        self.checks = 0
        self.crc_failures = 0
        self.counter_failures = 0

    @staticmethod
    def protect(data: bytes, counter: int) -> bytes:
        """Wrap *data* with counter and CRC (producer side)."""
        from . import ecc

        body = bytes([counter & 0xF]) + data
        return body + bytes([ecc.crc8(body)])

    def check(self, message: bytes) -> _t.Optional[bytes]:
        """Validate; returns the payload or None when rejected."""
        from . import ecc

        self.checks += 1
        if len(message) < 2:
            self.crc_failures += 1
            return None
        body, crc = message[:-1], message[-1]
        if ecc.crc8(body) != crc:
            self.crc_failures += 1
            return None
        counter = body[0] & 0xF
        if self.expected_counter is not None and counter != self.expected_counter:
            self.counter_failures += 1
            self.expected_counter = (counter + 1) & 0xF
            return None
        self.expected_counter = (counter + 1) & 0xF
        return bytes(body[1:])
