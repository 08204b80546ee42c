"""Injectors: applying fault descriptors to injection points.

Sec. 3.3: "we propose to add injectors into the DUT and testbench.
These provide an interface to change the stimuli in the testbench or
modify the state or state transitions at different positions in the
DUT.  The stressor uses these injectors to inject faults/errors
according to its formal fault/error description."

This module is that dispatch layer.  Every component model registered
an *injection point* (a kind-tagged handle) during construction; the
functions here translate a :class:`~repro.faults.FaultDescriptor` into
concrete operations on one point, honoring persistence (transient /
intermittent / permanent) by scheduling reverts on the kernel.

Unspecified parameters are drawn from the campaign RNG — a descriptor
saying "a bit flip somewhere in this memory" is completed to a concrete
(address, bit) at injection time, and the completed parameters are
returned for the coverage model and the audit trail.
"""

from __future__ import annotations

import random
import typing as _t

from ..faults import FaultDescriptor, FaultKind, Persistence
from ..kernel import Simulator


class InjectionError(RuntimeError):
    """The descriptor cannot be applied to the given point."""


class AppliedInjection(_t.NamedTuple):
    """Audit record of one performed injection."""

    target_path: str
    descriptor: FaultDescriptor
    time: int
    resolved_params: _t.Dict[str, _t.Any]


def apply_fault(
    descriptor: FaultDescriptor,
    target_path: str,
    point,
    sim: Simulator,
    rng: random.Random,
) -> AppliedInjection:
    """Apply *descriptor* to *point* now.  Returns the audit record.

    For intermittent faults a revert process is spawned on *sim*; for
    permanent faults the state simply stays.
    """
    kind = getattr(point, "kind", None)
    if kind is None or not descriptor.applicable_to(kind):
        raise InjectionError(
            f"{descriptor.name} ({descriptor.kind.value}) is not "
            f"applicable to injection point kind {kind!r}"
        )
    handler = _HANDLERS[kind]
    resolved, revert = handler(descriptor, point, rng)
    if descriptor.persistence is Persistence.INTERMITTENT and revert is not None:
        _schedule_revert(sim, revert, descriptor.duration)
    return AppliedInjection(target_path, descriptor, sim.now, resolved)


def _schedule_revert(sim: Simulator, revert: _t.Callable[[], None], delay: int):
    def deactivate():
        yield delay
        revert()

    sim.spawn(deactivate(), name="injector.revert")  # vp-lint: disable=VP002 - transient revert; a restore drops processes spawned since the capture


# ---------------------------------------------------------------------------
# Per-target-kind handlers: fn(descriptor, point, rng) -> (params, revert)
# ---------------------------------------------------------------------------

def _memory_handler(descriptor, point, rng):
    params = dict(descriptor.params)
    if descriptor.kind is FaultKind.BIT_FLIP:
        address = params.get("address")
        if address is None:
            address = rng.randrange(point.size)
        bit = params.get("bit")
        if bit is None:
            bit = rng.randrange(point.bits)
        point.flip(address, bit)
        return {"address": address, "bit": bit}, None
    if descriptor.kind is FaultKind.WORD_CORRUPTION:
        address = params.get("address")
        if address is None:
            address = rng.randrange(max(point.size - 3, 1))
        pattern = _resolve_pattern(params, rng)
        if pattern:
            width = max((pattern.bit_length() + 7) // 8, 1)
            for i in range(width):
                if address + i >= point.size:
                    break
                byte_pattern = (pattern >> (8 * i)) & 0xFF
                value = point.peek(address + i) ^ byte_pattern
                point.poke(address + i, value)
        return {"address": address, "pattern": pattern}, None
    raise InjectionError(f"memory cannot realise {descriptor.kind}")


def _register_handler(descriptor, point, rng):
    params = dict(descriptor.params)
    offset = params.get("offset")
    if offset is None:
        offset = rng.choice(point.offsets)
    if descriptor.kind is FaultKind.BIT_FLIP:
        bit = params.get("bit", rng.randrange(32))
        point.flip(offset, bit)
        return {"offset": offset, "bit": bit}, None
    if descriptor.kind is FaultKind.STUCK_AT:
        bit = params.get("bit", rng.randrange(32))
        level = params.get("level", rng.randrange(2))
        point.stuck_at(offset, bit, level)
        return (
            {"offset": offset, "bit": bit, "level": level},
            lambda: point.clear_stuck(offset),
        )
    if descriptor.kind is FaultKind.WORD_CORRUPTION:
        pattern = _resolve_pattern(params, rng)
        point.poke(offset, point.peek(offset) ^ pattern)
        return {"offset": offset, "pattern": pattern}, None
    raise InjectionError(f"register file cannot realise {descriptor.kind}")


def _cpu_handler(descriptor, point, rng):
    params = dict(descriptor.params)
    if descriptor.kind is not FaultKind.BIT_FLIP:
        raise InjectionError(f"cpu state cannot realise {descriptor.kind}")
    target = params.get("target")
    if target is None:
        # PC upsets are one architectural word among NUM_REGS+1.
        target = "pc" if rng.randrange(point.num_regs + 1) == 0 else "reg"
    bit = params.get("bit", rng.randrange(32))
    if target == "pc":
        point.flip_pc(bit)
        return {"target": "pc", "bit": bit}, None
    index = params.get("reg", rng.randrange(1, point.num_regs))
    point.flip_reg(index, bit)
    return {"target": "reg", "reg": index, "bit": bit}, None


def _analog_handler(descriptor, point, rng):
    params = dict(descriptor.params)
    kind = descriptor.kind
    if kind is FaultKind.OFFSET_DRIFT:
        offset = params.get("offset", rng.uniform(-1.0, 1.0))
        point.set_offset(offset)
        return {"offset": offset}, point.clear
    if kind is FaultKind.GAIN_DRIFT:
        gain = params.get("gain", rng.uniform(0.5, 1.5))
        point.set_gain(gain)
        return {"gain": gain}, point.clear
    if kind is FaultKind.STUCK_VALUE:
        value = params.get("value", rng.uniform(0.0, 5.0))
        point.stick_at(value)
        return {"value": value}, point.clear
    if kind is FaultKind.OPEN_CIRCUIT:
        point.open_circuit()
        return {}, point.clear
    if kind is FaultKind.SHORT_TO_GROUND:
        point.stick_at(0.0)
        return {"value": 0.0}, point.clear
    if kind is FaultKind.NOISE_BURST:
        sigma = params.get("sigma", rng.uniform(0.1, 1.0))
        # Hand the (seeded) campaign RNG to the front-end so platforms
        # built without one still reproduce noise deterministically.
        point.set_noise(sigma, rng=rng)
        return {"sigma": sigma}, point.clear
    raise InjectionError(f"analog frontend cannot realise {kind}")


def _can_handler(descriptor, point, rng):
    params = dict(descriptor.params)
    kind = descriptor.kind
    one_shot = descriptor.persistence is Persistence.TRANSIENT

    if kind in (FaultKind.MESSAGE_CORRUPTION, FaultKind.MESSAGE_MASQUERADE):
        bits = params.get("bits", 1)
        forge = kind is FaultKind.MESSAGE_MASQUERADE
        state = {"armed": True}

        def corrupt(frame):
            if not state["armed"]:
                return frame
            if frame.data:
                # Distinct bit positions: flips must not cancel out.
                positions = rng.sample(
                    range(len(frame.data) * 8),
                    min(bits, len(frame.data) * 8),
                )
                for position in positions:
                    frame.data[position // 8] ^= 1 << (position % 8)
                if forge:
                    frame.refresh_crc()
                frame.meta.setdefault("injected", []).append(descriptor.name)
            if one_shot:
                state["armed"] = False
                point.remove_interceptor(corrupt)
            return frame

        point.add_interceptor(corrupt)
        return (
            {"bits": bits, "forged_crc": forge},
            lambda: point.remove_interceptor(corrupt),
        )

    if kind is FaultKind.MESSAGE_DROP:
        state = {"armed": True}

        def drop(frame):
            if not state["armed"]:
                return frame
            if one_shot:
                state["armed"] = False
                point.remove_interceptor(drop)
            return None

        point.add_interceptor(drop)
        return {}, lambda: point.remove_interceptor(drop)

    if kind is FaultKind.MESSAGE_DELAY:
        # Realised through the protocol: the frame is suppressed on the
        # wire, the transmitter's retransmission delivers it one frame
        # slot later — a pure delay from the application's view.
        state = {"armed": True}

        def delay(frame):
            if not state["armed"]:
                return frame
            state["armed"] = False
            point.remove_interceptor(delay)
            return None

        point.add_interceptor(delay)
        return {"mechanism": "retransmission"}, (
            lambda: point.remove_interceptor(delay)
        )

    raise InjectionError(f"CAN wire cannot realise {kind}")


def _rtos_handler(descriptor, point, rng):
    params = dict(descriptor.params)
    kind = descriptor.kind
    task = params.get("task")
    if task is None:
        task = rng.choice(point.task_names)
    if kind is FaultKind.EXECUTION_OVERHEAD:
        extra = params.get("extra", rng.randrange(10_000, 1_000_000))
        point.add_overhead(task, extra)
        return {"task": task, "extra": extra}, None
    if kind is FaultKind.TASK_KILL:
        point.kill_task(task)
        return {"task": task}, lambda: point.revive_task(task)
    raise InjectionError(f"scheduler cannot realise {kind}")


def _behavior_handler(descriptor, point, rng):
    """Flip a component into a named misbehavior mode.

    Models runaway software — livelocked control loops, crashing
    firmware — as an injectable fault class; the point's owner decides
    what each mode means.  This is what the fault-tolerance test suite
    uses to hang/kill campaign runs on purpose.
    """
    params = dict(descriptor.params)
    if descriptor.kind is not FaultKind.BEHAVIOR_MODE:
        raise InjectionError(
            f"behavior point cannot realise {descriptor.kind}"
        )
    mode = params.get("mode")
    if mode is None:
        mode = rng.choice(point.modes)
    if mode not in point.modes:
        raise InjectionError(
            f"unknown behavior mode {mode!r}; point offers {point.modes}"
        )
    point.trigger(mode)
    revert = getattr(point, "clear", None)
    return {"mode": mode}, revert


def _resolve_pattern(params: _t.Dict[str, _t.Any], rng: random.Random) -> int:
    """Resolve a word-corruption pattern: explicit, sampled from a
    cross-layer profile, or a single random bit."""
    if "pattern" in params:
        return int(params["pattern"])
    profile = params.get("profile")
    if profile is not None:
        sampled = profile.sample_pattern(rng)
        return 0 if sampled is None else sampled
    return 1 << rng.randrange(32)


_HANDLERS: _t.Dict[str, _t.Callable] = {
    "memory": _memory_handler,
    "register": _register_handler,
    "cpu": _cpu_handler,
    "analog": _analog_handler,
    "can_wire": _can_handler,
    "rtos": _rtos_handler,
    "behavior": _behavior_handler,
}
