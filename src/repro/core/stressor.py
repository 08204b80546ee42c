"""The stressor: scenario execution inside the testbench.

Fig. 3's loop has the stressor "introduce different errors according to
its error scenarios via the injectors for each simulation".  The
:class:`Stressor` is a testbench component (usable standalone or inside
a UVM environment) that owns the platform's injection points, takes one
:class:`~repro.core.scenario.ErrorScenario` per run, and performs each
planned injection at its scheduled time.
"""

from __future__ import annotations

import random
import typing as _t

from ..kernel import DeadlineExceeded, Module
from .injector import AppliedInjection, apply_fault
from .scenario import ErrorScenario


class Stressor(Module):
    """Executes error scenarios against a platform.

    Parameters
    ----------
    platform_root:
        The module whose subtree is searched for injection points.
    rng:
        Source for completing under-specified descriptor parameters
        (which address, which bit...).  Pass a seeded instance for
        reproducible campaigns, or use *seed* as a shorthand — run
        specs carry exactly such a per-run seed across process
        boundaries.
    """

    def __init__(
        self,
        name: str,
        parent: Module,
        platform_root: Module,
        rng: _t.Optional[random.Random] = None,
        seed: _t.Optional[int] = None,
    ):
        super().__init__(name, parent=parent)
        if rng is not None and seed is not None:
            raise ValueError("pass either rng or seed, not both")
        self.platform_root = platform_root
        if rng is None:
            rng = random.Random(0 if seed is None else seed)
        self.rng = rng
        self.applied: _t.List[AppliedInjection] = []
        self.errors: _t.List[str] = []
        self.scenario: _t.Optional[ErrorScenario] = None

    def _resolve(self, scenario: ErrorScenario) -> list:
        """(planned, point) pairs for *scenario*, or KeyError."""
        points = self.platform_root.all_injection_points()
        resolved = []
        for planned in scenario.injections:
            point = points.get(planned.target_path)
            if point is None:
                raise KeyError(
                    f"scenario {scenario.name!r} targets unknown "
                    f"injection point {planned.target_path!r}"
                )
            resolved.append((planned, point))
        return resolved

    def arm(self, scenario: ErrorScenario) -> None:
        """Schedule every injection of *scenario*.

        Must be called before the simulation reaches the injection
        times; each injection gets its own kernel process so scenarios
        may overlap injections arbitrarily.
        """
        self.scenario = scenario
        resolved = self._resolve(scenario)
        anchor = (
            min(planned.time for planned, _point in resolved)
            if resolved else None
        )
        for index, (planned, point) in enumerate(resolved):
            self.process(
                self._inject_at(planned, point, anchor),
                name=f"inject{index}",
            )

    def arm_forked(self, scenario: ErrorScenario, seq_base: int) -> None:
        """Arm *scenario* on a kernel restored from a mid-run snapshot.

        A run from a rung of the golden-run ladder (see
        ``runspec._acquire_platform``) resumes the simulation at the
        rung, at or before one time unit before the scenario's earliest
        injection time — the anchor every injector's first wait
        targets.  On a fresh run those injector processes step once
        during delta cycle 0 and park on the wheel with the *last*
        sequence numbers issued in that cycle; here they are primed
        directly and pushed with fractional sequence numbers just
        above *seq_base* (the golden run's counter at the end of its
        cycle 0), which reproduces the fresh tie-break order exactly.
        """
        self.scenario = scenario
        resolved = self._resolve(scenario)
        anchor = min(planned.time for planned, _point in resolved)
        count = len(resolved)
        for index, (planned, point) in enumerate(resolved):
            process = self.process(
                self._inject_at(planned, point, anchor),
                name=f"inject{index}",
            )
            self.sim._arm_forked_process(
                process, seq_base + (index + 1) / (count + 1)
            )

    def _inject_at(self, planned, point, anchor=None):
        # The anchor wait is the pre-injection fork point: every
        # injector of a scenario first waits to the scenario's earliest
        # injection time, so a forked run (resuming at any rung before
        # the anchor) and a fresh run produce identical wait sequences
        # from the anchor on.  For the earliest injection the anchor
        # wait IS its injection wait, so single-injection scenarios are
        # unchanged.
        if anchor is not None:
            anchor_delay = anchor - self.sim.now
            if anchor_delay > 0:
                yield anchor_delay
        delay = planned.time - self.sim.now
        if delay > 0:
            yield delay
        try:
            record = apply_fault(
                planned.descriptor,
                planned.target_path,
                point,
                self.sim,
                self.rng,
            )
        except DeadlineExceeded:
            # Never degrade a wall-clock abort into an injection error:
            # the run must end, not limp on with one fault missing.
            raise
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            self.errors.append(
                f"{planned.target_path}/{planned.descriptor.name}: {exc}"
            )
            return
        self.applied.append(record)

    def report(self) -> _t.Dict[str, _t.Any]:
        return {
            "scenario": self.scenario.name if self.scenario else None,
            "applied": len(self.applied),
            "errors": list(self.errors),
        }
