"""The campaign bridge: sampled environments -> error scenarios.

:class:`SampledScenarioStrategy` is an ordinary
:class:`~repro.core.strategies.Strategy`, so sampled risk campaigns run
through the existing planner/executor, golden-run ladder, and
checkpoint machinery *unchanged*.  Per scenario it:

1. draws the next :class:`~repro.risk.sampler.SampledEnvironment` from
   its :class:`~repro.risk.sampler.StressSampler`;
2. folds the trajectory into an effective
   :class:`~repro.mission.MissionProfile` and re-runs the Fig. 2
   derivation (:class:`~repro.mission.StressorDerivation`) on it — so
   a hot, noisy sample really does tilt the fault mix toward
   temperature- and EMI-accelerated descriptors, per sample;
3. picks descriptors by the sample's derived rate shares, an operating
   state by the sample's load-tilted importance weights (correction
   retained in ``sampling_weight``), and injection times from the fault
   space (optionally pinned to one instant so whole batches share one
   batch rung of the golden-run ladder).

Planning is per campaign batch: :meth:`~SampledScenarioStrategy.next_batch`
plans the whole batch from one block of sampler draws
(:meth:`~repro.risk.sampler.StressSampler.iter_draws`) and one
prepared derivation (:class:`~repro.mission.StressorDerivation`).  A
batch of *n* equals *n* calls of
:meth:`~SampledScenarioStrategy.next_scenario` — the same scenarios,
samples and specs, and the same draws from the campaign rng, in the
same order.

Determinism contract: scenario content is a pure function of the
sampler's seed and the campaign rng handed to :meth:`next_batch`.
Planning happens only in the planner process, so every backend sees
the identical scenario stream, and a checkpoint resume — which
replans with a freshly constructed strategy under the same seeds —
reproduces it byte for byte.
"""

from __future__ import annotations

import random
import typing as _t

from ..core.scenario import ErrorScenario, FaultSpace, PlannedInjection
from ..core.strategies import Strategy
from ..faults import FaultDescriptor
from ..mission import StressorDerivation, StressorSpec
from .sampler import SampledEnvironment, StressSampler


class SampledScenarioStrategy(Strategy):
    """Drives a campaign from correlated mission-environment samples.

    Parameters
    ----------
    space:
        The fault space to inject into.
    sampler:
        A seeded :class:`StressSampler`; one drawn trajectory per
        scenario.
    catalog:
        Base fault descriptors re-derived per sample (defaults to the
        space's own descriptor list).
    faults_per_scenario:
        Injections per scenario.
    special_boost:
        Base over-sampling factor for special operating states; each
        sample's mean load factor multiplies it (clamped to >= 1), so
        high-load draws probe the curbstone-style states harder.  The
        importance correction lands in ``sampling_weight`` as usual.
    injection_time:
        Optional fixed injection instant.  When set, every scenario of
        a campaign shares one fault-free prefix and thus, within a
        batch, one batch rung of the golden-run ladder.  When ``None``,
        times are drawn from the space's bins per injection.
    """

    def __init__(
        self,
        space: FaultSpace,
        sampler: StressSampler,
        catalog: _t.Optional[_t.Sequence[FaultDescriptor]] = None,
        faults_per_scenario: int = 1,
        special_boost: float = 10.0,
        injection_time: _t.Optional[int] = None,
    ):
        super().__init__(space, faults_per_scenario, spec=None)
        self.sampler = sampler
        self.catalog = list(
            space.descriptors if catalog is None else catalog
        )
        self.special_boost = special_boost
        self.injection_time = injection_time
        #: Drawn environments in scenario order == run-index order;
        #: the risk report joins outcomes back to environments by index.
        self.samples: _t.List[SampledEnvironment] = []
        #: The per-sample derived stressor specs, same order.
        self.specs: _t.List[StressorSpec] = []
        # Only kinds the platform actually exposes are worth deriving.
        self._target_kinds = sorted(
            {point.kind for point in space.points.values()}
        )
        self._derivation = StressorDerivation(
            self.catalog, self._target_kinds
        )
        # descriptor name -> applicable (path, descriptor) pairs.
        self._pairs_by_name: _t.Dict[str, _t.List] = {}
        for pair in space.pairs:
            self._pairs_by_name.setdefault(pair[1].name, []).append(pair)

    # -- per-sample derivation ----------------------------------------------

    def _derive(self, sample: SampledEnvironment) -> StressorSpec:
        boost = max(1.0, self.special_boost * sample.mean_load)
        return self._derivation.stressor_spec(
            sample.effective_profile(self.sampler.profile), boost
        )

    def _draw_injections(
        self, rng: random.Random, spec: StressorSpec
    ) -> _t.List[PlannedInjection]:
        # Derived rate shares pick the descriptor; the path is uniform
        # among that descriptor's applicable points.  Descriptors with
        # no applicable pair (or a spec with no usable weight) fall
        # back to uniform space sampling.
        weighted = [
            (descriptor, weight)
            for descriptor, weight in spec.descriptor_weights()
            if descriptor.name in self._pairs_by_name and weight > 0
        ]
        injections = []
        for _ in range(self.faults_per_scenario):
            if weighted:
                names = [d.name for d, _ in weighted]
                weights = [w for _, w in weighted]
                name = rng.choices(names, weights=weights, k=1)[0]
                pair = rng.choice(self._pairs_by_name[name])
            else:
                pair = rng.choice(self.space.pairs)
            if self.injection_time is not None:
                injections.append(
                    PlannedInjection(
                        time=self.injection_time,
                        target_path=pair[0],
                        descriptor=pair[1],
                    )
                )
            else:
                injections.append(
                    self.space.sample_injection(rng, pair=pair)
                )
        return injections

    def _draw_sample_state(self, rng: random.Random, spec: StressorSpec):
        # Same contract as Strategy._draw_state, against the per-sample
        # spec instead of a fixed one.
        if not spec.state_weights:
            return None, 1.0
        weights = [w.weight for w in spec.state_weights]
        chosen = rng.choices(spec.state_weights, weights=weights, k=1)[0]
        if chosen.weight <= 0:
            return chosen.state, 1.0
        return chosen.state, chosen.state.fraction / chosen.weight

    # -- Strategy API -------------------------------------------------------

    def next_batch(
        self, rng: random.Random, count: int
    ) -> _t.List[ErrorScenario]:
        """Plan *count* scenarios from one block of sampler draws.

        Per sample, in order: derive its spec, then draw its operating
        state and injections from *rng* — the same draws, in the same
        order, as *count* calls of :meth:`next_scenario`.
        """
        scenarios = []
        for sample in self.sampler.iter_draws(count):
            self.scenario_count += 1
            spec = self._derive(sample)
            self.samples.append(sample)
            self.specs.append(spec)
            state, weight = self._draw_sample_state(rng, spec)
            suffix = "+".join(sample.events) if sample.events else "nominal"
            scenarios.append(ErrorScenario(
                name=f"risk-{sample.index}-{suffix}",
                injections=self._draw_injections(rng, spec),
                operating_state=state,
                sampling_weight=weight,
            ))
        return scenarios

    def next_scenario(self, rng: random.Random) -> ErrorScenario:
        return self.next_batch(rng, 1)[0]
