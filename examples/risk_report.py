#!/usr/bin/env python3
"""Mission-profile Monte Carlo risk report (E18).

One mission profile gives one stressor spec — a point estimate. The
risk engine samples the *distribution* around it:

1. draw correlated environment trajectories (temperature, vibration,
   EMI, load) from the passenger-car profile, with rare black-swan
   overlays (cold start, thermal runaway, EMI burst);
2. re-derive the Fig. 2 stressor spec per sample, so a hot, loaded
   trajectory genuinely shifts the fault-rate mix;
3. run the sampled scenarios through the ordinary campaign machinery
   (the golden-run ladder skips the shared fault-free prefix);
4. fold the outcome into the decision artifact: hazard probability
   with exact + score intervals, detection-latency percentiles,
   VaR/CVaR tail metrics, per-event attribution, and ASIL gates over
   the campaign-measured diagnostic coverage.

Everything flows from two explicit seeds; re-running this script
reproduces the report byte for byte.

Run:  python examples/risk_report.py
"""

from repro.core import Campaign, FaultSpace
from repro.faults import (
    FaultDescriptor,
    FaultKind,
    Persistence,
    SRAM_SEU,
)
from repro.kernel import Simulator, simtime
from repro.mission import standard_passenger_car_profile
from repro.platforms import airbag
from repro.risk import (
    RiskReport,
    SampledScenarioStrategy,
    StressSampler,
)

STUCK_HIGH = FaultDescriptor(
    name="sensor_stuck_high",
    kind=FaultKind.STUCK_VALUE,
    persistence=Persistence.PERMANENT,
    params={"value": 4.5},
    rate_per_hour=2e-7,
)


def build_space() -> FaultSpace:
    probe = Simulator()
    return FaultSpace(
        airbag.build_normal_operation(probe),
        [SRAM_SEU.with_rate(5e-7), STUCK_HIGH],
        window_start=simtime.ms(5),
        window_end=simtime.ms(30),
        time_bins=2,
    )


def main() -> None:
    profile = standard_passenger_car_profile()
    sampler = StressSampler(profile, seed=11)
    strategy = SampledScenarioStrategy(
        build_space(), sampler, injection_time=simtime.ms(50)
    )
    campaign = Campaign(
        duration=simtime.ms(60), seed=7, platform="airbag-normal"
    )

    print("== sampled mission environments ==")
    result = campaign.run(
        strategy, runs=200, backend="serial", batch_size=32,
        trace=True,
    )
    eventful = [s for s in strategy.samples if s.events]
    print(
        f"  {len(strategy.samples)} trajectories drawn, "
        f"{len(eventful)} with black-swan overlays"
    )
    for sample in eventful[:3]:
        print(
            f"    sample {sample.index}: {'+'.join(sample.events)}, "
            f"peak {sample.peak_temperature_c:.0f} C, "
            f"mean load {sample.mean_load:.2f}"
        )

    print("\n== risk report ==")
    report = RiskReport.from_campaign(result, strategy)
    print(report.summary())
    print("done.")


if __name__ == "__main__":
    main()
