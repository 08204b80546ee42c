"""Mission-profile Monte Carlo risk engine (substrate S22).

Three layers turn the error-effect simulator into a risk engine:

* :mod:`~repro.risk.sampler` — :class:`StressSampler` draws correlated
  environmental trajectories (temperature / vibration / EMI / load)
  from a :class:`~repro.mission.MissionProfile`, with rare black-swan
  overlays, all from one explicit seed;
* :mod:`~repro.risk.strategy` — :class:`SampledScenarioStrategy`
  bridges each drawn trajectory into the existing planner/executor/
  ladder/checkpoint stack as ordinary error scenarios, re-deriving the
  Fig. 2 rate scaling per sample;
* :mod:`~repro.risk.report` / :mod:`~repro.risk.gates` —
  :class:`RiskReport` folds the campaign into hazard probabilities
  with confidence intervals, detection-latency percentiles, VaR/CVaR
  tail metrics, and pass/fail ASIL acceptance gates through the FMEDA.
"""

from .gates import (
    AsilVerdict,
    apply_measured_coverage,
    evaluate_gates,
    fmeda_from_spec,
    measured_safe_fraction,
)
from .report import SEVERITY_LOSS, HazardEstimate, RiskReport, TailMetrics
from .sampler import (
    CHANNELS,
    DEFAULT_CORRELATION,
    DEFAULT_EVENTS,
    BlackSwanEvent,
    CorrelationError,
    CorrelationMatrix,
    SampledEnvironment,
    StressSampler,
)
from .strategy import SampledScenarioStrategy

__all__ = [
    "AsilVerdict",
    "apply_measured_coverage",
    "evaluate_gates",
    "fmeda_from_spec",
    "measured_safe_fraction",
    "SEVERITY_LOSS",
    "HazardEstimate",
    "RiskReport",
    "TailMetrics",
    "CHANNELS",
    "DEFAULT_CORRELATION",
    "DEFAULT_EVENTS",
    "BlackSwanEvent",
    "CorrelationError",
    "CorrelationMatrix",
    "SampledEnvironment",
    "StressSampler",
    "SampledScenarioStrategy",
]
