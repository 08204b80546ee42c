"""Risk metrics: folding a sampled campaign into decision numbers.

The :class:`RiskReport` is the payload a safety argument (and the
future service layer's dashboard) actually consumes:

* **hazard probability** with exact Clopper–Pearson and Wilson score
  intervals (reusing :mod:`repro.stats.estimators`) plus the
  importance-weighted point estimate that undoes special-state
  over-sampling;
* **detection-latency percentiles** per protection mechanism, from the
  campaign's folded :class:`~repro.observe.PropagationGraph` (empty
  when the campaign ran untraced);
* **VaR / CVaR tail metrics** over severity-weighted per-run losses,
  overall and per fault mechanism (descriptor) — the quantile-level
  view ROADMAP item 4 asks for: not just "how often does it fail" but
  "how bad is the tail";
* **black-swan attribution** — mean loss and hazard counts for runs
  whose sampled environment carried each rare-event overlay, against
  the nominal population;
* **ASIL acceptance gates** — measured diagnostic coverage pushed into
  an :class:`~repro.safety.Fmeda` and checked against the ISO 26262
  targets (see :mod:`repro.risk.gates`).

Determinism: the report is a pure fold over run records, digests, and
sampled environments in run-index order, and :meth:`RiskReport.canonical`
serializes only simulation-determined content (no wall-clock, attempt,
or host-dependent fields).  The same seed therefore yields a
byte-identical canonical report on serial and parallel backends, from
fresh builds or the golden-run ladder — pinned by the equivalence
tests.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t

from ..core.classification import Outcome
from ..safety import Asil
from ..stats import clopper_pearson, wilson
from .gates import AsilVerdict, evaluate_gates
from .sampler import SampledEnvironment

#: Severity weight of each run verdict on the [0, 1] loss scale VaR /
#: CVaR are computed over.  Safe handling is cheap but not free
#: (degraded service), inconclusive runs carry a prudence penalty, and
#: the dangerous verdicts dominate the tail.
SEVERITY_LOSS: _t.Dict[Outcome, float] = {
    Outcome.NO_EFFECT: 0.0,
    Outcome.MASKED: 0.05,
    Outcome.DETECTED_SAFE: 0.10,
    Outcome.TIMEOUT: 0.25,
    Outcome.TIMING_FAILURE: 0.60,
    Outcome.SDC: 0.85,
    Outcome.HAZARDOUS: 1.00,
}


def _quantile(ordered: _t.Sequence[float], q: float) -> float:
    """Deterministic linear-interpolation quantile of a sorted list."""
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclasses.dataclass(frozen=True)
class TailMetrics:
    """Value-at-risk and conditional value-at-risk at one level."""

    level: float
    var: float
    cvar: float

    @classmethod
    def of(cls, losses: _t.Sequence[float], level: float) -> "TailMetrics":
        if not 0.0 < level < 1.0:
            raise ValueError("tail level out of (0,1)")
        ordered = sorted(losses)
        var = _quantile(ordered, level)
        tail = [loss for loss in ordered if loss >= var]
        cvar = sum(tail) / len(tail) if tail else var
        return cls(level=level, var=var, cvar=cvar)

    def to_jsonable(self) -> _t.Dict[str, float]:
        return {
            "level": self.level,
            "var": round(self.var, 9),
            "cvar": round(self.cvar, 9),
        }


@dataclasses.dataclass(frozen=True)
class HazardEstimate:
    """One outcome class's probability with its interval pair."""

    count: int
    runs: int
    weighted_probability: float
    clopper_pearson_low: float
    clopper_pearson_high: float
    wilson_low: float
    wilson_high: float
    confidence: float

    @classmethod
    def of(
        cls,
        count: int,
        runs: int,
        weighted_probability: float,
        confidence: float,
    ) -> "HazardEstimate":
        exact = clopper_pearson(count, runs, confidence)
        score = wilson(count, runs, confidence)
        return cls(
            count=count,
            runs=runs,
            weighted_probability=weighted_probability,
            clopper_pearson_low=exact.low,
            clopper_pearson_high=exact.high,
            wilson_low=score.low,
            wilson_high=score.high,
            confidence=confidence,
        )

    def to_jsonable(self) -> _t.Dict[str, _t.Any]:
        return {
            "count": self.count,
            "runs": self.runs,
            "weighted_probability": round(self.weighted_probability, 12),
            "clopper_pearson": [
                round(self.clopper_pearson_low, 12),
                round(self.clopper_pearson_high, 12),
            ],
            "wilson": [
                round(self.wilson_low, 12),
                round(self.wilson_high, 12),
            ],
            "confidence": self.confidence,
        }


@dataclasses.dataclass
class RiskReport:
    """The complete risk verdict of one sampled campaign."""

    profile_name: str
    runs: int
    outcome_histogram: _t.Dict[str, int]
    hazardous: HazardEstimate
    dangerous: HazardEstimate
    detection_latency_percentiles: _t.Dict[str, _t.Dict[str, float]]
    tail: _t.List[TailMetrics]
    tail_by_mechanism: _t.Dict[str, _t.List[TailMetrics]]
    event_attribution: _t.Dict[str, _t.Dict[str, _t.Any]]
    gates: _t.List[AsilVerdict]

    @classmethod
    def from_campaign(
        cls,
        result,
        strategy,
        confidence: float = 0.95,
        tail_levels: _t.Sequence[float] = (0.95, 0.99),
        percentiles: _t.Sequence[float] = (50.0, 90.0, 99.0),
        asil_targets: _t.Sequence[Asil] = (Asil.B, Asil.C, Asil.D),
        latent_coverage: float = 0.9,
    ) -> "RiskReport":
        """Fold a finished campaign + its sampling strategy.

        *strategy* is the :class:`~repro.risk.SampledScenarioStrategy`
        the campaign ran with; its recorded environments join outcomes
        back to black-swan overlays by run index, and its sampler's
        base profile anchors the FMEDA gate rates.
        """
        if result.runs == 0:
            raise ValueError("campaign produced no runs")
        records = sorted(result.records, key=lambda r: r.index)
        samples: _t.List[SampledEnvironment] = strategy.samples

        histogram = {
            outcome.name: count
            for outcome, count in sorted(
                result.outcome_histogram().items(),
                key=lambda item: item[0].name,
            )
            if count
        }

        hazardous_count = result.count(Outcome.HAZARDOUS)
        dangerous_count = sum(
            count
            for outcome, count in result.outcome_histogram().items()
            if outcome.is_dangerous
        )
        hazardous = HazardEstimate.of(
            hazardous_count,
            result.runs,
            result.probability(Outcome.HAZARDOUS),
            confidence,
        )
        dangerous = HazardEstimate.of(
            dangerous_count,
            result.runs,
            sum(
                result.probability(outcome)
                for outcome in Outcome
                if outcome.is_dangerous
            ),
            confidence,
        )

        losses = [SEVERITY_LOSS[record.outcome] for record in records]
        tail = [TailMetrics.of(losses, level) for level in tail_levels]

        by_mechanism: _t.Dict[str, _t.List[float]] = {}
        for record in records:
            loss = SEVERITY_LOSS[record.outcome]
            for name in sorted(
                {inj.descriptor.name for inj in record.scenario.injections}
            ):
                by_mechanism.setdefault(name, []).append(loss)
        tail_by_mechanism = {
            name: [TailMetrics.of(values, level) for level in tail_levels]
            for name, values in sorted(by_mechanism.items())
        }

        attribution: _t.Dict[str, _t.Dict[str, _t.Any]] = {}
        for record in records:
            if record.index < len(samples):
                events = samples[record.index].events or ("nominal",)
            else:
                events = ("nominal",)
            loss = SEVERITY_LOSS[record.outcome]
            for event in events:
                row = attribution.setdefault(
                    event, {"runs": 0, "total_loss": 0.0, "hazardous": 0}
                )
                row["runs"] += 1
                row["total_loss"] += loss
                if record.outcome is Outcome.HAZARDOUS:
                    row["hazardous"] += 1
        event_attribution = {
            event: {
                "runs": row["runs"],
                "mean_loss": round(row["total_loss"] / row["runs"], 9),
                "hazardous": row["hazardous"],
            }
            for event, row in sorted(attribution.items())
        }

        graph = result.propagation()
        latency = graph.detection_latency_percentiles(percentiles)

        gates = evaluate_gates(
            result,
            strategy,
            asil_targets=asil_targets,
            latent_coverage=latent_coverage,
        )

        return cls(
            profile_name=strategy.sampler.profile.name,
            runs=result.runs,
            outcome_histogram=histogram,
            hazardous=hazardous,
            dangerous=dangerous,
            detection_latency_percentiles=latency,
            tail=tail,
            tail_by_mechanism=tail_by_mechanism,
            event_attribution=event_attribution,
            gates=list(gates),
        )

    # -- serialization ------------------------------------------------------

    def to_jsonable(self) -> _t.Dict[str, _t.Any]:
        return {
            "profile": self.profile_name,
            "runs": self.runs,
            "outcomes": dict(self.outcome_histogram),
            "hazardous": self.hazardous.to_jsonable(),
            "dangerous": self.dangerous.to_jsonable(),
            "detection_latency_percentiles": {
                mechanism: {k: round(v, 9) for k, v in row.items()}
                for mechanism, row in sorted(
                    self.detection_latency_percentiles.items()
                )
            },
            "tail": [t.to_jsonable() for t in self.tail],
            "tail_by_mechanism": {
                name: [t.to_jsonable() for t in metrics]
                for name, metrics in sorted(self.tail_by_mechanism.items())
            },
            "event_attribution": dict(self.event_attribution),
            "gates": [gate.to_jsonable() for gate in self.gates],
        }

    def canonical(self) -> str:
        """Byte-stable serialization of the simulation-determined
        content — the equivalence tests compare this string across
        serial, parallel, fresh-build and laddered executions."""
        return json.dumps(
            self.to_jsonable(), sort_keys=True, separators=(",", ":")
        )

    def summary(self) -> str:
        """A few human-readable verdict lines."""
        lines = [
            f"risk report: {self.profile_name} ({self.runs} runs)",
            (
                f"  hazardous: {self.hazardous.count}/{self.runs} "
                f"(CP {self.hazardous.clopper_pearson_low:.2e}"
                f"..{self.hazardous.clopper_pearson_high:.2e})"
            ),
        ]
        for metrics in self.tail:
            lines.append(
                f"  VaR{metrics.level:.0%}={metrics.var:.3f} "
                f"CVaR{metrics.level:.0%}={metrics.cvar:.3f}"
            )
        for gate in self.gates:
            verdict = "PASS" if gate.passed else "FAIL"
            lines.append(f"  ASIL-{gate.asil.name}: {verdict}")
        return "\n".join(lines)
